"""End-to-end tests that drive the command line in-process."""

import json

import pytest

from toca import cli


def _read(path):
    return path.read_bytes()


def _write_cfg(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path.as_posix()


SMALL = """
[model]
depth = 2
hidden = 8
heads = 2
grid_h = 4
grid_w = 4

[sampler]
steps = 6
seed = 3
"""


def test_sample_writes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    rc = cli.main(["sample", "-c", cfg, "--out", out.as_posix()])
    assert rc == 0
    for name in ("x0.bin", "stats.json", "dispatch.csv", "cache_map.pgm"):
        assert (out / name).exists(), name
    stats = json.loads((out / "stats.json").read_text())
    assert stats["total_steps"] == 6
    assert stats["fresh_steps"] == list(range(6))
    assert stats["cached_tokens"] == 0
    first = (out / "dispatch.csv").read_text().splitlines()[0]
    assert first.startswith("# config ")


def test_sample_deterministic_bytes(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL + "\n[cache]\nprofile = naive-full\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sample", "-c", cfg, "--out", out_a.as_posix()]) == 0
    assert cli.main(["sample", "-c", cfg, "--out", out_b.as_posix()]) == 0
    for name in ("x0.bin", "stats.json", "dispatch.csv", "cache_map.pgm"):
        assert _read(out_a / name) == _read(out_b / name), name


def test_off_profile_matches_zero_ratio(tmp_path):
    cfg_off = _write_cfg(tmp_path, SMALL + "\n[cache]\nprofile = off\n", "off.ini")
    cfg_zero = _write_cfg(
        tmp_path,
        SMALL + "\n[cache]\nprofile = custom\nratio = 0.0\ncycle = 4\nlam3 = 0.5\n",
        "zero.ini",
    )
    out_off, out_zero = tmp_path / "off", tmp_path / "zero"
    assert cli.main(["sample", "-c", cfg_off, "--out", out_off.as_posix()]) == 0
    assert cli.main(["sample", "-c", cfg_zero, "--out", out_zero.as_posix()]) == 0
    for name in ("x0.bin", "stats.json", "dispatch.csv", "cache_map.pgm"):
        assert _read(out_off / name) == _read(out_zero / name), name


def test_cached_sample_reports_activity(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL + "\n[cache]\nprofile = naive-full\n")
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["cached_tokens"] > 0
    assert stats["fresh_steps"] == [0, 3]


def test_seed_flag_beats_environment(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, SMALL)
    monkeypatch.setenv("TOCA_SEED", "1234")
    out_env = tmp_path / "env"
    out_flag = tmp_path / "flag"
    out_base = tmp_path / "base"
    assert cli.main(["sample", "-c", cfg, "--out", out_env.as_posix()]) == 0
    assert cli.main(["sample", "-c", cfg, "--seed", "3", "--out", out_flag.as_posix()]) == 0
    monkeypatch.delenv("TOCA_SEED")
    assert cli.main(["sample", "-c", cfg, "--out", out_base.as_posix()]) == 0
    # seed 3 is the config seed, so the flag run reproduces the base run
    assert _read(out_flag / "x0.bin") == _read(out_base / "x0.bin")
    assert _read(out_env / "x0.bin") != _read(out_base / "x0.bin")


def test_analyze_redundancy(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(["analyze", "redundancy", "-c", cfg, "--out", out.as_posix()]) == 0
    payload = json.loads((out / "redundancy.json").read_text())
    assert payload["steps"] == 6
    assert payload["tokens"] == 16
    assert len(payload["per_layer_mean"]) == 2
    rows = (out / "redundancy.csv").read_text().splitlines()
    assert rows[1] == "layer,step,token,distance"
    assert len(rows) == 2 + 2 * 5 * 16


def test_analyze_propagation(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL + "\n[analyze]\nlayer = 1\nkind = mlp\ntoken = 5\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", "propagation", "-c", cfg, "--out", out.as_posix()]) == 0
    payload = json.loads((out / "propagation.json").read_text())
    assert payload["layer"] == 1 and payload["kind"] == "mlp" and payload["token"] == 5
    assert payload["error_quantiles"]["q100"] >= 0.0
    assert 0 <= payload["max_error_token"] < 16


def test_propagation_zero_sigma_is_silent(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL + "\n[analyze]\nsigma = 0.0\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", "propagation", "-c", cfg, "--out", out.as_posix()]) == 0
    rows = (out / "propagation.csv").read_text().splitlines()[2:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_bench_flops(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL + "\n[cache]\nprofile = toca-dit\n")
    out = tmp_path / "out"
    assert cli.main(["bench", "flops", "-c", cfg, "--out", out.as_posix()]) == 0
    payload = json.loads((out / "flops.json").read_text())
    assert payload["speedup"] > 1.0
    assert payload["baseline_flops"] > payload["cached_flops"]
    assert all(payload["closed_form_check"].values())
    text = capsys.readouterr().out
    assert "speedup" in text


def test_report_summarises_directory(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 0
    capsys.readouterr()
    assert cli.main(["report", "-c", cfg, "--out", out.as_posix()]) == 0
    text = capsys.readouterr().out
    assert "stats.json" in text
    assert "config " in text


def test_report_empty_directory_fails(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL)
    out = tmp_path / "empty"
    out.mkdir()
    assert cli.main(["report", "-c", cfg, "--out", out.as_posix()]) == 1


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "[cache]\nratio = 2.0\nprofile = custom\n")
    assert cli.main(["sample", "-c", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


NON_FINITE = {
    "guidance": SMALL.replace("seed = 3\n", "seed = 3\nguidance = nan\n"),
    "center": SMALL + "\n[cache]\nprofile = toca-dit\ncenter = nan\n",
    "lam1": SMALL + "\n[cache]\nprofile = toca-dit\nlam1 = nan\n",
}


@pytest.mark.parametrize("key", sorted(NON_FINITE))
def test_non_finite_number_exits_two(tmp_path, capsys, key):
    # parsing must catch these: at run time a NaN guidance gives a NaN x0.bin,
    # a NaN center fails mid-run and a NaN lam1 scrambles the token selection
    cfg = _write_cfg(tmp_path, NON_FINITE[key])
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 2
    assert f"{key}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_two(tmp_path):
    assert cli.main(["sample", "-c", (tmp_path / "nope.ini").as_posix()]) == 2


def test_profile_flag_switches_schedule(tmp_path):
    cfg = _write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(
        ["sample", "-c", cfg, "--profile", "naive-full", "--out", out.as_posix()]
    ) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["fresh_steps"] == [0, 3]


def test_feature_grid_roundtrips(tmp_path):
    from toca.artifacts import read_feature_grid

    cfg = _write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 0
    grid, cfg_hash = read_feature_grid((out / "x0.bin").as_posix())
    assert grid.values.shape == (16, 8)
    assert len(cfg_hash) == 12
    stats = json.loads((out / "stats.json").read_text())
    assert stats["config_hash"] == cfg_hash


GUIDED = """
[model]
depth = 2
hidden = 8
heads = 2
grid_h = 4
grid_w = 4

[sampler]
steps = 6
seed = 3
guidance = 1.5

[cache]
profile = naive-full
"""


def test_guided_sample_runs(tmp_path):
    cfg = _write_cfg(tmp_path, GUIDED)
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["cached_tokens"] > 0
