"""End-to-end tests that drive the command line in-process."""

import hashlib
import json
import math

import numpy as np
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


def test_redundancy_one_step_exits_two(tmp_path, capsys):
    # this used to write a header-only redundancy.csv, then exit 1 with an
    # IndexError from the quantiles of an empty distance array
    cfg = _write_cfg(tmp_path, SMALL.replace("steps = 6", "steps = 1"))
    out = tmp_path / "out"
    assert cli.main(["analyze", "redundancy", "-c", cfg, "--out", out.as_posix()]) == 2
    assert "steps >= 2" in capsys.readouterr().err
    assert not out.exists()


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


def test_propagation_sigma_beyond_bound_exits_two(tmp_path, capsys):
    # this ran to the end and then failed the JSON write on nan errors (exit 1)
    cfg = _write_cfg(tmp_path, SMALL + "\n[analyze]\nsigma = 1e160\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", "propagation", "-c", cfg, "--out", out.as_posix()]) == 2
    assert "sigma: expected a number in [0, 1e+06]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["absolute", "relative"])
def test_propagation_at_sigma_bound_is_finite(tmp_path, mode):
    body = SMALL.replace("grid_w = 4\n", "grid_w = 4\ntime_scale = 1e6\n")
    cfg = _write_cfg(tmp_path, body + f"\n[analyze]\nsigma = 1e6\nmode = {mode}\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", "propagation", "-c", cfg, "--out", out.as_posix()]) == 0
    payload = json.loads((out / "propagation.json").read_text())
    assert all(math.isfinite(q) for q in payload["error_quantiles"].values())


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


NEGATIVE_SEED = {
    "sampler-seed": (SMALL.replace("seed = 3", "seed = -1"), {}, []),
    "init-seed": (SMALL.replace("grid_w = 4\n", "grid_w = 4\ninit_seed = -1\n"), {}, []),
    "env": (SMALL, {"TOCA_SEED": "-3"}, []),
    "flag": (SMALL, {}, ["--seed", "-2"]),
}


@pytest.mark.parametrize("path", sorted(NEGATIVE_SEED))
def test_negative_seed_exits_two(tmp_path, capsys, monkeypatch, path):
    # each of these used to fail mid-run with exit 1 in the seed sequence
    body, env, flags = NEGATIVE_SEED[path]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cfg = _write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, *flags, "--out", out.as_posix()]) == 2
    assert "non-negative integer" in capsys.readouterr().err
    assert not out.exists()


BEYOND_BOUND = {
    "guidance": SMALL.replace("seed = 3\n", "seed = 3\nguidance = 1e300\n"),
    "time_scale": SMALL.replace("grid_w = 4\n", "grid_w = 4\ntime_scale = 1e300\n"),
}


@pytest.mark.parametrize("key", sorted(BEYOND_BOUND))
def test_scale_beyond_bound_exits_two(tmp_path, capsys, key):
    # these used to run to the end and then fail the float32 x0.bin write (exit 1)
    cfg = _write_cfg(tmp_path, BEYOND_BOUND[key])
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 2
    assert f"{key}: expected a number in [-1e+06, 1e+06]" in capsys.readouterr().err
    assert not out.exists()


def test_sample_at_scale_bound_is_finite(tmp_path):
    from toca.artifacts import read_feature_grid

    body = SMALL.replace("grid_w = 4\n", "grid_w = 4\ntime_scale = -1e6\n")
    cfg = _write_cfg(tmp_path, body.replace("seed = 3\n", "seed = 3\nguidance = 1e6\n"))
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 0
    assert np.all(np.isfinite(read_feature_grid((out / "x0.bin").as_posix())[0].values))


@pytest.mark.parametrize("sampler", ["ddpm", "ddim"])
def test_sample_at_schedule_bound_is_finite(tmp_path, sampler):
    """The worst accepted schedule: the longest run, at the alpha_bar(T) floor, flat betas."""
    from toca.artifacts import read_feature_grid
    from toca.config import ALPHA_BAR_FLOOR, MAX_STEPS

    beta = -math.expm1(math.log(ALPHA_BAR_FLOOR * (1 + 1e-4)) / MAX_STEPS)
    schedule = f"steps = {MAX_STEPS}\nkind = {sampler}\n"
    schedule += f"beta_start = {beta!r}\nbeta_end = {beta!r}\n"
    body = SMALL.replace("grid_w = 4\n", "grid_w = 4\ntime_scale = 1e6\n")
    body = body.replace("steps = 6\nseed = 3\n", schedule + "seed = 3\nguidance = -1e6\n")
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", _write_cfg(tmp_path, body), "--out", out.as_posix()]) == 0
    assert np.all(np.isfinite(read_feature_grid((out / "x0.bin").as_posix())[0].values))


def test_schedule_outside_the_bound_exits_two(tmp_path, capsys):
    # betas near 1 divide by sqrt(alpha) = 0.01 at every DDPM step; this used
    # to run to the end and exit 1 at the float32 x0.bin write
    betas = "steps = 24\nbeta_start = 0.9999\nbeta_end = 0.9999\n"
    out = tmp_path / "out"
    for sampler in ("ddpm", "ddim"):
        cfg = _write_cfg(tmp_path, SMALL.replace("steps = 6\n", f"{betas}kind = {sampler}\n"))
        assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 2
        assert "alpha_bar" in capsys.readouterr().err
    assert not out.exists()


def test_sample_outside_float32_range_exits_one(tmp_path, capsys):
    # a weights file can still scale x0 past float32: a head of 1e30 * I
    # leaves x0 finite in float64 but overflows to inf in the float32 x0.bin
    from toca.model import ModelConfig, init_model, save_weights

    model = init_model(ModelConfig(2, 8, 2, 4, 4), seed=0, zero_init=True)
    model.out_proj *= 1e30
    save_weights(model, tmp_path / "w.bin")
    body = SMALL.replace("grid_w = 4\n", f"grid_w = 4\nweights = {tmp_path / 'w.bin'}\n")
    cfg = _write_cfg(tmp_path, body.replace("steps = 6\n", "steps = 2\n"))
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 1
    assert "not finite in float32" in capsys.readouterr().err
    assert not out.exists()  # no x0.bin and no temp file


def test_write_feature_grid_rejects_float32_overflow(tmp_path):
    from toca.artifacts import write_feature_grid
    from toca.model import FeatureMatrix

    path = tmp_path / "x0.bin"
    for bad in (1e300, -4e38, np.nan):
        values = np.zeros((4, 2))
        values[3, 1] = bad
        with pytest.raises(ValueError, match="not finite in float32"):
            write_feature_grid(path.as_posix(), FeatureMatrix(values, (2, 2)), "0" * 12)
    assert not any(tmp_path.iterdir())
    values[3, 1] = 3.4e38  # just inside float32's range
    write_feature_grid(path.as_posix(), FeatureMatrix(values, (2, 2)), "0" * 12)
    assert [p.name for p in tmp_path.iterdir()] == ["x0.bin"]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "command", [["sample"], ["analyze", "redundancy"], ["analyze", "propagation"]],
    ids=["sample", "redundancy", "propagation"],
)
def test_non_finite_weights_exit_two(tmp_path, capsys, command, bad):
    # these used to run: sample exited 1 at the x0.bin write, and both
    # analyses exited 0 with NaN quantiles in their JSON
    from toca.model import ModelConfig, init_model, save_weights

    model = init_model(ModelConfig(2, 8, 2, 4, 4), seed=0)
    model.groups[1].mlp.w1[3, 5] = bad
    save_weights(model, tmp_path / "w.bin")
    body = SMALL.replace("grid_w = 4\n", f"grid_w = 4\nweights = {tmp_path / 'w.bin'}\n")
    out = tmp_path / "out"
    assert cli.main([*command, "-c", _write_cfg(tmp_path, body), "--out", out.as_posix()]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_weights_payload_too_small_exits_two(tmp_path, capsys):
    # the header's 2 x 512 model used to be allocated before the 4-byte
    # payload was found short
    weights = tmp_path / "w.bin"
    weights.write_bytes(b"TOCA-W1 2 512 1 1 1 0\n" + b"\x00" * 4)
    body = SMALL.replace("grid_w = 4\n", f"grid_w = 4\nweights = {weights}\n")
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", _write_cfg(tmp_path, body), "--out", out.as_posix()]) == 2
    assert "weights file truncated" in capsys.readouterr().err
    assert not (out / "x0.bin").exists()


@pytest.mark.parametrize("command", [["sample"], ["bench", "flops"]], ids=["sample", "flops"])
@pytest.mark.parametrize("profile", ["toca-dit", "off", "naive-full"])
@pytest.mark.parametrize(
    "cycle",
    [
        "cycle = 10000000000\ncenter = 1e-300\n",
        f"cycle = {10**400}\n",
        f"cycle = {10**400}\ncenter = 1e308\n",
    ],
    ids=["huge-quotient", "huge-cycle", "huge-product"],
)
def test_cycle_past_the_run_runs(tmp_path, command, profile, cycle):
    # these exited 1 with an OverflowError from cycle_plan; in the last,
    # center * steps overflowed too
    body = SMALL + f"\n[cache]\nprofile = {profile}\ncycle_slope = 0\n{cycle}"
    out = tmp_path / "out"
    assert cli.main([*command, "-c", _write_cfg(tmp_path, body), "--out", out.as_posix()]) == 0


def test_write_json_rejects_non_finite_values(tmp_path):
    from toca.artifacts import write_json

    path = (tmp_path / "stats.json").as_posix()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            write_json(path, {"config_hash": "0" * 12, "values": [1.0, bad]})
    assert not any(tmp_path.iterdir())  # no file and no temp file
    write_json(path, {"config_hash": "0" * 12, "values": [1.0, 2.0]})
    assert [p.name for p in tmp_path.iterdir()] == ["stats.json"]


def test_oversized_grid_size_exits_two(tmp_path, capsys):
    # the boost cell must fit the grid; this used to fail mid-run with exit 1
    cfg = _write_cfg(tmp_path, SMALL + "\n[cache]\nprofile = toca-dit\ngrid_size = 5\n")
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 2
    assert "grid_size 5 exceeds the 4x4 grid" in capsys.readouterr().err
    assert not out.exists()


def test_profile_flag_with_oversized_grid_size_exits_two(tmp_path, capsys):
    narrow = SMALL.replace("grid_h = 4\ngrid_w = 4", "grid_h = 3\ngrid_w = 1")
    cfg = _write_cfg(tmp_path, narrow)
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", cfg, "--profile", "toca-pixart", "--out", out.as_posix()]) == 2
    assert "grid_size 2 exceeds the 3x1 grid" in capsys.readouterr().err
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


def test_weights_file_with_time_scale(tmp_path):
    from toca.artifacts import read_feature_grid
    from toca.model import ModelConfig, init_model, save_weights

    weights = tmp_path / "w.bin"
    save_weights(init_model(ModelConfig(2, 8, 2, 4, 4), seed=4), weights)
    x0 = {}
    for scale in ("0.5", "1.0"):
        model_keys = f"grid_w = 4\ntime_scale = {scale}\nweights = {weights}\n"
        body = SMALL.replace("grid_w = 4\n", model_keys)
        cfg = _write_cfg(tmp_path, body, f"run{scale}.ini")
        out = tmp_path / scale
        assert cli.main(["sample", "-c", cfg, "--out", out.as_posix()]) == 0
        x0[scale] = read_feature_grid((out / "x0.bin").as_posix())[0].values
        assert np.all(np.isfinite(x0[scale]))
    assert not np.array_equal(x0["0.5"], x0["1.0"])


# sha256 of the dispatch log and the summary of two small runs: any change in
# the order, values or format of either file fails here
PINNED_ARTIFACTS = {
    "guided text toca-pixart, ddim": (
        SMALL.replace("grid_w = 4\n", "grid_w = 4\ntext_tokens = 3\n")
        + "kind = ddim\nguidance = 3.0\n\n[cache]\nprofile = toca-pixart\n",
        {
            "dispatch.csv": "0902a73225d1587a370aa2b352f6a1bde9f2b610ba2517f17c521b59bb46247e",
            "stats.json": "c32e331b7b2939f30dafebbefe23da9fd9c3c755c663b26c5e1898c97cda3032",
        },
    ),
    "class toca-dit, ddpm": (
        SMALL + "kind = ddpm\n\n[cache]\nprofile = toca-dit\n",
        {
            "dispatch.csv": "f5a0681069e78c103278e200681d2fb1362e05bc2059450bb827b006a3487ee7",
            "stats.json": "86c63489dd0e75688075380985c4f8073bad8a1272cea7334ee104e7086a0411",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_sample_log_bytes_are_pinned(tmp_path, name):
    body, want = PINNED_ARTIFACTS[name]
    out = tmp_path / "out"
    assert cli.main(["sample", "-c", _write_cfg(tmp_path, body), "--out", out.as_posix()]) == 0
    got = {f: hashlib.sha256(_read(out / f)).hexdigest() for f in want}
    assert got == want
