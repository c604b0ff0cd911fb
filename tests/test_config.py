import pytest

from toca.config import (
    ConfigError,
    canonical_items,
    default_config,
    dump_config,
    load_config,
    parse_config,
    parse_config_string,
    run_config_hash,
)


def test_defaults_stand_alone():
    rc = parse_config_string("")
    assert rc == default_config()
    assert rc.model.depth == 4 and rc.model.hidden == 32
    assert rc.steps == 20 and rc.sampler == "ddpm"
    assert rc.cache.is_noop


def test_profile_fills_dit_defaults():
    rc = parse_config_string("[cache]\nprofile = toca-dit\n")
    c = rc.cache
    assert c.cycle == 3
    assert c.ratio == 0.93
    assert c.lam_depth == 0.06
    assert c.lam_time == 0.03
    assert c.lam3 == 0.25
    assert c.grid_size == 2
    assert c.cycle_slope == 0.4
    assert c.lam_type == 2.5
    assert c.type_mode == "lambda-type"


def test_profile_with_field_override():
    rc = parse_config_string("[cache]\nprofile = toca-dit\nratio = 0.5\n")
    assert rc.cache.ratio == 0.5
    assert rc.cache.cycle == 3  # untouched profile default


def test_out_of_range_ratio_rejected():
    with pytest.raises(ConfigError):
        parse_config_string("[cache]\nprofile = custom\nratio = 1.5\n")


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_string("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config_string("[model]\nwidth = 3\n")


def test_malformed_values_rejected():
    with pytest.raises(ConfigError):
        parse_config_string("[model]\ndepth = banana\n")
    with pytest.raises(ConfigError):
        parse_config_string("[sampler]\nkind = euler\n")
    with pytest.raises(ConfigError):
        parse_config_string("[sampler]\nsteps = 0\n")
    with pytest.raises(ConfigError):
        parse_config_string("[cache]\ntype_mode = sideways\n")
    for text in ("[model]\ntime_scale = inf\n", "[cache]\nlam2 = inf\n"):
        with pytest.raises(ConfigError, match="finite"):
            parse_config_string(text)


def test_model_section_validated():
    with pytest.raises(ConfigError):
        parse_config_string("[model]\nhidden = 30\nheads = 4\n")


def test_analyze_site_validation():
    with pytest.raises(ConfigError):
        parse_config_string("[analyze]\nlayer = 9\n")
    with pytest.raises(ConfigError):
        parse_config_string("[analyze]\nkind = cross_attn\n")  # class-conditional model
    with pytest.raises(ConfigError):
        parse_config_string("[analyze]\ntoken = 64\n")
    rc = parse_config_string("[model]\ntext_tokens = 3\n\n[analyze]\nkind = cross_attn\n")
    assert rc.analyze_kind == "cross_attn"


def test_guidance_none_and_value():
    assert parse_config_string("[sampler]\nguidance = none\n").guidance is None
    assert parse_config_string("[sampler]\nguidance = 1.5\n").guidance == 1.5


def test_roundtrip_identity():
    text = """
[model]
depth = 3
hidden = 16
heads = 4
grid_h = 4
grid_w = 4
text_tokens = 5

[sampler]
steps = 12
kind = ddim
guidance = 2.0
seed = 41

[cache]
profile = toca-pixart
ratio = 0.6

[output]
dir = results
"""
    rc = parse_config_string(text)
    assert parse_config_string(dump_config(rc)) == rc
    # and a second bounce is stable too
    assert parse_config_string(dump_config(parse_config_string(dump_config(rc)))) == rc


def test_config_file_loading(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[sampler]\nseed = 77\n")
    assert parse_config(path.as_posix()).seed == 77
    with pytest.raises(ConfigError):
        parse_config((tmp_path / "missing.ini").as_posix())


def test_env_seed_override(tmp_path, monkeypatch):
    path = tmp_path / "run.ini"
    path.write_text("[sampler]\nseed = 1\n")
    monkeypatch.setenv("TOCA_SEED", "55")
    assert load_config(path.as_posix()).seed == 55
    # an explicit argument beats the environment
    assert load_config(path.as_posix(), seed=9).seed == 9
    monkeypatch.setenv("TOCA_SEED", "oops")
    with pytest.raises(ConfigError):
        load_config(path.as_posix())


def test_profile_argument_overrides_config():
    rc = load_config(None, profile="naive-full")
    assert rc.profile == "naive-full"
    assert rc.cache.ratio == 1.0
    with pytest.raises(ConfigError):
        load_config(None, profile="warp-drive")


def test_noop_schedules_hash_like_off():
    off = parse_config_string("[cache]\nprofile = off\n")
    spelled = parse_config_string(
        "[cache]\nprofile = custom\nratio = 0.0\ncycle = 5\nlam3 = 0.7\n"
    )
    assert run_config_hash(off) == run_config_hash(spelled)
    active = parse_config_string("[cache]\nprofile = custom\nratio = 0.1\n")
    assert run_config_hash(active) != run_config_hash(off)


def test_hash_ignores_output_dir_only():
    a = parse_config_string("[output]\ndir = here\n")
    b = parse_config_string("[output]\ndir = there\n")
    assert run_config_hash(a) == run_config_hash(b)
    c = parse_config_string("[sampler]\nseed = 1\n")
    assert run_config_hash(a) != run_config_hash(c)
    assert "output.dir" not in canonical_items(a)


def test_hash_is_stable_format():
    h = run_config_hash(default_config())
    assert len(h) == 12
    assert all(ch in "0123456789abcdef" for ch in h)
