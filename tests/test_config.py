import configparser
import math
import re
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toca import cli, config, linalg
from toca.config import (
    _SETTINGS,
    ALPHA_BAR_FLOOR,
    MAX_STEPS,
    SCALE_LIMIT,
    ConfigError,
    RunConfig,
    canonical_items,
    default_config,
    dump_config,
    load_config,
    parse_config,
    parse_config_string,
    run_config_hash,
)
from toca.analysis import measure_error_propagation
from toca.flops import estimate_run_flops
from toca.model import FeatureMatrix
from toca.sampler import NoiseSchedule, run_generation


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


def test_default_section_keys_rejected():
    # configparser would copy them into every section, or drop them silently
    for text in (
        "[DEFAULT]\ndepth = 3\n",
        "[DEFAULT]\ndepth = 3\n[model]\nhidden = 8\nheads = 2\n",
        "[DEFAULT]\nsteps = 3\n[sampler]\nkind = ddim\n",
    ):
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            parse_config_string(text)
    assert parse_config_string("[DEFAULT]\n") == default_config()


@pytest.mark.parametrize("section,key", [("model", "time_scale"), ("sampler", "guidance")])
def test_scale_bound_inside_and_outside(section, key):
    value = attrgetter(_SETTINGS[section, key].attr)
    for inside in (SCALE_LIMIT, -SCALE_LIMIT, 0.0):
        assert value(parse_config_string(f"[{section}]\n{key} = {inside!r}\n")) == inside
    for outside in (math.nextafter(limit, 2 * limit) for limit in (SCALE_LIMIT, -SCALE_LIMIT)):
        with pytest.raises(ConfigError, match=f"{key}: expected a number in"):
            parse_config_string(f"[{section}]\n{key} = {outside!r}\n")


def test_sigma_bound_inside_and_outside():
    for inside in (SCALE_LIMIT, 0.0):
        assert parse_config_string(f"[analyze]\nsigma = {inside!r}\n").analyze_sigma == inside
    for outside in (math.nextafter(SCALE_LIMIT, math.inf), 1e160, -1.0):
        with pytest.raises(ConfigError, match="sigma: expected a number in \\[0, 1e\\+06\\]"):
            parse_config_string(f"[analyze]\nsigma = {outside!r}\n")


def _flat_beta(steps, alpha_bar_T):
    """The constant beta whose schedule of ``steps`` ends at ``alpha_bar_T``."""
    return -math.expm1(math.log(alpha_bar_T) / steps)


def test_schedule_bound_inside_and_outside():
    def sampler(steps, beta_start, beta_end=None):
        end = beta_start if beta_end is None else beta_end
        return f"[sampler]\nsteps = {steps}\nbeta_start = {beta_start!r}\nbeta_end = {end!r}\n"

    assert parse_config_string(sampler(MAX_STEPS, 1e-4, 2e-2)).steps == MAX_STEPS
    with pytest.raises(ConfigError, match=f"steps must be in \\[1, {MAX_STEPS}\\]"):
        parse_config_string(sampler(MAX_STEPS + 1, 1e-4, 2e-2))
    for steps in (1, 24, MAX_STEPS):
        inside = _flat_beta(steps, ALPHA_BAR_FLOOR * (1 + 1e-4))
        outside = _flat_beta(steps, ALPHA_BAR_FLOOR * (1 - 1e-4))
        assert parse_config_string(sampler(steps, inside)).beta_end == inside
        with pytest.raises(ConfigError, match="alpha_bar"):
            parse_config_string(sampler(steps, outside))
    # a ramp is bounded by the product of its alphas, not by its largest beta
    assert parse_config_string(sampler(MAX_STEPS, 1e-4, 0.04)).beta_end == 0.04
    with pytest.raises(ConfigError, match="alpha_bar"):
        parse_config_string(sampler(MAX_STEPS, 1e-4, 0.05))
    with pytest.raises(ConfigError, match="alpha_bar"):  # alpha_bar(T) = 1e-96
        parse_config_string(sampler(24, 0.9999))


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


def test_hash_covers_weights_contents_not_path(tmp_path):
    def weights_hash(path):
        return run_config_hash(parse_config_string(f"[model]\nweights = {path}\n"))

    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(b"first")
    first = weights_hash(a)
    a.write_bytes(b"second")
    assert weights_hash(a) != first
    b.write_bytes(b"second")
    assert weights_hash(b) == weights_hash(a)


def test_missing_weights_file_is_a_config_error(tmp_path):
    rc = parse_config_string(f"[model]\nweights = {tmp_path / 'nope.bin'}\n")
    with pytest.raises(ConfigError):
        run_config_hash(rc)


def test_hash_is_stable_format():
    h = run_config_hash(default_config())
    assert len(h) == 12
    assert all(ch in "0123456789abcdef" for ch in h)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", "513ecd96b916"),
        ("[cache]\nprofile = toca-dit\n", "b5cfb71f2f68"),
        (
            "[model]\ntext_tokens = 16\n[sampler]\nkind = ddim\nguidance = 4.0\n"
            "[cache]\nprofile = toca-pixart\n",
            "abe10b8a6470",
        ),
        (
            "[cache]\nprofile = custom\nratio = 0.4\nfixed_cycle_start = 2\n"
            "fixed_cycle_end = 8\nfixed_cycle_len = 2\ntype_mode = flops-share\n"
            "cfg_coupled = false\n"
            "[analyze]\nlayer = 1\nkind = mlp\nmode = relative\nnormalize = true\n",
            "b8463b8df4b9",
        ),
    ],
    ids=["default", "toca-dit", "pixart-guided", "custom-window"],
)
def test_golden_hashes(text, expected):
    # provenance ids already stamped on artifacts must keep resolving
    assert run_config_hash(parse_config_string(text)) == expected


def _ini_keys(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return [(section, key) for section in parser.sections() for key in parser.options(section)]


def _render(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )


def test_every_key_reaches_the_hash(tmp_path):
    weights = tmp_path / "w.bin"
    weights.write_bytes(b"weights")
    # an active schedule with a fixed window, so every cache field matters
    base = {
        "cache": {
            "profile": "custom", "ratio": "0.5",
            "fixed_cycle_start": "2", "fixed_cycle_end": "8", "fixed_cycle_len": "2",
        }
    }
    changed = {
        ("model", "depth"): "3", ("model", "hidden"): "64", ("model", "heads"): "8",
        ("model", "grid_h"): "4", ("model", "grid_w"): "4", ("model", "text_tokens"): "3",
        ("model", "time_scale"): "0.5", ("model", "init_seed"): "1",
        ("model", "weights"): weights.as_posix(),
        ("sampler", "steps"): "10", ("sampler", "kind"): "ddim",
        ("sampler", "guidance"): "2.0", ("sampler", "seed"): "1",
        ("sampler", "beta_start"): "0.001", ("sampler", "beta_end"): "0.05",
        ("cache", "profile"): "toca-dit", ("cache", "ratio"): "0.25", ("cache", "cycle"): "2",
        ("cache", "lam1"): "0.5", ("cache", "lam2"): "0.5", ("cache", "lam3"): "0.5",
        ("cache", "lam4"): "0.5", ("cache", "lam_depth"): "0.1", ("cache", "lam_time"): "0.1",
        ("cache", "lam_type"): "1.0", ("cache", "cycle_slope"): "0.2",
        ("cache", "grid_size"): "2", ("cache", "center"): "1.5",
        ("cache", "cfg_coupled"): "false", ("cache", "type_mode"): "flops-share",
        ("cache", "fixed_cycle_start"): "3", ("cache", "fixed_cycle_end"): "9",
        ("cache", "fixed_cycle_len"): "3",
        ("analyze", "layer"): "1", ("analyze", "kind"): "mlp", ("analyze", "token"): "1",
        ("analyze", "sigma"): "1.0", ("analyze", "mode"): "relative",
        ("analyze", "normalize"): "true",
        ("output", "dir"): "elsewhere",
    }
    keys = _ini_keys(dump_config(default_config()))
    assert sorted(keys) == sorted(changed)  # a new key needs a value here
    base_hash = run_config_hash(parse_config_string(_render(base)))
    for (section, key), value in changed.items():
        sections = {name: dict(entries) for name, entries in base.items()}
        sections.setdefault(section, {})[key] = value
        h = run_config_hash(parse_config_string(_render(sections)))
        if (section, key) == ("output", "dir"):
            assert h == base_hash
        else:
            assert h != base_hash, f"[{section}] {key} does not reach the hash"


@dataclass
class _ConfigWithKnob(RunConfig):
    knob: float = 0.5


@pytest.mark.parametrize("profile", ["off", "toca-dit"])
def test_a_key_that_names_its_default_moves_the_hash_only_off_it(monkeypatch, profile):
    text = f"[cache]\nprofile = {profile}\n"
    plain = run_config_hash(parse_config_string(text))
    monkeypatch.setattr(config, "default_config", _ConfigWithKnob)
    knob = config._Setting("knob", float, "a number", default=0.5)
    monkeypatch.setitem(_SETTINGS, ("sampler", "knob"), knob)
    at_default = parse_config_string(text + "[sampler]\nknob = 0.5\n")
    assert run_config_hash(parse_config_string(text)) == run_config_hash(at_default) == plain
    off = parse_config_string(text + "[sampler]\nknob = 0.25\n")
    assert run_config_hash(off) != plain
    # the dump still writes the key, and parses back to the same config
    assert "knob = 0.5" in dump_config(at_default)
    assert parse_config_string(dump_config(off)) == off


def test_readme_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"full\s+set\s+of\s+keys\s+and\s+their\s+defaults:\s*```ini\n(.*?)```",
                      readme, re.S)
    assert block is not None
    text = re.sub(r"\s+#.*$", "", block.group(1), flags=re.M)
    assert parse_config_string(text) == default_config()
    assert _ini_keys(text) == _ini_keys(dump_config(default_config()))


# -- fuzz: every config either fails to load or runs to a finite sample --------

_FUZZ_KEYS = [k for k in _SETTINGS if k != ("model", "weights")]  # no files to read
_FUZZ_CHOICES = {
    ("sampler", "kind"): ["ddpm", "ddim"],
    ("cache", "profile"): ["off", "naive-full", "toca-dit", "toca-pixart", "custom"],
    ("cache", "type_mode"): ["uniform", "flops-share", "lambda-type"],
    ("cache", "cfg_coupled"): ["true", "false"],
    ("analyze", "kind"): ["self_attn", "cross_attn", "mlp", "final"],
    ("analyze", "mode"): ["absolute", "relative"],
    ("analyze", "normalize"): ["true", "false"],
    ("sampler", "guidance"): ["none", "0", "1.5", "-2", "1e6", "-1e6"],
    ("output", "dir"): ["out"],
    ("cache", "cycle"): ["1", "2", "3", "10000000000"],  # and one far past the run's end
}
_FUZZ_BY_TYPE = {  # keyed by the type of the key's default
    int: ["0", "1", "2", "3"],
    float: ["0", "0.25", "0.5", "0.93", "1", "2.5", "1e6", "-1e6"],
    type(None): ["none", "0", "1", "2", "3"],  # the fixed cycle window
}
_FUZZ_CHOICES[("cache", "center")] = _FUZZ_BY_TYPE[float] + ["1e-300", "1e308"]
_FUZZ_CHOICES[("analyze", "sigma")] = _FUZZ_BY_TYPE[float] + ["1e300"]
_FUZZ_JUNK = [
    "-1", "0.0001", "0.9999", "1000000.0000000001", "1e300", "nan", "inf", "-inf", "", "x",
]


def _fuzz_pool(key):
    if key in _FUZZ_CHOICES:
        return _FUZZ_CHOICES[key]
    return _FUZZ_BY_TYPE[type(attrgetter(_SETTINGS[key].attr)(default_config()))]


@st.composite
def _fuzz_line(draw):
    if draw(st.integers(0, 24)) == 0:  # a section or key the parser must refuse
        section = draw(st.sampled_from(["DEFAULT", "extra", "model", "cache"]))
        return (section, draw(st.sampled_from(["bogus", "depth", "ratio"]))), "1"
    key = draw(st.sampled_from(_FUZZ_KEYS))
    if draw(st.integers(0, 14)) == 0:
        return key, draw(st.sampled_from(_FUZZ_JUNK))
    return key, draw(st.sampled_from(_fuzz_pool(key)))


# small shapes and few steps keep each run to milliseconds; fuzzed lines override them
_FUZZ_BASE = {
    ("model", "depth"): "2", ("model", "hidden"): "4", ("model", "heads"): "2",
    ("model", "grid_h"): "3", ("model", "grid_w"): "3", ("sampler", "steps"): "3",
}


@st.composite
def _fuzz_config(draw) -> str:
    lines = {
        **_FUZZ_BASE,
        ("cache", "profile"): draw(st.sampled_from(_FUZZ_CHOICES[("cache", "profile")])),
        ("sampler", "guidance"): draw(st.sampled_from(_FUZZ_CHOICES[("sampler", "guidance")])),
        **dict(draw(st.lists(_fuzz_line(), max_size=8))),
    }
    sections: dict[str, list[str]] = {}
    for (section, key), value in lines.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(body) + "\n" for s, body in sections.items())


_SMALL_RUN = "[model]\ndepth = 2\nhidden = 8\nheads = 2\n[sampler]\nsteps = 3\n"


@settings(max_examples=150, deadline=None)
@given(st.one_of(_fuzz_config(), _fuzz_config(), _fuzz_config(), st.text(max_size=60)))
# a cycle past the run's end: cycle / center overflowed, in sampling and pricing alike
@example("[cache]\nprofile = toca-dit\ncycle_slope = 0\ncenter = 1e-300\ncycle = 10000000000\n")
@example("[cache]\nprofile = off\ncenter = 1e-300\ncycle = 10000000000\n")
# center * steps overflowed, and the cycle has no float value
@example(_SMALL_RUN + f"[cache]\nprofile = naive-full\ncenter = 1e308\ncycle = {10**400}\n")
# the perturbed row's squares overflowed, and the errors read nan
@example(_SMALL_RUN + "[analyze]\nsigma = 1e160\n")
def test_fuzz_config_loads_or_runs_finite(text):
    try:
        rc = parse_config_string(text)
    except ConfigError:
        return
    # the bench flops command's path
    m = rc.model
    report = estimate_run_flops(
        m.depth, m.hidden, m.heads, m.n_tokens, m.text_tokens, rc.steps,
        rc.guidance is not None, rc.cache,
    )
    assert math.isfinite(report.cached_flops) and report.speedup > 0
    # the sample command's path
    model, cond = cli._build_model(rc), cli._conditioning(rc)
    ns = NoiseSchedule.linear(rc.steps, rc.beta_start, rc.beta_end)
    x0, _ = run_generation(
        model, cond, ns, cache_schedule=rc.cache, seed=rc.seed,
        sampler=rc.sampler, guidance=rc.guidance,
    )
    assert np.all(np.isfinite(x0.values.astype(np.float32)))  # storable in x0.bin
    # the analyze propagation command's path
    x = linalg.gaussian((m.n_tokens, m.hidden), 1.0, np.random.SeedSequence((rc.seed, 0)))
    profile = measure_error_propagation(
        model, FeatureMatrix(x, m.grid), float(rc.steps), cond,
        rc.analyze_layer, rc.analyze_kind, rc.analyze_token, rc.analyze_sigma,
        seed=rc.seed, relative=(rc.analyze_mode == "relative"), normalize=rc.analyze_normalize,
    )
    assert math.isfinite(profile.sigma) and np.all(np.isfinite(profile.errors))
