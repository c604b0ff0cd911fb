"""Run configuration: INI files with strict, whitelisted sections.

A config names a model, a sampling run, a caching profile with optional
per-field overrides, analysis settings, and an output directory. Parsing is
strict: unknown sections or keys are rejected, values are validated before
anything runs, and the effective settings hash to a 12-hex provenance id
stamped on every artifact. The hash covers everything except the output
directory, including the sha256 of a weights file's contents (not its path),
and a schedule that cannot cache (ratio 0) hashes identically to the
caching-off profile, however it was spelled.

The TOCA_SEED environment variable overrides the config seed; an explicit
--seed on the command line beats both.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, fields, replace

from .artifacts import config_hash
from .cache import PROFILES, TYPE_MODES, CacheSchedule
from .model import KIND_CROSS, KIND_FINAL, KIND_MLP, KIND_SELF, ModelConfig
from .sampler import SAMPLERS


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


PROFILE_NAMES = ("off", "naive-full", "toca-dit", "toca-pixart", "custom")
_ANALYZE_KINDS = (KIND_SELF, KIND_CROSS, KIND_MLP, KIND_FINAL)
_ANALYZE_MODES = ("absolute", "relative")

_SECTION_KEYS = {
    "model": {
        "depth", "hidden", "heads", "grid_h", "grid_w", "text_tokens",
        "time_scale", "init_seed", "weights",
    },
    "sampler": {"steps", "kind", "guidance", "seed", "beta_start", "beta_end"},
    "cache": {
        "profile", "ratio", "cycle", "lam1", "lam2", "lam3", "lam4",
        "lam_depth", "lam_time", "lam_type", "cycle_slope", "grid_size",
        "center", "cfg_coupled", "type_mode",
        "fixed_cycle_start", "fixed_cycle_end", "fixed_cycle_len",
    },
    "analyze": {"layer", "kind", "token", "sigma", "mode", "normalize"},
    "output": {"dir"},
}

_CACHE_FLOAT_KEYS = (
    "ratio", "lam1", "lam2", "lam3", "lam4", "lam_depth", "lam_time",
    "lam_type", "cycle_slope", "center",
)
_CACHE_INT_KEYS = ("cycle", "grid_size")
_CACHE_OPT_INT_KEYS = ("fixed_cycle_start", "fixed_cycle_end", "fixed_cycle_len")


@dataclass
class RunConfig:
    """Fully resolved settings for one run."""

    model: ModelConfig
    init_seed: int
    weights: str | None
    steps: int
    sampler: str
    guidance: float | None
    seed: int
    beta_start: float
    beta_end: float
    profile: str
    cache: CacheSchedule
    analyze_layer: int
    analyze_kind: str
    analyze_token: int
    analyze_sigma: float
    analyze_mode: str
    analyze_normalize: bool
    out_dir: str


def default_config() -> RunConfig:
    return RunConfig(
        model=ModelConfig(depth=4, hidden=32, heads=4, grid_h=8, grid_w=8),
        init_seed=0,
        weights=None,
        steps=20,
        sampler="ddpm",
        guidance=None,
        seed=0,
        beta_start=1e-4,
        beta_end=2e-2,
        profile="off",
        cache=CacheSchedule(),
        analyze_layer=0,
        analyze_kind=KIND_SELF,
        analyze_token=0,
        analyze_sigma=0.5,
        analyze_mode="absolute",
        analyze_normalize=False,
        out_dir="out",
    )


def _get(parser, section, key, conv, what):
    raw = parser.get(section, key)
    try:
        value = conv(raw)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: expected {what}, got {raw!r}") from e
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _check_grid_size(rc: RunConfig) -> None:
    """A caching schedule's boost cells must fit inside the token grid."""
    g, m = rc.cache.grid_size, rc.model
    if not rc.cache.is_noop and g > min(m.grid_h, m.grid_w):
        raise ConfigError(f"[cache] grid_size {g} exceeds the {m.grid_h}x{m.grid_w} grid")


def _opt(raw: str):
    return None if raw.strip().lower() in ("", "none") else raw.strip()


def _to_bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    key = raw.strip().lower()
    if key not in states:
        raise ValueError(f"not a boolean: {raw!r}")
    return states[key]


def parse_config(path: str) -> RunConfig:
    """Parse and validate an INI run config; missing keys take defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(str(e)) from e
    return _build(parser)


def parse_config_string(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(str(e)) from e
    return _build(parser)


def _build(parser: configparser.ConfigParser) -> RunConfig:
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    rc = default_config()

    if parser.has_section("model"):
        m = {f.name: getattr(rc.model, f.name) for f in fields(ModelConfig)}
        for key in ("depth", "hidden", "heads", "grid_h", "grid_w", "text_tokens"):
            if parser.has_option("model", key):
                m[key] = _get(parser, "model", key, int, "an integer")
        if parser.has_option("model", "time_scale"):
            m["time_scale"] = _get(parser, "model", "time_scale", float, "a number")
        try:
            rc.model = ModelConfig(**m)
        except ValueError as e:
            raise ConfigError(f"[model] {e}") from e
        if parser.has_option("model", "init_seed"):
            rc.init_seed = _get(parser, "model", "init_seed", int, "an integer")
        if parser.has_option("model", "weights"):
            rc.weights = _opt(parser.get("model", "weights"))

    if parser.has_section("sampler"):
        if parser.has_option("sampler", "steps"):
            rc.steps = _get(parser, "sampler", "steps", int, "an integer")
            if rc.steps < 1:
                raise ConfigError("[sampler] steps must be >= 1")
        if parser.has_option("sampler", "kind"):
            rc.sampler = parser.get("sampler", "kind").strip()
            if rc.sampler not in SAMPLERS:
                raise ConfigError(f"[sampler] kind must be one of {SAMPLERS}")
        if parser.has_option("sampler", "guidance"):
            raw = _opt(parser.get("sampler", "guidance"))
            rc.guidance = None if raw is None else _get(
                parser, "sampler", "guidance", float, "a number or 'none'"
            )
        if parser.has_option("sampler", "seed"):
            rc.seed = _get(parser, "sampler", "seed", int, "an integer")
        for key in ("beta_start", "beta_end"):
            if parser.has_option("sampler", key):
                setattr(rc, key, _get(parser, "sampler", key, float, "a number"))
        if not 0.0 < rc.beta_start < 1.0 or not 0.0 < rc.beta_end < 1.0:
            raise ConfigError("[sampler] betas must lie in (0, 1)")

    if parser.has_section("cache") and parser.has_option("cache", "profile"):
        rc.profile = parser.get("cache", "profile").strip()
    if rc.profile not in PROFILE_NAMES:
        raise ConfigError(f"[cache] profile must be one of {PROFILE_NAMES}")
    sched = CacheSchedule() if rc.profile == "custom" else replace(PROFILES[rc.profile])
    if parser.has_section("cache"):
        over = {}
        for key in _CACHE_FLOAT_KEYS:
            if parser.has_option("cache", key):
                over[key] = _get(parser, "cache", key, float, "a number")
        for key in _CACHE_INT_KEYS:
            if parser.has_option("cache", key):
                over[key] = _get(parser, "cache", key, int, "an integer")
        for key in _CACHE_OPT_INT_KEYS:
            if parser.has_option("cache", key):
                raw = _opt(parser.get("cache", key))
                over[key] = None if raw is None else _get(
                    parser, "cache", key, int, "an integer or 'none'"
                )
        if parser.has_option("cache", "cfg_coupled"):
            over["cfg_coupled"] = _get(parser, "cache", "cfg_coupled", _to_bool, "a boolean")
        if parser.has_option("cache", "type_mode"):
            over["type_mode"] = parser.get("cache", "type_mode").strip()
            if over["type_mode"] not in TYPE_MODES:
                raise ConfigError(f"[cache] type_mode must be one of {TYPE_MODES}")
        sched = replace(sched, **over)
    try:
        sched.validate()
    except ValueError as e:
        raise ConfigError(f"[cache] {e}") from e
    rc.cache = sched
    _check_grid_size(rc)

    if parser.has_section("analyze"):
        if parser.has_option("analyze", "layer"):
            rc.analyze_layer = _get(parser, "analyze", "layer", int, "an integer")
        if parser.has_option("analyze", "kind"):
            rc.analyze_kind = parser.get("analyze", "kind").strip()
            if rc.analyze_kind not in _ANALYZE_KINDS:
                raise ConfigError(f"[analyze] kind must be one of {_ANALYZE_KINDS}")
        if parser.has_option("analyze", "token"):
            rc.analyze_token = _get(parser, "analyze", "token", int, "an integer")
        if parser.has_option("analyze", "sigma"):
            rc.analyze_sigma = _get(parser, "analyze", "sigma", float, "a number")
            if rc.analyze_sigma < 0:
                raise ConfigError("[analyze] sigma must be non-negative")
        if parser.has_option("analyze", "mode"):
            rc.analyze_mode = parser.get("analyze", "mode").strip()
            if rc.analyze_mode not in _ANALYZE_MODES:
                raise ConfigError(f"[analyze] mode must be one of {_ANALYZE_MODES}")
        if parser.has_option("analyze", "normalize"):
            rc.analyze_normalize = _get(parser, "analyze", "normalize", _to_bool, "a boolean")

    if parser.has_section("output") and parser.has_option("output", "dir"):
        rc.out_dir = parser.get("output", "dir").strip()

    valid_sites = set(range(rc.model.depth))
    if rc.analyze_kind == KIND_FINAL:
        if rc.analyze_layer != rc.model.depth:
            raise ConfigError("[analyze] kind 'final' requires layer = depth")
    elif rc.analyze_layer not in valid_sites:
        raise ConfigError(f"[analyze] layer must be in [0, {rc.model.depth})")
    if rc.analyze_kind == KIND_CROSS and rc.model.text_tokens == 0:
        raise ConfigError("[analyze] cross-attention site needs text_tokens > 0")
    if not 0 <= rc.analyze_token < rc.model.n_tokens:
        raise ConfigError(f"[analyze] token must be in [0, {rc.model.n_tokens})")
    return rc


def load_config(
    path: str | None = None,
    profile: str | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """Config file plus command-line and environment overrides.

    Resolution order for the seed: config file, then TOCA_SEED, then an
    explicit seed argument.
    """
    if path is not None:
        rc = parse_config(path)
    else:
        rc = default_config()
    if profile is not None:
        if profile not in PROFILE_NAMES:
            raise ConfigError(f"profile must be one of {PROFILE_NAMES}")
        rc.profile = profile
        rc.cache = CacheSchedule() if profile == "custom" else replace(PROFILES[profile])
        _check_grid_size(rc)
    env_seed = os.environ.get("TOCA_SEED")
    if env_seed is not None:
        try:
            rc.seed = int(env_seed)
        except ValueError as e:
            raise ConfigError(f"TOCA_SEED must be an integer, got {env_seed!r}") from e
    if seed is not None:
        rc.seed = seed
    if out_dir is not None:
        rc.out_dir = out_dir
    return rc


def dump_config(rc: RunConfig) -> str:
    """Serialize every effective setting; parsing the result is the identity."""
    m, s, c = rc.model, rc, rc.cache
    none = lambda v: "none" if v is None else v
    lines = [
        "[model]",
        f"depth = {m.depth}", f"hidden = {m.hidden}", f"heads = {m.heads}",
        f"grid_h = {m.grid_h}", f"grid_w = {m.grid_w}",
        f"text_tokens = {m.text_tokens}", f"time_scale = {m.time_scale!r}",
        f"init_seed = {rc.init_seed}", f"weights = {none(rc.weights)}",
        "",
        "[sampler]",
        f"steps = {s.steps}", f"kind = {s.sampler}",
        f"guidance = {none(s.guidance)}", f"seed = {s.seed}",
        f"beta_start = {s.beta_start!r}", f"beta_end = {s.beta_end!r}",
        "",
        "[cache]",
        f"profile = {rc.profile}",
        f"ratio = {c.ratio!r}", f"cycle = {c.cycle}",
        f"lam1 = {c.lam1!r}", f"lam2 = {c.lam2!r}", f"lam3 = {c.lam3!r}",
        f"lam4 = {c.lam4!r}",
        f"lam_depth = {c.lam_depth!r}", f"lam_time = {c.lam_time!r}",
        f"lam_type = {c.lam_type!r}", f"cycle_slope = {c.cycle_slope!r}",
        f"grid_size = {c.grid_size}", f"center = {c.center!r}",
        f"cfg_coupled = {str(c.cfg_coupled).lower()}",
        f"type_mode = {c.type_mode}",
        f"fixed_cycle_start = {none(c.fixed_cycle_start)}",
        f"fixed_cycle_end = {none(c.fixed_cycle_end)}",
        f"fixed_cycle_len = {none(c.fixed_cycle_len)}",
        "",
        "[analyze]",
        f"layer = {rc.analyze_layer}", f"kind = {rc.analyze_kind}",
        f"token = {rc.analyze_token}", f"sigma = {rc.analyze_sigma!r}",
        f"mode = {rc.analyze_mode}",
        f"normalize = {str(rc.analyze_normalize).lower()}",
        "",
        "[output]",
        f"dir = {rc.out_dir}",
        "",
    ]
    return "\n".join(lines)


def canonical_items(rc: RunConfig) -> dict[str, str]:
    """Flat mapping of the settings that define a run's outputs.

    The output directory is excluded (where files land does not change what
    they hold), and a weights file enters by the sha256 of its bytes. Noop
    cache schedules normalize to the off profile so caching spelled as
    ratio = 0 hashes like caching turned off, and the profile name itself
    never enters: only resolved field values do.
    """
    m = rc.model
    cache = CacheSchedule() if rc.cache.is_noop else rc.cache
    items = {
        "model.depth": str(m.depth),
        "model.hidden": str(m.hidden),
        "model.heads": str(m.heads),
        "model.grid_h": str(m.grid_h),
        "model.grid_w": str(m.grid_w),
        "model.text_tokens": str(m.text_tokens),
        "model.time_scale": repr(m.time_scale),
        "model.init_seed": str(rc.init_seed),
        "model.weights": _weights_digest(rc.weights),
        "sampler.steps": str(rc.steps),
        "sampler.kind": rc.sampler,
        "sampler.guidance": repr(rc.guidance),
        "sampler.seed": str(rc.seed),
        "sampler.beta_start": repr(rc.beta_start),
        "sampler.beta_end": repr(rc.beta_end),
        "analyze.layer": str(rc.analyze_layer),
        "analyze.kind": rc.analyze_kind,
        "analyze.token": str(rc.analyze_token),
        "analyze.sigma": repr(rc.analyze_sigma),
        "analyze.mode": rc.analyze_mode,
        "analyze.normalize": str(rc.analyze_normalize),
    }
    for f in fields(CacheSchedule):
        items[f"cache.{f.name}"] = repr(getattr(cache, f.name))
    return items


def _weights_digest(path: str | None) -> str:
    if path is None:
        return "None"
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as e:
        raise ConfigError(f"[model] weights {path}: {e}") from e


def run_config_hash(rc: RunConfig) -> str:
    return config_hash(canonical_items(rc))
