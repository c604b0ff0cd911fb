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
from operator import attrgetter
from typing import Callable, NamedTuple

from .artifacts import config_hash
from .cache import PROFILES, CacheSchedule
from .model import KIND_SELF, KINDS, ModelConfig
from .sampler import SAMPLERS, NoiseSchedule


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


PROFILE_NAMES = (*PROFILES, "custom")

# Largest |time_scale| and |guidance| accepted. x0 grows linearly in both: at
# 1e6 a 1000-step run of the default betas stays below 1e13 in magnitude,
# far inside float32 (x0.bin) and the layer norm's float64 squares. It also
# bounds [analyze] sigma: at 1e160 the perturbed row's squares overflow
# float64, and the propagation errors read nan.
SCALE_LIMIT = 1e6

# Longest run and smallest alpha_bar(T) accepted. x0 grows as a power of
# 1/alpha_bar(T), which levels off past a few hundred steps. At the floor, with
# time_scale and guidance at SCALE_LIMIT, the largest |x0| measured was ~1e21
# (~1e34 at hidden = 1), inside float32.
MAX_STEPS = 1000
ALPHA_BAR_FLOOR = 1e-10


@dataclass
class RunConfig:
    """Fully resolved settings for one run; the defaults are an empty config file's."""

    model: ModelConfig = ModelConfig(depth=4, hidden=32, heads=4, grid_h=8, grid_w=8)
    init_seed: int = 0
    weights: str | None = None
    steps: int = 20
    sampler: str = "ddpm"
    guidance: float | None = None
    seed: int = 0
    beta_start: float = 1e-4
    beta_end: float = 2e-2
    profile: str = "off"
    cache: CacheSchedule = CacheSchedule()
    analyze_layer: int = 0
    analyze_kind: str = KIND_SELF
    analyze_token: int = 0
    analyze_sigma: float = 0.5
    analyze_mode: str = "absolute"
    analyze_normalize: bool = False
    out_dir: str = "out"


def default_config() -> RunConfig:
    return RunConfig()


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


def _profile_schedule(profile: str, **overrides) -> CacheSchedule:
    """A new copy of a named profile's schedule with ``overrides`` applied.

    ``custom`` starts from the CacheSchedule defaults.
    """
    if profile not in PROFILE_NAMES:
        raise ConfigError(f"profile must be one of {PROFILE_NAMES}, got {profile!r}")
    if profile == "custom":
        return CacheSchedule(**overrides)
    return replace(PROFILES[profile], **overrides)


def _optional(conv):
    return lambda raw: None if raw.strip().lower() in ("", "none") else conv(raw)


def _non_negative(conv):
    def check(raw):
        value = conv(raw)
        if value < 0:
            raise ValueError(f"negative value: {raw!r}")
        return value
    return check


def _choice(options: tuple[str, ...]):
    def check(raw: str) -> str:
        if raw.strip() not in options:
            raise ValueError(f"not one of {options}: {raw!r}")
        return raw.strip()
    return check, f"one of {options}"


def _to_bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    key = raw.strip().lower()
    if key not in states:
        raise ValueError(f"not a boolean: {raw!r}")
    return states[key]


def _within(limit: float):
    """A float no larger than ``limit`` in magnitude (non-finite ones are left to _get)."""
    def check(raw):
        value = float(raw)
        if math.isfinite(value) and abs(value) > limit:
            raise ValueError(f"magnitude above {limit:g}: {raw!r}")
        return value
    return check


_to_seed = _non_negative(int)
_SCALE = f"a number in [-{SCALE_LIMIT:g}, {SCALE_LIMIT:g}]"


def _weights_digest(path: str | None) -> str:
    if path is None:
        return "None"
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as e:
        raise ConfigError(f"[model] weights {path}: {e}") from e


_UNSET = object()  # a _Setting's default when it names none


class _Setting(NamedTuple):
    """How one INI key is read, written back and hashed.

    A key that names its ``default`` stays out of the hash while it holds
    that default, so adding one moves no provenance id already stamped.
    """

    attr: str  # RunConfig attribute; "model." and "cache." reach into those dataclasses
    conv: Callable[[str], object]  # raw INI text -> value; raises ValueError
    what: str  # what conv accepts, for error messages
    digest: Callable[[object], str] | None = str  # value -> hash text; None keeps it out
    default: object = _UNSET


# CacheSchedule fields are read by the type of their default; the None
# defaults are the optional integers of the fixed cycle window.
_CACHE_CONV = {
    float: (float, "a number"),
    int: (int, "an integer"),
    bool: (_to_bool, "a boolean"),
    str: (str.strip, "text"),
    type(None): (_optional(int), "an integer or 'none'"),
}

# Every accepted key, in dump order. Parsing, the unknown-key check,
# dump_config and canonical_items all read this one table.
_SETTINGS: dict[tuple[str, str], _Setting] = {
    ("model", "depth"): _Setting("model.depth", int, "an integer"),
    ("model", "hidden"): _Setting("model.hidden", int, "an integer"),
    ("model", "heads"): _Setting("model.heads", int, "an integer"),
    ("model", "grid_h"): _Setting("model.grid_h", int, "an integer"),
    ("model", "grid_w"): _Setting("model.grid_w", int, "an integer"),
    ("model", "text_tokens"): _Setting("model.text_tokens", int, "an integer"),
    ("model", "time_scale"): _Setting("model.time_scale", _within(SCALE_LIMIT), _SCALE),
    ("model", "init_seed"): _Setting("init_seed", _to_seed, "a non-negative integer"),
    ("model", "weights"): _Setting(
        "weights", _optional(str.strip), "a path or 'none'", _weights_digest
    ),
    ("sampler", "steps"): _Setting("steps", int, "an integer"),
    ("sampler", "kind"): _Setting("sampler", *_choice(SAMPLERS)),
    ("sampler", "guidance"): _Setting(
        "guidance", _optional(_within(SCALE_LIMIT)), f"{_SCALE} or 'none'"
    ),
    ("sampler", "seed"): _Setting("seed", _to_seed, "a non-negative integer"),
    ("sampler", "beta_start"): _Setting("beta_start", float, "a number"),
    ("sampler", "beta_end"): _Setting("beta_end", float, "a number"),
    # the profile only picks the starting schedule; the resolved fields are hashed
    ("cache", "profile"): _Setting("profile", str.strip, "a profile name", None),
    **{
        ("cache", f.name): _Setting(f"cache.{f.name}", *_CACHE_CONV[type(f.default)], repr)
        for f in fields(CacheSchedule)
    },
    ("analyze", "layer"): _Setting("analyze_layer", int, "an integer"),
    ("analyze", "kind"): _Setting("analyze_kind", *_choice(KINDS)),
    ("analyze", "token"): _Setting("analyze_token", int, "an integer"),
    ("analyze", "sigma"): _Setting(
        "analyze_sigma", _non_negative(_within(SCALE_LIMIT)), f"a number in [0, {SCALE_LIMIT:g}]"
    ),
    ("analyze", "mode"): _Setting("analyze_mode", *_choice(("absolute", "relative"))),
    ("analyze", "normalize"): _Setting("analyze_normalize", _to_bool, "a boolean"),
    # where files land does not change what they hold
    ("output", "dir"): _Setting("out_dir", str.strip, "a directory", None),
}
_SECTIONS = {section for section, _ in _SETTINGS}


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
    if parser.defaults():
        keys = ", ".join(parser.defaults())
        raise ConfigError(f"keys under [DEFAULT] are not accepted: {keys}")
    rc = default_config()
    nested: dict[str, dict] = {"model": {}, "cache": {}}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            s = _SETTINGS.get((section, key))
            if s is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            owner, _, name = s.attr.rpartition(".")
            value = _get(parser, section, key, s.conv, s.what)
            if owner:
                nested[owner][name] = value
            else:
                setattr(rc, name, value)

    try:
        rc.model = replace(rc.model, **nested["model"])
    except ValueError as e:
        raise ConfigError(f"[model] {e}") from e
    if not 1 <= rc.steps <= MAX_STEPS:
        raise ConfigError(f"[sampler] steps must be in [1, {MAX_STEPS}]")
    if not 0.0 < rc.beta_start < 1.0 or not 0.0 < rc.beta_end < 1.0:
        raise ConfigError("[sampler] betas must lie in (0, 1)")
    abar = NoiseSchedule.linear(rc.steps, rc.beta_start, rc.beta_end).alpha_bar(rc.steps)
    if abar < ALPHA_BAR_FLOOR:
        raise ConfigError(f"[sampler] alpha_bar(T) = {abar:.3g} is below {ALPHA_BAR_FLOOR:g}")
    rc.cache = _profile_schedule(rc.profile, **nested["cache"])
    try:
        rc.cache.validate()
    except ValueError as e:
        raise ConfigError(f"[cache] {e}") from e
    _check_grid_size(rc)

    if (rc.analyze_layer, rc.analyze_kind) not in rc.model.sites:
        site = f"layer {rc.analyze_layer} kind {rc.analyze_kind!r}"
        raise ConfigError(f"[analyze] no module at {site}; the sites are {rc.model.sites}")
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
    rc = parse_config(path) if path is not None else default_config()
    if profile is not None:
        rc.cache = _profile_schedule(profile)
        rc.profile = profile
        _check_grid_size(rc)
    for name, raw in (("TOCA_SEED", os.environ.get("TOCA_SEED")), ("seed", seed)):
        if raw is not None:
            try:
                rc.seed = _to_seed(raw)
            except ValueError as e:
                raise ConfigError(f"{name} must be a non-negative integer, got {raw!r}") from e
    if out_dir is not None:
        rc.out_dir = out_dir
    return rc


def _dump_value(value) -> str:
    if value is None:
        return "none"
    return str(value).lower() if isinstance(value, bool) else str(value)


def dump_config(rc: RunConfig) -> str:
    """Serialize every effective setting; parsing the result is the identity."""
    blocks: dict[str, list[str]] = {}
    for (section, key), s in _SETTINGS.items():
        line = f"{key} = {_dump_value(attrgetter(s.attr)(rc))}"
        blocks.setdefault(section, [f"[{section}]"]).append(line)
    return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"


def canonical_items(rc: RunConfig) -> dict[str, str]:
    """Flat mapping of the settings that define a run's outputs.

    Each table entry with a digest enters, unless it names a default and
    holds it: most values by ``str``, cache fields by ``repr``, and a weights
    file by the sha256 of its bytes. Noop cache schedules normalize to the
    off profile so caching spelled as ratio = 0 hashes like caching turned
    off.
    """
    if rc.cache.is_noop:
        rc = replace(rc, cache=CacheSchedule())
    items = {}
    for (section, key), s in _SETTINGS.items():
        value = attrgetter(s.attr)(rc)
        if s.digest is not None and (s.default is _UNSET or value != s.default):
            items[f"{section}.{key}"] = s.digest(value)
    return items


def run_config_hash(rc: RunConfig) -> str:
    return config_hash(canonical_items(rc))
