"""Command-line entry point.

Subcommands:
  sample                 run a generation, write x0 + stats + cache map
  analyze redundancy     adjacent-step feature drift along an uncached run
  analyze propagation    single-token perturbation spread to the output
  bench flops            analytic run cost, speedup and closed-form check
  report                 summarize the artifacts in an output directory

Every artifact carries the effective config's hash. Exit status: 0 on
success, 2 for configuration problems, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import linalg
from .analysis import (
    FrequencyMap,
    build_cache_frequency_map,
    measure_error_propagation,
    measure_temporal_redundancy,
)
from .artifacts import atomic_write_bytes, write_csv, write_feature_grid, write_json
from .config import (
    ConfigError,
    PROFILE_NAMES,
    RunConfig,
    dump_config,
    load_config,
    run_config_hash,
)
from .flops import estimate_run_flops, verify_closed_forms
from .model import Conditioning, FeatureMatrix, Model, init_model, load_weights
from .sampler import NoiseSchedule, run_generation

_QUANTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", "-c", metavar="PATH", help="INI run config")
    p.add_argument("--profile", choices=PROFILE_NAMES, help="caching profile override")
    p.add_argument("--seed", type=int, help="run seed override")
    p.add_argument("--out", metavar="DIR", help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toca", description="token-wise feature caching for a toy diffusion transformer"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run a generation")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analyze", help="diagnostic experiments")
    exp = p.add_subparsers(dest="experiment", required=True)
    for name, fn in (("redundancy", cmd_redundancy), ("propagation", cmd_propagation)):
        q = exp.add_parser(name)
        _add_common(q)
        q.set_defaults(func=fn)

    p = sub.add_parser("bench", help="cost accounting")
    kind = p.add_subparsers(dest="benchmark", required=True)
    q = kind.add_parser("flops")
    _add_common(q)
    q.set_defaults(func=cmd_bench_flops)

    p = sub.add_parser("report", help="summarize an output directory")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    return parser


def _load(args) -> RunConfig:
    return load_config(args.config, args.profile, args.seed, args.out)


def _build_model(rc: RunConfig):
    if rc.weights is not None:
        try:
            model = load_weights(rc.weights)
        except (OSError, ValueError) as e:
            raise ConfigError(f"weights {rc.weights}: {e}") from e
        # TOCA-W1 stores shapes only; time_scale comes from the config
        if replace(model.config, time_scale=rc.model.time_scale) != rc.model:
            raise ConfigError(
                "weights file disagrees with the [model] section; "
                "set the section to the file's dimensions"
            )
        return Model(rc.model, model.groups, model.out_proj)
    return init_model(rc.model, seed=rc.init_seed)


def _conditioning(rc: RunConfig) -> Conditioning:
    if rc.model.text_tokens > 0:
        return Conditioning.random_text(rc.model, rc.seed)
    return Conditioning.random_class(rc.model, rc.seed)


def _quantiles(values: np.ndarray) -> dict[str, float]:
    flat = np.asarray(values, dtype=np.float64).ravel()
    return {f"q{int(q * 100)}": float(np.quantile(flat, q)) for q in _QUANTS}


def cmd_sample(args) -> int:
    rc = _load(args)
    model = _build_model(rc)
    cond = _conditioning(rc)
    ns = NoiseSchedule.linear(rc.steps, rc.beta_start, rc.beta_end)
    x0, stats = run_generation(
        model, cond, ns, cache_schedule=rc.cache, seed=rc.seed,
        sampler=rc.sampler, guidance=rc.guidance,
    )
    h = run_config_hash(rc)
    out = rc.out_dir

    write_feature_grid(os.path.join(out, "x0.bin"), x0, h)
    write_json(os.path.join(out, "stats.json"), {
        "config_hash": h,
        "total_steps": stats.total_steps,
        "fresh_steps": stats.fresh_steps,
        "dispatches": len(stats.events),
        "computed_tokens": stats.computed_tokens,
        "cached_tokens": stats.cached_tokens,
    })
    write_csv(
        os.path.join(out, "dispatch.csv"),
        ["step", "layer", "type", "r_eff", "computed_count", "cached_count"],
        ([e.step, e.layer, e.kind, repr(e.r_eff), e.computed, e.cached] for e in stats.events),
        h,
    )
    if stats.cache_counts is None:
        fmap = FrequencyMap(np.zeros(rc.model.grid, dtype=np.int64))
    else:
        fmap = build_cache_frequency_map(stats, rc.model.grid)
    atomic_write_bytes(os.path.join(out, "cache_map.pgm"), fmap.to_pgm(comment=f"config {h}"))

    print(f"wrote x0.bin stats.json dispatch.csv cache_map.pgm to {out}/ (config {h})")
    print(f"steps {stats.total_steps}, fresh {len(stats.fresh_steps)}, "
          f"tokens cached {stats.cached_tokens} / computed {stats.computed_tokens}")
    return 0


def cmd_redundancy(args) -> int:
    rc = _load(args)
    if rc.steps < 2:
        # drift is measured between adjacent steps; one step has no pair
        raise ConfigError(f"analyze redundancy needs [sampler] steps >= 2, got {rc.steps}")
    model = _build_model(rc)
    cond = _conditioning(rc)
    ns = NoiseSchedule.linear(rc.steps, rc.beta_start, rc.beta_end)
    profile = measure_temporal_redundancy(
        model, cond, ns, seed=rc.seed, sampler=rc.sampler
    )
    h = run_config_hash(rc)
    out = rc.out_dir
    # build the summary before writing: a failure computing it leaves no file
    payload = {
        "config_hash": h,
        "layers": profile.layers,
        "steps": profile.n_steps,
        "tokens": profile.n_tokens,
        "distance_quantiles": _quantiles(profile.distances),
        "per_layer_mean": [float(v) for v in profile.per_layer_mean.mean(axis=1)],
    }

    def rows():
        for k, layer in enumerate(profile.layers):
            for s in range(profile.distances.shape[1]):
                for i in range(profile.n_tokens):
                    yield [layer, s, i, repr(float(profile.distances[k, s, i]))]

    write_csv(
        os.path.join(out, "redundancy.csv"),
        ["layer", "step", "token", "distance"], rows(), h,
    )
    write_json(os.path.join(out, "redundancy.json"), payload)
    print(f"wrote redundancy.csv redundancy.json to {out}/ (config {h})")
    return 0


def cmd_propagation(args) -> int:
    rc = _load(args)
    model = _build_model(rc)
    cond = _conditioning(rc)
    x = linalg.gaussian(
        (rc.model.n_tokens, rc.model.hidden), 1.0, np.random.SeedSequence((rc.seed, 0))
    )
    profile = measure_error_propagation(
        model, FeatureMatrix(x, rc.model.grid), float(rc.steps), cond,
        rc.analyze_layer, rc.analyze_kind, rc.analyze_token, rc.analyze_sigma,
        seed=rc.seed, relative=(rc.analyze_mode == "relative"),
        normalize=rc.analyze_normalize,
    )
    h = run_config_hash(rc)
    out = rc.out_dir
    write_csv(
        os.path.join(out, "propagation.csv"),
        ["token", "error"],
        ([i, repr(float(e))] for i, e in enumerate(profile.errors)),
        h,
    )
    write_json(os.path.join(out, "propagation.json"), {
        "config_hash": h,
        "layer": profile.layer,
        "kind": profile.kind,
        "token": profile.token,
        "sigma_applied": profile.sigma,
        "normalized": profile.normalized,
        "error_quantiles": _quantiles(profile.errors),
        "max_error_token": int(np.argmax(profile.errors)),
    })
    print(f"wrote propagation.csv propagation.json to {out}/ (config {h})")
    return 0


def cmd_bench_flops(args) -> int:
    rc = _load(args)
    m = rc.model
    report = estimate_run_flops(
        depth=m.depth, hidden=m.hidden, heads=m.heads, n_tokens=m.n_tokens,
        n_text=m.text_tokens, total_steps=rc.steps,
        cfg_doubled=rc.guidance is not None, schedule=rc.cache,
    )
    checks = verify_closed_forms(n_tokens=4, hidden=8, heads=2, n_text=3)
    h = run_config_hash(rc)
    payload = report.to_json_dict()
    payload["config_hash"] = h
    payload["closed_form_check"] = checks
    write_json(os.path.join(rc.out_dir, "flops.json"), payload)
    print(f"wrote flops.json to {rc.out_dir}/ (config {h})")
    print(f"baseline {report.baseline_flops:.4e} flops, cached {report.cached_flops:.4e}, "
          f"speedup {report.speedup:.3f}x")
    if not all(checks.values()):
        bad = [k for k, v in checks.items() if not v]
        raise RuntimeError(f"instrumented counter disagrees with closed forms: {bad}")
    return 0


def cmd_report(args) -> int:
    rc = _load(args)
    out = rc.out_dir
    found = False
    for name in ("stats.json", "flops.json", "redundancy.json", "propagation.json"):
        path = os.path.join(out, name)
        if not os.path.exists(path):
            continue
        found = True
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        print(f"{name} (config {payload.get('config_hash', '?')})")
        for key in sorted(payload):
            if key == "config_hash":
                continue
            value = payload[key]
            if isinstance(value, list) and len(value) > 8:
                value = f"[{len(value)} values]"
            print(f"  {key}: {value}")
    if not found:
        raise RuntimeError(f"no artifacts found in {out}/")
    print()
    print("effective config:")
    print(dump_config(rc))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
