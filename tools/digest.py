"""Bitwise evidence for one checkout: a sha256 per workload, seed, cache setting and worker mode.

    python3 tools/digest.py [--checkout DIR] [--workloads all] [--seeds 1,2] > digest.txt

Runs the checkout's own package (DIR/src) on the workload specs in its
perfbench/workloads.py (WORKLOADS and SMOKE; "all" means every one of both).
Per workload and seed it runs one generation with the workload's cache
profile and, unless that profile is off, one without a cache, each in three
worker modes:

- ``found``: the worker rule as the checkout has it, on this machine;
- ``off``: the CPU check forced false, so no call uses the worker;
- ``floors``: the CPU check forced true and the FLOPs floor at 0, so every
  pair that computes a row splits, and every call of 2 * 16 rows or more.

Each printed line holds one sha256 over x0, every eps, ``cache_counts``, the
mask log, the dispatch events and ``fresh_steps``, plus the number of
thread splits the run asked for. A ``diff`` of two checkouts' outputs is a
refactor's bitwise criterion. The model and the generation both take the
seed, and BLAS runs on one thread, as in perfbench. Nothing under perfbench/
is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import os
import sys
from pathlib import Path

MODES = ("found", "off", "floors")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                   help="checkout to run (default: the one holding this tool)")
    p.add_argument("--workloads", default="all", help="'all' or comma-separated names")
    p.add_argument("--seeds", default="1,2", help="comma-separated seeds")
    return p.parse_args(argv)


def load_workloads(checkout: Path) -> dict:
    """name -> Workload, from the checkout's perfbench/workloads.py (SMOKE included)."""
    path = checkout / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return {**mod.WORKLOADS, mod.SMOKE.name: mod.SMOKE}


class Side:
    """One package's model for one workload, and generations on it as perfbench's harness runs them.

    ``pkg`` maps "config", "model" and "sampler" to that package's modules.
    The workload's config is parsed at ``init_seed``, which seeds the model.
    ``cached`` False runs without a cache.
    """

    def __init__(self, pkg: dict, workload, init_seed: int, cached: bool = True):
        self.pkg, self.cached = pkg, cached
        self.rc = rc = pkg["config"].parse_config_string(workload.config_text(init_seed))
        self.model = pkg["model"].init_model(rc.model, seed=rc.init_seed)
        self.ns = pkg["sampler"].NoiseSchedule.linear(rc.steps, rc.beta_start, rc.beta_end)

    def generate(self, seed: int, **record):
        """(x0, stats) of one generation at ``seed``: the conditioning, then run_generation.

        ``record`` goes to run_generation: collect_eps and record_masks.
        """
        cfg, rc, tm = self.rc.model, self.rc, self.pkg["model"]
        make = tm.Conditioning.random_text if cfg.text_tokens > 0 else tm.Conditioning.random_class
        return self.pkg["sampler"].run_generation(
            self.model, make(cfg, seed), self.ns, cache_schedule=rc.cache if self.cached else None,
            seed=seed, sampler=rc.sampler, guidance=rc.guidance, **record,
        )


def run_digest(workload, seed: int, cached: bool) -> tuple[str, int]:
    """(sha256 of everything one generation leaves behind, thread splits it asked for)."""
    from toca import config, sampler
    from toca import model as tm

    side = Side({"config": config, "model": tm, "sampler": sampler}, workload, seed, cached)
    splits, run_halves = [], tm.run_halves
    tm.run_halves = lambda work: splits.append(1) or run_halves(work)
    try:
        x0, stats = side.generate(seed, collect_eps=True, record_masks=True)
    finally:
        tm.run_halves = run_halves
    return record_digest(x0, stats), len(splits)


def record_digest(x0, stats) -> str:
    """sha256 of one generation's run record: x0, every eps, cache_counts, masks, events, fresh steps.

    ``stats`` comes from run_generation with collect_eps=True and record_masks=True.
    """
    h = hashlib.sha256(x0.values.tobytes())
    for eps in stats.eps_history:
        h.update(eps.tobytes())
    h.update(b"none" if stats.cache_counts is None else stats.cache_counts.tobytes())
    for step, layer, kind, idx in stats.mask_log or []:
        h.update(repr((step, layer, kind)).encode())
        for ids in idx:
            h.update(ids.tobytes())
    h.update(repr([dataclasses.astuple(e) for e in stats.events]).encode())
    h.update(repr(stats.fresh_steps).encode())
    return h.hexdigest()


def with_mode(mode: str, fn):
    """fn() with the checkout's worker rule in ``mode``, restored after."""
    from toca import model as tm

    saved = tm.two_cpus, tm._SPLIT_FLOPS
    if mode == "off":
        tm.two_cpus = lambda: False
    elif mode == "floors":
        tm.two_cpus, tm._SPLIT_FLOPS = (lambda: True), 0
    try:
        return fn()
    finally:
        tm.two_cpus, tm._SPLIT_FLOPS = saved


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    sys.dont_write_bytecode = True  # nothing under the checkout's perfbench/ is written
    for var in BLAS_ENV:  # before NumPy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(checkout / "src"))
    workloads = load_workloads(checkout)
    names = list(workloads) if args.workloads == "all" else args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    for name in names:
        w = workloads[name]
        for seed in seeds:
            for cached in (True, False) if w.profile != "off" else (True,):
                for mode in MODES:
                    sha, splits = with_mode(mode, lambda: run_digest(w, seed, cached))
                    label = "cached" if cached else "uncached"
                    print(f"{name} seed={seed} {label} worker={mode} splits={splits} {sha}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
