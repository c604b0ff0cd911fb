"""In-process paired A/B: a parent checkout's package against a changed one, one generation each.

    python3 tools/abinproc.py PARENT_DIR CHANGE_DIR [--workload toy-dit] [--pairs 200]

Loads PARENT_DIR/src/toca and CHANGE_DIR/src/toca as two distinct packages
(``toca_parent`` and ``toca_change``) in one process, so that both sides
meet the same host state from one generation to the next. The workload
comes from the parent's perfbench/workloads.py (WORKLOADS and SMOKE), read
with tools/digest.py's load_workloads, and each side generates through
tools/digest.py's Side.

First it runs one generation per side at seeds 1, 2 and 3 (model and
generation seeded alike, as in tools/digest.py) with eps and masks
recorded, and refuses, with exit 1, unless every run record is bitwise
equal: x0, every eps, ``cache_counts``, the mask log, the dispatch events
and the fresh steps, hashed by tools/digest.py's record_digest. Then pair
i runs one timed generation per side at seed i + 1, the parent first in
even pairs and the change first in odd ones (A,B then B,A). It prints
each side's median generation time, the median of the paired differences
(change - parent, also as a share of the parent's median) and in how many
pairs the change read lower. A timed
generation is what perfbench's ``gen_s`` times: the conditioning and
run_generation with the workload's cache profile, sampler and guidance.

BLAS runs on one thread, as in perfbench. Nothing under either checkout is
written.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")
CHECK_SEEDS = (1, 2, 3)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", default="toy-dit", help="a name in the parent's workloads")
    p.add_argument("--pairs", type=int, default=200)
    return p.parse_args(argv)


def load_package(checkout: Path, name: str) -> dict:
    """checkout/src/toca imported as package ``name``: its config, model and sampler modules."""
    init = checkout / "src" / "toca" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    sys.modules[name] = importlib.util.module_from_spec(spec)  # its relative imports look it up
    spec.loader.exec_module(sys.modules[name])
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in ("config", "model", "sampler")}


def timed(side, seed: int) -> float:
    t0 = perf_counter()
    side.generate(seed)
    return perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.dont_write_bytecode = True  # nothing under either checkout is written
    # this file's directory leads sys.path
    from digest import BLAS_ENV, Side, load_workloads, record_digest

    for var in BLAS_ENV:  # before NumPy loads
        os.environ[var] = "1"
    workload = load_workloads(args.parent.resolve())[args.workload]
    pkgs = {side: load_package(path.resolve(), f"toca_{side}")
            for side, path in zip(SIDES, (args.parent, args.change))}

    for seed in CHECK_SEEDS:
        sha = {side: record_digest(*Side(pkgs[side], workload, seed).generate(
            seed, collect_eps=True, record_masks=True)) for side in SIDES}
        if sha["parent"] != sha["change"]:
            print(f"{args.workload}: run record differs at seed {seed}; not timed", file=sys.stderr)
            return 1
    print(f"{args.workload}: run record bitwise equal at seeds {', '.join(map(str, CHECK_SEEDS))}")

    sides = {side: Side(pkgs[side], workload, 1) for side in SIDES}
    walls = []  # (parent, change) seconds per pair
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        t = {side: timed(sides[side], i + 1) for side in order}
        walls.append((t["parent"], t["change"]))

    parent = statistics.median(p for p, _ in walls)
    change = statistics.median(c for _, c in walls)
    diff = statistics.median(c - p for p, c in walls)
    lower = sum(c < p for p, c in walls)
    print(f"{args.workload}: parent median {parent * 1e3:.3f} ms, change median "
          f"{change * 1e3:.3f} ms over {len(walls)} pairs")
    print(f"{args.workload}: median paired difference {diff * 1e3:+.3f} ms "
          f"({100 * diff / parent:+.2f}% of the parent's median); "
          f"change lower in {lower}/{len(walls)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
