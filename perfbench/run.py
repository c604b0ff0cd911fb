"""Run one toca benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload mid-off --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from anywhere: the package is imported from `src/` next to this
directory, never from an installed copy. `--trace 0` measures the end-to-end
metrics with tracing off; `--trace 1` adds the traced run and reports the
per-layer metrics instead, writing its spans to `.bench_traces/`. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are the same numbers
for people, with the environment stamp. Exit status is 0 when the run
completed, whatever its gates found, and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--blas-threads", type=int, default=1,
        help="BLAS threads (default 1); more than the available cores is refused",
    )
    return p.parse_args(argv)


def import_package():
    """Import toca from this checkout's src/, or fail."""
    sys.path.insert(0, str(ROOT / "src"))
    import toca

    if Path(toca.__file__).resolve().parent != ROOT / "src" / "toca":
        raise SystemExit(f"toca imported from {toca.__file__}, not from {ROOT / 'src'}")


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    ncores = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= ncores:
        print(f"refusing --blas-threads {args.blas_threads}: {ncores} cores available",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(args.blas_threads)
    if args.workload == "all":
        return run_all(args)

    import_package()
    import harness  # imports NumPy, so only after the BLAS pin

    w = WORKLOADS[args.workload]
    trace_dir = ROOT / ".bench_traces" if args.trace else None
    bench = harness.Bench(w, args.seed, args.seconds, trace_dir)
    res = bench.run()
    env = harness.environment(ROOT, args.blas_threads)

    print(f"toca benchmark: workload {w.name} ({w.why})")
    print(f"  seed {args.seed}, {args.seconds:g} s, trace {args.trace}, one client, closed loop")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  attempted {bench.gates.attempted}, failed {bench.gates.failed}, "
          f"failed_frac {bench.gates.failed / max(bench.gates.attempted, 1):.6g}")
    result = bench.result(res)
    print(f"  timed loop: {res['n']} generations, {res['setup_reps']} set-ups")
    for name, unit in (
        ("samples_per_s", "1/s"), ("gen_s.p50", "s"), ("gen_s.p90", "s"), ("setup_s.p50", "s")
    ):
        if name in res:
            print(f"  {name:<28} {fmt(res[name]):>14} {unit}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {fmt(m['value']):>14} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--blas-threads", str(args.blas_threads),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
