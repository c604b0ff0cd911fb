"""Self-test of the benchmark itself: metric coverage, trace accounting, gates.

    python3 perfbench/selftest.py

Runs the tiny smoke workload untraced and traced, and checks that

- every metric named in BENCHMARK.json is emitted, with its unit, and
  BENCHMARK.json names exactly the workloads and metrics run.py knows;
- the per-layer self times plus trace.unattributed_s add up to the traced
  generation time;
- the correctness gates count a NaN x0, a mismatched replay and a dispatch
  that loses tokens as failures, when fed corrupted arrays directly.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from types import SimpleNamespace

from run import ROOT, import_package
from workloads import END_TO_END, PER_LAYER, SMOKE, WORKLOADS


class Checks:
    """Prints each check and keeps the ones that failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            self.failures.append(what)


def check_benchmark_json(check: Checks) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        check(listed == list(names), f"BENCHMARK.json {key} names and units")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(max(bounds.values()) == bounds["setup_s"] <= 0.25,
          "setup_s has the largest bound, at most 0.25")


def check_smoke(check: Checks, harness) -> None:
    for trace in (False, True):
        bench = harness.Bench(SMOKE, 7, 0.2, ROOT / ".bench_traces" if trace else None)
        res = bench.run()
        line = bench.result(res)
        names = PER_LAYER if trace else END_TO_END
        kind = "per-layer" if trace else "end-to-end"
        check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
              f"smoke {kind} run is correct with no failures")
        emitted = {n: m["unit"] for n, m in line["metrics"].items()}
        check(emitted == dict(names), f"smoke {kind} run emits every metric with its unit")
        check(all(math.isfinite(m["value"]) for m in line["metrics"].values()),
              f"smoke {kind} values are finite")
        if trace:
            layers = res["layers"]
            parts = sum(layers[m] for m in set(harness.SELF_TIME_METRIC.values()))
            check(math.isclose(parts, layers["trace.gen_s"], rel_tol=1e-9),
                  "self times plus trace.unattributed_s sum to the traced generation time")
            check(layers["model.cross_attn.calls"] > 0 and layers["sampler.cfg.s"] > 0,
                  "smoke traced run reaches cross-attention and guidance")


def check_gates(check: Checks, harness) -> None:
    import numpy as np

    x0 = np.random.default_rng(0).standard_normal((16, 8))
    check(harness.gate_x0(x0) == [], "finite x0 passes")
    bad = x0.copy()
    bad[3, 2] = np.nan
    check(len(harness.gate_x0(bad)) == 1, "NaN x0 is a failure")
    check(harness.gate_identical(x0, x0.copy(), "replay") == [], "identical replay passes")
    off = x0.copy()
    off[0, 0] = np.nextafter(off[0, 0], np.inf)
    check(len(harness.gate_identical(x0, off, "replay")) == 1, "replay one ulp off is a failure")
    check(len(harness.gate_identical(x0, x0.astype(np.float32), "replay")) == 1,
          "replay with another dtype is a failure")

    event = lambda computed, cached: SimpleNamespace(computed=computed, cached=cached)
    check(harness.gate_events([event(10, 6)], 16, cached=True) == [], "complete dispatch passes")
    check(len(harness.gate_events([event(10, 5)], 16, cached=True)) == 1,
          "dispatch with computed + cached != N is a failure")
    check(len(harness.gate_events([event(16, 0)], 16, cached=False)) == 1,
          "cache events in an uncached run are a failure")
    check(len(harness.gate_fresh_flops([100, 7, 100], [0, 1, 2], 100)) == 1,
          "fresh-step FLOPs off the closed form are a failure")

    gates = harness.Gates()
    with contextlib.redirect_stderr(io.StringIO()):  # the expected FAIL lines
        gates.record(harness.gate_x0(bad), "nan")
        gates.record(harness.gate_identical(x0, off, "replay"), "replay")
        gates.record(harness.gate_x0(x0), "clean")
    check((gates.attempted, gates.failed) == (3, 2), "Gates counts 2 failures in 3 attempts")


def main() -> int:
    import_package()
    import harness

    check = Checks()
    check_benchmark_json(check)
    check_gates(check, harness)
    check_smoke(check, harness)
    print(f"{len(check.failures)} failed" if check.failures else "all checks passed")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
