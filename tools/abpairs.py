"""Alternating A/B pairs of perfbench runs: a parent checkout against a changed one.

    python3 tools/abpairs.py PARENT_DIR CHANGE_DIR --workloads all --pairs 10 \\
        --seconds 30 --out BENCH_label.json

Pair i (from 0) runs each checkout's own `perfbench/run.py --trace 0 --seed
i+1`, the parent first at odd seeds and the change first at even ones, so
slow drift of the host falls on both sides alike. Each run's `env` lines
and its result line (the last line run.py prints) are kept verbatim in the
output file. Per workload and end-to-end metric, it prints the parent's
median and interquartile range, the change's median, in how many pairs the
change read lower, and a verdict from the parent's BENCHMARK.json ``bound``
and ``better`` (read, never written):

- ``worse``: the change's median is beyond the parent's median, in the
  wrong direction, by more than bound x that median;
- ``unresolved``: the parent's interquartile range exceeds bound x its
  median, and not every run of the change reads better than every run of
  the parent;
- ``no worse``: otherwise.

A metric with a ``better`` direction also gets ``gain``, true when the
change reads better in at least nine tenths of the pairs (a tie counts for
neither side) and its median beats the parent's median by more than the
parent's interquartile range; the report marks such a line ``gain``.

Nothing under perfbench/ is read or written except by running run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workloads", default="all", help="'all' or comma-separated names")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    return p.parse_args(argv)


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py call: its env lines and its result line, verbatim."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
        "--trace", "0", "--seed", str(seed), "--seconds", f"{seconds:g}",
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = [ln.strip() for ln in lines if ln.strip().startswith("env ")]
    return {"env": env, "result": lines[-1]}


def workload_results(result_line: str, workload: str) -> dict:
    """name -> result object, from run.py's last line for one workload or for 'all'."""
    obj = json.loads(result_line)
    return obj["workloads"] if "workloads" in obj else {workload: obj}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(benchmark: Path) -> dict:
    """metric -> (bound, better), from a BENCHMARK.json's end_to_end list."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """'worse', 'unresolved' or 'no worse' for one metric's runs (see the module doc)."""
    sign = 1 if better == "lower" else -1
    q1, med, q3 = quartiles(parent)
    if sign * (statistics.median(change) - med) > bound * abs(med):
        return "worse"
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if q3 - q1 > bound * abs(med) and not every_run_better:
        return "unresolved"
    return "no worse"


def gain(vs: list[tuple[float, float]], better: str) -> bool:
    """Whether (parent, change) pairs show a gain for one metric (see the module doc)."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in vs)
    q1, med, q3 = quartiles([p for p, _ in vs])
    beats_spread = sign * (med - statistics.median(c for _, c in vs)) > q3 - q1
    return 10 * wins >= 9 * len(vs) and beats_spread


def summarize(pairs: list[dict], spec: dict | None = None) -> dict:
    """Per workload and metric: the parent's quartiles, the change's median, pairs lower.

    ``pairs`` holds, per pair, each side's list of runs (run_one's dicts).
    Only pairs in which both sides report a metric count for it; ``failed``
    sums the failed operations of every run. A metric that ``spec``
    (end_to_end's map) names also gets its verdict and gain.
    """
    values: dict = {}  # (workload, metric) -> [(parent, change)]
    failed = {side: 0 for side in SIDES}
    for pair in pairs:
        per_side = {}
        for side in SIDES:
            per_side[side] = {}
            for run in pair[side]:
                for name, res in workload_results(run["result"], run["workload"]).items():
                    failed[side] += res.get("failed", 0)
                    per_side[side][name] = res["metrics"]
        for name, metrics in per_side["parent"].items():
            for metric, m in metrics.items():
                other = per_side["change"].get(name, {}).get(metric)
                if other is not None:
                    values.setdefault((name, metric), []).append((m["value"], other["value"]))
    summary: dict = {"failed": failed}
    for (name, metric), vs in sorted(values.items()):
        parent = [p for p, _ in vs]
        q1, med, q3 = quartiles(parent)
        summary.setdefault(name, {})[metric] = {
            "parent_q1_median_q3": [q1, med, q3],
            "change_median": statistics.median(c for _, c in vs),
            "change_lower_in_pairs": sum(c < p for p, c in vs),
            "pairs": len(vs),
        }
        if spec and metric in spec:
            bound, better = spec[metric]
            summary[name][metric]["verdict"] = verdict(parent, [c for _, c in vs], bound, better)
            summary[name][metric]["gain"] = gain(vs, better)
    return summary


def report(summary: dict) -> str:
    lines = [f"failed operations: parent {summary['failed']['parent']}, "
             f"change {summary['failed']['change']}"]
    for name, metrics in summary.items():
        if name == "failed":
            continue
        for metric, s in metrics.items():
            q1, med, q3 = s["parent_q1_median_q3"]
            lines.append(
                f"{name:<16} {metric:<12} parent {med:.6g} [IQR {q1:.6g}-{q3:.6g}]  "
                f"change {s['change_median']:.6g}  lower in {s['change_lower_in_pairs']}"
                f"/{s['pairs']}" + (f"  {s['verdict']}" if "verdict" in s else "")
                + ("  gain" if s.get("gain") else "")
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    spec = end_to_end(args.parent / "BENCHMARK.json")
    out = {
        "command": "python3 perfbench/run.py --workload W --trace 0 --seed SEED "
                   f"--seconds {args.seconds:g}",
        "workloads": names,
        "order": "odd seeds (1, 3, ...) ran the parent first, even seeds the change first",
        "pairs": [],
    }
    for i in range(args.pairs):
        seed = i + 1
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            pair[side] = [
                {"workload": w, **run_one(checkout.resolve(), w, seed, args.seconds)} for w in names
            ]
        out["pairs"].append(pair)
        out["summary"] = summarize(out["pairs"], spec)
        # written after every pair, so a run cut short keeps the pairs it made
        args.out.write_text(json.dumps(out, indent=1) + "\n")
        print(f"pair {i + 1}/{args.pairs} done (seed {seed}, {order[0]} first)", file=sys.stderr)
    print(report(out["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
