"""tools/abpairs.py's summary of alternating pairs, on fixed result lines (nothing is run)."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "abpairs.py"
_spec = importlib.util.spec_from_file_location("abpairs", _PATH)
abpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abpairs)


def _line(gen, rss, failed=0):
    metrics = {"gen_s.min": {"value": gen, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"correct": True, "attempted": 10, "failed": failed, "metrics": metrics}


def _pair(seed, parent, change, all_line=False):
    """One pair: each side's run of 'mid-off', either alone or inside an 'all' line."""
    def run(res):
        if all_line:
            return [{"workload": "all", "env": ["env x=1"],
                     "result": json.dumps({"workloads": {"mid-off": res}})}]
        return [{"workload": "mid-off", "env": ["env x=1"], "result": json.dumps(res)}]

    return {"seed": seed, "first": "parent", "parent": run(parent), "change": run(change)}


def test_summary_reads_quartiles_medians_and_pairs_lower():
    gens = [(1.0, 0.9), (2.0, 2.5), (3.0, 2.0), (4.0, 3.0), (5.0, 4.0)]
    pairs = [
        _pair(i + 1, _line(p, 80.0), _line(c, 80.0 + i, failed=int(i == 4)), all_line=i % 2 == 1)
        for i, (p, c) in enumerate(gens)
    ]
    s = abpairs.summarize(pairs)
    gen = s["mid-off"]["gen_s.min"]
    assert gen["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert gen["change_median"] == 2.5
    assert (gen["change_lower_in_pairs"], gen["pairs"]) == (4, 5)
    rss = s["mid-off"]["peak_rss_mb"]
    assert rss["parent_q1_median_q3"] == [80.0, 80.0, 80.0] and rss["change_median"] == 82.0
    assert rss["change_lower_in_pairs"] == 0
    assert s["failed"] == {"parent": 0, "change": 1}
    text = abpairs.report(s)
    assert "mid-off" in text and "lower in 4/5" in text and "change 1" in text


def test_a_metric_missing_on_one_side_counts_in_no_pair():
    parent = _line(1.0, 80.0)
    change = {**_line(0.5, 80.0), "metrics": {"gen_s.min": {"value": 0.5, "unit": "s"}}}
    s = abpairs.summarize([_pair(1, parent, change)])
    assert set(s["mid-off"]) == {"gen_s.min"}

