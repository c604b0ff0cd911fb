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



SPEC = {"gen_s.min": (0.25, "lower"), "peak_rss_mb": (0.1, "lower")}


def _summary(parent_gens, change_gens):
    pairs = [_pair(i + 1, _line(p, 80.0), _line(c, 80.0)) for i, (p, c) in
             enumerate(zip(parent_gens, change_gens))]
    return abpairs.summarize(pairs, SPEC)


def _verdicts(parent_gens, change_gens):
    s = _summary(parent_gens, change_gens)["mid-off"]
    return s["gen_s.min"]["verdict"], s["peak_rss_mb"]["verdict"]


def test_verdict_is_worse_past_the_bound_from_the_parents_median():
    assert _verdicts([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.2, 1.3])[0] == "worse"
    assert _verdicts([1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2]) == ("no worse", "no worse")


def test_verdict_is_unresolved_when_the_parents_spread_exceeds_the_bound():
    # parent IQR 0.5-1.5 against a bound of 0.25 x 1.0
    parent = [0.5, 0.5, 1.0, 1.5, 1.5]
    assert _verdicts(parent, [0.9, 1.0, 1.1, 1.0, 0.4])[0] == "unresolved"
    # unless every run of the change beats every run of the parent
    assert _verdicts(parent, [0.4, 0.3, 0.45, 0.2, 0.1])[0] == "no worse"


def test_verdict_reads_the_direction_of_better():
    assert abpairs.verdict([10.0] * 4, [7.0] * 4, 0.25, "higher") == "worse"
    assert abpairs.verdict([10.0] * 4, [13.0] * 4, 0.25, "higher") == "no worse"
    assert abpairs.verdict([5.0, 5.0, 10.0, 15.0, 15.0], [16.0] * 5, 0.25, "higher") == "no worse"
    assert abpairs.verdict([5.0, 5.0, 10.0, 15.0, 15.0], [14.0] * 5, 0.25, "higher") == "unresolved"


def test_the_report_prints_each_verdict_and_reads_the_benchmark(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "gen_s.min", "unit": "s", "better": "lower", "bound": 0.25},
    ]}))
    spec = abpairs.end_to_end(path)
    assert spec == {"gen_s.min": (0.25, "lower")}
    s = abpairs.summarize([_pair(1, _line(1.0, 80.0), _line(2.0, 80.0))], spec)
    assert "verdict" not in s["mid-off"]["peak_rss_mb"]
    assert abpairs.report(s).splitlines()[1].endswith("worse")


def _gain(parent_gens, change_gens):
    s = _summary(parent_gens, change_gens)
    return s["mid-off"]["gen_s.min"]["gain"], abpairs.report(s).splitlines()[1]


def test_nine_wins_and_a_tie_out_of_ten_is_a_gain():
    won, line = _gain([10.0] * 10, [9.0] * 9 + [10.0])
    assert won and line.endswith("no worse  gain")


def test_eight_wins_out_of_ten_is_no_gain():
    won, line = _gain([10.0] * 10, [9.0] * 8 + [11.0] * 2)
    assert not won and line.endswith("no worse")


def test_ten_wins_inside_the_parents_spread_is_no_gain():
    parent = [float(p) for p in range(1, 11)]  # IQR 3.25-7.75
    won, _ = _gain(parent, [p - 0.1 for p in parent])
    assert not won


def test_gain_reads_the_direction_of_better():
    pairs = [(10.0, 11.0)] * 10
    assert abpairs.gain(pairs, "higher") and not abpairs.gain(pairs, "lower")
