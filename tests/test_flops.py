import math

import numpy as np
import pytest

from toca import (
    CacheSchedule,
    Conditioning,
    FlopCounter,
    ModelConfig,
    NoiseSchedule,
    PROFILES,
    estimate_run_flops,
    flops_cross_attention,
    flops_mlp,
    flops_selection_overhead,
    flops_self_attention,
    init_model,
    run_generation,
)
from toca.flops import _partial_module_cost, verify_closed_forms


def test_self_attention_oracle():
    # 8*2*16 + 4*4*4 + 5*4*1 = 256 + 64 + 20
    assert flops_self_attention(2, 4, 1) == 340


def test_self_attention_zero_tokens():
    assert flops_self_attention(0, 4, 1) == 0


def test_self_attention_projection_term_scaling():
    # with one token the N^2 terms are N-sized; isolate the 8ND^2 part instead
    d = 6
    base = flops_self_attention(1, d, 1) - (4 * d + 5)
    doubled = flops_self_attention(1, 2 * d, 1) - (4 * 2 * d + 5)
    assert doubled == 4 * base


def test_cross_attention_oracle():
    # 4*(2+3)*16 + 4*2*3*4 + 5*2*3*1 = 320 + 96 + 30
    assert flops_cross_attention(2, 3, 4, 1) == 446


def test_cross_attention_map_term_symmetry():
    d, h = 8, 2
    a = flops_cross_attention(5, 3, d, h)
    b = flops_cross_attention(3, 5, d, h)
    assert a == b  # every term depends on N1, N2 symmetrically


def test_cross_attention_degenerate_text():
    assert flops_cross_attention(2, 0, 4, 1) == 4 * 2 * 16


def test_mlp_oracle():
    # 16*2*16 + 24*2*4 = 512 + 192
    assert flops_mlp(2, 4) == 704


def test_mlp_zero_tokens():
    assert flops_mlp(0, 4) == 0


def test_mlp_linear_in_tokens():
    assert flops_mlp(6, 8) == 3 * flops_mlp(2, 8)


def test_selection_overhead_oracle():
    # N=256, G=2: 256 + 512 + 768 + (512 + 128) + 2048
    total = flops_selection_overhead(256, 2)
    assert total == 4224.0
    s4 = total - 6 * 256 - 256 * math.log2(256)
    assert s4 == 640.0


def test_selection_overhead_single_token():
    # log2(1) = 0 kills the sort term; s4 = 0 + 2
    assert flops_selection_overhead(1, 1) == 8.0


def test_selection_overhead_rejects_bad_dims():
    with pytest.raises(ValueError):
        flops_selection_overhead(0, 1)
    with pytest.raises(ValueError):
        flops_selection_overhead(4, 0)


def test_counter_accumulates():
    c = FlopCounter()
    c.matmul(2, 3, 4)  # 2*2*3*4 = 48
    c.softmax(10)  # 50
    c.activation(5)  # 30
    assert c.flops == 48 + 50 + 30


def test_closed_forms_match_instrumentation():
    for n, d, h in [(2, 4, 1), (4, 8, 2), (16, 32, 4)]:
        checks = verify_closed_forms(n_tokens=n, hidden=d, heads=h, n_text=3)
        assert all(checks.values()), (n, d, h, checks)


def test_estimate_every_step_fresh_equals_baseline():
    sched = CacheSchedule(ratio=0.9, cycle=1)
    rep = estimate_run_flops(
        depth=3, hidden=16, heads=2, n_tokens=16, n_text=0,
        total_steps=10, cfg_doubled=False, schedule=sched,
    )
    assert rep.cached_flops == rep.baseline_flops
    assert rep.overhead_flops == 0.0
    assert rep.speedup == 1.0


def test_estimate_full_reuse_costs_only_fresh_steps():
    sched = CacheSchedule(ratio=1.0, cycle=3)
    rep = estimate_run_flops(
        depth=3, hidden=16, heads=2, n_tokens=16, n_text=0,
        total_steps=9, cfg_doubled=False, schedule=sched,
    )
    # fresh at 0,3,6: a third of the steps pay, nothing else does
    assert rep.fresh_steps == 3
    assert rep.cached_flops == rep.baseline_flops / 3
    assert rep.overhead_flops == 0.0


def test_estimate_monotone_in_ratio_and_cycle():
    def cost(ratio, cycle):
        rep = estimate_run_flops(
            depth=4, hidden=32, heads=4, n_tokens=64, n_text=0,
            total_steps=20, cfg_doubled=False,
            schedule=CacheSchedule(ratio=ratio, cycle=cycle),
        )
        return rep.cached_flops

    costs_r = [cost(r, 3) for r in (0.0, 0.3, 0.6, 0.9, 1.0)]
    assert all(a >= b for a, b in zip(costs_r, costs_r[1:]))
    costs_n = [cost(0.8, n) for n in (1, 2, 4, 5)]
    assert all(a >= b for a, b in zip(costs_n, costs_n[1:]))


def test_estimate_cfg_doubles_everything():
    sched = PROFILES["naive-full"]
    kw = dict(depth=2, hidden=8, heads=2, n_tokens=4, n_text=0, total_steps=6, schedule=sched)
    single = estimate_run_flops(cfg_doubled=False, **kw)
    double = estimate_run_flops(cfg_doubled=True, **kw)
    assert double.baseline_flops == 2 * single.baseline_flops
    assert double.cached_flops == 2 * single.cached_flops
    assert double.speedup == single.speedup


def test_report_json_fields():
    rep = estimate_run_flops(
        depth=2, hidden=8, heads=2, n_tokens=4, n_text=2,
        total_steps=4, cfg_doubled=False, schedule=PROFILES["toca-pixart"],
    )
    d = rep.to_json_dict()
    for key in ("baseline_flops", "cached_flops", "overhead_flops", "speedup"):
        assert key in d
    assert d["speedup"] == pytest.approx(rep.baseline_flops / rep.cached_flops)
    assert rep.cached_flops <= rep.baseline_flops


@pytest.mark.parametrize(
    "profile, text_tokens, guidance",
    [("toca-dit", 0, None), ("toca-dit", 3, 2.0), ("toca-pixart", 3, 4.0), ("naive-full", 0, 2.0)],
)
def test_estimate_prices_the_dispatches_the_engine_runs(profile, text_tokens, guidance):
    """The report's computed fractions are those of the run's own dispatches."""
    c = ModelConfig(depth=2, hidden=8, heads=2, grid_h=4, grid_w=4, text_tokens=text_tokens)
    cond = Conditioning.random_text(c, 2) if text_tokens else Conditioning.random_class(c, 2)
    sched, total, n = PROFILES[profile], 12, c.n_tokens
    _, stats = run_generation(
        init_model(c, seed=1), cond, NoiseSchedule.linear(total),
        cache_schedule=sched, sampler="ddim", guidance=guidance,
    )
    rep = estimate_run_flops(
        c.depth, c.hidden, c.heads, n, text_tokens, total, guidance is not None, sched
    )

    halves = 2 if guidance is not None else 1
    blocks = [e for e in stats.events if e.kind != "final"]
    cached, baseline = {}, {}
    for e in blocks:
        cost = _partial_module_cost(e.kind, e.computed / n, n, text_tokens, c.hidden, c.heads)
        cached[e.kind] = cached.get(e.kind, 0.0) + halves * cost
        full = _partial_module_cost(e.kind, 1.0, n, text_tokens, c.hidden, c.heads)
        baseline[e.kind] = baseline.get(e.kind, 0.0) + halves * full
    assert rep.per_type_cached == cached
    assert rep.per_type_baseline == baseline
    selections = sum(0 < e.cached < n for e in blocks)
    assert rep.overhead_flops == pytest.approx(
        selections * halves * flops_selection_overhead(n, sched.grid_size)
    )
    assert rep.fresh_steps == len(stats.fresh_steps)
