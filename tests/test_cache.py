import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toca import (
    CacheContext,
    CacheSchedule,
    Conditioning,
    FeatureMatrix,
    ModelConfig,
    NoiseSchedule,
    PROFILES,
    apply_spatial_boost,
    cycle_plan,
    dispatch_plan,
    effective_cache_ratio,
    run_generation,
    score_s1,
    score_s2,
    score_s3,
    select_compute_set,
)
from toca.cache import (
    DispatchEvent,
    cache_token_count,
    cache_update,
    cached_layer_apply,
    type_ratio_factors,
)
import toca.cache as cache_mod
import toca.model
from toca.model import KIND_FINAL, KIND_SELF, Workspace, init_model


def neutral(**kw):
    base = dict(ratio=0.5, cycle=3)
    base.update(kw)
    return CacheSchedule(**base)


# -- schedule validation ----------------------------------------------------


def test_schedule_rejects_bad_ratio():
    with pytest.raises(ValueError):
        CacheSchedule(ratio=1.5).validate()
    with pytest.raises(ValueError):
        CacheSchedule(ratio=-0.1).validate()


def test_schedule_rejects_bad_cycle_and_grid():
    with pytest.raises(ValueError):
        CacheSchedule(cycle=0).validate()
    with pytest.raises(ValueError):
        CacheSchedule(grid_size=0).validate()


def test_schedule_rejects_partial_window():
    with pytest.raises(ValueError):
        CacheSchedule(fixed_cycle_start=2, fixed_cycle_end=None, fixed_cycle_len=2).validate()


def test_schedule_rejects_unknown_type_mode():
    with pytest.raises(ValueError):
        CacheSchedule(type_mode="magic").validate()


def test_profiles_all_validate():
    for name, sched in PROFILES.items():
        sched.validate()
    assert PROFILES["off"].is_noop
    dit = PROFILES["toca-dit"]
    assert (dit.cycle, dit.ratio, dit.lam_depth, dit.lam_time) == (3, 0.93, 0.06, 0.03)
    assert (dit.lam3, dit.grid_size, dit.cycle_slope, dit.lam_type) == (0.25, 2, 0.4, 2.5)


# -- cycle plan ---------------------------------------------------------------


def test_cycle_plan_constant_cycle():
    assert cycle_plan(neutral(cycle=3), 9) == [0, 3, 6]


def test_cycle_plan_every_step_fresh():
    assert cycle_plan(neutral(cycle=1), 5) == [0, 1, 2, 3, 4]


def test_cycle_plan_slope_oracle():
    # at t=0: 4 / (1 + 0.4*(0 - 0.5)) = 5 after half-up rounding
    plan = cycle_plan(neutral(cycle=4, cycle_slope=0.4), 50)
    assert plan[0] == 0 and plan[1] == 5


def test_cycle_plan_fixed_window_override():
    sched = neutral(cycle=4, fixed_cycle_start=4, fixed_cycle_end=12, fixed_cycle_len=2)
    plan = cycle_plan(sched, 16)
    assert plan == [0, 4, 6, 8, 10, 12]


def test_cycle_plan_covers_run_in_cycles():
    sched = neutral(cycle=3, cycle_slope=0.3)
    for total in (1, 2, 7, 20, 53):
        plan = cycle_plan(sched, total)
        assert plan[0] == 0
        assert all(a < b for a, b in zip(plan, plan[1:]))
        assert all(0 <= t < total for t in plan)


@pytest.mark.parametrize("profile", ["toca-dit", "off"])
@pytest.mark.parametrize(
    "overrides",
    [dict(cycle=10**10, center=1e-300), dict(cycle=10**400), dict(cycle=10**400, center=1e308)],
    ids=["huge-quotient", "huge-cycle", "huge-product"],
)
def test_cycle_plan_ends_at_a_cycle_past_the_run(profile, overrides):
    # these overflowed: cycle / center was inf, cycle had no float value, or
    # center * steps was inf too
    sched = dataclasses.replace(PROFILES[profile], cycle_slope=0.0, **overrides)
    assert cycle_plan(sched, 20) == [0]
    # a cycle of exactly the run's length ends it as the rounded division did
    assert cycle_plan(neutral(cycle=20, cycle_slope=0.0), 20) == [0]
    assert cycle_plan(neutral(cycle=19, cycle_slope=0.0), 20) == [0, 19]


def test_cycle_plan_is_exact_near_the_float_maximum():
    # a cycle beyond every float that ends inside the run: 2e308 / 1e308 = 2
    assert cycle_plan(neutral(cycle=2 * 10**308, center=1e308, cycle_slope=0.0), 3) == [0, 2]
    # the denominator itself overflows to inf at t = 5 (N_t = 0, clamped to 1)
    window = dict(fixed_cycle_start=0, fixed_cycle_end=5, fixed_cycle_len=1)
    for cycle in (1, 10**400):
        sched = neutral(cycle=cycle, center=1.7e308, cycle_slope=1.7e308, **window)
        assert cycle_plan(sched, 7) == list(range(7))


# -- ratios -------------------------------------------------------------------


def test_effective_ratio_neutral_is_base():
    sched = neutral(ratio=0.6)
    f = type_ratio_factors(sched, 32, 4, 64, 0)
    assert effective_cache_ratio(2, 7, "mlp", sched, 4, 20, f) == pytest.approx(0.6)


def test_effective_ratio_depth_slope_oracle():
    # r_l at the deepest layer: 0.93 * (1 + 0.06 * (1 - 0.5)) = 0.9579
    sched = neutral(ratio=0.93, lam_depth=0.06)
    f = type_ratio_factors(sched, 32, 4, 64, 0)
    got = effective_cache_ratio(4, 0, "mlp", sched, 4, 1, f)
    # step 0 of 1 gives r_t = 1 exactly only with lam_time = 0
    assert got == pytest.approx(0.9579)


def test_effective_ratio_clamps_to_one():
    sched = neutral(ratio=1.0, lam_depth=2.0)
    f = type_ratio_factors(sched, 32, 4, 64, 0)
    assert effective_cache_ratio(4, 0, "mlp", sched, 4, 10, f) == 1.0


def test_effective_ratio_zero_base_disables_everything():
    for mode in ("uniform", "flops-share", "lambda-type"):
        sched = neutral(ratio=0.0, type_mode=mode, lam_type=2.5)
        f = type_ratio_factors(sched, 32, 4, 64, 8)
        for kind in ("self_attn", "cross_attn", "mlp", "final"):
            assert effective_cache_ratio(1, 3, kind, sched, 4, 20, f) == 0.0


def test_flops_share_factors():
    sched = neutral(type_mode="flops-share")
    f = type_ratio_factors(sched, 32, 4, 64, 8)
    assert f["self_attn"] is None  # fully cached at non-fresh steps
    # the two active kinds renormalize to mean 1
    assert f["cross_attn"] + f["mlp"] == pytest.approx(2.0)
    assert f["mlp"] > f["cross_attn"]  # mlp dominates at these dims
    # class-conditional: only the mlp remains, so its factor is neutral
    f2 = type_ratio_factors(sched, 32, 4, 64, 0)
    assert f2["mlp"] == 1.0


def test_lambda_type_factors():
    sched = neutral(type_mode="lambda-type", lam_type=2.5)
    f = type_ratio_factors(sched, 32, 4, 64, 8)
    assert f["self_attn"] == 0.0  # 1 - 0.4*2.5
    assert f["mlp"] == 2.5  # 1 + 0.6*2.5
    assert f["cross_attn"] == 1.0
    # attention fully cached, mlp computes more than its share
    base = 0.8
    got_sa = effective_cache_ratio(0, 1, "self_attn", neutral(ratio=base, type_mode="lambda-type", lam_type=2.5), 4, 20, f)
    got_mlp = effective_cache_ratio(0, 1, "mlp", neutral(ratio=base, type_mode="lambda-type", lam_type=2.5), 4, 20, f)
    assert got_sa == 1.0
    assert got_mlp == pytest.approx(1.0 - (1.0 - base) * 2.5)


def test_cache_token_count():
    assert cache_token_count(0.0, 10) == 0
    assert cache_token_count(1.0, 10) == 10
    assert cache_token_count(0.55, 10) == 5
    # floor guard: 0.7*10 in floats is 6.999...; still 7 tokens
    assert cache_token_count(0.7, 10) == 7


# -- scores -------------------------------------------------------------------


def test_s1_identity_and_uniform():
    assert np.allclose(score_s1(np.eye(3), 2.0), [2.0, 2.0, 2.0])
    assert np.allclose(score_s1(np.full((3, 3), 1 / 3), 2.0), [2.0, 2.0, 2.0])


def test_s1_column_sum_oracle():
    s = score_s1(np.array([[1.0, 0.0], [1.0, 0.0]]), 0.5)
    assert np.allclose(s, [1.0, 0.0])  # columns sum to [2, 0], scaled by 0.5


def test_s1_rejects_non_stochastic():
    with pytest.raises(ValueError):
        score_s1(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_s1_rejects_a_nan_row():
    """A NaN row sum compares False against any bound: the check must still refuse it."""
    a = np.full((4, 4), 0.25)
    a[2] = np.nan
    with pytest.raises(ValueError, match="sum to 1"):
        score_s1(a)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.floats(0.0, 4.0))
def test_s1_mass_conservation(n, seed, lam1):
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(np.ones(n), size=n)
    assert score_s1(a, lam1).sum() == pytest.approx(lam1 * n, abs=1e-6)


def test_s2_entropy_oracles():
    assert score_s2(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0
    assert score_s2(np.full((1, 4), 0.25))[0] == pytest.approx(np.log(4.0))
    assert score_s2(np.array([[0.5, 0.5, 0.0, 0.0]]))[0] == pytest.approx(np.log(2.0))


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 8), st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_s2_bounded_by_log_width(n, width, seed):
    rng = np.random.default_rng(seed)
    c = rng.dirichlet(np.ones(width), size=n)
    s = score_s2(c)
    assert np.all(s >= -1e-12)
    assert np.all(s <= np.log(width) + 1e-12)


def test_s3_ratio_and_validation():
    assert np.allclose(score_s3(np.array([0, 2, 4]), 4), [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        score_s3(np.array([1]), 0)
    with pytest.raises(ValueError):
        score_s3(np.array([-1]), 3)


# -- spatial boost ------------------------------------------------------------


def test_boost_oracle_2x2():
    base = np.array([0.9, 0.1, 0.2, 0.3])
    out = apply_spatial_boost(base, (2, 2), 2, 1.0)
    assert np.allclose(out, [1.8, 0.1, 0.2, 0.3])


def test_boost_lam4_zero_is_identity():
    base = np.array([0.9, 0.1, 0.2, 0.3])
    assert np.array_equal(apply_spatial_boost(base, (2, 2), 2, 0.0), base)


def test_boost_tie_goes_to_lowest_flat_index():
    out = apply_spatial_boost(np.ones(4), (2, 2), 2, 1.0)
    assert np.allclose(out, [2.0, 1.0, 1.0, 1.0])


def test_boost_one_winner_per_cell():
    rng = np.random.default_rng(3)
    h, w, g = 6, 8, 2
    base = rng.uniform(0.5, 1.0, size=h * w)
    out = apply_spatial_boost(base, (h, w), g, 0.7)
    boosted = np.flatnonzero(out != base)
    assert boosted.size == (h // g) * (w // g)
    cells = {(i // w // g, i % w // g) for i in boosted}
    assert len(cells) == boosted.size  # one per cell


def test_boost_ragged_grid_cells():
    # 3x3 grid with G=2 leaves partial cells at the edges: ceil(3/2)^2 winners
    rng = np.random.default_rng(4)
    base = rng.uniform(0.5, 1.0, size=9)
    out = apply_spatial_boost(base, (3, 3), 2, 1.0)
    assert np.flatnonzero(out != base).size == 4


def _boost_loop(base, grid, g, lam4):
    """Cell-by-cell reference for apply_spatial_boost."""
    h, w = grid
    boosted = base.copy()
    b2 = base.reshape(h, w)
    for r0 in range(0, h, g):
        for c0 in range(0, w, g):
            cell = b2[r0 : r0 + g, c0 : c0 + g]
            rel = int(np.argmax(cell))  # row-major, so first max = lowest flat index
            rr, cc = divmod(rel, cell.shape[1])
            idx = (r0 + rr) * w + (c0 + cc)
            boosted[idx] = base[idx] * (1.0 + lam4)
    return boosted


def test_boost_matches_cell_loop():
    # every grid up to 7x7 and every cell size from G = 1 to G = min(h, w),
    # so ragged right/bottom cells appear; integer scores in {-2, -1, 0} make
    # most cells tie, and ties must still go to the lowest flat index; cells
    # that are all -inf tie with the padding, which must never win
    rng = np.random.default_rng(11)
    for h in range(1, 8):
        for w in range(1, 8):
            for g in range(1, min(h, w) + 1):
                n = h * w
                for base in (
                    rng.normal(size=n),
                    rng.integers(-2, 1, n) * 1.0,
                    np.where(rng.random(n) < 0.7, -np.inf, 1.0),
                ):
                    lam4 = rng.uniform(0.0, 2.0)
                    out = apply_spatial_boost(base, (h, w), g, lam4)
                    assert np.array_equal(out, _boost_loop(base, (h, w), g, lam4)), (h, w, g)


def test_boost_rejects_oversized_cells():
    with pytest.raises(ValueError):
        apply_spatial_boost(np.ones(4), (2, 2), 3, 1.0)


# -- selection ----------------------------------------------------------------


def test_selection_oracle():
    mask = select_compute_set(np.array([0.9, 0.1, 0.5, 0.7]), 0.5)
    assert set(mask.cache_idx) == {1, 2}
    assert set(mask.compute_idx) == {0, 3}


def test_selection_extremes():
    s = np.array([3.0, 1.0, 2.0])
    all_compute = select_compute_set(s, 0.0)
    assert len(all_compute.cache_idx) == 0 and len(all_compute.compute_idx) == 3
    all_cache = select_compute_set(s, 1.0)
    assert len(all_cache.cache_idx) == 3 and len(all_cache.compute_idx) == 0


def test_selection_ties_cache_lowest_index():
    mask = select_compute_set(np.array([0.5, 0.5, 0.5, 0.5]), 0.5)
    assert mask.cache_idx.tolist() == [0, 1]


def test_selection_coupled_sums_halves():
    """A coupled guidance pair caches the token whose summed score is lowest.

    Half 0's s1 scores are [1.8, 0.8, 0.4] and half 1's [0.4, 0.8, 1.8]: alone
    they would cache tokens 2 and 0, together (sums [2.2, 1.6, 2.2]) token 1.
    """
    config = ModelConfig(depth=1, hidden=8, heads=2, grid_h=1, grid_w=3)
    columns = [np.array([1.8, 0.8, 0.4]), np.array([0.4, 0.8, 1.8])]

    def module(h):
        def fn(x, rows=None):
            if rows is None:
                return np.zeros((3, 8)), np.tile(columns[h] / 3, (3, 1))
            return np.ones((len(rows), 8)), None

        return fn

    fns = [module(0), module(1)]
    computed = {}
    for coupled in (True, False):
        sched = neutral(ratio=1 / 3, lam2=0.0, lam4=0.0, cfg_coupled=coupled)
        ctx = CacheContext(sched, config, total_steps=3, batch=2, record_masks=True)
        for step in range(2):
            ctx.begin_step(step)
            ctx.dispatch(0, "self_attn", [None, None], fns)
        computed[coupled] = [idx.tolist() for idx in ctx.mask_log[-1][3]]
        assert ctx.cache_counts.sum(axis=1).tolist() == [1, 1]  # one token per half
    assert computed[True] == [[0, 2], [0, 2]]
    assert computed[False] == [[0, 1], [1, 2]]


def _sort_oracle(scores, r_eff):
    n = len(scores)
    k = int(math.floor(r_eff * n + 1e-9))
    order = sorted(range(n), key=lambda i: (scores[i], i))
    return set(order[:k])


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.booleans(),
)
def test_selection_matches_sort_oracle(n, seed, r_eff, coarse):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(size=n)
    if coarse:  # quantize to force ties
        scores = np.round(scores * 4) / 4
    mask = select_compute_set(scores, r_eff)
    assert set(mask.cache_idx) == _sort_oracle(scores.tolist(), r_eff)
    assert set(mask.cache_idx) | set(mask.compute_idx) == set(range(n))
    assert len(mask.cache_idx) == int(math.floor(r_eff * n + 1e-9))


# -- slots and updates --------------------------------------------------------


def _fake_rows_fn(full_out):
    def rows_fn(x, rows):
        return full_out[rows], None

    return rows_fn


def test_cached_layer_apply_all_compute():
    full = np.arange(12.0).reshape(4, 3)
    mask = select_compute_set(np.ones(4), 0.0)
    slot = np.zeros((4, 3))
    assert cached_layer_apply(_fake_rows_fn(full), None, mask, slot) is None
    assert len(mask.cache_idx) == 0
    assert np.array_equal(slot, full)


def test_cached_layer_apply_all_cache():
    slot = np.full((4, 3), 7.0)

    def never_called(x, rows):
        raise AssertionError("a mask that computes nothing must not call the module")

    mask = select_compute_set(np.ones(4), 1.0)
    cached_layer_apply(never_called, None, mask, slot)
    assert len(mask.cache_idx) == 4
    assert np.all(slot == 7.0)


def test_cached_layer_apply_splice():
    full = np.arange(12.0).reshape(4, 3)
    slot = np.full((4, 3), -1.0)
    mask = select_compute_set(np.array([5.0, 1.0, 6.0, 2.0]), 0.5)  # cache {1,3}
    cached_layer_apply(_fake_rows_fn(full), None, mask, slot)
    assert mask.cache_idx.tolist() == [1, 3]
    # the slot is the output: fresh rows land in it in place, cached rows stay
    assert np.array_equal(slot[[0, 2]], full[[0, 2]])
    assert np.all(slot[[1, 3]] == -1.0)


def test_cached_layer_apply_requires_initialized_slot():
    mask = select_compute_set(np.ones(4), 0.5)
    with pytest.raises(RuntimeError):
        cached_layer_apply(_fake_rows_fn(np.zeros((4, 3))), None, mask, None)


def test_cache_update_laws():
    counters = np.array([3, 1, 0, 2])
    mask = select_compute_set(np.array([5.0, 1.0, 6.0, 2.0]), 0.5)  # cache {1,3}
    cache_update(counters, mask)
    assert counters.tolist() == [0, 2, 0, 3]
    cache_update(counters, select_compute_set(np.ones(4), 1.0))  # full reuse ages everyone
    assert counters.tolist() == [1, 3, 1, 4]


# -- dispatch through a context ----------------------------------------------


def _ctx(schedule, total_steps=9, depth=1, n=4, batch=1, record_masks=False, **cfgkw):
    config = ModelConfig(depth=depth, hidden=8, heads=2, grid_h=2, grid_w=n // 2, **cfgkw)
    return CacheContext(schedule, config, total_steps, batch=batch, record_masks=record_masks)


def _stochastic_attn(rng, n):
    return rng.dirichlet(np.ones(n), size=n)


def _fake_module(rng, n, with_map=True):
    """A module callable fn(x, rows=None) with random outputs (and map)."""

    def fn(x, rows=None):
        if rows is None:
            return rng.normal(size=(n, 8)), _stochastic_attn(rng, n) if with_map else None
        return rng.normal(size=(len(rows), 8)), None

    return fn


def test_dispatch_counter_law_over_cycles():
    """n_i counts dispatches since token i last computed, reset on compute."""
    rng = np.random.default_rng(0)
    sched = neutral(ratio=0.5, cycle=3, lam1=1.0, lam3=1.0, lam4=0.0, grid_size=1)
    ctx = _ctx(sched, total_steps=9, record_masks=True)
    n = 4
    shadow = np.zeros(n, dtype=int)
    fn = _fake_module(rng, n)

    for step in range(9):
        ctx.begin_step(step)
        ctx.dispatch(0, "self_attn", [None], [fn])
        computed = ctx.mask_log[-1][3][0]  # the selection applied this dispatch
        shadow += 1
        shadow[computed] = 0
        assert ctx.stores[0].counters[(0, "self_attn")].tolist() == shadow.tolist()


def test_dispatch_fresh_step_resets_everything():
    rng = np.random.default_rng(1)
    sched = neutral(ratio=1.0, cycle=3)
    ctx = _ctx(sched, total_steps=6)
    n = 4
    outs = {}

    def fn(x, rows=None):
        if rows is not None:
            raise AssertionError("full reuse never computes rows")
        out = rng.normal(size=(n, 8))
        outs[ctx.step] = out
        return out, _stochastic_attn(rng, n)

    for step in range(6):
        ctx.begin_step(step)
        (got,) = ctx.dispatch(0, "mlp", [None], [fn])
        fresh_origin = 3 * (step // 3)
        assert np.array_equal(got, outs[fresh_origin])
        counters = ctx.stores[0].counters[(0, "mlp")]
        assert np.all(counters == step - fresh_origin)


@pytest.mark.parametrize("batch, coupled", [(1, True), (2, True), (2, False)])
def test_full_reuse_ages_every_counter_as_an_update_over_every_index(batch, coupled):
    """A dispatch that caches every token ages its site with whole-array adds.

    Each member's counters and its row of cache_counts equal a shadow kept
    with the per-index formula, counters[arange(N)] += 1 (reset to 0 at fresh
    steps), over several cycles and at every site; the module never runs.
    """
    rng = np.random.default_rng(3)
    n, steps = 4, 10
    ctx = _ctx(neutral(ratio=1.0, cycle=3, cfg_coupled=coupled), total_steps=steps,
               depth=2, batch=batch)
    every = np.arange(n)
    shadow = {(h, site): np.zeros(n, dtype=np.int64)
              for h in range(batch) for site in ctx.config.sites}
    shadow_counts = np.zeros((batch, n), dtype=np.int64)
    calls = []

    def module(x, rows=None):
        assert rows is None  # full reuse never computes rows
        calls.append(ctx.step)
        return rng.normal(size=(n, 8)), _stochastic_attn(rng, n)

    for step in range(steps):
        ctx.begin_step(step)
        fresh = step in ctx.fresh_steps
        for site in ctx.config.sites:
            ctx.dispatch(*site, [None] * batch, [module] * batch)
            for h in range(batch):
                if fresh:
                    shadow[h, site][:] = 0
                else:
                    shadow[h, site][every] += 1
                    shadow_counts[h][every] += 1
                got = ctx.stores[h].counters[site]
                assert got.dtype == np.int64 and np.array_equal(got, shadow[h, site])
        assert ctx.cache_counts.dtype == np.int64
        assert np.array_equal(ctx.cache_counts, shadow_counts)
    assert set(calls) == set(ctx.fresh_steps) == {0, 3, 6, 9}
    assert shadow_counts.tolist() == [[6 * len(ctx.config.sites)] * n] * batch


def test_dispatch_caching_nothing_at_a_non_fresh_step_refreshes_everything():
    """r_eff > 0 with floor(r_eff * N) = 0 runs the module on every token."""
    rng = np.random.default_rng(4)
    ctx = _ctx(neutral(ratio=0.2, cycle=3), total_steps=6, record_masks=True)
    key = (0, "self_attn")
    last = {}

    def fn(x, rows=None):
        last.update(rows=rows, out=rng.normal(size=(4, 8)), attn=_stochastic_attn(rng, 4))
        return last["out"], last["attn"]

    ctx.begin_step(0)
    ctx.dispatch(0, "self_attn", [None], [fn])
    store = ctx.stores[0]
    store.counters[key][:] = 5  # stale state the dispatch must replace
    store.attn_influence[0] = np.full(4, -1.0)

    ctx.begin_step(1)
    assert 1 not in ctx.fresh_steps
    (got,) = ctx.dispatch(0, "self_attn", [None], [fn])
    assert last["rows"] is None
    assert np.array_equal(got, last["out"])
    assert np.array_equal(store.values[key], last["out"])
    assert store.counters[key].tolist() == [0, 0, 0, 0]
    assert np.array_equal(store.attn_influence[0], last["attn"].sum(axis=0))
    planned = ctx.plan[1][key]
    assert planned == DispatchEvent(1, 0, "self_attn", planned.r_eff, 4, 0)
    assert planned.r_eff == pytest.approx(0.2)
    assert ctx.mask_log[-1][:3] == (1, 0, "self_attn")
    assert ctx.mask_log[-1][3][0].tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError):  # shared by every such dispatch, so read-only
        ctx.mask_log[-1][3][0][0] = 1
    assert ctx.cache_counts.sum() == 0


def test_dispatch_before_fresh_step_rejected():
    ctx = _ctx(neutral(ratio=1.0), total_steps=6)
    with pytest.raises(RuntimeError):
        ctx.dispatch(0, "mlp", [None], [lambda x, rows=None: (np.zeros((4, 8)), None)])


@pytest.mark.parametrize("ratio", [0.5, 1.0])
def test_dispatch_that_caches_before_any_fresh_step_rejected(ratio):
    ctx = _ctx(neutral(ratio=ratio, lam3=1.0), total_steps=6)
    ctx.begin_step(1)
    with pytest.raises(RuntimeError, match="before any fresh step"):
        ctx.dispatch(0, "mlp", [None], [lambda x, rows=None: (np.zeros((4, 8)), None)])


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("fails_at", [0, 3])  # the first fresh step, or a later one
def test_a_first_dispatch_that_raised_leaves_no_slot_to_serve(fails_at, batch):
    """A fresh dispatch that raises, in any half, drops the site's slots for every half.

    A later cycle's slot would otherwise be served as the previous cycle left it.
    """
    sched = neutral(ratio=1.0, cycle=3, lam1=0.0, lam2=0.0, lam4=0.0)
    ctx = _ctx(sched, total_steps=6, batch=batch)
    assert ctx.fresh_steps == (0, 3)

    def good(x, rows=None):
        return np.ones((4, 8)), None

    def failing(x, rows=None):
        raise ArithmeticError("module fails")

    if fails_at:
        ctx.begin_step(0)
        ctx.dispatch(0, "mlp", [None] * batch, [good] * batch)
    ctx.begin_step(fails_at)
    with pytest.raises(ArithmeticError):  # only the last half raises: half 0 has written its slot
        ctx.dispatch(0, "mlp", [None] * batch, [good] * (batch - 1) + [failing])
    assert all(store.values == store.counters == {} for store in ctx.stores)
    ctx.begin_step(fails_at + 1)  # reuses every token
    with pytest.raises(RuntimeError, match="before any fresh step"):
        ctx.dispatch(0, "mlp", [None] * batch, [failing] * batch)


def test_dispatch_requires_begin_step_in_range():
    ctx = _ctx(neutral(), total_steps=6)
    with pytest.raises(ValueError):
        ctx.begin_step(6)


def test_dispatch_cache_counts_accumulate():
    rng = np.random.default_rng(2)
    sched = neutral(ratio=0.5, cycle=2, lam3=0.25, grid_size=1)
    ctx = _ctx(sched, total_steps=6, record_masks=True)
    fn = _fake_module(rng, 4)

    for step in range(6):
        ctx.begin_step(step)
        ctx.dispatch(0, "self_attn", [None], [fn])
    total_cached = sum(4 - len(idx[0]) for *_, idx in ctx.mask_log)
    assert ctx.cache_counts.sum() == total_cached
    assert total_cached == 3 * 2  # three non-fresh steps cache floor(0.5*4) each


def test_dispatch_final_kind_uses_last_layer_stats():
    """The output head at index depth scores with the deepest layer's maps."""
    rng = np.random.default_rng(3)
    sched = neutral(ratio=0.5, cycle=2, lam1=1.0, grid_size=1)
    ctx = _ctx(sched, total_steps=4, depth=1, record_masks=True)
    attn_fn = _fake_module(rng, 4)
    head_fn = _fake_module(rng, 4, with_map=False)

    for step in range(4):
        ctx.begin_step(step)
        ctx.dispatch(0, "self_attn", [None], [attn_fn])
        ctx.dispatch(1, "final", [None], [head_fn])
    head = [len(idx[0]) for _, layer, kind, idx in ctx.mask_log if (layer, kind) == (1, "final")]
    assert head == [4, 2, 4, 2]  # partial head dispatches ran at the non-fresh steps


@pytest.mark.parametrize("site", [(0, "cross_attn"), (1, "mlp"), (0, "final"), (2, "final")])
def test_dispatch_outside_the_model_sites_rejected(site):
    ctx = _ctx(neutral(ratio=0.5), total_steps=6, depth=1, record_masks=True)
    ctx.begin_step(0)
    with pytest.raises(ValueError, match=re.escape(str(site))):
        ctx.dispatch(*site, [None], [lambda x, rows=None: (np.zeros((4, 8)), None)])
    assert ctx.mask_log == [] and ctx.stores[0].values == {}


def test_a_batch_one_dispatch_past_the_row_split_calls_fn_x_rows(monkeypatch):
    """How a module call runs is the model's affair: dispatch calls fn(x, rows=None).

    A 16 x 16, hidden-128 model's calls are large enough for the model's
    batch-1 row split; with two CPUs allowed, the context still calls a
    plain callable, at a fresh step and at a partial one.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = ModelConfig(depth=1, hidden=128, heads=8, grid_h=16, grid_w=16)
    ctx = CacheContext(CacheSchedule(ratio=0.5, cycle=2), config, 2)
    rng = np.random.default_rng(0)
    n, seen = config.n_tokens, []

    def fn(x, rows=None):
        seen.append(None if rows is None else len(rows))
        if rows is None:
            return rng.normal(size=(n, 128)), _stochastic_attn(rng, n)
        return rng.normal(size=(len(rows), 128)), None

    for step in range(2):
        ctx.begin_step(step)
        ctx.dispatch(0, KIND_SELF, [None], [fn])
    assert seen == [None, n // 2]
    assert n // 2 >= 118  # the partial call is past the split: 118 self-attention rows


def test_a_batch_one_run_calls_its_module_callables_without_keywords(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    config = ModelConfig(depth=1, hidden=128, heads=8, grid_h=16, grid_w=16)
    model, cond = init_model(config, seed=1), Conditioning.random_class(config, 2)
    dispatch, calls = CacheContext.dispatch, []

    def positional(fn):
        def call(*args, **kwargs):
            calls.append((len(args), *kwargs))
            return fn(*args, **kwargs)

        return call

    def checked(ctx, layer, kind, xs, fns):
        return dispatch(ctx, layer, kind, xs, [positional(fn) for fn in fns])

    monkeypatch.setattr(CacheContext, "dispatch", checked)
    run_generation(model, cond, NoiseSchedule.linear(4), neutral(ratio=0.5, cycle=2))
    assert set(calls) == {(1,), (2,)}  # fn(x) and fn(x, rows), never a keyword


# -- slots as module outputs through the model --------------------------------


def _guided_text_model():
    c = ModelConfig(depth=2, hidden=8, heads=2, grid_h=3, grid_w=3, text_tokens=3)
    conds = [Conditioning.null_for(c), Conditioning.random_text(c, 4)]
    return c, init_model(c, seed=6), conds


def test_cached_forward_output_survives_later_steps():
    c, model, (_, cond) = _guided_text_model()
    ctx = CacheContext(neutral(ratio=0.5, cycle=3), c, total_steps=4, record_masks=True)
    ws = Workspace()
    rng = np.random.default_rng(2)
    outs, kept = [], []
    for step in range(4):  # fresh, partial, partial, fresh
        ctx.begin_step(step)
        x = FeatureMatrix(rng.normal(size=(9, 8)), c.grid)
        outs.append(model.forward(x, float(4 - step), cond, cache_ctx=ctx, ws=ws))
        kept.append(outs[-1].values.copy())
    assert [9 - len(idx[0]) for _, _, kind, idx in ctx.mask_log if kind == "final"] == [0, 4, 4, 0]
    for out, values in zip(outs, kept):
        assert np.array_equal(out.values, values)


def _coupled_pair_matches_single_streams(shared: bool) -> list:
    """Each half keeps its own slots: half 1 never writes over half 0's outputs.

    All-zero scores make every context cache the same lowest-index tokens, so
    the coupled pair and two single-stream runs select identical masks.
    ``shared`` runs all three contexts through one Workspace. Returns the
    pair's outputs of every step.
    """
    c, model, conds = _guided_text_model()
    sched = neutral(ratio=0.5, cycle=3, lam1=0.0, lam2=0.0, lam3=0.0, lam4=0.0, cfg_coupled=True)
    total = 6
    pair = CacheContext(sched, c, total, batch=2, record_masks=True)
    singles = [CacheContext(sched, c, total) for _ in conds]
    ws_pair = Workspace()
    ws_singles = [ws_pair if shared else Workspace() for _ in conds]
    rng = np.random.default_rng(9)
    outs = []
    for step in range(total):
        x = FeatureMatrix(rng.normal(size=(9, 8)), c.grid)
        t = float(total - step)
        pair.begin_step(step)
        both = model.forward_batch([x, x], t, conds, cache_ctx=pair, ws=ws_pair)
        for h, (ctx, ws) in enumerate(zip(singles, ws_singles)):
            ctx.begin_step(step)
            single = model.forward(x, t, conds[h], cache_ctx=ctx, ws=ws)
            assert np.array_equal(both[h].values, single.values)
        outs.append([o.values for o in both])
    assert sum(0 < len(idx[0]) < 9 for *_, idx in pair.mask_log) > 0  # partial dispatches ran
    return outs


def test_coupled_guided_batch_matches_single_streams():
    _coupled_pair_matches_single_streams(shared=False)


def test_coupled_guided_batch_matches_single_streams_in_one_workspace():
    """A Workspace holds one forward's buffers: contexts that share one keep their own slots.

    Contexts that wrote over each other's slots would still agree with each
    other, so the shared run is also held to the run with separate Workspaces.
    """
    got = _coupled_pair_matches_single_streams(shared=True)
    want = _coupled_pair_matches_single_streams(shared=False)
    assert np.array_equal(got, want)


def test_interleaved_contexts_sharing_a_workspace_keep_their_own_outputs():
    """Two batch-1 runs, stepped in turn through one Workspace, match separate Workspaces.

    naive-full reuses every token between fresh steps, so each reuse step
    returns exactly what its own context cached at its last fresh step.
    """
    c = ModelConfig(depth=2, hidden=16, heads=2, grid_h=4, grid_w=4)
    model = init_model(c, seed=3)
    conds = [Conditioning.random_class(c, seed) for seed in (1, 2)]
    total = 6
    rng = np.random.default_rng(8)
    xs = [[FeatureMatrix(rng.normal(size=(16, 16)), c.grid) for _ in conds] for _ in range(total)]

    def run(workspaces):
        ctxs = [CacheContext(PROFILES["naive-full"], c, total) for _ in conds]
        outs = [[] for _ in conds]
        for step in range(total):
            for i, (ctx, ws) in enumerate(zip(ctxs, workspaces)):
                ctx.begin_step(step)
                t = float(total - step)
                outs[i].append(model.forward(xs[step][i], t, conds[i], cache_ctx=ctx, ws=ws))
        return [[o.values for o in run_outs] for run_outs in outs]

    assert cycle_plan(PROFILES["naive-full"], total) == [0, 3]
    shared = Workspace()
    got = run([shared, shared])
    want = run([Workspace(), Workspace()])
    for i in range(len(conds)):
        for step in range(total):
            assert np.array_equal(got[i][step], want[i][step]), (i, step)
    assert not np.array_equal(want[0][1], want[1][1])  # the two runs' outputs differ


# -- the dispatch plan ----------------------------------------------------------


@pytest.mark.parametrize("text_tokens", [0, 3])
@pytest.mark.parametrize("guided", [False, True])
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_run_dispatches_follow_the_plan(profile, guided, text_tokens):
    """Every dispatch of a run follows the plan in order, and computes N - n_cache tokens.

    The engine's own record is read: the (step, layer, kind) of every
    mask_log entry, each half's compute ids and the per-token cache counts.
    """
    c = ModelConfig(depth=2, hidden=8, heads=2, grid_h=4, grid_w=4, text_tokens=text_tokens)
    model = init_model(c, seed=3)
    cond = Conditioning.random_text(c, 1) if text_tokens else Conditioning.random_class(c, 1)
    conds = [Conditioning.null_for(c), cond] if guided else [cond]
    total = 12
    sched = PROFILES[profile]
    ctx = CacheContext(sched, c, total, batch=len(conds), record_masks=True)
    ws = Workspace()
    rng = np.random.default_rng(5)
    for step in range(total):
        ctx.begin_step(step)
        x = FeatureMatrix(rng.normal(size=(c.n_tokens, 8)), c.grid)
        model.forward_batch([x] * len(conds), float(total - step), conds, cache_ctx=ctx, ws=ws)

    plan = dispatch_plan(sched, c, total)
    assert ctx.plan is plan
    assert len(plan) == total and all(tuple(row) == c.sites for row in plan)
    got = [(step, layer, kind, [len(i) for i in idx]) for step, layer, kind, idx in ctx.mask_log]
    want = [
        (e.step, e.layer, e.kind, [e.computed] * len(conds)) for row in plan for e in row.values()
    ]
    assert got == want
    assert all(
        (e.step, e.layer, e.kind) == (step, *site) and e.computed + e.cached == c.n_tokens
        for step, row in enumerate(plan)
        for site, e in row.items()
    )
    planned_cached = sum(e.cached for row in plan for e in row.values())
    assert ctx.cache_counts.sum(axis=1).tolist() == [planned_cached] * len(conds)
    for step in cycle_plan(sched, total):
        assert all((e.r_eff, e.cached) == (0.0, 0) for e in plan[step].values())


def test_equal_configs_share_one_read_only_plan():
    sched = PROFILES["toca-dit"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.ratio = 0.5
    config = ModelConfig(depth=2, hidden=8, heads=2, grid_h=4, grid_w=4)
    a = CacheContext(sched, config, 10)
    # equal, not identical, arguments
    b = CacheContext(
        dataclasses.replace(sched), ModelConfig(2, 8, 2, 4, 4), 10, batch=2, record_masks=True
    )
    assert a.plan is b.plan is dispatch_plan(sched, config, 10)
    assert CacheContext(sched, config, 11).plan is not a.plan
    with pytest.raises(TypeError):
        a.plan[1][(0, "mlp")] = DispatchEvent(1, 0, "mlp", 0.0, 16, 0)
    with pytest.raises(TypeError):
        a.plan[1] = {}


def test_contexts_share_one_fresh_step_tuple(monkeypatch):
    """cycle_plan runs once per (schedule, steps), not once per generation."""
    sched = PROFILES["toca-dit"]
    config = ModelConfig(depth=2, hidden=8, heads=2, grid_h=4, grid_w=4)
    cache_mod._cycles.cache_clear()
    calls = []
    real = cache_mod.cycle_plan
    monkeypatch.setattr(cache_mod, "cycle_plan", lambda *a: calls.append(a) or real(*a))
    a = CacheContext(sched, config, 13)
    b = CacheContext(dataclasses.replace(sched), ModelConfig(2, 8, 2, 4, 4), 13, batch=2)
    assert a.fresh_steps is b.fresh_steps == tuple(real(sched, 13))
    assert len(calls) == 1
    model = init_model(config, seed=1)
    _, stats = run_generation(
        model, Conditioning.random_class(config, 2), NoiseSchedule.linear(13), sched
    )
    assert stats.fresh_steps == real(sched, 13) and len(calls) == 1


@pytest.mark.parametrize("guided", [False, True])
@pytest.mark.parametrize(
    "sched",
    [neutral(ratio=0.6, lam3=0.25, grid_size=2), PROFILES["toca-dit"], PROFILES["toca-pixart"]],
    ids=["uniform", "toca-dit", "toca-pixart"],
)
def test_cached_forward_normalises_only_the_rows_it_computes(monkeypatch, sched, guided):
    """Layer-norm rows follow the plan, and the site hook still sees the raw stream.

    Self-attention normalises all N rows whenever it computes (its keys and
    values span the stream), cross-attention and the MLP their N - n_cache
    computed rows, the head none, and a dispatch that reuses every token none.
    """
    c = ModelConfig(depth=2, hidden=8, heads=2, grid_h=4, grid_w=4, text_tokens=3)
    model = init_model(c, seed=3)
    conds = [Conditioning.null_for(c)] * guided + [Conditioning.random_text(c, 1)]
    total, n = 12, c.n_tokens
    ctx = CacheContext(sched, c, total, batch=len(conds))

    normed_rows = []
    norm = toca.model.layer_norm_rows

    def counting_norm(x, *args, **kwargs):
        normed_rows.append(x.shape[0])
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(toca.model, "layer_norm_rows", counting_norm)
    outs, seen = [], []
    dispatch = ctx.dispatch

    def recording_dispatch(layer, kind, xs, fns):
        slots = dispatch(layer, kind, xs, fns)
        outs.append([o.copy() for o in slots])
        return slots

    monkeypatch.setattr(ctx, "dispatch", recording_dispatch)

    def hook(layer, kind, streams):
        seen.append([s.copy() for s in streams])

    ws = Workspace()
    rng = np.random.default_rng(4)
    for step in range(total):
        ctx.begin_step(step)
        x = FeatureMatrix(rng.normal(size=(n, 8)), c.grid)
        t = float(total - step)
        first = len(seen)
        model.forward_batch([x] * len(conds), t, conds, cache_ctx=ctx, ws=ws, site_hook=hook)
        for h, cond in enumerate(conds):
            stream = model.input_stream(x, t, cond)
            for k in range(first, len(seen)):
                assert np.array_equal(seen[k][h], stream)
                stream = stream + outs[k][h]

    def planned_rows(e):
        if e.kind == KIND_FINAL or e.computed == 0:
            return 0
        return n if e.kind == KIND_SELF else e.computed

    plan = dispatch_plan(sched, c, total)
    assert sum(normed_rows) == len(conds) * sum(
        planned_rows(e) for row in plan for e in row.values()
    )
    # every case skips work; the uniform one also has partial self-attention
    assert sum(normed_rows) < len(conds) * total * c.depth * len(c.group_kinds) * n
    partial_self = [
        0 < e.cached < n for row in plan for e in row.values() if e.kind == KIND_SELF
    ]
    assert any(partial_self) == (sched.type_mode == "uniform")


# -- the selection policy ---------------------------------------------------------


class _FixedRanking(CacheContext):
    """A policy that reads no map or counter: token i scores -i, so the highest ids are cached."""

    def score(self, layer, kind, h):
        return -np.arange(self.config.n_tokens, dtype=np.float64)


def _run_masks(ctx_cls, sched, guided):
    """A ctx_cls context after 12 cached forwards of a text model, its masks recorded."""
    c = ModelConfig(depth=2, hidden=8, heads=2, grid_h=4, grid_w=4, text_tokens=3)
    model = init_model(c, seed=3)
    conds = [Conditioning.null_for(c)] * guided + [Conditioning.random_text(c, 1)]
    total = 12
    ctx = ctx_cls(sched, c, total, batch=len(conds), record_masks=True)
    ws = Workspace()
    rng = np.random.default_rng(5)
    for step in range(total):
        ctx.begin_step(step)
        x = FeatureMatrix(rng.normal(size=(c.n_tokens, 8)), c.grid)
        model.forward_batch([x] * len(conds), float(total - step), conds, cache_ctx=ctx, ws=ws)
    return ctx


@pytest.mark.parametrize(
    "guided,coupled", [(False, True), (True, True), (True, False)],
    ids=["single", "coupled", "uncoupled"],
)
def test_an_overridden_score_decides_which_tokens_are_cached(guided, coupled):
    """A subclass's score picks the cached tokens; how many each dispatch caches stays the plan's."""
    sched = neutral(ratio=0.6, lam3=0.25, grid_size=2, cfg_coupled=coupled)
    plain = _run_masks(CacheContext, sched, guided)
    fixed = _run_masks(_FixedRanking, sched, guided)
    n = fixed.config.n_tokens

    def events(ctx):
        return [(step, layer, kind, [len(i) for i in idx]) for step, layer, kind, idx in ctx.mask_log]

    assert events(fixed) == events(plain)
    partial = 0
    for step, layer, kind, idx in fixed.mask_log:
        e = fixed.plan[step][layer, kind]
        if 0 < e.cached < n:
            partial += 1
            assert all(i.tolist() == list(range(e.computed)) for i in idx)
            if guided:  # coupled halves share one mask, uncoupled ones select their own
                assert (idx[0] is idx[1]) == coupled
    assert partial
    # the plain scores cache other tokens than the fixed ranking
    assert fixed.cache_counts.tobytes() != plain.cache_counts.tobytes()


@pytest.mark.parametrize("lam1,lam2", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_only_a_weighted_map_score_keeps_its_aggregate(lam1, lam2):
    """_serve keeps s1 only when lam1 > 0 and s2 only when lam2 > 0: score reads nothing else."""
    ctx = _run_masks(CacheContext, neutral(ratio=0.7, lam1=lam1, lam2=lam2, lam3=1.0), True)
    for store in ctx.stores:
        assert sorted(store.attn_influence) == ([0, 1] if lam1 > 0 else [])
        assert sorted(store.cross_entropy) == ([0, 1] if lam2 > 0 else [])
