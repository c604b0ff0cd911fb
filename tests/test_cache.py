import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toca import (
    CacheContext,
    CacheSchedule,
    ModelConfig,
    PROFILES,
    apply_spatial_boost,
    cycle_plan,
    effective_cache_ratio,
    score_s1,
    score_s2,
    score_s3,
    select_compute_set,
)
from toca.cache import (
    cache_token_count,
    cache_update,
    cached_layer_apply,
    type_ratio_factors,
)


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


def test_s2_disabled_without_cross_attention():
    z = score_s2(None, n_tokens=6)
    assert np.array_equal(z, np.zeros(6))
    with pytest.raises(ValueError):
        score_s2(None)


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
    assert mask.gamma.tolist() == [True, False, False, True]


def test_selection_extremes():
    s = np.array([3.0, 1.0, 2.0])
    all_compute = select_compute_set(s, 0.0)
    assert all_compute.n_cached == 0 and all_compute.n_computed == 3
    all_cache = select_compute_set(s, 1.0)
    assert all_cache.n_cached == 3 and all_cache.n_computed == 0


def test_selection_ties_cache_lowest_index():
    mask = select_compute_set(np.array([0.5, 0.5, 0.5, 0.5]), 0.5)
    assert mask.cache_idx.tolist() == [0, 1]


def test_selection_coupled_sums_halves():
    # half sums: [1.0, 0.4, 0.9]; lowest is token 1
    halves = [np.array([0.9, 0.2, 0.1]), np.array([0.1, 0.2, 0.8])]
    mask = select_compute_set(halves, 1 / 3, cfg_coupled=True)
    assert mask.cache_idx.tolist() == [1]
    with pytest.raises(ValueError):
        select_compute_set(halves, 0.5)


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
    assert mask.n_cached == int(math.floor(r_eff * n + 1e-9))


# -- slots and updates --------------------------------------------------------


def _fake_rows_fn(full_out):
    def rows_fn(x, rows):
        return full_out[rows], None

    return rows_fn


def test_cached_layer_apply_all_compute():
    full = np.arange(12.0).reshape(4, 3)
    mask = select_compute_set(np.ones(4), 0.0)
    out, fresh, _ = cached_layer_apply(_fake_rows_fn(full), None, mask, np.zeros((4, 3)))
    assert np.array_equal(out, full)
    assert np.array_equal(fresh, full)


def test_cached_layer_apply_all_cache():
    slot = np.full((4, 3), 7.0)
    mask = select_compute_set(np.ones(4), 1.0)
    out, fresh, attn = cached_layer_apply(_fake_rows_fn(np.zeros((4, 3))), None, mask, slot)
    assert np.array_equal(out, slot)
    assert fresh is None and attn is None


def test_cached_layer_apply_splice():
    full = np.arange(12.0).reshape(4, 3)
    slot = np.full((4, 3), -1.0)
    mask = select_compute_set(np.array([5.0, 1.0, 6.0, 2.0]), 0.5)  # cache {1,3}
    out, fresh, _ = cached_layer_apply(_fake_rows_fn(full), None, mask, slot)
    assert np.array_equal(out[[0, 2]], full[[0, 2]])
    assert np.all(out[[1, 3]] == -1.0)


def test_cached_layer_apply_requires_initialized_slot():
    mask = select_compute_set(np.ones(4), 0.5)
    with pytest.raises(RuntimeError):
        cached_layer_apply(_fake_rows_fn(np.zeros((4, 3))), None, mask, None)


def test_cache_update_laws():
    slot = np.zeros((4, 2))
    counters = np.array([3, 1, 0, 2])
    mask = select_compute_set(np.array([5.0, 1.0, 6.0, 2.0]), 0.5)  # cache {1,3}
    fresh = np.ones((2, 2))
    cache_update(slot, counters, mask, fresh)
    assert np.all(slot[[0, 2]] == 1.0)
    assert np.all(slot[[1, 3]] == 0.0)
    assert counters.tolist() == [0, 2, 0, 3]


# -- dispatch through a context ----------------------------------------------


def _ctx(schedule, total_steps=9, depth=1, n=4, batch=1, record_masks=False, **cfgkw):
    config = ModelConfig(depth=depth, hidden=8, heads=2, grid_h=2, grid_w=n // 2, **cfgkw)
    return CacheContext(schedule, config, total_steps, batch=batch, record_masks=record_masks)


def _stochastic_attn(rng, n):
    return rng.dirichlet(np.ones(n), size=n)


def test_dispatch_counter_law_over_cycles():
    """n_i counts dispatches since token i last computed, reset on compute."""
    rng = np.random.default_rng(0)
    sched = neutral(ratio=0.5, cycle=3, lam1=1.0, lam3=1.0, lam4=0.0, grid_size=1)
    ctx = _ctx(sched, total_steps=9, record_masks=True)
    n = 4
    shadow = np.zeros(n, dtype=int)

    def full_fn(x):
        return rng.normal(size=(n, 8)), _stochastic_attn(rng, n)

    def rows_fn(x, rows):
        return rng.normal(size=(len(rows), 8)), None

    for step in range(9):
        ctx.begin_step(step)
        ctx.dispatch(0, "self_attn", [None], [full_fn], [rows_fn])
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

    def full_fn(x):
        out = rng.normal(size=(n, 8))
        outs[ctx.step] = out
        return out, _stochastic_attn(rng, n)

    def rows_fn(x, rows):
        raise AssertionError("full reuse never computes rows")

    for step in range(6):
        ctx.begin_step(step)
        (got,), _ = ctx.dispatch(0, "mlp", [None], [full_fn], [rows_fn])
        fresh_origin = 3 * (step // 3)
        assert np.array_equal(got, outs[fresh_origin])
        counters = ctx.stores[0].counters[(0, "mlp")]
        assert np.all(counters == step - fresh_origin)


def test_dispatch_before_fresh_step_rejected():
    ctx = _ctx(neutral(ratio=1.0), total_steps=6)
    with pytest.raises(RuntimeError):
        ctx.dispatch(0, "mlp", [None], [lambda x: (np.zeros((4, 8)), None)], [None])


def test_dispatch_requires_begin_step_in_range():
    ctx = _ctx(neutral(), total_steps=6)
    with pytest.raises(ValueError):
        ctx.begin_step(6)


def test_dispatch_cache_counts_accumulate():
    rng = np.random.default_rng(2)
    sched = neutral(ratio=0.5, cycle=2, lam3=0.25, grid_size=1)
    ctx = _ctx(sched, total_steps=6)
    n = 4

    def full_fn(x):
        return rng.normal(size=(n, 8)), _stochastic_attn(rng, n)

    def rows_fn(x, rows):
        return rng.normal(size=(len(rows), 8)), None

    for step in range(6):
        ctx.begin_step(step)
        ctx.dispatch(0, "self_attn", [None], [full_fn], [rows_fn])
    total_cached = sum(e.cached for e in ctx.events)
    assert ctx.cache_counts.sum() == total_cached
    assert total_cached == 3 * 2  # three non-fresh steps cache floor(0.5*4) each


def test_dispatch_final_kind_uses_last_layer_stats():
    """The output head at index depth scores with the deepest layer's maps."""
    rng = np.random.default_rng(3)
    sched = neutral(ratio=0.5, cycle=2, lam1=1.0, grid_size=1)
    ctx = _ctx(sched, total_steps=4, depth=1)
    n = 4

    def full_fn(x):
        return rng.normal(size=(n, 8)), _stochastic_attn(rng, n)

    def mlp_full(x):
        return rng.normal(size=(n, 8)), None

    def rows_fn(x, rows):
        return rng.normal(size=(len(rows), 8)), None

    for step in range(4):
        ctx.begin_step(step)
        ctx.dispatch(0, "self_attn", [None], [full_fn], [rows_fn])
        ctx.dispatch(1, "final", [None], [mlp_full], [rows_fn])
    kinds = {(e.layer, e.kind) for e in ctx.events}
    assert (1, "final") in kinds
