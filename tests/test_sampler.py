import dataclasses

import numpy as np
import pytest

from toca import (
    CacheSchedule,
    Conditioning,
    ModelConfig,
    NoiseSchedule,
    PROFILES,
    cfg_combine,
    ddim_step,
    ddpm_step,
    init_model,
    linalg,
    run_generation,
)
from toca.cache import dispatch_plan
from toca.model import KIND_FINAL, FeatureMatrix


def toy():
    c = ModelConfig(depth=2, hidden=8, heads=2, grid_h=2, grid_w=2)
    return c, init_model(c, seed=4), Conditioning.random_class(c, 1)


def test_noise_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.1, 1.0]))
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([]))


def test_noise_schedule_linear():
    ns = NoiseSchedule.linear(10)
    assert ns.total_steps == 10
    assert ns.beta(1) == pytest.approx(1e-4)
    assert ns.beta(10) == pytest.approx(2e-2)
    # alpha-bar strictly decreasing
    bars = [ns.alpha_bar(t) for t in range(0, 11)]
    assert all(a > b for a, b in zip(bars, bars[1:]))
    assert bars[0] == 1.0


def test_noise_schedule_t_range():
    ns = NoiseSchedule.linear(5)
    with pytest.raises(ValueError):
        ns.beta(0)
    with pytest.raises(ValueError):
        ns.alpha(6)


def test_ddpm_scalar_oracle():
    # beta=0.1 single step: (1 - 0.1/sqrt(0.1)) / sqrt(0.9) = 0.72076
    ns = NoiseSchedule(np.array([0.1]))
    out = ddpm_step(np.array([[1.0]]), np.array([[1.0]]), 1, ns)
    assert round(float(out[0, 0]), 5) == 0.72076


def test_ddpm_final_step_adds_no_noise():
    ns = NoiseSchedule(np.array([0.1]))
    a = ddpm_step(np.ones((2, 2)), np.zeros((2, 2)), 1, ns, seed=1)
    b = ddpm_step(np.ones((2, 2)), np.zeros((2, 2)), 1, ns, seed=2)
    assert np.array_equal(a, b)


def test_ddpm_tiny_beta_keeps_x():
    ns = NoiseSchedule(np.array([0.5, 1e-12]))
    x = np.random.default_rng(0).normal(size=(3, 2))
    out = ddpm_step(x, np.zeros((3, 2)), 2, ns, seed=0)
    # alpha ~ 1 and the eps coefficient vanishes; only sqrt(beta) noise remains
    assert np.allclose(out, x, atol=1e-5)


def test_ddpm_noise_keyed_by_seed_and_t():
    ns = NoiseSchedule.linear(5)
    x = np.ones((2, 2))
    e = np.zeros((2, 2))
    assert np.array_equal(ddpm_step(x, e, 3, ns, seed=1), ddpm_step(x, e, 3, ns, seed=1))
    assert not np.array_equal(ddpm_step(x, e, 3, ns, seed=1), ddpm_step(x, e, 3, ns, seed=2))
    assert not np.array_equal(ddpm_step(x, e, 3, ns, seed=1), ddpm_step(x, e, 4, ns, seed=1))


@pytest.mark.parametrize("t", [1, 5, 20])
def test_ddpm_step_matches_textbook_expression_bitwise(t):
    ns = NoiseSchedule.linear(20)
    rng = np.random.default_rng(8)
    x, eps = rng.normal(size=(64, 32)), rng.normal(size=(64, 32))
    x_before, eps_before = x.copy(), eps.copy()
    a, abar = ns.alpha(t), ns.alpha_bar(t)
    want = (x - (1.0 - a) / np.sqrt(1.0 - abar) * eps) / np.sqrt(a)
    if t > 1:
        z = np.random.Generator(np.random.PCG64(np.random.SeedSequence((3, t)))).standard_normal(x.shape)
        want = want + np.sqrt(ns.beta(t)) * z
    assert np.array_equal(ddpm_step(x, eps, t, ns, seed=3), want)
    assert np.array_equal(x, x_before) and np.array_equal(eps, eps_before)


def test_ddpm_shape_checks():
    ns = NoiseSchedule.linear(3)
    with pytest.raises(ValueError):
        ddpm_step(np.zeros((2, 2)), np.zeros((2, 3)), 1, ns)


def test_ddim_scalar_oracle():
    # betas [0.1, 0.2], t=2, x=1, eps=0.5, hand-evaluated closed form
    ns = NoiseSchedule(np.array([0.1, 0.2]))
    out = ddim_step(np.array([[1.0]]), np.array([[0.5]]), 2, ns)
    assert float(out[0, 0]) == pytest.approx(0.9803438826033328, abs=1e-12)


def test_ddim_deterministic_and_zero_eps():
    ns = NoiseSchedule(np.array([1e-9, 1e-9]))
    x = np.random.default_rng(1).normal(size=(4, 3))
    a = ddim_step(x, np.zeros((4, 3)), 2, ns)
    b = ddim_step(x, np.zeros((4, 3)), 2, ns)
    assert np.array_equal(a, b)
    # with eps=0 and near-constant alpha-bar the sample barely moves
    assert np.allclose(a, x, atol=1e-6)


def test_cfg_combine_oracles():
    u, c = np.zeros((2, 2)), np.full((2, 2), 2.0)
    assert np.array_equal(cfg_combine(u, c, 0.0), u)
    assert np.array_equal(cfg_combine(u, c, 1.0), c)
    assert np.all(cfg_combine(u, c, 1.5) == 3.0)
    with pytest.raises(ValueError):
        cfg_combine(np.zeros((2, 2)), np.zeros((3, 2)), 1.0)


def test_run_generation_is_pure():
    c, model, cond = toy()
    ns = NoiseSchedule.linear(8)
    x1, _ = run_generation(model, cond, ns, PROFILES["toca-dit"], seed=7)
    x2, _ = run_generation(model, cond, ns, PROFILES["toca-dit"], seed=7)
    assert np.array_equal(x1.values, x2.values)
    x3, _ = run_generation(model, cond, ns, PROFILES["toca-dit"], seed=8)
    assert not np.array_equal(x1.values, x3.values)


def test_run_generation_single_step():
    c, model, cond = toy()
    ns = NoiseSchedule(np.array([0.1]))
    x0, stats = run_generation(model, cond, ns, CacheSchedule(ratio=0.9, cycle=3), seed=0)
    assert stats.total_steps == 1
    assert stats.fresh_steps == [0]
    assert stats.cached_tokens == 0  # a single step is always fresh


def test_run_generation_event_accounting():
    c, model, cond = toy()
    total = 6
    ns = NoiseSchedule.linear(total)
    _, stats = run_generation(model, cond, ns, CacheSchedule(ratio=0.5, cycle=2, lam3=0.1), seed=0)
    dispatches_per_step = c.depth * len(c.group_kinds) + 1  # plus the output head
    assert len(stats.events) == total * dispatches_per_step
    assert stats.computed_tokens + stats.cached_tokens == total * dispatches_per_step * c.n_tokens


def test_run_generation_invalid_sampler():
    c, model, cond = toy()
    with pytest.raises(ValueError):
        run_generation(model, cond, NoiseSchedule.linear(2), sampler="euler")


def test_run_generation_guidance_matches_manual_combination():
    """An uncached guided run must equal combining two plain runs by hand."""
    c, model, cond = toy()
    total = 4
    ns = NoiseSchedule.linear(total)
    w = 2.5
    guided, _ = run_generation(model, cond, ns, seed=5, guidance=w)

    null = Conditioning.null_for(c)
    x = linalg.gaussian((c.n_tokens, c.hidden), 1.0, np.random.SeedSequence((5, 0)))
    for step in range(total):
        t = total - step
        fm = FeatureMatrix(x, c.grid)
        eps_u = model.forward(fm, float(t), null)
        eps_c = model.forward(fm, float(t), cond)
        eps = cfg_combine(eps_u.values, eps_c.values, w)
        x = ddpm_step(x, eps, t, NoiseSchedule.linear(total), seed=5)
    assert np.array_equal(guided.values, x)


def test_run_generation_eps_history_lengths():
    c, model, cond = toy()
    ns = NoiseSchedule.linear(5)
    _, stats = run_generation(model, cond, ns, PROFILES["naive-full"], seed=0, collect_eps=True)
    assert len(stats.eps_history) == 5
    assert all(e.shape == (c.n_tokens, c.hidden) for e in stats.eps_history)


def test_run_generation_cycles_partition_steps():
    c, model, cond = toy()
    total = 11
    ns = NoiseSchedule.linear(total)
    _, stats = run_generation(model, cond, ns, CacheSchedule(ratio=0.8, cycle=3, cycle_slope=0.2), seed=0)
    fresh = stats.fresh_steps
    assert fresh[0] == 0
    assert sorted(set(fresh)) == fresh
    assert all(0 <= s < total for s in fresh)


def test_uncoupled_guided_halves_select_their_own_masks():
    c = ModelConfig(depth=4, hidden=32, heads=4, grid_h=8, grid_w=8)
    model = init_model(c, seed=3)
    sched = CacheSchedule(
        ratio=0.5, cycle=3, lam3=0.5, lam4=1.0, grid_size=2, cfg_coupled=False
    )
    x0, stats = run_generation(
        model, Conditioning.random_class(c, 21), NoiseSchedule.linear(12), sched,
        seed=2, guidance=1.5, record_masks=True,
    )
    differing = 0
    counts = np.zeros((2, c.n_tokens), dtype=np.int64)
    for _step, _layer, _kind, halves in stats.mask_log:
        assert len(halves) == 2 and len(halves[0]) == len(halves[1])
        if 0 < len(halves[0]) < c.n_tokens and not np.array_equal(*halves):
            differing += 1
        for h, computed in enumerate(halves):
            counts[h] += 1
            counts[h][computed] -= 1
    assert differing > 0  # each half scored and selected on its own
    cached = sum(e.cached for e in stats.events)
    assert stats.cache_counts.sum(axis=1).tolist() == [cached, cached]
    assert np.array_equal(stats.cache_counts, counts)  # each half cached by its own mask
    assert np.all(np.isfinite(x0.values))


def test_read_only_site_hook_changes_no_output_bit():
    """Instrumentation is opt-in: a hook that only reads leaves every output bit alone."""
    c = ModelConfig(depth=2, hidden=8, heads=2, grid_h=4, grid_w=4, text_tokens=3)
    model = init_model(c, seed=6)
    cond = Conditioning.random_text(c, 2)
    ns = NoiseSchedule.linear(9)
    sched = CacheSchedule(ratio=0.6, cycle=3, lam3=0.3, grid_size=2)
    seen = []

    def hook(layer, kind, streams):
        seen.append((layer, kind, [float(np.abs(s).sum()) for s in streams]))

    (x_a, a), (x_b, b) = (
        run_generation(
            model, cond, ns, sched, seed=3, sampler="ddim", guidance=2.0,
            record_masks=True, site_hook=site_hook,
        )
        for site_hook in (None, hook)
    )
    assert [(layer, kind) for layer, kind, _ in seen] == list(c.sites) * ns.total_steps
    assert all(len(norms) == 2 for _, _, norms in seen)  # both guidance halves
    assert np.array_equal(x_a.values, x_b.values)
    assert a.events == b.events and a.cached_tokens > 0
    assert np.array_equal(a.cache_counts, b.cache_counts)
    assert len(a.mask_log) == len(b.mask_log)
    for ea, eb in zip(a.mask_log, b.mask_log):
        assert ea[:3] == eb[:3]
        assert all(np.array_equal(p, q) for p, q in zip(ea[3], eb[3]))


def test_runs_of_one_config_share_the_plans_frozen_events():
    c, model, cond = toy()
    ns = NoiseSchedule.linear(6)
    (_, a), (_, b) = (
        run_generation(model, cond, ns, PROFILES["toca-dit"], seed=seed) for seed in (1, 2)
    )
    assert len(a.events) == 6 * len(c.sites)
    assert all(ea is eb for ea, eb in zip(a.events, b.events))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.events[0].cached = 0


def _non_fresh_heads(c):
    plan = dispatch_plan(PROFILES["toca-pixart"], c, 20)
    return [row[c.depth, KIND_FINAL] for row in plan if any(e.cached for e in row.values())]


def test_toca_pixart_reuses_the_whole_head_on_the_mid_text_model():
    """flops-share gives the head the MLP's factor, above 1 on a text model: r_eff reaches 1."""
    heads = _non_fresh_heads(ModelConfig(8, 128, 8, 16, 16, text_tokens=16))  # mid-pixart-cfg
    assert len(heads) == 10 and all(e.cached == 256 for e in heads)
    # not on every text model: this one's head computes rows at two cached steps
    heads = _non_fresh_heads(ModelConfig(4, 32, 4, 8, 8, text_tokens=16))
    assert len(heads) == 10 and sum(e.cached < 64 for e in heads) == 2


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("sampler,guidance", [("ddim", 4.0), ("ddpm", None)])
@pytest.mark.parametrize("size", [(2, 16, 2, 4, 4, 2), (4, 32, 4, 8, 8, 6)])
def test_toca_pixart_on_text_models_is_naive_full_at_cycle_two(size, sampler, guidance, seed):
    """Each cached step returns the last fresh eps: partial dispatches reach no output."""
    c = ModelConfig(*size)
    model, cond = init_model(c, seed=3), Conditioning.random_text(c, seed)
    runs = [
        run_generation(
            model, cond, NoiseSchedule.linear(20), sched, seed=seed, sampler=sampler,
            guidance=guidance, collect_eps=True,
        )
        for sched in (PROFILES["toca-pixart"], dataclasses.replace(PROFILES["naive-full"], cycle=2))
    ]
    (x0, stats), (want_x0, want_stats) = runs
    assert any(0 < e.cached < c.n_tokens for e in stats.events)
    assert x0.values.tobytes() == want_x0.values.tobytes()
    assert [e.tobytes() for e in stats.eps_history] == [e.tobytes() for e in want_stats.eps_history]


def _strided_ddim(model, cond, ns, k, seed, guidance):
    """DDIM that steps t -> max(t - k, 0), with a fresh eps at t each time."""
    c = model.config
    x = linalg.gaussian((c.n_tokens, c.hidden), 1.0, np.random.SeedSequence((seed, 0)))
    t = ns.total_steps
    while t > 0:
        fm = FeatureMatrix(x, c.grid)
        eps = model.forward(fm, float(t), cond).values
        if guidance is not None:
            eps_u = model.forward(fm, float(t), Conditioning.null_for(c)).values
            eps = cfg_combine(eps_u, eps, guidance)
        s = max(t - k, 0)
        abar_t, abar_s = ns.alpha_bar(t), ns.alpha_bar(s)
        x0 = (x - np.sqrt(1.0 - abar_t) * eps) / np.sqrt(abar_t)
        x = np.sqrt(abar_s) * x0 + np.sqrt(1.0 - abar_s) * eps
        t = s
    return x


def _rel_l2(x, want):
    return float(np.linalg.norm(x - want) / np.linalg.norm(want))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("guidance", [None, 4.0], ids=["unguided", "guided"])
@pytest.mark.parametrize("text_tokens", [0, 6], ids=["class", "text"])
def test_naive_full_at_cycle_k_on_ddim_is_k_strided_ddim(text_tokens, guidance, k):
    """Every cached step reuses the last fresh eps, and k DDIM steps on one eps are one k-step."""
    c = ModelConfig(4, 32, 4, 8, 8, text_tokens=text_tokens)
    model = init_model(c, seed=3)
    cond = Conditioning.random_text(c, 5) if text_tokens else Conditioning.random_class(c, 5)
    ns = NoiseSchedule.linear(20)
    sched = dataclasses.replace(PROFILES["naive-full"], cycle=k)
    x0, _ = run_generation(model, cond, ns, sched, seed=7, sampler="ddim", guidance=guidance)
    assert _rel_l2(x0.values, _strided_ddim(model, cond, ns, k, 7, guidance)) < 1e-12


def test_toca_pixart_on_a_one_layer_text_model_is_two_strided_ddim():
    """The head computes every row at the 10 fresh steps and none at the other 10."""
    c = ModelConfig(1, 128, 8, 16, 16, 16)
    model, cond = init_model(c, seed=3), Conditioning.random_text(c, 5)
    ns = NoiseSchedule.linear(20)
    x0, stats = run_generation(
        model, cond, ns, PROFILES["toca-pixart"], seed=7, sampler="ddim", guidance=4.0
    )
    heads = [e.computed for e in stats.events if e.kind == KIND_FINAL]
    assert heads == [c.n_tokens, 0] * 10
    assert _rel_l2(x0.values, _strided_ddim(model, cond, ns, 2, 7, 4.0)) < 1e-12
