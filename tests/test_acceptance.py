"""Acceptance suite: ten go/no-go checks on the caching sampler stack.

Each test drives one criterion end to end and reports a single PASS/FAIL
line through the registry (see conftest.py). Numeric tolerances are pinned
here on purpose; loosening them is a behaviour change, not a test fix.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from acceptance_registry import RESULTS
from toca import linalg
from toca.cache import (
    CacheContext,
    CacheSchedule,
    PROFILES,
    apply_spatial_boost,
    score_s1,
    score_s2,
    select_compute_set,
)
from toca.flops import (
    estimate_run_flops,
    flops_mlp,
    flops_selection_overhead,
    flops_self_attention,
    verify_closed_forms,
)
from toca.model import Conditioning, FeatureMatrix, ModelConfig, init_model
from toca.sampler import NoiseSchedule, run_generation
from toca.analysis import measure_error_propagation


@contextmanager
def criterion(num, desc):
    ok = False
    try:
        yield
        ok = True
    finally:
        RESULTS.append((num, desc, ok))


def toy_model(seed=7, depth=4, hidden=32, heads=4, grid=(8, 8)):
    c = ModelConfig(depth=depth, hidden=hidden, heads=heads, grid_h=grid[0], grid_w=grid[1])
    return c, init_model(c, seed=seed)


def test_criterion_1_exact_noop_equivalence():
    with criterion(1, "R=0 and every-step-fresh runs match the cache-free sampler bitwise"):
        started = time.perf_counter()
        c, model = toy_model()
        steps = NoiseSchedule.linear(20)
        off = CacheSchedule()
        every_step_fresh = CacheSchedule(ratio=0.9, cycle=1, lam4=0.0)
        for seed in range(10):
            cond = Conditioning.random_class(c, 300 + seed)
            base, _ = run_generation(model, cond, steps, None, seed=seed)
            x_off, s_off = run_generation(model, cond, steps, off, seed=seed)
            x_one, s_one = run_generation(model, cond, steps, every_step_fresh, seed=seed)
            assert np.array_equal(base.values, x_off.values)
            assert np.array_equal(base.values, x_one.values)
            assert s_one.cached_tokens == 0
        assert time.perf_counter() - started < 10.0


def test_criterion_2_full_reuse_equivalence_and_accounting():
    with criterion(2, "full reuse repeats its cycle's fresh prediction; skips are (N0-1)/N0"):
        c, model = toy_model()
        total = 21  # divisible by the cycle so the skip fraction is exact
        steps = NoiseSchedule.linear(total)
        cond = Conditioning.random_class(c, 11)
        _, stats = run_generation(
            model, cond, steps, PROFILES["naive-full"], seed=5, collect_eps=True
        )
        assert stats.fresh_steps == list(range(0, total, 3))
        for step in range(total):
            anchor = max(f for f in stats.fresh_steps if f <= step)
            assert np.array_equal(stats.eps_history[step], stats.eps_history[anchor])
        skipped = sum(1 for e in stats.events if e.computed == 0)
        assert Fraction(skipped, len(stats.events)) == Fraction(2, 3)


def test_criterion_3_selection_matches_sort_oracle():
    with criterion(3, "compute-set selection matches a full-sort oracle on 1000 random inputs"):
        rng = np.random.default_rng(123)
        for trial in range(1000):
            n = int(rng.integers(1, 1025))
            scores = rng.uniform(size=n)
            if trial % 3 == 0:  # quantize to force plenty of ties
                scores = np.round(scores * 8) / 8
            r_eff = float(rng.uniform())
            k = int(math.floor(r_eff * n + 1e-9))
            oracle = set(sorted(range(n), key=lambda i: (scores[i], i))[:k])
            mask = select_compute_set(scores, r_eff)
            assert set(mask.cache_idx) == oracle
            assert set(mask.compute_idx) == set(range(n)) - oracle


def test_criterion_4_score_oracles():
    with criterion(4, "score oracles: s1 mass, s2 entropy bounds, s3 counter law, one boost per cell"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            attn = rng.dirichlet(np.ones(n), size=n)
            lam1 = float(rng.uniform(0.1, 3.0))
            assert abs(score_s1(attn, lam1).sum() - lam1 * n) < 1e-6

            n2 = int(rng.integers(2, 17))
            cross = rng.dirichlet(np.ones(n2), size=n)
            s2 = score_s2(cross)
            assert np.all(s2 >= 0.0) and np.all(s2 <= math.log(n2) + 1e-12)
            direct = np.array([-(row * np.log(row)).sum() for row in cross])
            assert np.allclose(s2, direct, atol=1e-9)

        # counter law over a scripted three-cycle run
        sched = CacheSchedule(ratio=0.5, cycle=3, lam1=1.0, lam3=1.0, lam4=0.0)
        cfg = ModelConfig(depth=1, hidden=8, heads=2, grid_h=2, grid_w=2)
        ctx = CacheContext(sched, cfg, total_steps=9, record_masks=True)
        shadow = np.zeros(4, dtype=int)

        def fn(x, rows=None):
            if rows is None:
                return rng.normal(size=(4, 8)), rng.dirichlet(np.ones(4), size=4)
            return rng.normal(size=(len(rows), 8)), None

        for step in range(9):
            ctx.begin_step(step)
            ctx.dispatch(0, "self_attn", [None], [fn])
            computed = ctx.mask_log[-1][3][0]
            shadow += 1
            shadow[computed] = 0
            assert ctx.stores[0].counters[(0, "self_attn")].tolist() == shadow.tolist()

        # spatial boost promotes exactly one token per grid cell
        for _ in range(20):
            base = rng.uniform(0.1, 1.0, size=48)
            boosted = apply_spatial_boost(base, (6, 8), 2, 0.5)
            assert int((boosted != base).sum()) == 12  # ceil(6/2) * ceil(8/2)


def test_criterion_5_closed_forms_match_instrumented_counter():
    with criterion(5, "closed-form layer FLOPs equal the instrumented counter at three sizes"):
        for n, d, h in ((2, 4, 1), (4, 8, 2), (16, 32, 4)):
            checks = verify_closed_forms(n, d, h, n_text=3)
            assert checks and all(checks.values()), (n, d, h, checks)


def test_criterion_6_dit_xl2_speedup_within_15_percent():
    with criterion(6, "DiT-XL/2 analytic speedup within 15% of 2.32x"):
        started = time.perf_counter()
        report = estimate_run_flops(
            depth=28,
            hidden=1152,
            heads=16,
            n_tokens=256,
            n_text=0,
            total_steps=50,
            cfg_doubled=True,
            schedule=PROFILES["toca-dit"],
        )
        elapsed = time.perf_counter() - started
        assert 2.32 * 0.85 <= report.speedup <= 2.32 * 1.15, report.speedup
        assert elapsed < 1.0


def test_criterion_7_selection_overhead_below_one_percent():
    with criterion(7, "selection overhead below 1% of per-step main FLOPs"):
        per_layer_overhead = flops_selection_overhead(256, 2)
        main = 28 * (flops_self_attention(256, 1152, 16) + flops_mlp(256, 1152))
        # charge the scoring pass once per cacheable module of every layer
        total_overhead = 28 * 2 * per_layer_overhead
        assert total_overhead / main < 0.01


def test_criterion_8_propagation_sanity():
    with criterion(8, "propagation: sigma=0 is silent; final-layer injection matches the linear oracle"):
        c, model = toy_model(depth=2, hidden=8, heads=2, grid=(2, 2))
        cond = Conditioning.null_for(c)
        x = FeatureMatrix(np.random.default_rng(0).normal(size=(4, 8)), (2, 2))
        quiet = measure_error_propagation(model, x, 3.0, cond, 0, "self_attn", 1, 0.0)
        assert np.all(quiet.errors == 0.0)

        zc = ModelConfig(depth=2, hidden=8, heads=2, grid_h=2, grid_w=2)
        zero = init_model(zc, seed=0, zero_init=True)
        token = 2
        prof = measure_error_propagation(
            zero, x, 1.0, Conditioning.null_for(zc), zc.depth, "final", token, 0.5, seed=9
        )
        delta = linalg.gaussian((8,), 0.5, np.random.SeedSequence((9, zc.depth, 3, token)))
        expected = np.zeros(4)
        expected[token] = np.linalg.norm(delta @ zero.out_proj)
        assert np.allclose(prof.errors, expected, atol=1e-9)


def test_criterion_9_frequency_term_tightens_max_cache_count():
    with criterion(9, "frequency scoring never raises the max per-token cache count (5 seeds)"):
        steps = NoiseSchedule.linear(20)
        base = dict(ratio=0.7, cycle=4, lam4=1.0, grid_size=2)
        for s in range(5):
            c = ModelConfig(depth=4, hidden=32, heads=4, grid_h=8, grid_w=8)
            model = init_model(c, seed=100 + s)
            cond = Conditioning.random_class(c, 200 + s)
            maxima = {}
            for lam3 in (0.25, 0.0):
                _, stats = run_generation(
                    model, cond, steps, CacheSchedule(lam3=lam3, **base), seed=s
                )
                maxima[lam3] = int(stats.cache_counts.max())
            assert maxima[0.25] <= maxima[0.0], maxima


def test_criterion_10_cfg_halves_share_masks():
    with criterion(10, "guided halves always share one compute mask"):
        c, model = toy_model(seed=3)
        steps = NoiseSchedule.linear(12)
        cond = Conditioning.random_class(c, 21)
        sched = CacheSchedule(ratio=0.5, cycle=3, lam3=0.5, lam4=1.0, grid_size=2)
        assert sched.cfg_coupled
        _, stats = run_generation(
            model, cond, steps, sched, seed=2, guidance=1.5, record_masks=True
        )
        n = c.grid_h * c.grid_w
        partial = 0
        for _step, _layer, _kind, halves in stats.mask_log:
            assert len(halves) == 2
            assert np.array_equal(halves[0], halves[1])
            if 0 < len(halves[0]) < n:
                partial += 1
        assert partial > 0  # the run actually exercised mixed dispatches
