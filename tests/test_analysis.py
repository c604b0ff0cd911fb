import numpy as np
import pytest

from toca import (
    CacheSchedule,
    Conditioning,
    FeatureMatrix,
    ModelConfig,
    NoiseSchedule,
    PROFILES,
    build_cache_frequency_map,
    init_model,
    measure_error_propagation,
    measure_temporal_redundancy,
    run_generation,
)
from toca.analysis import FrequencyMap, row_distances
from toca.sampler import RunStats


def toy(depth=2, **kw):
    c = ModelConfig(depth=depth, hidden=8, heads=2, grid_h=2, grid_w=2, **kw)
    return c, init_model(c, seed=4), Conditioning.random_class(c, 1)


def test_row_distances_oracle():
    a = np.zeros((2, 3))
    b = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(row_distances(a, b), [5.0, 0.0])
    with pytest.raises(ValueError):
        row_distances(np.zeros((2, 2)), np.zeros((2, 3)))


def test_redundancy_profile_shape():
    c, model, cond = toy()
    ns = NoiseSchedule.linear(6)
    prof = measure_temporal_redundancy(model, cond, ns, seed=0)
    assert prof.distances.shape == (c.depth, 5, c.n_tokens)
    assert prof.n_steps == 6
    assert prof.per_layer_mean.shape == (c.depth, 5)
    assert np.all(prof.distances >= 0.0)


def test_redundancy_near_constant_trajectory():
    """Frozen dynamics: no timestep signal, zero modules, no output drift."""
    c = ModelConfig(depth=2, hidden=8, heads=2, grid_h=2, grid_w=2, time_scale=0.0)
    model = init_model(c, seed=0, zero_init=True)
    model.out_proj[:] = 0.0  # predict exactly zero noise
    cond = Conditioning.null_for(c)
    ns = NoiseSchedule(np.full(5, 1e-12))
    prof = measure_temporal_redundancy(model, cond, ns, seed=3, sampler="ddim")
    assert prof.distances.max() < 1e-9


def test_redundancy_subset_of_layers():
    c, model, cond = toy(depth=3)
    ns = NoiseSchedule.linear(4)
    prof = measure_temporal_redundancy(model, cond, ns, layers=[2], seed=0)
    assert prof.layers == [2]
    assert prof.distances.shape == (1, 3, 4)
    with pytest.raises(ValueError):
        measure_temporal_redundancy(model, cond, ns, layers=[7], seed=0)


def test_propagation_sigma_zero_is_exactly_zero():
    c, model, cond = toy()
    x = FeatureMatrix(np.random.default_rng(0).normal(size=(4, 8)), (2, 2))
    prof = measure_error_propagation(model, x, 3.0, cond, 0, "self_attn", 1, 0.0)
    assert np.all(prof.errors == 0.0)


@pytest.mark.parametrize("relative", [False, True])
def test_propagation_sigma_outside_the_config_bound_is_rejected(relative):
    """Library callers get the bound [analyze] sigma has, not nan errors."""
    from toca.config import SCALE_LIMIT

    c, model, cond = toy()
    x = FeatureMatrix(np.random.default_rng(0).normal(size=(4, 8)), (2, 2))
    run = lambda sigma: measure_error_propagation(  # noqa: E731
        model, x, 3.0, cond, 0, "self_attn", 1, sigma, relative=relative
    )
    for sigma in (1e160, np.nextafter(SCALE_LIMIT, np.inf), -0.1, float("nan")):
        with pytest.raises(ValueError, match="sigma must be in"):
            run(sigma)
    assert np.all(np.isfinite(run(SCALE_LIMIT).errors))


def test_propagation_final_layer_zero_init_oracle():
    """With zero modules and an identity head the error is just the delta norm."""
    c = ModelConfig(depth=2, hidden=8, heads=2, grid_h=2, grid_w=2)
    model = init_model(c, seed=0, zero_init=True)
    cond = Conditioning.null_for(c)
    x = FeatureMatrix(np.random.default_rng(1).normal(size=(4, 8)), (2, 2))
    token = 2
    prof = measure_error_propagation(model, x, 1.0, cond, c.depth, "final", token, 0.5, seed=9)
    # reproduce the same draw the harness makes and push it through the head
    from toca import linalg

    kind_idx = 3
    delta = linalg.gaussian((8,), 0.5, np.random.SeedSequence((9, c.depth, kind_idx, token)))
    expected = np.zeros(4)
    expected[token] = np.linalg.norm(delta @ model.out_proj)
    assert np.allclose(prof.errors, expected, atol=1e-9)


def test_propagation_error_vector_length_and_spread():
    c, model, cond = toy()
    x = FeatureMatrix(np.random.default_rng(2).normal(size=(4, 8)), (2, 2))
    prof = measure_error_propagation(model, x, 2.0, cond, 0, "self_attn", 1, 0.5)
    assert prof.errors.shape == (4,)
    # attention mixing spreads a first-layer hit beyond the injected token
    assert np.count_nonzero(prof.errors) > 1


def test_propagation_relative_mode_scales_sigma():
    c, model, cond = toy()
    x = FeatureMatrix(np.random.default_rng(3).normal(size=(4, 8)), (2, 2))
    absol = measure_error_propagation(model, x, 2.0, cond, 0, "mlp", 0, 0.5, relative=False)
    rel = measure_error_propagation(model, x, 2.0, cond, 0, "mlp", 0, 0.5, relative=True)
    assert absol.sigma == 0.5
    assert rel.sigma != 0.5  # scaled by the injected row's norm


def test_propagation_normalize_divides_by_mean_norm():
    c, model, cond = toy()
    x = FeatureMatrix(np.random.default_rng(4).normal(size=(4, 8)), (2, 2))
    raw = measure_error_propagation(model, x, 2.0, cond, 1, "mlp", 3, 0.5, seed=2)
    norm = measure_error_propagation(model, x, 2.0, cond, 1, "mlp", 3, 0.5, seed=2, normalize=True)
    eps_clean = model.forward(x, 2.0, cond)
    denom = np.mean(np.linalg.norm(eps_clean.values, axis=1))
    assert np.allclose(norm.errors, raw.errors / denom)


def test_propagation_rejects_bad_site():
    c, model, cond = toy()
    x = FeatureMatrix(np.zeros((4, 8)), (2, 2))
    for layer, kind, token in (
        (5, "mlp", 0),
        (5, "self_attn", 0),
        (c.depth, "mlp", 0),  # only the head sits at layer depth
        (0, "final", 0),
        (-1, "self_attn", 0),
        (0, "cross_attn", 0),  # class-conditional: no cross-attention
        (0, "self_attn", 4),  # 4 tokens
        (0, "self_attn", -1),
    ):
        for relative in (False, True):
            with pytest.raises(ValueError):
                measure_error_propagation(
                    model, x, 1.0, cond, layer, kind, token, 0.1, relative=relative
                )
    with pytest.raises(ValueError):
        measure_error_propagation(model, x, 1.0, cond, 0, "mlp", 0, -0.1)
    for layer, kind in c.sites:
        for relative in (False, True):
            prof = measure_error_propagation(
                model, x, 1.0, cond, layer, kind, 3, 0.1, relative=relative
            )
            assert prof.errors.shape == (4,)


def test_frequency_map_full_reuse_counting():
    c, model, cond = toy()
    total = 6
    ns = NoiseSchedule.linear(total)
    _, stats = run_generation(model, cond, ns, PROFILES["naive-full"], seed=0)
    fmap = build_cache_frequency_map(stats, c.grid)
    non_fresh = total - len(stats.fresh_steps)
    dispatches_per_step = c.depth * len(c.group_kinds) + 1
    assert np.all(fmap.counts == non_fresh * dispatches_per_step)


def test_frequency_map_conservation():
    c, model, cond = toy()
    ns = NoiseSchedule.linear(9)
    _, stats = run_generation(model, cond, ns, CacheSchedule(ratio=0.6, cycle=3, lam3=0.2), seed=1)
    fmap = build_cache_frequency_map(stats, c.grid)
    assert fmap.total == sum(e.cached for e in stats.events)


def test_frequency_map_requires_cached_run():
    c, model, cond = toy()
    ns = NoiseSchedule.linear(3)
    _, stats = run_generation(model, cond, ns, cache_schedule=None, seed=0)
    with pytest.raises(ValueError):
        build_cache_frequency_map(stats, c.grid)


def test_frequency_map_zero_counts_render_white():
    stats = RunStats(total_steps=3, cache_counts=np.zeros((1, 4), dtype=np.int64))
    fmap = build_cache_frequency_map(stats, (2, 2))
    assert fmap.total == 0
    pgm = fmap.to_pgm()
    assert pgm.startswith(b"P5\n2 2\n255\n")
    assert pgm.endswith(b"\xff" * 4)


def test_frequency_map_pgm_shading_and_comment():
    fmap = FrequencyMap(np.array([[10, 0], [5, 10]]))
    pgm = fmap.to_pgm(comment="config abc123")
    header, payload = pgm.rsplit(b"\n", 1)
    assert b"# config abc123" in header
    assert payload[0] == 0  # most cached renders darkest
    assert payload[1] == 255
    assert payload[2] == 255 - round(5 / 10 * 255)
