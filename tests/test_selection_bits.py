"""The selection path's functions against test-local copies of their plain formulas, bitwise.

score_s1, score_s3, apply_spatial_boost and select_compute_set run on every
fresh self-attention or partial dispatch, and model._take_rows on every
partial module call, so they are written for few NumPy calls and no NumPy
Python wrappers. Each copy below is the straightforward form of the same
arithmetic; the engine's function must return the same bits and dtypes,
and raise on the same inputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from toca.cache import (
    ComputeMask,
    apply_spatial_boost,
    cache_token_count,
    score_s1,
    score_s3,
    select_compute_set,
)
from toca.model import _take_rows


def _score_s1(attn, lam1):
    a = np.asarray(attn, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("attention map must be 2-D")
    if not np.abs(a.sum(axis=1) - 1.0).max() <= 1e-6:
        raise ValueError("attention map rows must sum to 1")
    return lam1 * a.sum(axis=0)


def _score_s3(counters, cycle_len):
    if cycle_len < 1:
        raise ValueError("cycle_len must be >= 1")
    c = np.asarray(counters)
    if np.any(c < 0):
        raise ValueError("counters must be non-negative")
    return c.astype(np.float64) / float(cycle_len)


def _apply_spatial_boost(base, grid, grid_size, lam4):
    h, w = grid
    base = np.asarray(base, dtype=np.float64)
    if base.shape != (h * w,):
        raise ValueError(f"expected {h * w} scores for a {h}x{w} grid")
    g = grid_size
    if g < 1:
        raise ValueError("grid_size must be >= 1")
    if g > min(h, w):
        raise ValueError(f"grid_size {g} exceeds grid {grid}")
    ch, cw = (h + g - 1) // g, (w + g - 1) // g
    rr = np.arange(ch * g).reshape(ch, 1, g, 1)
    cc = np.arange(cw * g).reshape(1, cw, 1, g)
    ids = rr * w + cc
    cells = np.where((rr < h) & (cc < w), ids, ids[:, :, :1, :1]).reshape(ch * cw, g * g)
    idx = cells[np.arange(cells.shape[0]), base[cells].argmax(axis=1)]
    boosted = base.copy()
    boosted[idx] = base[idx] * (1.0 + lam4)
    return boosted


def _select_compute_set(scores, r_eff):
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("scores must be a vector")
    n_cache = cache_token_count(r_eff, s.shape[0])
    order = np.argsort(s, kind="stable")
    return ComputeMask(compute_idx=np.sort(order[n_cache:]), cache_idx=np.sort(order[:n_cache]))


def _outcome(fn, *args):
    """fn's result, or the type of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    if want is not ValueError:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)


_INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


@settings(deadline=None, max_examples=300)
@given(
    hnp.arrays(np.int64, st.integers(0, 70), elements=st.one_of(st.integers(0, 12), _INT64)),
    st.integers(-1, 12),
)
@example(np.zeros(0, dtype=np.int64), 3)
@example(np.array([0, 5, -1], dtype=np.int64), 3)
def test_s3_is_the_float64_ratio_and_raises_where_it_did(counters, cycle_len):
    _assert_same_bits(_outcome(score_s3, counters, cycle_len),
                      _outcome(_score_s3, counters, cycle_len))


def test_s3_still_rejects_negative_counters_and_accepts_an_empty_vector():
    with pytest.raises(ValueError, match="non-negative"):
        score_s3(np.array([3, -1, 0], dtype=np.int64), 3)
    out = score_s3(np.zeros(0, dtype=np.int64), 3)
    assert out.dtype == np.float64 and out.shape == (0,)


def _scores(ints):
    """Scores from small integers, so argmax and argsort meet ties."""
    return np.asarray(ints, dtype=np.float64) / 4.0


def _ties(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n)


def _grids_and_scores():
    """((h, w, g), scores): every grid up to 8x8 with a cell that fits, or a ragged 5x7."""
    grid = st.one_of(
        st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
            lambda hw: st.tuples(st.just(hw[0]), st.just(hw[1]), st.integers(1, min(hw)))),
        st.sampled_from([(5, 7, 2), (5, 7, 3)]),
    )
    return grid.flatmap(lambda hwg: st.tuples(st.just(hwg), _ties(hwg[0] * hwg[1])))


@settings(deadline=None, max_examples=300)
@given(_grids_and_scores(), st.sampled_from([0.0, 0.5, 1.0]))
@example(((5, 7, 2), [i % 3 for i in range(35)]), 1.0)
@example(((5, 7, 3), [i % 3 for i in range(35)]), 0.5)
def test_boost_equals_its_plain_formula(grid_and_scores, lam4):
    (h, w, g), ints = grid_and_scores
    base = _scores(ints)
    before = base.copy()
    _assert_same_bits(apply_spatial_boost(base, (h, w), g, lam4),
                      _apply_spatial_boost(base, (h, w), g, lam4))
    assert np.array_equal(base, before)  # the caller's scores are left as they were


@pytest.mark.parametrize("args", [
    (np.ones(4), (2, 2), 3, 1.0),
    (np.ones(4), (2, 2), 0, 1.0),
    (np.ones(5), (2, 2), 1, 1.0),
])
def test_boost_raises_where_its_plain_formula_does(args):
    assert _outcome(apply_spatial_boost, *args) is _outcome(_apply_spatial_boost, *args)
    assert _outcome(apply_spatial_boost, *args) is ValueError


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 80).flatmap(_ties), st.floats(0.0, 1.0))
def test_selection_equals_its_plain_formula_at_every_ratio(ints, r_eff):
    scores = _scores(ints)
    n = scores.shape[0]
    for r in [r_eff, *(k / max(n, 1) for k in range(n + 1))]:
        got, want = select_compute_set(scores, r), _select_compute_set(scores, r)
        _assert_same_bits(got.cache_idx, want.cache_idx)
        _assert_same_bits(got.compute_idx, want.compute_idx)


def test_selection_raises_where_its_plain_formula_does():
    scores = np.ones((2, 3))
    assert _outcome(select_compute_set, scores, 0.5) is ValueError
    assert _outcome(_select_compute_set, scores, 0.5) is ValueError


def _stochastic(n_rows, n_cols, seed):
    """A random row-stochastic map, as a softmax leaves it."""
    return np.random.default_rng(seed).dirichlet(np.ones(n_cols), size=n_rows)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.25, 1.0, 3.0]))
def test_s1_is_lam1_times_the_column_sums(n_rows, n_cols, seed, lam1):
    a = _stochastic(n_rows, n_cols, seed)
    _assert_same_bits(score_s1(a, lam1), lam1 * a.sum(axis=0))
    _assert_same_bits(score_s1(a, lam1), _score_s1(a, lam1))


def _off_maps():
    a = _stochastic(4, 4, 0)
    drift, nan_row, inf_cell = a.copy(), a.copy(), a.copy()
    drift[1, 0] += 2e-6
    nan_row[2] = np.nan
    inf_cell[0, 3] = np.inf
    return [drift, nan_row, inf_cell, np.ones(3), np.ones((2, 2, 2)), np.zeros((0, 3)),
            np.zeros((3, 0)), np.full((4, 4), 0.25) + 1e-7]


@pytest.mark.parametrize("attn", _off_maps(), ids=["drift", "nan-row", "inf", "1-d", "3-d",
                                                   "no-rows", "no-cols", "within-1e-6"])
def test_s1_raises_where_its_plain_formula_does_and_on_nan_rows(attn):
    _assert_same_bits(_outcome(score_s1, attn, 1.0), _outcome(_score_s1, attn, 1.0))


def test_s1_refuses_a_nan_row_the_old_check_let_through():
    a = np.full((4, 4), 0.25)
    a[1] = np.nan
    assert not np.abs(a.sum(axis=1) - 1.0).max() > 1e-6  # the check as it was: no error
    assert _outcome(score_s1, a, 1.0) is ValueError


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 20), st.lists(st.integers(-25, 25), max_size=30), st.integers(0, 9))
def test_take_rows_gathers_x_rows_bitwise_and_raises_out_of_range(n, rows, seed):
    x = np.random.default_rng(seed).standard_normal((n, 3))
    out = np.full((len(rows) + 2, 3), np.nan)
    if all(0 <= r < n for r in rows):
        got = _take_rows(x, rows, out)
        assert got.shape == (len(rows), 3) and (not rows or np.shares_memory(got, out))
        assert got.tobytes() == x[np.asarray(rows, dtype=np.intp)].tobytes()
    else:
        with pytest.raises(IndexError):
            _take_rows(x, rows, out)


@pytest.mark.parametrize("rows", [[-1], [0, 5], [2, -3, 1], [np.iinfo(np.intp).min], [5, 0]])
def test_take_rows_raises_index_error_on_negative_and_too_large_ids(rows):
    x = np.arange(15.0).reshape(5, 3)
    with pytest.raises(IndexError, match=r"\[0, 5\)"):
        _take_rows(x, rows, np.empty((len(rows), 3)))
