import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from toca import linalg


def test_as_matrix_accepts_lists():
    m = linalg.as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.flags["C_CONTIGUOUS"]
    assert m.shape == (2, 2)


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        linalg.as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((2, 2, 2)))


def test_softmax_oracle():
    # exp([ln 2, 0]) = [2, 1] -> [2/3, 1/3]
    out = linalg.softmax_rows(np.array([[np.log(2.0), 0.0]]))
    assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)


def test_softmax_shift_invariant():
    m = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(linalg.softmax_rows(m), linalg.softmax_rows(m + 100.0))


def test_softmax_large_logits_stable():
    out = linalg.softmax_rows(np.array([[1000.0, 1000.0]]))
    assert np.allclose(out, [[0.5, 0.5]])


@settings(deadline=None, max_examples=50)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
        elements=st.floats(-50, 50),
    )
)
def test_softmax_rows_sum_to_one(m):
    out = linalg.softmax_rows(m)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out >= 0.0)


def test_softmax_out_matches_fresh_result_bitwise():
    rng = np.random.default_rng(6)
    for shape in ((1, 1), (3, 7), (16, 5), (64, 64)):
        m = rng.normal(scale=20.0, size=shape)
        before = m.copy()
        fresh = linalg.softmax_rows(m)
        assert np.array_equal(m, before)  # out=None leaves the input alone
        out = linalg.softmax_rows(m, out=m)
        assert out is m
        assert np.array_equal(out, fresh)


def _softmax_max_shift(m):
    """The textbook softmax: subtract max(axis=1), exponentiate, normalise."""
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


inf, nan = np.inf, np.nan


@pytest.mark.parametrize(
    "m",
    [
        [[1.0, 3.0, 3.0, 2.0], [5.0, 5.0, 5.0, 5.0], [-2.0, 7.0, -2.0, 7.0]],
        [[-0.0, 0.0, -1.0], [0.0, -0.0, -0.0], [-0.0, -0.0, -3.0], [-5.0, 0.0, -0.0]],
        [[inf, 1.0, 2.0], [-inf, 0.0, 1.0], [-inf, -inf, -inf], [inf, inf, 0.0], [inf, -inf, 3.0]],
        [[nan, nan, nan], [1.0, nan, 2.0], [nan, nan, nan]],
        [[3.0], [-0.0], [-inf], [nan]],
        np.empty((0, 3)),
    ],
    ids=["tied", "signed-zeros", "inf", "nan", "one-column", "zero-rows"],
)
def test_softmax_edge_cases_match_max_shift(m):
    m = np.array(m, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        ref = _softmax_max_shift(m)
        out = linalg.softmax_rows(m)
    assert out.shape == m.shape
    assert np.array_equal(out, ref, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


def test_softmax_zero_columns_rejected():
    with pytest.raises(ValueError):
        linalg.softmax_rows(np.empty((2, 0)))


def test_gaussian_deterministic():
    s = np.random.SeedSequence((7, 3))
    a = linalg.gaussian((4, 5), 1.3, np.random.SeedSequence((7, 3)))
    b = linalg.gaussian((4, 5), 1.3, s)
    assert np.array_equal(a, b)


def test_gaussian_seed_sensitivity():
    a = linalg.gaussian((4, 4), 1.0, 0)
    b = linalg.gaussian((4, 4), 1.0, 1)
    assert not np.array_equal(a, b)


def test_gaussian_sigma_zero_is_exact_zeros():
    z = linalg.gaussian((3, 3), 0.0, 42)
    assert np.all(z == 0.0)


def test_gaussian_negative_sigma_rejected():
    with pytest.raises(ValueError):
        linalg.gaussian((2, 2), -0.1, 0)


def test_gaussian_scales_linearly():
    a = linalg.gaussian((6, 6), 1.0, 9)
    b = linalg.gaussian((6, 6), 2.5, 9)
    assert np.allclose(b, 2.5 * a)
