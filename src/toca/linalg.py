"""Dense float64 kernels shared by the rest of the package.

Everything here is pure and operates on plain numpy arrays, so the functions
are safe to call from worker threads. Random draws use PCG64 (numpy's default
bit generator) with an explicit seed; the same seed reproduces the same bits,
which the bit-exact equivalence tests depend on.
"""

from __future__ import annotations

import numpy as np

Seed = int | np.random.SeedSequence


def as_matrix(values) -> np.ndarray:
    """Coerce input to a C-contiguous float64 2-D array."""
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def softmax_rows(m, out=None) -> np.ndarray:
    """Row-wise softmax, stabilised by subtracting each row's max.

    ``out``, when given, receives the result and may be ``m`` itself, which
    spares a caller that no longer needs its logits a second matrix.
    """
    m = as_matrix(m)
    out = np.subtract(m, m.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def gaussian(shape, sigma: float, seed: Seed) -> np.ndarray:
    """i.i.d. N(0, sigma^2) samples of the requested shape.

    sigma = 0 returns exact zeros. The draw comes from a fresh
    Generator(PCG64(seed)), so identical seeds give identical outputs.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(shape) * float(sigma)
