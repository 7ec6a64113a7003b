"""Symmetric Toeplitz kernel: FFT matvec, row sums, dense conversion."""

import numpy as np
import pytest
import scipy.linalg

from mtfade import SymToeplitz
from mtfade.toeplitz import DENSE_MATVEC_CUTOFF


def random_symbol(m, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(m)
    t[0] = np.abs(t).sum() + 1.0  # diagonally dominant, SPD-ish
    return t


@pytest.mark.parametrize("m", [3, 64, 257, 1024])
def test_matvec_matches_dense(m):
    T = SymToeplitz(random_symbol(m, seed=m))
    dense = scipy.linalg.toeplitz(T.symbol)
    rng = np.random.default_rng(m + 1)
    for _ in range(3):
        x = rng.standard_normal(m)
        got = T.matvec(x)
        want = dense @ x
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_small_sizes_use_dense_path_same_result():
    m = DENSE_MATVEC_CUTOFF
    T = SymToeplitz(random_symbol(m, seed=7))
    x = np.arange(m, dtype=float)
    assert np.allclose(T.matvec(x), scipy.linalg.toeplitz(T.symbol) @ x,
                       rtol=0, atol=1e-12 * m)


def circulant_product(t, x):
    """T @ x through a circulant embedding of length 2m, independent of
    the class's own padding and caches."""
    m = t.size
    col = np.concatenate((t, [0.0], t[1:][::-1]))
    return np.fft.irfft(np.fft.rfft(col) * np.fft.rfft(x, n=2 * m),
                        n=2 * m)[:m]


@pytest.mark.parametrize("m", [DENSE_MATVEC_CUTOFF, DENSE_MATVEC_CUTOFF + 1])
def test_fft_and_dense_agree_at_the_cutoff(m):
    T = SymToeplitz(random_symbol(m, seed=m))
    x = np.random.default_rng(m).standard_normal(m)
    got = T.matvec(x)
    # the dense copy is built up to the cutoff and not above it
    assert (T._dense is not None) == (m <= DENSE_MATVEC_CUTOFF)
    scale = np.max(np.abs(got))
    for want in (scipy.linalg.toeplitz(T.symbol) @ x,
                 circulant_product(T.symbol, x)):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_row_sums_match_dense():
    T = SymToeplitz(random_symbol(100, seed=3))
    dense = scipy.linalg.toeplitz(T.symbol)
    assert np.allclose(T.row_sums(), dense.sum(axis=1), rtol=1e-13, atol=0)


def test_matvec_is_deterministic_and_cached():
    T = SymToeplitz(random_symbol(300, seed=11))
    x = np.linspace(-1, 1, 300)
    first = T.matvec(x)
    second = T.matvec(x)
    assert np.array_equal(first, second)


def test_rejects_empty_symbol():
    with pytest.raises(ValueError):
        SymToeplitz(np.array([]))
