"""Symmetric Toeplitz kernel: FFT matvec, stride-2 rows, row sums, dense
conversion, and the modules that may know its product forms."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import mtfade
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


@pytest.mark.parametrize("m, shape", [
    (DENSE_MATVEC_CUTOFF + 1, (DENSE_MATVEC_CUTOFF + 1, 2)),  # FFT path
    (8, (8, 2, 2)), (8, ()), (8, (7,)), (8, (7, 2)),
    (8, (8, 2)),  # a block on the dense path too
])
def test_matvec_rejects_what_is_not_a_vector_or_a_dense_block(m, shape):
    T = SymToeplitz(random_symbol(m, seed=m))
    with pytest.raises(ValueError):
        T.matvec(np.ones(shape))


@pytest.mark.parametrize("m", [31, DENSE_MATVEC_CUTOFF + 1])
def test_row_products_match_matvec(m):
    # the dense path and the batch of FFTs
    T = SymToeplitz(random_symbol(m, seed=m))
    rows = np.random.default_rng(m).standard_normal((5, m))
    got = T.row_products(rows)
    assert got.shape == rows.shape
    for x, y in zip(rows, got):
        want = T.matvec(x)
        assert np.max(np.abs(y - want)) <= 1e-13 * np.max(np.abs(want))
    for shape in ((m,), (m, 5), (2, 2, m)):
        with pytest.raises(ValueError):
            T.row_products(np.ones(shape))


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


@pytest.mark.parametrize("m", [1, 2, 3, 15, 16, 63, 384])
def test_dense_copy_is_scipy_toeplitz(m):
    T = SymToeplitz(random_symbol(m, seed=m + 100))
    dense = T.to_dense()
    want = scipy.linalg.toeplitz(T.symbol)
    assert dense.shape == (m, m) and dense.flags.c_contiguous
    assert np.array_equal(dense, want)
    assert T.to_dense() is dense  # made once


def test_dense_copy_is_read_only():
    # a SymToeplitz may be shared (a mesh's mass matrix is), so a write
    # into its cached dense copy must fail, not change later products
    T = SymToeplitz(random_symbol(16, seed=5))
    x = np.arange(16.0)
    before = T.matvec(x)
    with pytest.raises(ValueError):
        T.to_dense()[0, 0] = 0.0
    assert np.array_equal(T.matvec(x), before)


@pytest.mark.parametrize("m", [1, 2, 15, 16, DENSE_MATVEC_CUTOFF])
def test_dense_row_views_are_cached_and_read_only(m):
    # the smoother's even and odd rows of the shared dense copy
    T = SymToeplitz(random_symbol(m, seed=m + 200))
    rows = T.dense_rows()
    dense, even, odd = rows
    assert dense is T.to_dense() and T.dense_rows() is rows
    assert np.array_equal(even, dense[0::2])
    assert np.array_equal(odd, dense[1::2])
    for view in (even, odd):
        assert view.base is dense and not view.flags.writeable
        with pytest.raises(ValueError):
            view[...] = 0.0
    assert np.array_equal(dense, scipy.linalg.toeplitz(T.symbol))


def test_matvec_takes_any_real_vector_as_float64():
    # a float64 ndarray is used as it is; anything else is converted
    T = SymToeplitz(random_symbol(9, seed=9))
    x = np.arange(9.0) - 4.0
    want = T.matvec(x)
    for v in (list(x), x.astype(np.int64), x.astype(np.float32),
              x.astype(">f8"), np.repeat(x, 2)[::2]):
        assert np.array_equal(T.matvec(v), want)


@pytest.mark.parametrize("m", [385, 386, 1023, 1024])
def test_stride2_blocks_match_the_full_product(m):
    # odd and even m: the four stride-2 blocks read from stride2_rows,
    # against the even and odd rows of the full circulant product and the
    # dense blocks
    T = SymToeplitz(random_symbol(m, seed=m))
    assert m > DENSE_MATVEC_CUTOFF and T._half is None  # built on first use
    assert T.dense_rows() is None  # the smoother reads stride2_rows here
    spectrum, rows = T.stride2_rows()
    ev, od = slice(0, None, 2), slice(1, None, 2)
    x = np.random.default_rng(m + 2).standard_normal(m)
    xf, xc = spectrum(x[ev]), spectrum(x[od])
    pad, s_ee, s_eo = T._half
    assert pad == 1 << (m - 1).bit_length()  # >= m: half a full pad
    full = T._circulant_product(x)
    assert 2 * pad == T._circulant[0]
    assert s_ee.dtype == np.float64  # real
    assert xf.shape == xc.shape == s_ee.shape == s_eo.shape == (
        pad // 2 + 1,)
    T.stride2_rows()
    assert T._half[1] is s_ee  # cached
    dense = scipy.linalg.toeplitz(T.symbol)
    nf, nc = (m + 1) // 2, m // 2

    def block(s, xs, n):
        return np.fft.irfft(s * xs, n=pad)[:n]

    scale = np.max(np.abs(full))
    for got, want in (
            (rows(0, xf, xc), full[ev]),
            (rows(1, xf, xc), full[od]),
            (rows(0, xf, 0.0), dense[ev, ev] @ x[ev]),
            (rows(0, 0.0, xc), dense[ev, od] @ x[od]),
            (rows(1, xf, 0.0), dense[od, ev] @ x[ev]),
            (rows(1, 0.0, xc), dense[od, od] @ x[od])):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
    # the identities behind storing two spectra: the circulant column of
    # T_OE alone (entry t_|2k+1| at lag k = a - b) has the spectrum
    # conj(S_EO), and that of T_OO alone (symbol t[0::2] up to lag
    # m // 2 - 1) acts on the odd half as S_EE does
    t = T.symbol
    col_oe, col_oo = np.zeros(pad), np.zeros(pad)
    for k in range(-(nf - 1), nc):
        col_oe[k % pad] = t[abs(2 * k + 1)]
    for k in range(-(nc - 1), nc):
        col_oo[k % pad] = t[abs(2 * k)]
    s_oe = np.fft.rfft(col_oe)
    assert np.max(np.abs(s_oe - s_eo.conj())) <= 1e-14 * np.max(np.abs(s_eo))
    s_oo = np.fft.rfft(col_oo)
    assert np.max(np.abs(block(s_oo, xc, nc) - rows(1, 0.0, xc))) <= (
        1e-13 * scale)


def names_in_code(node):
    """The names an ast node refers to: a.b for an attribute of a name,
    the attribute, the name, and what an import binds, dotted."""
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"
        yield node.attr
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        module = getattr(node, "module", None)
        for alias in node.names:
            yield alias.name
            if module:
                yield f"{module}.{alias.name}"


def test_only_this_module_knows_the_product_forms():
    # The circulant layouts and the dense/FFT cutoff live in toeplitz.py;
    # any other module that refers to numpy.fft or DENSE_MATVEC_CUTOFF in
    # its code (docstrings and comments do not count) fails.
    found = []
    for path in sorted(Path(mtfade.__file__).parent.glob("*.py")):
        if path.name == "toeplitz.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            for name in names_in_code(node):
                if (name in ("np.fft", "numpy.fft", "DENSE_MATVEC_CUTOFF")
                        or name.startswith("numpy.fft.")):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found
