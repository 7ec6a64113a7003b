"""Symmetric Toeplitz matrices and their two product forms.

A symmetric Toeplitz matrix is stored as its first row (the "symbol"),
which needs O(m) memory.  This module is the one that knows how it
multiplies.  Up to DENSE_MATVEC_CUTOFF a product reads a dense copy D,
one strided view of the symbol copied once.  Above it a product goes
through a circulant embedding of size >= 2m, a power of two, whose
spectrum is computed once: O(m log m) per product.  Each form is built
on first use and held by the instance alone.  The symbol, the dense copy
and the spectra are read-only: a SymToeplitz may be shared (the step
matrices share their mass matrix per mesh), so no caller may write into
them.

The multigrid smoother relaxes the even positions E and the odd ones O
in turn, so it asks for the rows of T x at E or at O rather than full
products (solvers.cf_jacobi_sweep).  In the dense form those are the
views D[0::2] and D[1::2] (dense_rows).  In the FFT form they come from
the stride-2 blocks of T: T_EE and T_OO are symmetric Toeplitz with
symbol t[0::2], T_EO has the entry t_|2k-1| at lag k = a - b, and
T_OE = T_EO^T.  All four embed in one circulant of size P >= m, half the
pad of a full product, with two spectra: S_EE, which is real and also
acts as S_OO, and S_EO, whose conjugate is S_OE (Chan & Ng, "Conjugate
gradient methods for Toeplitz systems", SIAM Rev. 38, 1996).  A caller
transforms each half of x once and reads rows from the transforms
(stride2_rows), so a changed half costs one transform.  Those transforms
write into work arrays the stride-2 form keeps, a spectrum slot per
parity and one output of the inverse transform, so at a large pad no
call allocates pad-sized arrays and faults their pages in.  So a
matrix's stride-2 form serves one sweep at a time, and a result is
valid until the next transform of its kind (stride2_rows).
"""

from __future__ import annotations

import numpy as np

# Up to this dimension the cached dense product beats the FFT round trip.
# Measured with one BLAS thread (numpy 2.4, 2-core x86-64 host): dense
# 14 us against FFT 29 us at m = 255, FFT 28 us against dense 62 us at
# m = 511; the two cross near m = 384-416.  A dense copy at the cutoff
# holds 384^2 doubles (1.2 MB).
DENSE_MATVEC_CUTOFF = 384

# Safety cap for dense materialization.
DENSE_CAP = 8192

_FLOAT64 = np.dtype(np.float64)


class SymToeplitz:
    """Symmetric Toeplitz matrix; entry (i, j) equals symbol[|i - j|]."""

    def __init__(self, symbol):
        symbol = np.ascontiguousarray(symbol, dtype=np.float64)
        if symbol.ndim != 1 or symbol.size == 0:
            raise ValueError("symbol must be a nonempty 1-D array")
        self.symbol = symbol
        self.m = symbol.size
        self.shape = (self.m, self.m)
        # One cache per product form: (D, D[0::2], D[1::2]), the full
        # circulant's (pad, spectrum) and the stride-2 one's (P, S_EE,
        # S_EO, spectrum, rows), whose two functions write into the
        # form's work arrays.  None refers back to the instance, so a
        # dropped matrix dies by reference counting alone.
        self._dense = None
        self._circulant = None
        self._half = None

    def matvec(self, x):
        """Return T @ x for a vector x: a cached dense product up to
        DENSE_MATVEC_CUTOFF, the cached circulant spectrum above it."""
        # A float64 ndarray, the one type the solvers pass, is taken as
        # it is, and the dense copy is read directly: at m = 31 a re-wrap
        # and a to_dense() call cost about a sixth of the product.
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.m,):
            raise ValueError(f"expected vector of length {self.m}, got {x.shape}")
        if self.m <= DENSE_MATVEC_CUTOFF:
            dense = self._dense
            return (self.to_dense() if dense is None else dense[0]) @ x
        return self._circulant_product(x)

    def row_products(self, rows):
        """Return T x for each row x of a (k, m) block, as the rows of a
        (k, m) array: one dense product up to DENSE_MATVEC_CUTOFF, one
        batch of FFTs above it."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.m:
            raise ValueError(
                f"expected rows of length {self.m}, got {rows.shape}")
        if self.m <= DENSE_MATVEC_CUTOFF:
            return rows @ self.to_dense()  # T is symmetric
        return self._circulant_product(rows)

    def _circulant_product(self, x):
        """T times x along x's last axis, through the circulant of size
        2m rounded up to a power of two."""
        if self._circulant is None:
            self._circulant = self._embed()
        pad, spectrum = self._circulant
        y = np.fft.irfft(spectrum * np.fft.rfft(x, n=pad), n=pad)
        return y[..., : self.m]

    def _embed(self):
        """(pad, spectrum): the circulant of size 2m rounded up to a
        power of two, and its spectrum (numpy.fft.rfft)."""
        t, m = self.symbol, self.m
        pad = 1 << (2 * m - 1).bit_length()
        col = np.zeros(pad)
        col[:m] = t
        col[pad - m + 1:] = t[1:][::-1]
        return pad, np.fft.rfft(col)

    def stride2_rows(self):
        """(spectrum, rows): the rows of T x at the even or the odd
        positions above DENSE_MATVEC_CUTOFF, as dense_rows gives them
        below it.  spectrum(parity, v) is the transform of a half
        v = x[parity::2] (numpy.fft.rfft zero-padded to P, the smallest
        power of two >= m): one forward transform of length P, written
        into the matrix's slot for that parity.  rows(parity, xf, xc) is
        (T x)[parity::2] from xf and xc, the spectra of x[0::2] and
        x[1::2], either of which may be the scalar 0.0 for a zero half:
        the first ceil(m/2) entries of irfft(S_EE xf + S_EO xc) for the
        even rows, the first floor(m/2) of irfft(conj(S_EO) xf + S_EE xc)
        for the odd ones, one inverse transform of length P.

        Both write into work arrays the matrix keeps, so a large pad is
        not allocated, and its pages faulted in, on every call.  A
        parity's spectrum is valid until the next spectrum() of that
        parity, and the view rows() returns until the next rows() call.
        The spectra and the work arrays are built on the first call and
        cached; needs m >= 2."""
        half = self._half
        if half is None:
            half = self._half = self._stride2_form()
        return half[3], half[4]

    def _stride2_form(self):
        """(P, S_EE, S_EO, spectrum, rows) for stride2_rows."""
        t, m = self.symbol, self.m
        n_even, n_odd = (m + 1) // 2, m // 2
        pad = 1 << (m - 1).bit_length()
        col = np.zeros(pad)  # lags 0, 1, ..., then the negative ones
        col[:n_even] = t[0::2]
        col[pad - n_even + 1:] = t[2::2][::-1]
        s_ee = np.fft.rfft(col).real.copy()
        col[:] = 0.0
        col[:n_even] = t[np.abs(2 * np.arange(n_even) - 1)]  # t_|2k-1|
        col[pad - n_odd + 1:] = t[2 * n_odd - 1:2:-2]  # t_2j+1, lag -j
        s_eo = np.fft.rfft(col)
        s_oe = s_eo.conj()
        # a spectrum slot per parity, the spectral product's two terms
        # and the inverse transform's output
        slots = np.empty_like(s_eo), np.empty_like(s_eo)
        prod, term = np.empty_like(s_eo), np.empty_like(s_eo)
        y = np.empty(pad)

        def spectrum(parity, v):
            return np.fft.rfft(v, n=pad, out=slots[parity])

        def rows(parity, xf, xc):
            if parity:
                np.multiply(s_oe, xf, out=prod)
                np.multiply(s_ee, xc, out=term)
                n = n_odd
            else:
                np.multiply(s_ee, xf, out=prod)
                np.multiply(s_eo, xc, out=term)
                n = n_even
            np.add(prod, term, out=prod)
            return np.fft.irfft(prod, n=pad, out=y)[:n]
        return pad, s_ee, s_eo, spectrum, rows

    def to_dense(self):
        """Materialize the full (m, m) array, read-only.  Cached for reuse,
        with the views of its rows (dense_rows).

        With v = (t_{m-1}, ..., t_1, t_0, t_1, ..., t_{m-1}), row i is
        v[m-1-i : 2m-1-i]: one view of v, rows stepping back one entry,
        then one copy.  The view is a plain ndarray on v's buffer, which
        costs a few microseconds less than numpy's as_strided."""
        if self.m > DENSE_CAP:
            raise ValueError(f"dense cap exceeded: m={self.m} > {DENSE_CAP}")
        if self._dense is None:
            t = self.symbol
            v = np.concatenate((t[:0:-1], t))
            step = v.itemsize
            dense = np.ndarray(self.shape, np.float64, buffer=v,
                               offset=(self.m - 1) * step,
                               strides=(-step, step)).copy()
            dense.setflags(write=False)
            self._dense = (dense, dense[0::2], dense[1::2])
        return self._dense[0]

    def dense_rows(self):
        """(D, D[0::2], D[1::2]): the read-only dense copy and the views
        of its even and odd rows, for the smoother's passes, up to
        DENSE_MATVEC_CUTOFF; None above it, where stride2_rows gives
        them.  Cached."""
        if self.m > DENSE_MATVEC_CUTOFF:
            return None
        if self._dense is None:
            self.to_dense()
        return self._dense

    def row_sums(self):
        """All row sums as a vector, from one prefix-sum pass."""
        p = np.cumsum(self.symbol)
        idx = np.arange(self.m)
        return p[idx] + p[self.m - 1 - idx] - p[0]

    def __repr__(self):
        return f"SymToeplitz(m={self.m}, t0={self.symbol[0]:.6g})"
