"""Symmetric Toeplitz matrices with FFT matvec via circulant embedding.

A symmetric Toeplitz matrix is stored as its first row (the "symbol"),
which needs O(m) memory.  Matrix-vector products go through a circulant
embedding of size >= 2m (rounded up to a power of two) and cost
O(m log m); the spectrum of the embedding is computed once and cached.
Up to DENSE_MATVEC_CUTOFF the product uses a cached dense copy instead,
which is faster at those sizes.  The dense copy is one strided view of
the symbol, copied once, and read-only: a SymToeplitz may be shared (the
step matrices share their mass matrix per mesh), so no caller may write
into it.

The multigrid smoother relaxes the even positions E and the odd ones O
in turn, so it works on the rows of T at E or at O instead of full
products (solvers.cf_jacobi_sweep).  Up to the cutoff those are the
views D[0::2] and D[1::2] of the dense copy D, which dense_rows() keeps
beside it.  Above the cutoff they are the stride-2 blocks of T: T_EE
and T_OO are symmetric Toeplitz with symbol t[0::2], T_EO has the entry
t_|2k-1| at lag k = a - b, and T_OE = T_EO^T.  All four embed in one
circulant of size P >= m, half the pad of a full product, so
half_spectra() keeps two spectra: S_EE, which is real and is also S_OO,
and S_EO, whose conjugate is S_OE (Chan & Ng, "Conjugate gradient
methods for Toeplitz systems", SIAM Rev. 38, 1996).  Like the full
spectrum and the row views, they are built on first use and held by the
instance alone.
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
        # Lazy state: spectrum of the circulant embedding, the stride-2
        # blocks' spectra, dense copy and its row views for small m.  All
        # write-once, so concurrent readers at worst duplicate work.  None
        # of them refers back to the instance, so a dropped matrix dies by
        # reference counting alone.
        self._spectrum = None
        self._pad = 0
        self._half = None
        self._dense = None
        self._rows = None

    def _embed_spectrum(self):
        # smallest power of two >= 2m
        pad = 1 << int(2 * self.m - 1).bit_length()
        t = self.symbol
        col = np.zeros(pad)
        col[: self.m] = t
        col[pad - self.m + 1 :] = t[1:][::-1]
        return pad, np.fft.rfft(col)

    def half_spectra(self):
        """(P, S_EE, S_EO): the circulant spectra (numpy.fft.rfft, length
        P // 2 + 1) of the stride-2 blocks, P the smallest power of two
        >= m.  With X_E and X_O the length-P spectra of x[0::2] and
        x[1::2], (T x)[0::2] is the first ceil(m/2) entries of
        irfft(S_EE X_E + S_EO X_O) and (T x)[1::2] the first floor(m/2)
        of irfft(conj(S_EO) X_E + S_EE X_O).  S_EE is real.  Needs
        m >= 2; cached."""
        if self._half is None:
            t, m = self.symbol, self.m
            pad = 1 << (m - 1).bit_length()
            n_even, n_odd = (m + 1) // 2, m // 2
            col = np.zeros(pad)  # lags 0, 1, ..., then the negative ones
            col[:n_even] = t[0::2]
            col[pad - n_even + 1:] = t[2::2][::-1]
            s_ee = np.fft.rfft(col).real.copy()
            col[:] = 0.0
            col[:n_even] = t[np.abs(2 * np.arange(n_even) - 1)]  # t_|2k-1|
            col[pad - n_odd + 1:] = t[2 * n_odd - 1:2:-2]  # t_2j+1, lag -j
            self._half = (pad, s_ee, np.fft.rfft(col))
        return self._half

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
            return (self.to_dense() if dense is None else dense) @ x
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
        """T times x along x's last axis, through the cached spectrum of
        the circulant embedding."""
        if self._spectrum is None:
            self._pad, self._spectrum = self._embed_spectrum()
        p = self._pad
        y = np.fft.irfft(self._spectrum * np.fft.rfft(x, n=p), n=p)
        return y[..., : self.m]

    def __matmul__(self, x):
        return self.matvec(x)

    def to_dense(self):
        """Materialize the full (m, m) array, read-only.  Cached for reuse.

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
            self._dense = dense
        return self._dense

    def dense_rows(self):
        """(D, D[0::2], D[1::2]): the read-only dense copy and the views
        of its even and odd rows, for the smoother's passes.  Cached."""
        if self._rows is None:
            dense = self.to_dense()
            self._rows = (dense, dense[0::2], dense[1::2])
        return self._rows

    def row_sums(self):
        """All row sums as a vector, from one prefix-sum pass."""
        p = np.cumsum(self.symbol)
        idx = np.arange(self.m)
        return p[idx] + p[self.m - 1 - idx] - p[0]

    def diagonal(self):
        """The main diagonal, which is the constant t0 (a scalar that
        broadcasts where ndarray.diagonal() would give a vector)."""
        return self.symbol[0]

    def __repr__(self):
        return f"SymToeplitz(m={self.m}, t0={self.symbol[0]:.6g})"
