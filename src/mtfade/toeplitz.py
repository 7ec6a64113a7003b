"""Symmetric Toeplitz matrices with FFT matvec via circulant embedding.

A symmetric Toeplitz matrix is stored as its first row (the "symbol"),
which needs O(m) memory.  Matrix-vector products go through a circulant
embedding of size >= 2m (rounded up to a power of two) and cost
O(m log m); the spectrum of the embedding is computed once and cached.
Up to DENSE_MATVEC_CUTOFF the product uses a cached dense copy instead,
which is faster at those sizes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# Up to this dimension the cached dense product beats the FFT round trip.
# Measured with one BLAS thread (numpy 2.4, 2-core x86-64 host): dense
# 14 us against FFT 29 us at m = 255, FFT 28 us against dense 62 us at
# m = 511; the two cross near m = 384-416.  A dense copy at the cutoff
# holds 384^2 doubles (1.2 MB).
DENSE_MATVEC_CUTOFF = 384

# Safety cap for dense materialization.
DENSE_CAP = 8192


class SymToeplitz:
    """Symmetric Toeplitz matrix; entry (i, j) equals symbol[|i - j|]."""

    def __init__(self, symbol):
        symbol = np.ascontiguousarray(symbol, dtype=np.float64)
        if symbol.ndim != 1 or symbol.size == 0:
            raise ValueError("symbol must be a nonempty 1-D array")
        self.symbol = symbol
        self.m = symbol.size
        self.shape = (self.m, self.m)
        # Lazy state: spectrum of the circulant embedding, dense copy for
        # small m.  Both write-once, so concurrent readers at worst
        # duplicate work.
        self._spectrum = None
        self._pad = 0
        self._dense = None

    def _embed_spectrum(self):
        # smallest power of two >= 2m
        pad = 1 << int(2 * self.m - 1).bit_length()
        t = self.symbol
        col = np.zeros(pad)
        col[: self.m] = t
        col[pad - self.m + 1 :] = t[1:][::-1]
        return pad, np.fft.rfft(col)

    def matvec(self, x):
        """Return T @ x: a cached dense product up to DENSE_MATVEC_CUTOFF,
        the cached circulant spectrum above it."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.m,):
            raise ValueError(f"expected vector of length {self.m}, got {x.shape}")
        if self.m <= DENSE_MATVEC_CUTOFF:
            return self.to_dense() @ x
        if self._spectrum is None:
            self._pad, self._spectrum = self._embed_spectrum()
        p = self._pad
        y = np.fft.irfft(self._spectrum * np.fft.rfft(x, n=p), n=p)
        return y[: self.m]

    def __matmul__(self, x):
        return self.matvec(x)

    def to_dense(self):
        """Materialize the full (m, m) array.  Cached for reuse."""
        if self.m > DENSE_CAP:
            raise ValueError(f"dense cap exceeded: m={self.m} > {DENSE_CAP}")
        if self._dense is None:
            self._dense = scipy.linalg.toeplitz(self.symbol)
        return self._dense

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
