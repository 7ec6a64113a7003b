"""Dense classical-AMG oracle with direct interpolation.

This is the O(M^2) baseline the Toeplitz hierarchy is measured against:
matrices are stored densely, interpolation weights are read from the
matrix rows (classical direct interpolation), and coarse operators are
explicit sparse-times-dense triple products.  It exists for comparison
runs and as a test oracle only; keep M modest.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .solvers import (COARSEST_MAX, cf_jacobi_sweep, cholesky_solve,
                      coarsest_cholesky, iterate)

# The most unknowns the oracle takes: its matrices are dense.
DENSE_ORACLE_CAP = 4096


def direct_interp(A: np.ndarray) -> sp.csr_matrix:
    """Direct interpolation from the two stride-2 C-neighbours.

    F-point weights w_ij = -(a_ij / a_ii) * (sum of all off-diagonal
    row entries) / (sum over interpolatory entries); C-points are
    injected.
    """
    m = A.shape[0]
    mc = m // 2
    rows, cols, vals = [], [], []
    diag = np.diag(A)
    offdiag_rowsum = A.sum(axis=1) - diag
    for i in range(0, m, 2):  # F-points (0-based even)
        nbrs = [j for j in (i - 1, i + 1) if 0 <= j < m]
        denom = sum(A[i, j] for j in nbrs)
        scale = offdiag_rowsum[i] / denom
        for j in nbrs:
            rows.append(i)
            cols.append(j // 2)
            vals.append(-A[i, j] * scale / diag[i])
    for j in range(mc):  # C-points injected
        rows.append(2 * j + 1)
        cols.append(j)
        vals.append(1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, mc))


class DenseAmg:
    """Classical AMG hierarchy on dense matrices (stride-2 splitting),
    coarsened like the Toeplitz one until at most COARSEST_MAX unknowns
    remain, whose matrix it factors the same way."""

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=np.float64)
        if A.shape[0] > DENSE_ORACLE_CAP:
            raise ValueError(
                f"dense oracle capped at {DENSE_ORACLE_CAP} unknowns")
        self.matrices = [A]  # finest first; the last one is factored
        self.prolongs = []  # one per smoothed level
        while self.matrices[-1].shape[0] > COARSEST_MAX:
            mat = self.matrices[-1]
            P = direct_interp(mat)
            self.prolongs.append(P)
            self.matrices.append(P.T @ (P.T @ mat.T).T)  # P^T A P, O(M^2)
        self._coarsest_chol = coarsest_cholesky(self.matrices[-1])

    def _vcycle(self, level: int, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        if level == len(self.prolongs):
            return cholesky_solve(self._coarsest_chol, b)
        A, P = self.matrices[level], self.prolongs[level]
        x, residual = cf_jacobi_sweep(A, x, b)
        xc = self._vcycle(level + 1, P.T @ residual(), np.zeros(P.shape[1]))
        x = x + P @ xc
        return cf_jacobi_sweep(A, x, b)[0]

    def solve(self, b: np.ndarray, tol: float = 1e-12, maxit: int = 1000):
        """Iterate V(1,1)-cycles (one per step of iterate()) to tol."""
        return iterate(self.matrices[0], b,
                       lambda b, x, r, budget: (self._vcycle(0, b, x), 1,
                                                None),
                       tol, maxit, None, "camg-dense")
