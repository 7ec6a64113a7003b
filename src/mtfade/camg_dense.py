"""Dense classical-AMG oracle with direct interpolation.

This is the O(M^2) baseline the Toeplitz hierarchy is measured against:
matrices are stored densely, interpolation weights are read from the
matrix rows (classical direct interpolation), and coarse operators are
explicit sparse-times-dense triple products.  It exists for comparison
runs and as a test oracle only; keep M modest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
import scipy.sparse as sp

from .solvers import cf_jacobi_sweep, iterate, lu_nopivot, lu_solve_nopivot

_DENSE_ORACLE_CAP = 4096


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


@dataclass
class DenseLevel:
    matrix: np.ndarray
    prolong: sp.csr_matrix


class DenseAmg:
    """Classical AMG hierarchy on dense matrices (stride-2 splitting)."""

    def __init__(self, A: np.ndarray, max_cdofs: int = 8,
                 max_levels: int = 25, omega: float = 1.0,
                 sweep_order: str = "FCF"):
        A = np.asarray(A, dtype=np.float64)
        if A.shape[0] > _DENSE_ORACLE_CAP:
            raise ValueError(
                f"dense oracle capped at {_DENSE_ORACLE_CAP} unknowns")
        self.omega = omega
        self.sweep_order = sweep_order
        self.levels: List[DenseLevel] = []
        mat = A
        while mat.shape[0] > max_cdofs and len(self.levels) + 1 < max_levels:
            P = direct_interp(mat)
            self.levels.append(DenseLevel(matrix=mat, prolong=P))
            mat = P.T @ (P.T @ mat.T).T  # P^T A P with sparse P, O(M^2)
        self.coarsest = mat
        self._lu = lu_nopivot(mat)

    def _vcycle(self, level: int, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return lu_solve_nopivot(self._lu, b)
        lv = self.levels[level]
        A = lv.matrix
        x = cf_jacobi_sweep(A, x, b, self.omega, self.sweep_order)
        r = b - A @ x
        xc = self._vcycle(level + 1, lv.prolong.T @ r,
                          np.zeros(lv.prolong.shape[1]))
        x = x + lv.prolong @ xc
        return cf_jacobi_sweep(A, x, b, self.omega, self.sweep_order)

    def solve(self, b: np.ndarray, tol: float = 1e-12, maxit: int = 1000):
        """Iterate V(1,1)-cycles (one per step of iterate()) to tol."""
        A = self.levels[0].matrix if self.levels else self.coarsest
        return iterate(A, b, lambda x, r, budget: (self._vcycle(0, b, x), 1),
                       tol, maxit, None, "camg-dense")
