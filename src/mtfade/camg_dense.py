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

from .solvers import SolveReport, lu_nopivot, lu_solve_nopivot

_DENSE_ORACLE_CAP = 4096


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
            P = self._direct_interp(mat)
            self.levels.append(DenseLevel(matrix=mat, prolong=P))
            mat = P.T @ (P.T @ mat.T).T  # P^T A P with sparse P, O(M^2)
        self.coarsest = mat
        self._lu = lu_nopivot(mat)

    @staticmethod
    def _direct_interp(A: np.ndarray) -> sp.csr_matrix:
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

    def _smooth(self, A: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = np.diag(A)
        x = x.copy()
        for grp in self.sweep_order:
            s = slice(0, None, 2) if grp == "F" else slice(1, None, 2)
            r = b - A @ x
            x[s] += self.omega * r[s] / d[s]
        return x

    def _vcycle(self, level: int, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return lu_solve_nopivot(self._lu, b)
        lv = self.levels[level]
        A = lv.matrix
        x = self._smooth(A, x, b)
        r = b - A @ x
        xc = self._vcycle(level + 1, lv.prolong.T @ r,
                          np.zeros(lv.prolong.shape[1]))
        x = x + lv.prolong @ xc
        return self._smooth(A, x, b)

    def solve(self, b: np.ndarray, tol: float = 1e-12, maxit: int = 1000):
        A = self.levels[0].matrix if self.levels else self.coarsest
        b = np.asarray(b, dtype=np.float64)
        if not np.any(b):
            return np.zeros_like(b), SolveReport(0, 0.0, True, 0, "camg-dense")
        bnorm = np.linalg.norm(b)
        x = np.zeros_like(b)
        for it in range(maxit + 1):
            relres = np.linalg.norm(b - A @ x) / bnorm
            if relres <= tol:
                return x, SolveReport(it, relres, True, it, "camg-dense")
            if it == maxit or not np.isfinite(relres):
                break
            x = self._vcycle(0, b, x)
        return x, SolveReport(it, relres, False, it, "camg-dense")
