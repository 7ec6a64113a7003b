"""Adaptive AMG on symmetric Toeplitz matrices.

This is the paper's algorithm, and it has no settings.  The hierarchy
uses a stride-2 C/F splitting, half-weight interpolation (every nonzero
transfer weight is 1/2), and a closed-form Galerkin convolution that
keeps every coarse-level matrix symmetric Toeplitz; it coarsens until at
most COARSEST_MAX = 8 unknowns remain.  Setup is therefore O(M) work and
storage, plus one LAPACK LU factorisation of the small coarsest matrix;
each V(1,1)-cycle costs O(M log M) through the Toeplitz matvec.
Smoothing is one CF-Jacobi sweep with weight 1 (see cf_jacobi_sweep).

A cycle makes only the products it needs: amg_solve's iteration loop
(solvers.iterate) hands the true residual it has just checked to the
cycle, whose first smoothing pass uses it, and every coarse level starts
from a zero guess whose residual is its right-hand side.  One solver
iteration on L smoothing levels therefore makes 6 L + 1 Toeplitz
products (three per CF-Jacobi sweep, one residual before restriction,
one check).  The coarsest system is solved with the LU factors computed
at set-up.

When tau^alpha0 h^(-2 gamma) <= 1 the condition number of the step
matrix is O(1), plain CG is cheaper, and the adaptive driver switches
to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs

from .assembly import StepMatrix
from .problem import Mesh, ProblemSpec
from .camg_dense import direct_interp
from .solvers import (COARSEST_MAX, cf_jacobi_sweep, cg_solve, iterate,
                      lu_nopivot, lu_solve_nopivot)
from .toeplitz import SymToeplitz


@dataclass
class AmgHierarchy:
    matrices: List[SymToeplitz]  # finest first; the last one is eliminated
    coarsest_lu: Tuple[np.ndarray, np.ndarray]  # LAPACK getrf (lu, piv)

    @property
    def n_levels(self):
        return len(self.matrices)

    @property
    def stored_entries(self):
        """Symbol entries held across all levels (O(M) storage claim)."""
        return sum(A.m for A in self.matrices)


def interp_apply(coarse: np.ndarray, m_fine: int) -> np.ndarray:
    """Prolongation: inject C-values, F-values are half-weight averages.

    Boundary F-points with a single C-neighbour get one-sided weight 1/2,
    which keeps the Galerkin coarse matrix exactly Toeplitz.
    """
    coarse = np.asarray(coarse, dtype=np.float64)
    mc = m_fine // 2
    if coarse.shape != (mc,):
        raise ValueError(f"expected coarse vector of length {mc}, got {coarse.shape}")
    fine = np.zeros(m_fine)
    fine[1::2] = coarse
    f = fine[0::2]  # F-point 2j sits between C-values j - 1 and j
    f[:mc] = coarse
    f[1:] += coarse[: f.size - 1]
    f *= 0.5
    return fine


def restrict_apply(fine: np.ndarray, m_fine: int) -> np.ndarray:
    """Restriction: the transpose of interp_apply."""
    fine = np.asarray(fine, dtype=np.float64)
    if fine.shape != (m_fine,):
        raise ValueError(f"expected fine vector of length {m_fine}, got {fine.shape}")
    mc = m_fine // 2
    coarse = fine[0 : 2 * mc : 2].copy()  # left F-neighbour of C-point j
    coarse[: (m_fine - 1) // 2] += fine[2::2]  # right one, where it exists
    coarse *= 0.5
    coarse += fine[1::2]
    return coarse


def galerkin_symbol(fine_symbol: np.ndarray) -> np.ndarray:
    """Coarse-level symbol of P^T A P for the half-weight transfers.

    s_l = 1/4 t_|2l-2| + t_|2l-1| + 3/2 t_2l + t_{2l+1} + 1/4 t_{2l+2},
    indices beyond the fine symbol reading as zero.  O(M/2) work.
    """
    t = np.asarray(fine_symbol, dtype=np.float64)
    m = t.size
    if m < 3:
        raise ValueError("fine symbol must have length >= 3")
    mc = m // 2
    idx = 2 * np.arange(mc)
    s = np.zeros(mc)
    for off, c in ((-2, 0.25), (-1, 1.0), (0, 1.5), (1, 1.0), (2, 0.25)):
        j = np.abs(idx + off)
        ok = j < m
        s[ok] += c * t[j[ok]]
    return s


def setup(a0: SymToeplitz) -> AmgHierarchy:
    """Coarsen until at most COARSEST_MAX unknowns remain, then factor
    that matrix."""
    if a0.symbol[0] <= 0:
        raise ValueError("matrix diagonal must be positive")
    matrices = [a0]
    while matrices[-1].m > COARSEST_MAX:
        matrices.append(SymToeplitz(galerkin_symbol(matrices[-1].symbol)))
    lu, piv, info = dgetrf(matrices[-1].to_dense())
    if info > 0:
        raise np.linalg.LinAlgError(
            f"coarsest matrix is singular (m={matrices[-1].m})")
    return AmgHierarchy(matrices=matrices, coarsest_lu=(lu, piv))


def coarse_solve(h: AmgHierarchy, b: np.ndarray) -> np.ndarray:
    """Solve the coarsest system with its LAPACK LU factors."""
    return dgetrs(*h.coarsest_lu, b)[0]


def vcycle(h: AmgHierarchy, b: np.ndarray, x: np.ndarray,
           r: Optional[np.ndarray] = None) -> np.ndarray:
    """One V(1,1)-cycle: CF-Jacobi pre-smooth, coarse correction, post-smooth.

    Every level but the last is smoothed; the last is solved with the LU
    factors computed at set-up, so a hierarchy of one level is a direct
    solve.  r, when given, is the finest-level residual b - A x the
    caller has already computed; the first smoothing pass uses it instead
    of a product.  Coarse levels start from a zero guess, whose residual
    is the restricted right-hand side itself, so they make no product
    with it either: a cycle on L smoothing levels makes 6 L products,
    6 L + 1 without r.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (h.matrices[0].m,):
        raise ValueError("right-hand side does not match the finest level")
    smoothed = h.matrices[:-1]
    xs, bs = [], []
    xk = np.asarray(x, dtype=np.float64)
    bk = b
    for A in smoothed:
        xk = cf_jacobi_sweep(A, xk, bk, r)
        r = bk - A.matvec(xk)
        xs.append(xk)
        bs.append(bk)
        bk = restrict_apply(r, A.m)
        xk = np.zeros(bk.size)
        r = bk  # residual of the zero guess
    xk = coarse_solve(h, bk)
    for A, xf, bf in zip(reversed(smoothed), reversed(xs), reversed(bs)):
        xk = xf + interp_apply(xk, A.m)
        xk = cf_jacobi_sweep(A, xk, bf)
    return xk


def amg_solve(h: AmgHierarchy, b: np.ndarray, tol: float = 1e-12,
              maxit: int = 1000, x0: Optional[np.ndarray] = None):
    """Iterate V(1,1)-cycles until the relative residual meets tol.

    Each step of iterate() is one cycle, handed the true residual
    b - A x that iterate() has just checked, so one iteration makes
    6 L + 1 products on L smoothing levels.
    """
    return iterate(h.matrices[0], b,
                   lambda b, x, r, budget: (vcycle(h, b, x, r), 1),
                   tol, maxit, x0, "amg")


def cg_switch(spec: ProblemSpec, tau: float, h: float) -> bool:
    """True when tau^alpha0 * h^(-2 gamma) <= 1, where the step matrix is
    well enough conditioned for plain CG."""
    orders = spec.orders
    return tau ** orders.alpha0 * h ** (-2.0 * orders.gamma) <= 1.0


class AdaptiveSolver:
    """Per-run driver: picks CG or AMG and reuses one hierarchy.

    For a uniform time mesh the step matrix (and hence the hierarchy) is
    shared by every time level, so setup runs once.
    """

    def __init__(self, spec: ProblemSpec, mesh: Mesh, mats: StepMatrix):
        self.spec = spec
        self.mesh = mesh
        self.mats = mats
        self.use_cg = cg_switch(spec, mats.tau, mesh.h)
        self._hierarchy: Optional[AmgHierarchy] = None

    @property
    def hierarchy(self) -> AmgHierarchy:
        if self._hierarchy is None:
            self._hierarchy = setup(self.mats.a_full)
        return self._hierarchy

    def solve(self, b: np.ndarray, tol: float = 1e-12, maxit: int = 1000,
              x0: Optional[np.ndarray] = None, force: Optional[str] = None):
        branch = force or ("cg" if self.use_cg else "amg")
        if branch == "cg":
            x, rep = cg_solve(self.mats.a_full, b, tol, maxit, x0)
        elif branch == "amg":
            x, rep = amg_solve(self.hierarchy, b, tol, maxit, x0)
        else:
            raise ValueError(f"unknown branch {branch!r}")
        rep.branch = branch
        return x, rep


class TwoLevelV01:
    """Two-level cycle with no pre- and one post-smoothing sweep.

    This is the classical baseline the fast hierarchy is measured
    against: direct interpolation read from the matrix rows, an exact
    (dense) Galerkin coarse solve, and one Gauss-Seidel post-sweep.  An
    analysis tool, O(M^2) on purpose; keep M moderate.
    """

    def __init__(self, A: SymToeplitz):
        self.A = A
        self.dense = A.to_dense()
        self.prolong = direct_interp(self.dense)
        coarse = self.prolong.T @ (self.prolong.T @ self.dense.T).T
        self._lu = lu_nopivot(coarse)
        self._lower = np.tril(self.dense)

    def apply(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        r = b - self.dense @ x
        xc = lu_solve_nopivot(self._lu, self.prolong.T @ r)
        x = x + self.prolong @ xc
        return x + scipy.linalg.solve_triangular(
            self._lower, b - self.dense @ x, lower=True)


def two_level_solve(A: SymToeplitz, b: np.ndarray, tol: float = 1e-8,
                    maxit: int = 1000):
    """Iterate the two-level V(0,1)-cycle to a relative residual."""
    cyc = TwoLevelV01(A)
    return iterate(A, b, lambda b, x, r, budget: (cyc.apply(b, x), 1),
                   tol, maxit, None, "two-level")
