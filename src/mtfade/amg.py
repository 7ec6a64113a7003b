"""Adaptive AMG on symmetric Toeplitz matrices: the paper's algorithm,
which has no settings.

setup builds the hierarchy, in O(M) work and storage: a stride-2 C/F
splitting, half-weight transfers (interp_apply, restrict_apply) and a
closed-form Galerkin symbol (galerkin_symbol), so that every level is
symmetric Toeplitz, down to a coarsest level that is factored once
(solvers.coarsest_cholesky).  vcycle is one V(1,1)-cycle with CF-Jacobi
smoothing (solvers.cf_jacobi_sweep), O(M log M) through the FFT, and
amg_solve iterates it (solvers.iterate).  fold turns a hierarchy's dense
levels into one matrix.  AdaptiveSolver picks CG or AMG for a run
(cg_switch) and decides when to fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsymv

from .assembly import StepMatrix
from .problem import Mesh, ProblemSpec
from .camg_dense import direct_interp
from .solvers import (COARSEST_MAX, cf_jacobi_sweep, cg_solve,
                      cholesky_solve, coarsest_cholesky, iterate, lu_nopivot,
                      lu_solve_nopivot)
from .toeplitz import SymToeplitz


@dataclass
class AmgHierarchy:
    matrices: List[SymToeplitz]  # every level, finest first
    coarsest_chol: np.ndarray  # the Cholesky factor of matrices[-1]
    # (j, B) once fold() has run (see fold)
    folded: Optional[Tuple[int, np.ndarray]] = field(default=None,
                                                     init=False)

    @property
    def n_levels(self):
        return len(self.matrices)

    @property
    def stored_entries(self):
        """Symbol entries held across all levels, O(M).  It counts
        neither the dense copies of the levels with m <= 384 nor, after
        fold(), B's at most 384^2 entries."""
        return sum(A.m for A in self.matrices)


def interp_apply(coarse: np.ndarray, m_fine: int) -> np.ndarray:
    """Prolongation: inject C-values, F-values are half-weight averages.

    Boundary F-points with a single C-neighbour get one-sided weight 1/2,
    which keeps the Galerkin coarse matrix exactly Toeplitz.  coarse is
    a vector of length m_fine // 2, or an (m_fine // 2, k) block whose
    columns are interpolated one by one; the result is float64.
    """
    mc = m_fine // 2
    if not 0 < coarse.ndim < 3 or len(coarse) != mc:
        raise ValueError(f"expected {mc} coarse values per column, got "
                         f"shape {coarse.shape}")
    fine = np.zeros((m_fine,) + coarse.shape[1:])
    fine[1::2] = coarse
    f = fine[0::2]  # F-point 2j sits between C-values j - 1 and j
    f[:mc] = coarse
    f[1:] += coarse[: len(f) - 1]
    f *= 0.5
    return fine


def restrict_apply(fine: np.ndarray, m_fine: int) -> np.ndarray:
    """Restriction: the transpose of interp_apply, of a vector of length
    m_fine or an (m_fine, k) block, column by column, in float64."""
    if not 0 < fine.ndim < 3 or len(fine) != m_fine:
        raise ValueError(f"expected {m_fine} fine values per column, got "
                         f"shape {fine.shape}")
    mc = m_fine // 2
    coarse = fine[0 : 2 * mc : 2].astype(np.float64)  # left F-neighbour of j
    coarse[: (m_fine - 1) // 2] += fine[2::2]  # right one, where it exists
    coarse *= 0.5
    coarse += fine[1::2]
    return coarse


def galerkin_symbol(fine_symbol: np.ndarray) -> np.ndarray:
    """Coarse-level symbol of P^T A P for the half-weight transfers.

    s_l = 1/4 t_|2l-2| + t_|2l-1| + 3/2 t_2l + t_{2l+1} + 1/4 t_{2l+2},
    indices beyond the fine symbol reading as zero.  The five terms are
    stride-2 slices of the symbol padded to t_2, t_1, t_0, ..., t_{m-1},
    0, 0: O(M/2) work.
    """
    t = np.asarray(fine_symbol, dtype=np.float64)
    m = t.size
    if m < 3:
        raise ValueError("fine symbol must have length >= 3")
    mc = m // 2
    pad = np.zeros(m + 4)  # pad[j + 2] = t_|j|
    pad[0], pad[1] = t[2], t[1]
    pad[2 : m + 2] = t
    n = 2 * mc
    s = 0.25 * pad[0:n:2]
    s += pad[1 : n + 1 : 2]
    s += 1.5 * pad[2 : n + 2 : 2]
    s += pad[3 : n + 3 : 2]
    s += 0.25 * pad[4 : n + 4 : 2]
    return s


def setup(a0: SymToeplitz) -> AmgHierarchy:
    """The hierarchy of a0: Galerkin levels (galerkin_symbol) down to the
    coarsest, which is factored (see solvers.coarsest_cholesky, which
    raises LinAlgError).  A hierarchy of one level is a direct solve.  A
    diagonal that is not positive and finite raises ValueError."""
    if not 0 < a0.symbol.item(0) < math.inf:
        raise ValueError("matrix diagonal must be positive and finite")
    matrices = [a0]
    while matrices[-1].m > COARSEST_MAX:
        matrices.append(SymToeplitz(galerkin_symbol(matrices[-1].symbol)))
    return AmgHierarchy(matrices, coarsest_cholesky(matrices[-1].to_dense()))


def coarse_solve(h: AmgHierarchy, b: np.ndarray) -> np.ndarray:
    """The direct solve on the coarsest level, from its Cholesky factor."""
    return cholesky_solve(h.coarsest_chol, b)


def _cycle(h: AmgHierarchy, j: int, b: np.ndarray, x: Optional[np.ndarray],
           r: Optional[np.ndarray]):
    """The V(1,1)-cycle from level j down, returning (x, residual) as
    cf_jacobi_sweep does; x is never written, only the sweep's copy.  x
    None is a zero guess, whose residual r is b.  On a level with a dense
    copy b, x and r may be (m, k) blocks, cycled column by column, except
    on the folded level, whose cycle takes vectors only (see fold).  The
    smoother, the transfers and the coarse solve are called through this
    module's globals, where a tracer can wrap them."""
    A = h.matrices[j]
    folded = h.folded
    if folded is not None and folded[0] == j:
        # B.T is B's F-contiguous view, which dsymv takes without a copy
        dense, B = A.dense_rows()[0], folded[1].T
        if x is None:
            x = dsymv(1.0, B, b)
        else:
            x = dsymv(1.0, B, b - dense @ x if r is None else r, 1.0, x)
        return x, lambda: b - dense @ x
    if j == len(h.matrices) - 1:
        x = coarse_solve(h, b)
        return x, lambda: b - A.matvec(x)
    x, residual = cf_jacobi_sweep(A, np.zeros(b.shape) if x is None else x,
                                  b, r)
    coarse = restrict_apply(residual(), A.m)
    x += interp_apply(_cycle(h, j + 1, coarse, None, coarse)[0], A.m)
    return cf_jacobi_sweep(A, x, b)


def fold(h: AmgHierarchy) -> None:
    """Fold the cycle from the first level j with a dense copy
    (SymToeplitz.dense_rows) down into one matrix B: set h.folded =
    (j, B).

    With linear smoothers and an exact coarsest solve, a V(1,1)-cycle is
    the stationary iteration x + B (b - A x) for a fixed B (Xu, SIAM
    Rev. 34, 1992), symmetric here since the post-sweep's passes run in
    the pre-sweep's order reversed.  Once folded, the cycle on level j
    (_cycle) is x + B r, one BLAS dsymv product on B's F-contiguous
    transpose, or B b from a zero guess, and its residual is b - D @ x
    with the level's dense copy D.  It equals the unfolded cycle to
    rounding.

    fold() forms B by running the cycle on the columns of the identity
    from a zero guess, a panel of columns at a time, so that the cycle's
    temporaries stay a panel wide.  When every smoothed level in
    h.matrices[j:-1] has odd m, as for every M that is a power of two,
    the cycle commutes with the reversal J: each level is symmetric
    Toeplitz, hence persymmetric (J A J = A), and its C/F split,
    half-weight transfers and one-sided boundary weights map onto
    themselves under J.  So J B J = B, and fold() cycles only the first
    ceil(m/2) columns and fills column c past them as column m - 1 - c
    reversed.  An even smoothed level (M = 100 has levels 99, 49, 24 and
    12) breaks the symmetry, and all m columns are cycled.  The build
    then costs about as much as 2.4 unfolded cycles of the hierarchy at
    m = 63, and 19 at m = 255.

    A hierarchy of one level is a direct solve already and is not
    folded, and one that is folded already is left as it is."""
    if h.folded is not None:
        return
    for j, A in enumerate(h.matrices[:-1]):
        if A.dense_rows() is not None:
            break
    else:
        return
    m = A.m
    cols = (m + 1) // 2 if all(T.m % 2 for T in h.matrices[j:-1]) else m
    # Panels of 32 columns: at m = 255 the build's peak memory grows
    # 1.0 MB, where one block of all m columns grows it 4.1 MB, in about
    # the same time.
    width = 32
    B = np.empty((m, m))
    for s in range(0, cols, width):
        panel = np.eye(m, min(width, cols - s), -s)
        B[:, s:s + panel.shape[1]] = _cycle(h, j, panel, None, panel)[0]
    B[:, cols:] = B[::-1, :m - cols][:, ::-1]
    h.folded = j, B


def vcycle(h: AmgHierarchy, b: np.ndarray, x: np.ndarray,
           r: Optional[np.ndarray] = None):
    """One V(1,1)-cycle: CF-Jacobi pre-smooth, coarse correction, post-smooth.

    Returns (x, residual): the new iterate, and a function of no
    arguments that returns b - A x for it, as cf_jacobi_sweep's
    post-sweep forms it, to be called (if at all) before x is written.
    b, x and r must be one value per finest unknown (ValueError
    otherwise), and are not written.

    The levels matrices[:-1] are smoothed and the coarsest is solved
    directly, so a hierarchy of one level is a direct solve, whose
    residual() is one product A.matvec.  r, when given, is the
    finest-level residual b - A x the caller has already computed; the
    first smoothing pass uses it instead of a product.  Coarse levels
    start from a zero guess, whose residual is the restricted right-hand
    side itself.  Each smoothed level makes two sweeps and restricts the
    residual that the pre-sweep returns, so the sweeps make all of a
    cycle's products, as counted in cf_jacobi_sweep: 4 on a level with a
    dense copy, and on a level without one 15 half-pad transforms on the
    finest level and 14 on a coarse one, whose zero guess has no odd
    half to transform.  Without r the finest level takes one product
    more, or 17 transforms for a nonzero x.  residual() adds one product
    on a finest level with a dense copy, or 3 half-pad transforms on one
    without, so no iteration of amg_solve makes a product through the
    full circulant.  On a folded hierarchy (see fold) the cycle from the
    folded level down is one product instead: with every level dense, a
    cycle and its residual() are two matrix-vector products.
    """
    m = h.matrices[0].m
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m,) or np.shape(x) != (m,) or (
            r is not None and np.shape(r) != (m,)):
        raise ValueError(
            f"b, x and r must have shape ({m},) of the finest level, got "
            f"{b.shape}, {np.shape(x)} and "
            f"{None if r is None else np.shape(r)}")
    return _cycle(h, 0, b, x, r)


def amg_solve(h: AmgHierarchy, b: np.ndarray, tol: float = 1e-12,
              maxit: int = 1000, x0: Optional[np.ndarray] = None):
    """Iterate V(1,1)-cycles until the relative residual meets tol.

    Each step of iterate() is one vcycle, handed the true residual
    b - A x that iterate() has just checked, and it hands back the
    cycle's residual() as the next check; vcycle counts the products.
    """
    def step(b, x, r, budget):
        x, residual = vcycle(h, b, x, r)
        return x, 1, residual()

    return iterate(h.matrices[0], b, step, tol, maxit, x0, "amg")


def cg_switch(spec: ProblemSpec, tau: float, h: float) -> bool:
    """True when tau^alpha0 * h^(-2 gamma) <= 1, where the step matrix's
    condition number is O(1) and plain CG is cheaper than AMG."""
    orders = spec.orders
    return tau ** orders.alpha0 * h ** (-2.0 * orders.gamma) <= 1.0


class AdaptiveSolver:
    """Per-run driver: picks CG or AMG (cg_switch) and reuses one
    hierarchy.

    For a uniform time mesh the step matrix (and hence the hierarchy) is
    shared by every time level, so setup runs once.  Reuse is also what
    pays for folding the cycle: the second AMG solve folds the hierarchy
    (fold) before it starts, and it and every later solve iterate on the
    folded cycle.  The first solve runs the cycle as it is, so a driver
    that solves once (a graded step, a one-off solve) never pays for B.
    CG solves do not count, and amg_solve and vcycle fold nothing
    themselves.
    """

    def __init__(self, spec: ProblemSpec, mesh: Mesh, mats: StepMatrix):
        self.mats = mats
        self.use_cg = cg_switch(spec, mats.tau, mesh.h)
        self._hierarchy: Optional[AmgHierarchy] = None
        self._amg_solves = 0

    @property
    def hierarchy(self) -> AmgHierarchy:
        if self._hierarchy is None:
            self._hierarchy = setup(self.mats.a_full)
        return self._hierarchy

    def solve(self, b: np.ndarray, tol: float = 1e-12, maxit: int = 1000,
              x0: Optional[np.ndarray] = None, force: Optional[str] = None):
        branch = force or ("cg" if self.use_cg else "amg")
        if branch == "cg":
            return cg_solve(self.mats.a_full, b, tol, maxit, x0)
        if branch == "amg":
            self._amg_solves += 1
            if self._amg_solves == 2:
                fold(self.hierarchy)
            return amg_solve(self.hierarchy, b, tol, maxit, x0)
        raise ValueError(f"unknown branch {branch!r}")


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
        """One cycle for A x = b from x.  b and x are vectors or (m, k)
        blocks, cycled column by column; with b = 0 and x the identity
        the result is the cycle's error operator E."""
        r = b - self.dense @ x
        xc = lu_solve_nopivot(self._lu, self.prolong.T @ r)
        x = x + self.prolong @ xc
        return x + scipy.linalg.solve_triangular(
            self._lower, b - self.dense @ x, lower=True)


def two_level_solve(A: SymToeplitz, b: np.ndarray, tol: float = 1e-8):
    """Iterate the two-level V(0,1)-cycle to a relative residual, at most
    1000 cycles."""
    cyc = TwoLevelV01(A)
    return iterate(A, b, lambda b, x, r, budget: (cyc.apply(b, x), 1, None),
                   tol, 1000, None, "two-level")
