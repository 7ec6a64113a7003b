"""Adaptive AMG on symmetric Toeplitz matrices.

This is the paper's algorithm, and it has no settings.  The hierarchy
uses a stride-2 C/F splitting, half-weight interpolation (every nonzero
transfer weight is 1/2), and a closed-form Galerkin convolution that
keeps every coarse-level matrix symmetric Toeplitz; it coarsens until at
most COARSEST_MAX = 15 unknowns remain, as the dense oracle (camg_dense)
does.  That coarsest matrix is a Galerkin product of an SPD matrix, so
it is SPD: set-up takes its Cholesky factor once (LAPACK dpotrf,
solvers.coarsest_cholesky), and the cycle's direct solve there is one
dpotrs call.  Smoothing is one CF-Jacobi sweep with weight 1 (see
cf_jacobi_sweep).  Set-up is therefore O(M) work and storage plus a
factorization of fixed size; each V(1,1)-cycle costs O(M log M) through
the FFT.

A cycle makes only the products it needs (vcycle counts them): the
iteration loop (solvers.iterate) hands the true residual it has just
checked to the cycle, every coarse level starts from a zero guess whose
residual is its right-hand side, the pre-sweep hands back the residual
after its last pass for restriction, and the finest post-sweep's
residual is the loop's next check.  So an iteration makes no product
through the full circulant: on a level without a dense copy every
transform has the half pad.  At the sizes of a dense
level a cycle's fixed cost per call rivals its products, so nothing is
re-derived per call either: the sweeps read their rows from the forms
cached on the matrices, a coarse level's zero guess is a fresh np.zeros,
and the transfers take their float64 vectors as they are.  The cycle
still calls the smoother, the transfers and the coarse solve through
this module's globals, where a tracer can wrap them.

A hierarchy that is solved on again folds its dense levels into one
matrix (fold).  From the first level with a dense copy down, the cycle
with its linear smoothers and exact coarsest solve is the stationary
iteration x + B (b - A x) for one fixed symmetric matrix B (Xu, SIAM
Rev. 34, 1992), which fold() builds once by cycling the identity.  A
symmetric Toeplitz matrix is also persymmetric, J A J = A for the
reversal J, and when every smoothed level from the folded one down has
odd m the stride-2 split and the transfers map onto themselves under J
too; then J B J = B, and fold() cycles only the first half of the
identity's columns and mirrors the rest.  That holds whenever M is a
power of two.  A folded level's cycle is then x + B r, one symmetric
BLAS product (dsymv), and its residual b - D @ x, so with every level
dense an iteration is two matrix-vector products: 20 us at M = 256,
where the unfolded cycle with its residual takes 160.  Below FFT levels
the dense tail becomes one product.  B costs about 19 unfolded cycles
to build at M = 256, so the adaptive driver folds on a hierarchy's
second AMG solve and never on its first: a hierarchy that is solved
once keeps the cycle as it is, and amg_solve and vcycle fold nothing
themselves.

When tau^alpha0 h^(-2 gamma) <= 1 the condition number of the step
matrix is O(1), plain CG is cheaper, and the adaptive driver switches
to it.
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
    # (j, B) once fold() has run: the cycle from level j down is x + B r
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
    a float64 vector of length m_fine // 2, or an (m_fine // 2, k) block
    whose columns are interpolated one by one.
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
    """Restriction: the transpose of interp_apply, of a float64 vector
    of length m_fine or an (m_fine, k) block, column by column."""
    if not 0 < fine.ndim < 3 or len(fine) != m_fine:
        raise ValueError(f"expected {m_fine} fine values per column, got "
                         f"shape {fine.shape}")
    mc = m_fine // 2
    coarse = fine[0 : 2 * mc : 2].copy()  # left F-neighbour of C-point j
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
    """Coarsen until at most COARSEST_MAX unknowns remain, then factor the
    coarsest level (solvers.coarsest_cholesky, which raises LinAlgError
    when it is not positive definite).  A hierarchy of one level is a
    direct solve.  A diagonal that is not positive and finite raises
    ValueError."""
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
    on the folded level, whose cycle takes vectors only."""
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
    """Fold the cycle into one matrix from the first level j that has a
    dense copy (SymToeplitz.dense_rows) down.

    With linear smoothers and an exact coarsest solve, a V(1,1)-cycle is
    the stationary iteration x + B (b - A x) for a fixed B (Xu, SIAM
    Rev. 34, 1992), symmetric here since the post-sweep's passes run in
    the pre-sweep's order reversed.  fold() forms B of level j, an m x m
    matrix, by running the cycle on the columns of the identity from a
    zero guess, a panel of columns at a time, so that the cycle's
    temporaries stay a panel wide.

    When every level in h.matrices[j:-1] (the smoothed ones) has odd m,
    the cycle commutes with the reversal J: each level's matrix is
    symmetric Toeplitz, hence persymmetric (J A J = A), and its C/F
    split, half-weight transfers and one-sided boundary weights map
    onto themselves under J.  So J B J = B, and fold() cycles only the
    first ceil(m/2) columns and fills column c past them as column
    m - 1 - c reversed.  An even smoothed level (at M = 100, say, whose
    levels are 99, 49, 24 and 12) breaks the symmetry, and all m
    columns are cycled.

    It sets h.folded = (j, B); from then on a cycle on level j is
    x + B r, a dsymv product on B's F-contiguous transpose, and its
    residual b - D @ x, with the level's dense copy D.  A hierarchy of
    one level is a direct solve already and is not folded, and one that
    is folded already is left as it is.

    Measured with one BLAS thread (2-core x86-64 host), building B takes
    0.14 ms at m = 63 and 3.2 ms at m = 255, the time of about 2.4 and
    19 unfolded cycles of a hierarchy with that finest level; a folded
    cycle with its residual takes 5 and 20 us there, against 58 and
    160 us unfolded."""
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

    The levels matrices[:-1] are smoothed; the coarsest is solved from
    its Cholesky factor from set-up, so a hierarchy of one level is a
    direct solve, whose residual() is one product A.matvec.  r, when
    given, is the finest-level residual b - A x the caller has already
    computed; the first smoothing pass uses it instead of a product.
    Coarse levels start from a zero guess, whose residual is the
    restricted right-hand side itself.  Each smoothed level makes two
    sweeps and restricts the residual that the pre-sweep returns, so the
    sweeps make all of a cycle's products, as counted in
    cf_jacobi_sweep: 4 on a level with a dense copy, and on a level
    without one 15 half-pad transforms on the finest level and 14 on a
    coarse one, whose zero guess has no odd half to transform (six full
    products would take 12 of twice the length).  Without r the finest
    level takes one product more, or 17 transforms for a nonzero x.
    residual() adds one product on a finest level with a dense copy, or
    3 half-pad transforms on one without.

    On a hierarchy that fold() has folded, the cycle from the folded
    level j down is one symmetric product with its matrix B: x + B r on
    the finest level (one product more without r) and B b on a coarse
    level, from its zero guess.  So with every level dense (a finest
    m <= 384) a cycle is one matrix-vector product and its residual() a
    second, b - D @ x with the dense copy; below FFT levels the dense
    tail is one product in place of its sweeps and transfers.
    The folded cycle equals the unfolded one to rounding.

    b, x and r must be one value per finest unknown (ValueError
    otherwise), and are not written.
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

    Each step of iterate() is one cycle, handed the true residual
    b - A x that iterate() has just checked, and it hands back the
    cycle's residual() as the next check.  So an iteration costs what
    vcycle counts from a given r plus residual(): 4 L + 1 products on L
    smoothed levels with a dense copy, and 18 transforms of the half pad
    on a finest level without one.  On a folded hierarchy (fold) an
    iteration with every level dense is two matrix-vector products,
    B r and D @ x, and below FFT levels the folded dense tail is one.
    The first check is one product, or none from a zero start (x0 None).
    """
    def step(b, x, r, budget):
        x, residual = vcycle(h, b, x, r)
        return x, 1, residual()

    return iterate(h.matrices[0], b, step, tol, maxit, x0, "amg")


def cg_switch(spec: ProblemSpec, tau: float, h: float) -> bool:
    """True when tau^alpha0 * h^(-2 gamma) <= 1, where the step matrix is
    well enough conditioned for plain CG."""
    orders = spec.orders
    return tau ** orders.alpha0 * h ** (-2.0 * orders.gamma) <= 1.0


class AdaptiveSolver:
    """Per-run driver: picks CG or AMG and reuses one hierarchy.

    For a uniform time mesh the step matrix (and hence the hierarchy) is
    shared by every time level, so setup runs once.  Reuse is also what
    pays for folding the cycle (fold): the second AMG solve folds the
    hierarchy before it starts, and it and every later solve iterate on
    the folded cycle.  The first solve runs the cycle as it is, so a
    driver that solves once (a graded step, a one-off solve) never pays
    for B, which costs about 2.4 unfolded cycles to build at M = 64 and
    19 at M = 256, where the hierarchy's mirror symmetry lets fold()
    cycle half of the identity's columns (see fold).  CG solves do not count, and a one-level
    hierarchy is not folded.
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
