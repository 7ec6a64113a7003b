"""The iteration driver, the CF-Jacobi smoother, conjugate gradients, the
multigrid's coarsest-level Cholesky solve, and the pivot-free dense
solve.

The smoother runs on every multigrid cycle, and on the small levels its
cost per call rivals its products, so a sweep takes the rows it relaxes
from the matrix in whichever form the matrix keeps
(SymToeplitz.dense_rows, stride2_rows) and looks nothing else up.  A
sweep also offers b - A x for the x it returns, formed on request from
the same form, and a multigrid iteration hands its finest post-sweep's
to iterate() as the next check: one product with a dense copy, or three
transforms of the half pad, never one through the full circulant.  For
a step that hands back no residual (CG, the dense oracle, the two-level
baseline) iterate() takes the check as one product, bound once per
solve."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ddot, idamax
from scipy.linalg.lapack import dpotrf, dpotrs

from .toeplitz import SymToeplitz

# The paper's multigrid, which has no settings: both hierarchies coarsen
# until at most COARSEST_MAX unknowns remain, factor that level once by
# Cholesky (coarsest_cholesky), and smooth with one CF-Jacobi sweep (F,
# C, F passes) before and after each coarse correction.  A coarsest size
# of 31 is faster: in three alternating 30 s perfbench pairs (one BLAS
# thread, shared 2-core x86-64 host) it took march-tau-h's solution_s
# from 0.0805 to 0.0715 s and march-graded's from 0.0703 to 0.0662 s.
# But it moves the iteration counts, and the projected start's
# test_projection_saves_iterations[decay] (tests/test_timestepper.py)
# then reads 136 iterations against 193 replayed from the previous
# state, a ratio of 0.705 above its 0.7 bound; so the size stays 15.
COARSEST_MAX = 15
_EPS2 = float(np.finfo(np.float64).eps) ** 2


@dataclass
class SolveReport:
    iterations: int
    final_relres: float
    converged: bool
    reason: str = ""  # "converged", "nonfinite", "maxit" or "breakdown"
    branch: str = ""


def norm2(v: np.ndarray) -> float:
    """The 2-norm sqrt(v.v) of a vector v, taken in float64; when v.v is
    not finite, the norm of v scaled by the power of two of max|v|
    (exact), scaled back.  So a finite v whose squares overflow has its
    finite norm, and a v with an inf or nan entry keeps a norm that is
    not finite.  v.v is BLAS ddot, which is what numpy's v.dot(v) calls
    and raises no floating-point warning, so an overflowing v.v costs no
    error-state switch on the call that does not overflow."""
    vv = ddot(v, v) if len(v) else 0.0
    if math.isfinite(vv):
        return math.sqrt(vv)
    big = float(np.max(np.abs(v)))
    if not math.isfinite(big):
        return big
    e = math.frexp(big)[1]
    v = np.ldexp(v, -e)
    try:
        return math.ldexp(math.sqrt(ddot(v, v)), e)
    except OverflowError:  # the norm itself exceeds the float range
        return math.inf


def _exponent(v: np.ndarray) -> int:
    """The frexp exponent e of max|v| for a nonempty float64 v, so that
    2^-e v has entries below 1 in magnitude; the entry is found by BLAS
    idamax.  e is 0 when that entry is not finite."""
    return math.frexp(abs(v[idamax(v)]))[1]


def iterate(A, b: np.ndarray, step, tol: float, maxit: int,
            x0: np.ndarray | None, branch: str = ""):
    """Drive step(b, x, r, budget) -> (x, iterations, r) until tol is met.

    This is the one stopping rule of every solver.  b and x0 are first
    scaled by 2^-e, where e is the frexp exponent of max|b|; the scaling
    is exact in the normal range, so iterates are unchanged, while ||b||
    and ||r|| can no longer underflow to 0 for a tiny b; norm2 keeps
    ||r|| finite when a huge x0 makes r.r overflow.  Before each step
    the true residual r = b - A @ x of the scaled system is checked, and
    the solve ends

    * "converged" when ||r|| / ||b|| <= tol,
    * "nonfinite" when that relative residual is not finite,
    * "maxit" when maxit iterations have run,
    * "breakdown" when a step ran 0 iterations;

    otherwise the step runs at most budget = maxit - (iterations so far)
    iterations from the scaled b, x and r, none of which it may write.
    The r it returns is b - A x for the x it returns, formed from b and
    A (a multigrid cycle's finest post-sweep residual, not a
    recurrence), or None, and then the check takes one product.  A zero
    start (x0 None) is checked on r = b, with no product.  x is scaled
    back on return.  An all-zero b is solved by x = 0 at once.  The
    report, labelled with branch, carries the true relative residual,
    so a claim of convergence is never based on anything else, and no
    finite tol > 0 raises.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    b = np.asarray(b, dtype=np.float64)
    if not b.any():
        return np.zeros_like(b), SolveReport(0, 0.0, True, "converged", branch)
    e = _exponent(b)
    b = np.ldexp(b, -e)
    bnorm = norm2(b)
    if x0 is None:
        x, r = np.zeros_like(b), b
    else:
        x, r = np.ldexp(np.asarray(x0, dtype=np.float64), -e), None
    # bound once per call, as cg_solve binds T.matvec; a dense array
    # has no matvec
    product = A.matvec if isinstance(A, SymToeplitz) else A.__matmul__
    it = 0
    while True:
        if r is None:
            r = b - product(x)
        relres = norm2(r) / bnorm
        if relres <= tol:
            reason = "converged"
        elif not math.isfinite(relres):
            reason = "nonfinite"
        elif it >= maxit:
            reason = "maxit"
        else:
            x, k, r = step(b, x, r, maxit - it)
            if k:
                it += k
                continue
            reason = "breakdown"
        # x is this loop's own array, never the caller's x0, so it is
        # scaled back in place rather than copied once more.
        np.ldexp(x, e, out=x)
        return x, SolveReport(it, relres, reason == "converged", reason,
                              branch)


def cf_jacobi_sweep(A, x: np.ndarray, b: np.ndarray,
                    r: np.ndarray | None = None
                    ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """One CF-Jacobi sweep: Jacobi relaxation (weight 1) of the F-points,
    then the C-points, then the F-points again.

    A is a SymToeplitz, whose diagonal is the constant t0, or a dense
    array; a diagonal entry that is not positive and finite (nan, inf,
    0 or less) raises ValueError.  F-points are the 0-based even
    positions, C-points the odd ones; each pass uses the freshly updated
    residual.  This ordering damps the oscillatory error components far
    better than a simultaneous sweep on these matrices, whose scaled
    spectral radius can approach 2.

    Returns (x, residual): the relaxed copy of x, and a function of no
    arguments that returns b - A x for that x, to be called (if at all)
    before x is written and before the next sweep on the same matrix
    (an FFT sweep keeps its spectra in the matrix's work arrays), so a
    caller that does not need it pays nothing.
    The multigrid restricts the pre-sweep's residual, hands the finest
    post-sweep's to iterate() as its check, and drops the coarse
    post-sweeps'.

    The first pass takes one residual, or none when the caller passes
    r = b - A x (for a zero x, r = b).  The other two compute only the
    residual rows they relax.  Where A has a dense copy D
    (SymToeplitz.dense_rows, or A itself, each row then weighted by its
    own diagonal entry) those are half a product each, and residual() is
    one product b - D @ x.  Otherwise (SymToeplitz.stride2_rows) the
    sweep keeps the spectra of x's even and odd halves in the matrix's
    two spectrum slots, each pass makes one inverse transform for the
    rows it relaxes and re-transforms only the half it changed, and
    residual() takes one forward and two inverse transforms.  An
    all-zero half (a zero guess) is not transformed.  So a sweep from a
    given r takes 5 transforms of length P >= m, or 4 from a zero guess,
    and one without r takes 7; residual() takes 3, where a full product
    takes two transforms of length 2P.
    """
    x = np.array(x, dtype=np.float64)
    if type(A) is SymToeplitz:
        t0 = A.symbol.item(0)
        if not 0 < t0 < math.inf:
            raise ValueError("Jacobi needs a positive, finite diagonal")
        rows = A.dense_rows()
        if rows is None:
            return _stride2_sweep(A, x, b, r, 1.0 / t0)
        dense, even, odd = rows
        wf = wc = 1.0 / t0
    else:  # a dense array: each row relaxed by its own diagonal entry
        d = A.diagonal()
        if not ((0 < d) & (d < math.inf)).all():
            raise ValueError("Jacobi needs a positive, finite diagonal")
        w = 1.0 / d
        dense, even, odd = A, A[0::2], A[1::2]
        wf, wc = w[0::2], w[1::2]
    if r is None:
        r = b - dense @ x
    xf, xc = x[0::2], x[1::2]
    xf += r[0::2] * wf
    xc += (b[1::2] - odd @ x) * wc
    xf += (b[0::2] - even @ x) * wf
    return x, lambda: b - dense @ x


def _stride2_sweep(T: SymToeplitz, x: np.ndarray, b: np.ndarray,
                   r: np.ndarray | None, w: float
                   ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """cf_jacobi_sweep on a SymToeplitz without a dense copy, on the
    spectra of x's F (even) and C (odd) halves; x is the sweep's own
    copy."""
    transform, rows = T.stride2_rows()
    F, C = slice(0, None, 2), slice(1, None, 2)

    def spectrum(parity, v):
        return transform(parity, v) if v.any() else 0.0

    xc = spectrum(1, x[C])
    x[F] += (b[F] - rows(0, spectrum(0, x[F]), xc) if r is None
             else r[F]) * w
    xf = transform(0, x[F])
    x[C] += (b[C] - rows(1, xf, xc)) * w
    xc = transform(1, x[C])
    x[F] += (b[F] - rows(0, xf, xc)) * w

    def residual():
        xf = transform(0, x[F])
        out = np.empty_like(x)
        out[F] = b[F] - rows(0, xf, xc)
        out[C] = b[C] - rows(1, xf, xc)
        return out
    return x, residual


def cg_solve(T: SymToeplitz, b: np.ndarray, tol: float = 1e-12,
             maxit: int = 1000, x0: np.ndarray | None = None):
    """Unpreconditioned CG on an SPD Toeplitz matrix.

    Each step of iterate() solves T d = r for the correction d from zero
    and returns x + d.  r is first scaled by the power of two of max|r|
    (exact), so r.r cannot overflow however far the warm start lies, and
    d is scaled back.  The recurrence (p = r) runs until its residual
    drops to tol * ||b|| or to eps times the true residual it started
    from (below which the true residual, from a far warm start, no
    longer follows it), a search direction has p.Tp not positive and
    finite (as after an underflow at the rounding floor), or the budget
    runs out.  The recurrence residual therefore only proposes
    convergence: iterate() confirms it on b - T x, and otherwise CG
    restarts from that true residual.  A step that cannot take a single
    iteration is a breakdown.

    A call that converges in k iterations of one restart makes k + 2
    products with T: one per iteration and iterate()'s check before and
    after, or k + 1 from a zero start, whose first check takes none.
    Everything else is fixed: T.matvec is looked up once per
    call, the inner products and norms are BLAS ddot calls, and the
    first iteration starts from d = 0 and p = r without forming either.
    """
    matvec = T.matvec

    def recurrence(r, rr, budget, bnorm):
        p, d = r, None
        floor = _EPS2 * rr
        for k in range(budget):
            if k and (math.sqrt(rr) / bnorm <= tol or rr <= floor):
                return d, k
            Ap = matvec(p)
            pAp = ddot(p, Ap)
            if not (math.isfinite(pAp) and pAp > 0.0):
                return d, k
            alpha = rr / pAp
            d = alpha * p if d is None else d + alpha * p
            r = r - alpha * Ap
            rr_new = ddot(r, r)
            p = r + (rr_new / rr) * p
            rr = rr_new
        return d, budget

    def step(b, x, r, budget):
        e = _exponent(r)
        r = np.ldexp(r, -e)
        d, k = recurrence(r, ddot(r, r), budget, math.ldexp(norm2(b), -e))
        return (x + np.ldexp(d, e) if k else x), k, None

    return iterate(T, b, step, tol, maxit, x0, "cg")


def coarsest_cholesky(A: np.ndarray) -> np.ndarray:
    """The upper Cholesky factor U (A = U^T U, LAPACK dpotrf) of a
    multigrid's coarsest matrix A (dense), which is SPD as a Galerkin
    product of an SPD matrix; each cycle's direct solve there is then
    one dpotrs call (cholesky_solve).  Raises LinAlgError when A is not
    positive definite, singular matrices included."""
    factor, info = dpotrf(A)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"coarsest matrix is not positive definite (m={len(A)}, "
            f"info={info})")
    return factor


def cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b from the factor of coarsest_cholesky(A)."""
    return dpotrs(factor, b)[0]


def lu_nopivot(A: np.ndarray) -> np.ndarray:
    """In-place style LU factorization without pivoting.

    Valid for strictly diagonally dominant matrices; a (near-)zero pivot
    signals that precondition was violated.
    """
    lu = np.array(A, dtype=np.float64)
    n = lu.shape[0]
    scale = np.max(np.abs(np.diag(A))) if n else 1.0
    for k in range(n):
        piv = lu[k, k]
        if abs(piv) <= 1e-14 * scale:
            raise ZeroDivisionError(
                f"zero pivot at row {k}: matrix is not diagonally dominant")
        lu[k + 1:, k] /= piv
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu


def lu_solve_nopivot(lu: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b from lu = lu_nopivot(A); b is a vector or an
    (n, k) block of k right-hand sides, solved column by column."""
    n = lu.shape[0]
    y = np.asarray(b, dtype=np.float64).copy()
    for k in range(n):  # forward, unit lower triangle
        y[k + 1:] -= np.multiply.outer(lu[k + 1:, k], y[k])
    for k in range(n - 1, -1, -1):  # backward
        y[k] = (y[k] - lu[k, k + 1:] @ y[k + 1:]) / lu[k, k]
    return y
