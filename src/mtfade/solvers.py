"""The iteration driver, the CF-Jacobi smoother, conjugate gradients, and
the pivot-free dense solve."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .toeplitz import SymToeplitz

# The paper's multigrid, which has no settings: both hierarchies coarsen
# until at most COARSEST_MAX unknowns remain and solve that level
# directly, and smooth with one CF-Jacobi sweep (F, C, F passes) before
# and after each coarse correction.
COARSEST_MAX = 8
_FCF = (slice(0, None, 2), slice(1, None, 2), slice(0, None, 2))


@dataclass
class SolveReport:
    iterations: int
    final_relres: float
    converged: bool
    reason: str = ""  # "converged", "nonfinite", "maxit" or "breakdown"
    branch: str = ""


def iterate(A, b: np.ndarray, step, tol: float, maxit: int,
            x0: np.ndarray | None, branch: str = ""):
    """Drive step(b, x, r, budget) -> (x, iterations) until tol is met.

    This is the one stopping rule of every solver.  b and x0 are first
    scaled by 2^-e, where e is the frexp exponent of max|b|; the scaling
    is exact in the normal range, so iterates are unchanged, while ||b||
    and ||r|| can no longer underflow to 0 for a tiny b.  Before each
    step the true residual r = b - A @ x of the scaled system is
    computed, and the solve ends

    * "converged" when ||r|| / ||b|| <= tol,
    * "nonfinite" when that relative residual is not finite,
    * "maxit" when maxit iterations have run,
    * "breakdown" when a step ran 0 iterations;

    otherwise the step runs at most budget = maxit - (iterations so far)
    iterations from the scaled b, x and r.  x is scaled back on return.
    An all-zero b is solved by x = 0 at once.  The report, labelled with
    branch, carries the true relative residual, so a claim of
    convergence is never based on anything else, and no tol > 0 raises.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    b = np.asarray(b, dtype=np.float64)
    if not b.any():
        return np.zeros_like(b), SolveReport(0, 0.0, True, "converged", branch)
    e = int(np.frexp(max(b.max(), -b.min()))[1])  # of max|b|, no temporary
    b = np.ldexp(b, -e)
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b) if x0 is None else np.ldexp(
        np.asarray(x0, dtype=np.float64), -e)
    it = 0
    while True:
        r = b - A @ x
        relres = float(np.linalg.norm(r) / bnorm)
        if relres <= tol:
            reason = "converged"
        elif not math.isfinite(relres):
            reason = "nonfinite"
        elif it >= maxit:
            reason = "maxit"
        else:
            x, k = step(b, x, r, maxit - it)
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
                    r: np.ndarray | None = None) -> np.ndarray:
    """One CF-Jacobi sweep: Jacobi relaxation (weight 1) of the F-points,
    then the C-points, then the F-points again.

    A is any operator with `@` and a positive diagonal() (a SymToeplitz,
    whose diagonal is the scalar t0, or a dense array).  F-points are the
    0-based even positions, C-points the odd ones; each pass uses the
    freshly updated residual.  This ordering damps the oscillatory error
    components far better than a simultaneous sweep on these matrices,
    whose scaled spectral radius can approach 2.  Cost is one product per
    pass, less one when the caller passes r = b - A x (for a zero x,
    r = b).
    """
    d = A.diagonal()
    if (d <= 0).any() if isinstance(d, np.ndarray) else d <= 0:
        raise ValueError("Jacobi needs a positive diagonal")
    x = np.array(x, dtype=np.float64)
    w = 1.0 / d
    for k, s in enumerate(_FCF):
        if k or r is None:
            r = b - A @ x
        x[s] += (w * r)[s]
    return x


def cg_solve(T: SymToeplitz, b: np.ndarray, tol: float = 1e-12,
             maxit: int = 1000, x0: np.ndarray | None = None):
    """Unpreconditioned CG on an SPD Toeplitz matrix.

    Each step of iterate() runs the CG recurrence from the true residual
    (p = r) until the recurrence residual drops to tol * ||b||, a search
    direction has p.Tp not positive and finite (as after an underflow at
    the rounding floor), or the budget runs out.  The recurrence residual
    therefore only proposes convergence: iterate() confirms it on
    b - T x, and otherwise CG restarts from that true residual.  A step
    that cannot take a single iteration is a breakdown.
    """
    def step(b, x, r, budget):
        bnorm = np.linalg.norm(b)
        p = r.copy()
        rr = float(r @ r)
        for k in range(budget):
            if k and math.sqrt(rr) / bnorm <= tol:
                return x, k
            Ap = T.matvec(p)
            pAp = float(p @ Ap)
            if not (math.isfinite(pAp) and pAp > 0.0):
                return x, k
            alpha = rr / pAp
            x = x + alpha * p
            r = r - alpha * Ap
            rr_new = float(r @ r)
            p = r + (rr_new / rr) * p
            rr = rr_new
        return x, budget

    return iterate(T, b, step, tol, maxit, x0, "cg")


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
    n = lu.shape[0]
    y = np.asarray(b, dtype=np.float64).copy()
    for k in range(n):  # forward, unit lower triangle
        y[k + 1:] -= lu[k + 1:, k] * y[k]
    for k in range(n - 1, -1, -1):  # backward
        y[k] = (y[k] - lu[k, k + 1:] @ y[k + 1:]) / lu[k, k]
    return y


def dense_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination without pivoting (coarsest-level solver)."""
    return lu_solve_nopivot(lu_nopivot(A), b)
