"""Smoothers, conjugate gradients, and the pivot-free dense solve."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .toeplitz import SymToeplitz


@dataclass
class SolveReport:
    iterations: int
    final_relres: float
    converged: bool
    work_estimate: int = 0
    branch: str = ""


def jacobi_sweep(T: SymToeplitz, x: np.ndarray, b: np.ndarray,
                 omega: float = 1.0) -> np.ndarray:
    """One (damped) Jacobi sweep x + omega * D^-1 (b - T x).

    The diagonal is constant (t0) by Toeplitz structure, so the sweep is
    a matvec plus an axpy.
    """
    t0 = T.symbol[0]
    if t0 <= 0:
        raise ValueError("Jacobi needs a positive diagonal")
    return x + (omega / t0) * (b - T.matvec(x))


def cf_jacobi_sweep(T: SymToeplitz, x: np.ndarray, b: np.ndarray,
                    omega: float = 1.0, order: str = "FCF",
                    r: np.ndarray | None = None) -> np.ndarray:
    """Jacobi relaxation executed one point class at a time.

    'F' passes relax the fine-only points (0-based even positions), 'C'
    passes the coarse points (odd positions); each pass uses the freshly
    updated residual.  The default "FCF" ordering damps the oscillatory
    error components far better than a simultaneous sweep on these
    matrices, whose scaled spectral radius can approach 2.  Cost is one
    matvec per pass, less one when the caller passes r = b - T x (for a
    zero x, r = b).
    """
    t0 = T.symbol[0]
    if t0 <= 0:
        raise ValueError("Jacobi needs a positive diagonal")
    if not order or set(order) - {"F", "C"}:
        raise ValueError(f"order must be a nonempty string over 'F'/'C', got {order!r}")
    x = np.array(x, dtype=np.float64)
    w = omega / t0
    for k, grp in enumerate(order):
        if k or r is None:
            r = b - T.matvec(x)
        s = slice(0, None, 2) if grp == "F" else slice(1, None, 2)
        x[s] += w * r[s]
    return x


def cg_solve(T: SymToeplitz, b: np.ndarray, tol: float = 1e-12,
             maxit: int = 1000, x0: np.ndarray | None = None):
    """Unpreconditioned CG on an SPD Toeplitz matrix.

    The recurrence residual only proposes convergence.  Once its norm
    drops to tol * ||b||, the true residual b - T x is recomputed, and
    the solve is reported converged only if ||b - T x|| / ||b|| <= tol;
    otherwise CG restarts from the true residual (p = b - T x).  A
    search direction with p.Tp not positive and finite (as after an
    underflow at the rounding floor) also triggers that restart; if it
    happens again right after a restart, the iteration has broken down
    and the report is non-converged.  Reaching maxit ends the solve as
    well.  Every report carries the true relative residual in
    final_relres, and no tol > 0 raises.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    b = np.asarray(b, dtype=np.float64)
    if not np.any(b):
        return np.zeros_like(b), SolveReport(0, 0.0, True, 0, "cg")
    bnorm = np.linalg.norm(b)
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        r = b - T.matvec(x)
    p = r.copy()
    rr = float(r @ r)
    fresh = True  # r is the true residual b - T x
    it = 0
    while True:
        relres = float(np.sqrt(rr) / bnorm)
        claimed = bool(relres <= tol)
        if fresh and (claimed or it >= maxit):
            return x, SolveReport(it, relres, claimed, it, "cg")
        if not claimed and it < maxit:
            Ap = T.matvec(p)
            pAp = float(p @ Ap)
            if np.isfinite(pAp) and pAp > 0.0:
                alpha = rr / pAp
                x = x + alpha * p
                r = r - alpha * Ap
                rr_new = float(r @ r)
                p = r + (rr_new / rr) * p
                rr = rr_new
                fresh = False
                it += 1
                continue
            if fresh:  # breakdown on the true residual itself
                return x, SolveReport(it, relres, False, it, "cg")
        # Proposed convergence, maxit or breakdown: restart from b - T x.
        r = b - T.matvec(x)
        p = r.copy()
        rr = float(r @ r)
        fresh = True


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
