"""Executable matrix theory: sign patterns, M-matrix predicates,
sufficient-condition classes, extremal eigenvalues, and the two-level
convergence factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn

from .amg import TwoLevelV01
from .assembly import step_matrix
from .problem import Mesh, ProblemSpec
from .solvers import cg_solve
from .toeplitz import SymToeplitz

DEFAULT_SEED = 0x5EED

# Dense symmetric eigensolves stay exact and fast up to this size; above
# it Lanczos runs at most _LANCZOS_MAXIT steps per end, so its basis
# holds at most _LANCZOS_MAXIT x m doubles (65 MB at m = 8192).
EIG_DENSE_CAP = 4096
_LANCZOS_MAXIT = 1000


@dataclass
class MatrixReport:
    diag_positive: bool
    offdiag_pattern: str  # "all-negative" | "first-offdiag-nonnegative"
    diagonally_dominant: bool
    m_matrix: bool
    row_sums_positive: bool
    row_sum_bounds_hold: Optional[bool] = None


@dataclass
class SpectrumReport:
    lambda_min: float
    lambda_max: float
    kappa: float
    method: str
    residual_tol_achieved: float


def _offdiag_first_root(beta):
    return 3.0 ** (3.0 - 2.0 * beta) - 2.0 ** (5.0 - 2.0 * beta) + 7.0


@functools.cache
def beta0() -> float:
    """Unique root of 3^(3-2b) - 2^(5-2b) + 7 = 0 in (0, 1/2); cached.

    This is the threshold below which the first off-diagonal of the
    advection stiffness matrix turns nonnegative.
    """
    return brentq(_offdiag_first_root, 1e-12, 0.5 - 1e-12,
                  xtol=1e-14, rtol=8.9e-16)


def classify(T: SymToeplitz, mu: Optional[float] = None,
             h: Optional[float] = None) -> MatrixReport:
    """Check the sign-pattern, dominance and M-matrix predicates.

    When the fractional order mu and mesh size h are supplied and
    h <= 1/7, the closed-form row-sum lower bounds are verified too.
    """
    t = T.symbol
    diag_positive = bool(t[0] > 0)
    if np.all(t[1:] < 0):
        pattern = "all-negative"
    elif t[1] >= 0 and np.all(t[2:] < 0):
        pattern = "first-offdiag-nonnegative"
    else:
        pattern = "other"
    # strict row dominance: row i's off-diagonal sum is p[i] + p[m-1-i],
    # p the prefix sums 0, |t_1|, |t_1| + |t_2|, ...
    p = np.concatenate(([0.0], np.cumsum(np.abs(t[1:]))))
    dominance = bool(abs(t[0]) > np.max(p + p[::-1]))
    row_sums = T.row_sums()
    row_sums_positive = bool(np.all(row_sums > 0))
    m_matrix = bool(pattern == "all-negative" and row_sums_positive)

    bounds = None
    if mu is not None and h is not None and h <= 1.0 / 7.0:
        edge = -(h ** (1.0 - 2.0 * mu) * (4.0 - 2.0 ** (3.0 - 2.0 * mu))
                 / (2.0 * math.cos(mu * math.pi) * gamma_fn(4.0 - 2.0 * mu)))
        interior = -(2.0 ** (2.0 * mu) * h * (2.0 * mu - 1.0)
                     / (math.cos(mu * math.pi) * gamma_fn(2.0 - 2.0 * mu)))
        bounds = bool(np.all(row_sums[[0, -1]] >= edge)
                      and np.all(row_sums[1:-1] >= interior))
    return MatrixReport(diag_positive=diag_positive, offdiag_pattern=pattern,
                        diagonally_dominant=dominance, m_matrix=m_matrix,
                        row_sums_positive=row_sums_positive,
                        row_sum_bounds_hold=bounds)


def class_conditions(spec: ProblemSpec, mesh: Mesh):
    """The two sufficient M-matrix conditions for the first step's matrix.

    Class 1: beta >= beta0 together with a lower bound on
    tau^alpha0 / h^{2 gamma}.  Class 2: beta < beta0 with h small enough
    that the diffusion entries dominate the positive advection ones,
    plus the same tau/h bound.
    """
    orders = spec.orders
    beta, gamma = orders.beta, orders.gamma
    tau = float(mesh.taus[0])
    h = mesh.h
    coeff_sum = sum(c / gamma_fn(3.0 - a)
                    for a, c in zip(orders.alphas, orders.a_coeffs))
    tau_bound = (-4.0 * math.cos(gamma * math.pi) * gamma_fn(4.0 - 2.0 * gamma)
                 / (3.0 * spec.k2 * _offdiag_first_root(gamma))) * coeff_sum
    tau_ok = tau ** orders.alpha0 / h ** (2.0 * gamma) > tau_bound

    b0 = beta0()
    class1 = beta >= b0 and tau_ok

    h_bound = (-0.5
               * spec.k2 * _offdiag_first_root(gamma)
               / (math.cos(gamma * math.pi) * gamma_fn(4.0 - 2.0 * gamma))
               * math.cos(beta * math.pi) * gamma_fn(4.0 - 2.0 * beta)
               / (spec.k1 * _offdiag_first_root(beta)))
    class2 = beta < b0 and h ** (2.0 * (gamma - beta)) < h_bound and tau_ok
    return class1, class2


def spectrum(T: SymToeplitz, tol: float = 1e-6) -> SpectrumReport:
    """Extremal eigenvalues and condition number of an SPD Toeplitz matrix.

    Up to EIG_DENSE_CAP unknowns, one dense symmetric eigensolve: both
    eigenvalues are exact to rounding and residual_tol_achieved is 0.
    Above it, Lanczos (_lanczos_top) on T for the largest and on T^-1
    (CG inner solves) for the smallest eigenvalue.  Each stops once two
    successive estimates differ by at most tol, relative, and
    residual_tol_achieved is lambda_max's last such change.  A Ritz
    value of T lies below lambda_max, and 1 / (Ritz value of T^-1)
    above lambda_min.  Neither is an error bound: a run that converges
    slowly stops with an estimate further from the eigenvalue than tol.
    A dense lambda_min, or a least Ritz value of T, that is not positive
    raises LinAlgError: a Ritz value is a Rayleigh quotient, so it is
    never below lambda_min.
    """
    m = T.m
    if m <= EIG_DENSE_CAP:
        eigs = scipy.linalg.eigvalsh(T.to_dense())
        lmin, lmax = eigs[0], eigs[-1]
        if not lmin > 0:
            raise np.linalg.LinAlgError(
                f"matrix is not positive definite (m={m}, "
                f"lambda_min={lmin:.6g})")
        return SpectrumReport(lambda_min=float(lmin), lambda_max=float(lmax),
                              kappa=float(lmax / lmin), method="dense",
                              residual_tol_achieved=0.0)
    rng = np.random.default_rng(DEFAULT_SEED)
    lmax, achieved, lowest = _lanczos_top(T.matvec, rng.standard_normal(m),
                                          tol)
    if not lowest > 0:
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite (m={m}, "
            f"Ritz value {lowest:.6g})")

    def solve(v):
        w, rep = cg_solve(T, v, tol=min(1e-10, tol * 1e-2), maxit=100000)
        if not rep.converged:
            raise RuntimeError("inner CG of inverse Lanczos did not converge")
        return w

    lmin = 1.0 / _lanczos_top(solve, rng.standard_normal(m), tol)[0]
    return SpectrumReport(lambda_min=lmin, lambda_max=lmax,
                          kappa=lmax / lmin, method="iterative",
                          residual_tol_achieved=achieved)


def _lanczos_top(apply, v, tol):
    """Largest eigenvalue of the symmetric operator apply, by Lanczos
    from v with full reorthogonalisation (two Gram-Schmidt passes).

    Returns the largest Ritz value, its last relative move, once that
    move is at most tol, and the least Ritz value of the same
    tridiagonal matrix; on breakdown (the Krylov space is invariant)
    the Ritz values are exact and the move returned is 0.
    """
    m = v.size
    steps = min(_LANCZOS_MAXIT, m)
    basis = np.empty((steps + 1, m))
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    theta = 0.0

    def ritz(i):  # Ritz value i, counted from the least (0)
        return float(scipy.linalg.eigh_tridiagonal(
            alpha, beta[:-1], eigvals_only=True, select="i",
            select_range=(i, i))[0])

    for k in range(steps):
        w = apply(basis[k])
        alpha.append(float(basis[k] @ w))
        for _ in range(2):
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        beta.append(float(np.linalg.norm(w)))
        prev, theta = theta, ritz(k)
        move = abs(theta - prev) / abs(theta)
        # Breakdown: the basis spans an invariant space.  A beta at
        # rounding level counts as zero: w is then rounding left in the
        # basis's own span, not a new direction.
        if beta[-1] <= np.finfo(float).eps * abs(theta) or k + 1 == m:
            return theta, 0.0, ritz(0)
        if move <= tol:
            return theta, move, ritz(0)
        basis[k + 1] = w / beta[-1]
    raise RuntimeError(f"Lanczos did not converge in {steps} steps")


def kappa_ratio_table(spec: ProblemSpec, mesh_for, m_list: Sequence[int]):
    """Rows (M, lambda_min, lambda_max, kappa, ratio) over a size sweep.

    mesh_for(m) must return the mesh for spatial resolution m; ratio is
    kappa_prev / kappa_cur (empty on the first row).
    """
    rows = []
    prev_kappa = None
    for m in m_list:
        mesh = mesh_for(m)
        rep = spectrum(step_matrix(spec, mesh, 1).a_full)
        ratio = None if prev_kappa is None else prev_kappa / rep.kappa
        rows.append({"M": m, "lambda_min": rep.lambda_min,
                     "lambda_max": rep.lambda_max, "kappa": rep.kappa,
                     "ratio": ratio})
        prev_kappa = rep.kappa
    return rows


def two_level_contraction(A: SymToeplitz) -> float:
    """Asymptotic convergence factor of the two-level V(0,1) iteration:
    the spectral radius of its error operator E = (I - L^-1 A)(I - P
    A_c^-1 P^T A), L the lower triangle of A.

    E is taken by one cycle on the identity block with b = 0, and rho(E)
    from one dense eigenvalue solve, O(M^3): keep M moderate, as for
    TwoLevelV01.  rho(E) is the rate per step in the limit, not a bound
    on one step: the A-norm factor ||E||_A can be larger.
    """
    eye = np.eye(A.m)
    E = TwoLevelV01(A).apply(np.zeros_like(eye), eye)
    return float(np.max(np.abs(scipy.linalg.eigvals(E))))
