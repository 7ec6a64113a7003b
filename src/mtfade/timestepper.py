"""Time marching, error norms, and convergence tables."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.blas import dasum, daxpy, ddot, dgemm, dgemv
from scipy.linalg.lapack import dgesv
from scipy.special import roots_legendre

from .amg import AdaptiveSolver
from .assembly import initial_state, rhs_vector, step_matrix
from .problem import Mesh, ProblemSpec, TimePolicy, make_mesh


# How many of the latest states span the start of each step's solve.
PROJECTION_WINDOW = 6
_EPS = float(np.finfo(np.float64).eps)


class SolverFailure(RuntimeError):
    def __init__(self, step, report):
        super().__init__(f"solver failed at time step {step} "
                         f"(relres {report.final_relres:.3e})")
        self.step = step
        self.report = report


@dataclass
class RunResult:
    """A finished march.  states holds U^0 .. U^N as rows.  The phase
    timers are wall seconds and together cover the step loop: setup
    covers the step matrices and solvers (once on a uniform mesh, every
    step on a graded one), rhs the right-hand sides with the product
    A U^{n-1} they share, and solve the projected starts and the linear
    solves.  On a uniform mesh solve also holds the build of the folded
    cycle (amg.fold; see amg.AdaptiveSolver)."""

    states: np.ndarray
    l2_error: Optional[float]
    per_step_reports: list
    setup_seconds: float
    solve_seconds: float
    rhs_seconds: float

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def total_iterations(self):
        return sum(r.iterations for r in self.per_step_reports)


class ProjectedStart:
    """The start of each step's solve: the Galerkin projection of its
    system A x = b onto the span of the last PROJECTION_WINDOW states.

    This is Fischer's projection for successive right-hand sides (CMAME
    163, 1998).  Over that span it minimises the A-norm error, and the
    span holds U^{n-1}, so in exact arithmetic the start is never worse
    than U^{n-1}.  It is computed in the basis U^{n-1}, x_j - U^{n-1}
    of the other states x_j, as x0 = U^{n-1} + D^T c with
    (D A D^T) c = D (b - A U^{n-1}): the states differ by O(tau), and
    the Gram matrix of the differences keeps the digits that the states'
    own Gram matrix loses.

    The products A x_j are kept, oldest first, against the step matrix
    they were taken with.  A start is a fixed sequence of calls: the Gram
    matrix and the products with D and AD by BLAS dgemm and dgemv, the
    sums by daxpy, the solve by LAPACK dgesv, the norms by ddot and
    |c|_1 by dasum.  When the Gram matrix is singular, or the
    projection's residual does not beat U^{n-1}'s by more than its own
    rounding (a numerically singular Gram matrix, states that differ by
    rounding, a non-finite value, an overflowing Gram matrix or
    residual norm), the start is U^{n-1}.
    """

    def __init__(self, m: int):
        self._products = np.zeros((PROJECTION_WINDOW, m))
        self._matrix = None
        self._level = 0

    def start(self, A, b: np.ndarray, states: np.ndarray,
              au: np.ndarray) -> np.ndarray:
        """x0 for A x = b at level n = len(states); states holds
        U^0 .. U^{n-1} as rows and is only read, and au is A U^{n-1} as
        A.matvec takes it, the product the step's right-hand side
        shares.  On the same matrix one level on, au is the window's
        one new product; on a new matrix the window is retaken as one
        block product, whose last row stands for A U^{n-1} here.  A b
        or au that is not one value per unknown raises ValueError."""
        n = len(states)
        x = states[max(0, n - PROJECTION_WINDOW):]
        if b.shape != x[-1].shape or au.shape != x[-1].shape:
            raise ValueError(f"b and au must be {x.shape[1]} values, got "
                             f"shapes {b.shape} and {au.shape}")
        ax = self._products[PROJECTION_WINDOW - len(x):]
        if A is self._matrix and n == self._level + 1:
            self._products[:-1] = self._products[1:]
            ax[-1] = au
        else:
            ax[:] = A.row_products(x)
        self._matrix, self._level = A, n
        u, au = x[-1], ax[-1]
        d = x - u
        d[-1] = u
        ad = ax - au
        ad[-1] = au
        # The products are the BLAS calls numpy's d @ ad.T, d @ r, c @ ad
        # and c @ d make, and daxpy with a = +-1 rounds as + and - do, so
        # the start is numpy's bitwise; no BLAS call warns, whatever the
        # values.  A failed projection shows as info > 0 or as a residual
        # that does not beat U^{n-1}'s (nan compares false): the start
        # is U^{n-1}.
        r = daxpy(au, b.copy(), a=-1.0)  # b - A U^{n-1}
        _, _, c, info = dgesv(dgemm(1.0, ad.T, d.T, trans_a=1).T,
                              dgemv(1.0, d.T, r, trans=1))
        if info:
            return u
        rr = ddot(r, r)
        # r0 is only as exact as the products, to about
        # m eps |c|_1 |A U^{n-1}|; it must be smaller by more
        r0 = daxpy(dgemv(1.0, ad.T, c), r, a=-1.0)  # r - c AD, over r
        slack = len(u) * _EPS * dasum(c) * math.sqrt(ddot(au, au))
        if math.sqrt(ddot(r0, r0)) + slack < math.sqrt(rr):
            return daxpy(u, dgemv(1.0, d.T, c))  # U^{n-1} + c D
        return u


def _step_solver(spec, mesh, n, force):
    """The step matrix of level n and its solver, with the hierarchy
    built up front when the solves will use it."""
    mats = step_matrix(spec, mesh, n)
    solver = AdaptiveSolver(spec, mesh, mats)
    if (force or ("cg" if solver.use_cg else "amg")) == "amg":
        solver.hierarchy
    return solver


def march(spec: ProblemSpec, mesh: Mesh, tol: float = 1e-12,
          force: Optional[str] = None) -> RunResult:
    """March the scheme over all time steps.

    The initial state interpolates the initial data at the interior
    nodes.  Each step assembles the right-hand side from the states so
    far and solves with the adaptive solver, started from the Galerkin
    projection of its system onto the last PROJECTION_WINDOW states
    (ProjectedStart).  A step takes A U^{n-1} once, for its right-hand
    side and its start.  The states fill one (N+1, M-1) array, allocated
    up front.  A uniform time mesh shares one step matrix and solver
    across all steps.  A graded one builds each step's matrix from the
    mesh's cached mass and stiffness symbols (only the three
    coefficients depend on the step) and a hierarchy for it; every step
    shares the one mass matrix.  A mesh whose m cells of width h do not
    span spec.domain is rejected (ValueError) before the first step.
    """
    a, b = spec.domain
    if abs(mesh.h * mesh.m - (b - a)) > 1e-12 * (b - a):
        raise ValueError(f"mesh h * m = {mesh.h * mesh.m} does not span the "
                         f"domain {spec.domain}")
    clock = time.perf_counter
    t0 = clock()
    solver = _step_solver(spec, mesh, 1, force)
    setup_seconds = clock() - t0
    rhs_seconds = solve_seconds = 0.0

    states = np.empty((mesh.n_steps + 1, mesh.m - 1))
    states[0] = initial_state(spec, mesh)
    reports = []
    uniform = mesh.uniform
    projection = ProjectedStart(mesh.m - 1)
    for n in range(1, mesh.n_steps + 1):
        t0 = clock()
        if n > 1 and not uniform:
            solver = _step_solver(spec, mesh, n, force)
        t1 = clock()
        A = solver.mats.a_full
        au = A.matvec(states[n - 1])
        b = rhs_vector(spec, mesh, states[:n], solver.mats, au)
        t2 = clock()
        x0 = projection.start(A, b, states[:n], au)
        x, rep = solver.solve(b, tol=tol, x0=x0, force=force)
        t3 = clock()
        setup_seconds += t1 - t0
        rhs_seconds += t2 - t1
        solve_seconds += t3 - t2
        if not rep.converged:
            raise SolverFailure(n, rep)
        reports.append(rep)
        states[n] = x

    err = l2_error(states[-1], spec, mesh) if spec.exact else None
    return RunResult(states=states, l2_error=err, per_step_reports=reports,
                     setup_seconds=setup_seconds,
                     solve_seconds=solve_seconds, rhs_seconds=rhs_seconds)


def l2_error(state: np.ndarray, spec: ProblemSpec, mesh: Mesh) -> float:
    """L2 norm of (exact - piecewise-linear interpolant) at the final time.

    Elementwise 3-point Gauss quadrature; the interpolant vanishes at
    both boundary nodes.
    """
    if spec.exact is None:
        raise ValueError("problem has no exact solution")
    t = float(mesh.times[-1])
    a, _ = spec.domain
    h, m = mesh.h, mesh.m
    nodal = np.concatenate(([0.0], np.asarray(state, dtype=np.float64), [0.0]))
    g, w = roots_legendre(3)
    acc = 0.0
    left = a + h * np.arange(m)
    for gq, wq in zip(g, w):
        x = left + 0.5 * h * (gq + 1.0)
        frac = 0.5 * (gq + 1.0)
        uh = nodal[:-1] * (1.0 - frac) + nodal[1:] * frac
        diff = np.asarray(spec.exact(x, t), dtype=np.float64) - uh
        acc += 0.5 * h * wq * float(diff @ diff)
    return float(np.sqrt(acc))


def convergence_table(spec: ProblemSpec, policy: TimePolicy,
                      sizes: Sequence[int], tol: float = 1e-12,
                      tau_const: Optional[float] = None,
                      force: Optional[str] = None):
    """Error and rate rows over a sequence of doubling mesh sizes.

    rate_h uses the spatial-step halving as base; rate_steps uses the
    growth of the time-step count (the convention some h = sqrt(tau)
    studies report, where it comes out near half the h-based rate).
    """
    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be ascending")
    rows = []
    prev = None
    for m in sizes:
        mesh = make_mesh(spec, m, policy, tau_const)
        res = march(spec, mesh, tol=tol, force=force)
        err = res.l2_error
        rate_h = rate_steps = None
        if prev is not None:
            m_prev, n_prev, err_prev = prev
            rate_h = np.log(err_prev / err) / np.log(m / m_prev)
            if mesh.n_steps != n_prev:
                rate_steps = np.log(err_prev / err) / np.log(mesh.n_steps / n_prev)
        rows.append({"M": m, "N": mesh.n_steps, "h": mesh.h,
                     "tau": float(mesh.taus[0]), "l2_error": err,
                     "rate_h": rate_h, "rate_steps": rate_steps})
        prev = (m, mesh.n_steps, err)
    return rows
