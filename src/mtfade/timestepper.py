"""Time marching, error norms, and convergence tables."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from scipy.special import roots_legendre

from .amg import AdaptiveSolver
from .assembly import TimeHistory, rhs_vector, step_matrix
from .problem import Mesh, ProblemSpec, TimePolicy, make_mesh


class SolverFailure(RuntimeError):
    def __init__(self, step, report):
        super().__init__(f"solver failed at time step {step} "
                         f"(relres {report.final_relres:.3e})")
        self.step = step
        self.report = report


@dataclass
class RunResult:
    """A finished march.  The phase timers are wall seconds: setup covers
    the step matrices and solvers (once on a uniform mesh, every step on
    a graded one), rhs the right-hand sides, solve the linear solves."""

    final_state: np.ndarray
    l2_error: Optional[float]
    per_step_reports: list
    setup_seconds: float
    solve_seconds: float
    rhs_seconds: float
    history: Optional[TimeHistory] = None

    @property
    def total_iterations(self):
        return sum(r.iterations for r in self.per_step_reports)


def _step_solver(spec, mesh, n, force):
    """The step matrix of level n and its solver, with the hierarchy
    built up front when the solves will use it."""
    mats = step_matrix(spec, mesh, n)
    solver = AdaptiveSolver(spec, mesh, mats)
    if (force or ("cg" if solver.use_cg else "amg")) == "amg":
        solver.hierarchy
    return solver


def march(spec: ProblemSpec, mesh: Mesh, tol: float = 1e-12,
          warm_start: bool = True, force: Optional[str] = None,
          maxit: int = 1000, keep_history: bool = False) -> RunResult:
    """March the scheme over all time steps.

    The initial state interpolates the initial data at the interior
    nodes.  Each step assembles the history-dependent right-hand side and
    solves with the adaptive solver, warm-started from the previous state
    unless benchmark parity (zero initial guess) is requested.  A uniform
    time mesh shares one step matrix and solver across all steps.
    """
    clock = time.perf_counter
    t0 = clock()
    solver = _step_solver(spec, mesh, 1, force)
    setup_seconds = clock() - t0
    rhs_seconds = solve_seconds = 0.0

    history = TimeHistory.from_initial(spec, mesh)
    reports = []
    uniform = mesh.uniform
    for n in range(1, mesh.n_steps + 1):
        t0 = clock()
        if n > 1 and not uniform:
            solver = _step_solver(spec, mesh, n, force)
        t1 = clock()
        b = rhs_vector(spec, mesh, n, history, solver.mats)
        t2 = clock()
        x0 = history.states[-1] if warm_start else None
        x, rep = solver.solve(b, tol=tol, maxit=maxit, x0=x0, force=force)
        t3 = clock()
        setup_seconds += t1 - t0
        rhs_seconds += t2 - t1
        solve_seconds += t3 - t2
        if not rep.converged:
            raise SolverFailure(n, rep)
        reports.append(rep)
        history.append(x)

    final = history.states[-1].copy()  # does not pin the history array
    err = l2_error(final, spec, mesh) if spec.exact else None
    return RunResult(final_state=final, l2_error=err,
                     per_step_reports=reports, setup_seconds=setup_seconds,
                     solve_seconds=solve_seconds, rhs_seconds=rhs_seconds,
                     history=history if keep_history else None)


def l2_error(state: np.ndarray, spec: ProblemSpec, mesh: Mesh,
             t: Optional[float] = None, n_gauss: int = 3) -> float:
    """L2 norm of (exact - piecewise-linear interpolant) at time t.

    Elementwise Gauss quadrature; the interpolant vanishes at both
    boundary nodes.
    """
    if spec.exact is None:
        raise ValueError("problem has no exact solution")
    if t is None:
        t = float(mesh.times[-1])
    a, _ = spec.domain
    h, m = mesh.h, mesh.m
    nodal = np.concatenate(([0.0], np.asarray(state, dtype=np.float64), [0.0]))
    g, w = roots_legendre(n_gauss)
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
                     "rate_h": rate_h, "rate_steps": rate_steps,
                     "result": res})
        prev = (m, mesh.n_steps, err)
    return rows
