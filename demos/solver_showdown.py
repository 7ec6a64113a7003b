"""Solver demo: the fast Toeplitz hierarchy against CG and a dense oracle.

Solves the first-step system (tau = h, zero initial guess, tolerance
1e-12) at a few sizes with three solvers:

  * cg      - unpreconditioned conjugate gradients (iterations grow ~ sqrt(M))
  * icamg   - the O(M log M) Toeplitz multigrid (iterations flat, ~9)
  * dense   - the same multigrid idea on stored dense matrices, O(M^2)

The point: identical convergence behavior, wildly different cost scaling.
At M = 8192, 16384 and 32768 only the fast hierarchy runs: its finest
levels there use the FFT, and its cycle count stays flat.

Run from the repository root:  python3 demos/solver_showdown.py
"""

import time

from mtfade import (FractionalOrders, TimePolicy, cg_solve, make_example_1,
                    make_mesh, setup, step_matrix)
from mtfade.amg import amg_solve
from mtfade.assembly import initial_state, rhs_vector
from mtfade.camg_dense import DenseAmg


def first_step(spec, m):
    mesh = make_mesh(spec, m, TimePolicy.TAU_EQ_H)
    mats = step_matrix(spec, mesh, 1)
    b = rhs_vector(spec, mesh, initial_state(spec, mesh)[None], mats)
    return mats, b


def main():
    spec = make_example_1(FractionalOrders((0.9, 0.4), (1.0, 1.0), 0.3, 0.8))
    tol = 1e-12

    print(f"{'M':>6} {'solver':>7} {'iters':>6} {'solve s':>9}")
    for m in (512, 1024, 2048, 4096):
        mats, b = first_step(spec, m)

        t0 = time.perf_counter()
        _, rep = cg_solve(mats.a_full, b, tol=tol)
        print(f"{m:>6} {'cg':>7} {rep.iterations:>6} "
              f"{time.perf_counter() - t0:>9.4f}")

        hierarchy = setup(mats.a_full)
        t0 = time.perf_counter()
        _, rep = amg_solve(hierarchy, b, tol=tol)
        print(f"{m:>6} {'icamg':>7} {rep.iterations:>6} "
              f"{time.perf_counter() - t0:>9.4f}")

        oracle = DenseAmg(mats.a_full.to_dense())
        t0 = time.perf_counter()
        _, rep = oracle.solve(b, tol=tol)
        print(f"{m:>6} {'dense':>7} {rep.iterations:>6} "
              f"{time.perf_counter() - t0:>9.4f}")

        print(f"       hierarchy: {hierarchy.n_levels} levels, "
              f"{hierarchy.stored_entries} stored numbers (< 2M = {2 * m})")

    for m in (8192, 16384, 32768):
        mats, b = first_step(spec, m)
        hierarchy = setup(mats.a_full)
        t0 = time.perf_counter()
        _, rep = amg_solve(hierarchy, b, tol=tol)
        print(f"{m:>6} {'icamg':>7} {rep.iterations:>6} "
              f"{time.perf_counter() - t0:>9.4f}")


if __name__ == "__main__":
    main()
