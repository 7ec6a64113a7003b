"""Sweep of tau = h marches: cycles, error and the time of each phase.

Marches example 1 with the paper's SET1 orders (alpha = (0.9, 0.4),
beta = 0.3, gamma = 0.8) at tau = h for M = 256, 512, 1024 and 2048, so
N = M / 2 steps to T = 0.5.  For each run it prints the total multigrid
cycles, the L2 error at the final time and the march's solve and
right-hand-side wall seconds (RunResult.solve_seconds and rhs_seconds).
Every step takes the AMG branch and one hierarchy serves the whole
march, so the cycle counts show how the solver behaves as M grows, and
the two timers how the solves' share of a march compares with the
memory term's.

Run from the repository root:  python3 demos/tau_h_sweep.py [M ...]
(the sizes default to 256 512 1024 2048; M = 2048 takes a few seconds).
"""

import sys

from mtfade import FractionalOrders, TimePolicy, make_example_1, make_mesh
from mtfade.timestepper import march


def main():
    sizes = [int(a) for a in sys.argv[1:]] or [256, 512, 1024, 2048]
    spec = make_example_1(FractionalOrders((0.9, 0.4), (1.0, 1.0), 0.3, 0.8))
    print(f"{'M':>5} {'N':>5} {'cycles':>7} {'l2_error':>18} "
          f"{'solve_s':>9} {'rhs_s':>9}")
    for m in sizes:
        mesh = make_mesh(spec, m, TimePolicy.TAU_EQ_H)
        res = march(spec, mesh, tol=1e-12)
        print(f"{m:>5} {mesh.n_steps:>5} {res.total_iterations:>7} "
              f"{res.l2_error:>18.11e} {res.solve_seconds:>9.4f} "
              f"{res.rhs_seconds:>9.4f}", flush=True)


if __name__ == "__main__":
    main()
