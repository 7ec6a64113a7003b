"""Command-line experiment runner.

Subcommands reproduce the standard study tables as CSV: `convergence`
(error/rate sweeps), `condest` (extremal eigenvalues and condition
numbers), `bench` (per-solver iteration counts and wall times on the
first-step system), and `solve` (full march, final-time nodal values).
Each subcommand takes only the flags it reads.  A `--config` file's
`key = value` lines are read as the flags `--key=value` of the
subcommand, ahead of the command line's own, which therefore win.

Output is RFC-4180 CSV with a header row; floating values carry six
significant digits in scientific notation.  Exit codes: 0 success,
1 solver failure, 2 configuration error (an `--out` that cannot be
opened included), which is found before any solve.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
import time
from typing import List, Optional

import numpy as np

from .amg import AdaptiveSolver
from .analysis import kappa_ratio_table
from .assembly import initial_state, rhs_vector, step_matrix
from .camg_dense import DENSE_ORACLE_CAP, DenseAmg
from .problem import (FractionalOrders, ProblemSpec, TimePolicy,
                      make_example_1, make_example_2, make_mesh)
from .solvers import cg_solve
from .timestepper import SolverFailure, convergence_table, march

BENCH_MAXIT = 1000
BENCH_SOLVERS = ("cg", "icamg", "camg-dense-oracle")
# The solvers of a march, mapped to march's `force`: icamg, also when
# --solver is not given, lets the adaptive driver pick CG or multigrid.
MARCH_SOLVERS = {"cg": "cg", "icamg": None}


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{float(x):.5E}"


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad numeric list {text!r}") from None


def _parse_sizes(text: str) -> List[int]:
    vals = _parse_floats(text)
    if not vals or not all(v.is_integer() and v >= 4 for v in vals):
        raise argparse.ArgumentTypeError(
            f"sizes must be integers >= 4, got {text!r}")
    return [int(v) for v in vals]


def _config_flags(path: str) -> List[str]:
    """The flags `--key=value` of a file's `key = value` lines.  '#'
    starts a comment; a key is a flag name without its leading dashes,
    with `_` read as `-`."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    flags = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (p.strip() for p in line.partition("="))
        if not eq:
            raise argparse.ArgumentTypeError(f"bad config line {raw!r}")
        flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def build_problem(args) -> ProblemSpec:
    """The problem the flags name.  argparse checks each flag alone;
    the checks across flags, and of --sizes against the subcommand, are
    here, and each raises ValueError."""
    if "tol" in args and not 0 < args.tol < math.inf:
        raise ValueError("the tolerance must be positive and finite")
    if args.func is cmd_solve and len(args.sizes) != 1:
        raise ValueError("solve takes exactly one size")
    if args.func is cmd_convergence and any(
            b <= a for a, b in zip(args.sizes, args.sizes[1:])):
        raise ValueError("convergence sizes must be ascending")
    if (args.policy == TimePolicy.TAU_CONST.value) != \
            (args.tau_const is not None):
        raise ValueError("--tau-const goes with --policy tau-const, "
                         "and only with it")
    orders = FractionalOrders(tuple(args.alpha), (1.0,) * len(args.alpha),
                              args.beta, args.gamma)
    if args.example == 1:
        if args.k1 is not None or args.k2 is not None:
            raise ValueError("example 1 fixes K1 = 1 and K2 = 2; "
                             "--k1 and --k2 go with example 2")
        spec = make_example_1(orders)
    elif args.k1 is None or args.k2 is None:
        raise ValueError("example 2 needs --k1 and --k2")
    else:
        spec = make_example_2(orders, args.k1, args.k2)
    if args.tau_const is not None:
        # Its time mesh is the same at every size: build one to try it.
        try:
            make_mesh(spec, args.sizes[0], TimePolicy.TAU_CONST,
                      args.tau_const)
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"--tau-const {args.tau_const:g} gives no "
                             f"time mesh: {exc}") from None
    return spec


def _mesh(args, m: int):
    return make_mesh(args.spec, m, TimePolicy(args.policy), args.tau_const)


def cmd_convergence(args, w) -> int:
    try:
        rows = convergence_table(args.spec, TimePolicy(args.policy),
                                 args.sizes, tol=args.tol,
                                 tau_const=args.tau_const,
                                 force=MARCH_SOLVERS.get(args.solver))
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    w.writerow(["M", "N", "h", "tau", "l2_error", "rate_h", "rate_paper"])
    for r in rows:
        w.writerow([r["M"], r["N"], _fmt(r["h"]), _fmt(r["tau"]),
                    _fmt(r["l2_error"]), _fmt(r["rate_h"]),
                    _fmt(r["rate_steps"])])
    return 0


def cmd_condest(args, w) -> int:
    try:
        rows = kappa_ratio_table(args.spec, lambda m: _mesh(args, m),
                                 args.sizes)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    w.writerow(["M", "lambda_min", "lambda_max", "kappa", "ratio"])
    for r in rows:
        w.writerow([r["M"], _fmt(r["lambda_min"]), _fmt(r["lambda_max"]),
                    _fmt(r["kappa"]), _fmt(r["ratio"])])
    return 0


def _bench_cell(spec, mesh, solver: str, tol: float):
    """One first-step solve with a zero initial guess; times setup/solve."""
    t0 = time.perf_counter()
    mats = step_matrix(spec, mesh, 1)
    if solver == "icamg":
        driver = AdaptiveSolver(spec, mesh, mats)
        if not driver.use_cg:
            driver.hierarchy
    elif solver == "camg-dense-oracle":
        oracle = DenseAmg(mats.a_full.to_dense())
    setup_s = time.perf_counter() - t0

    b = rhs_vector(spec, mesh, initial_state(spec, mesh)[None], mats)
    t0 = time.perf_counter()
    if solver == "cg":
        _, rep = cg_solve(mats.a_full, b, tol=tol, maxit=BENCH_MAXIT)
    elif solver == "icamg":
        _, rep = driver.solve(b, tol=tol, maxit=BENCH_MAXIT)
    else:
        _, rep = oracle.solve(b, tol=tol, maxit=BENCH_MAXIT)
    solve_s = time.perf_counter() - t0
    return rep, setup_s, solve_s


def cmd_bench(args, w) -> int:
    solvers = [args.solver] if args.solver else ["cg", "camg-dense-oracle", "icamg"]
    w.writerow(["M", "solver", "branch", "iterations", "converged",
                "final_relres", "setup_seconds", "solve_seconds"])
    for m in args.sizes:
        mesh = _mesh(args, m)
        for solver in solvers:
            if solver == "camg-dense-oracle" and m - 1 > DENSE_ORACLE_CAP:
                continue
            rep, setup_s, solve_s = _bench_cell(args.spec, mesh, solver,
                                                args.tol)
            w.writerow([m, solver, rep.branch, rep.iterations,
                        "yes" if rep.converged else "non-converged",
                        _fmt(rep.final_relres), _fmt(setup_s),
                        _fmt(solve_s)])
    return 0


def cmd_solve(args, w) -> int:
    spec = args.spec
    mesh = _mesh(args, args.sizes[0])
    try:
        res = march(spec, mesh, tol=args.tol,
                    force=MARCH_SOLVERS.get(args.solver))
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    xs = mesh.interior_nodes(spec.domain[0])
    ue = np.asarray(spec.exact(xs, float(mesh.times[-1])), dtype=np.float64)
    w.writerow(["x", "u_h", "u_exact", "abs_err"])
    for x, uh, uex in zip(xs, res.final_state, ue):
        w.writerow([_fmt(x), _fmt(uh), _fmt(uex), _fmt(abs(uh - uex))])
    return 0


def make_parsers():
    """The top-level parser, which reads `--config` and picks the
    subcommand, and each subcommand's parser, keyed by its name."""
    top = argparse.ArgumentParser(
        prog="mtfade", allow_abbrev=False,
        description="Fractional advection-diffusion FE solver experiments")
    top.add_argument("--config", type=_config_flags, default=(),
                     help="key = value file, read as flags of the "
                          "subcommand; the command line's flags win")
    commands = {}
    for name, fn, solvers in (("convergence", cmd_convergence, MARCH_SOLVERS),
                              ("condest", cmd_condest, None),
                              ("bench", cmd_bench, BENCH_SOLVERS),
                              ("solve", cmd_solve, MARCH_SOLVERS)):
        sp = commands[name] = argparse.ArgumentParser(
            prog=f"mtfade {name}", allow_abbrev=False)
        sp.set_defaults(func=fn)
        sp.add_argument("--example", type=int, choices=(1, 2), default=1)
        sp.add_argument("--alpha", type=_parse_floats, default="0.9,0.4",
                        help="comma list of Caputo orders, strictly decreasing")
        sp.add_argument("--beta", type=float, default=0.3)
        sp.add_argument("--gamma", type=float, default=0.8)
        sp.add_argument("--k1", type=float, help="example 2 only")
        sp.add_argument("--k2", type=float, help="example 2 only")
        sp.add_argument("--policy", choices=[t.value for t in TimePolicy],
                        default=TimePolicy.TAU_EQ_H.value)
        sp.add_argument("--tau-const", type=float,
                        help="the time step of --policy tau-const")
        sp.add_argument("--sizes", type=_parse_sizes, default="64,128,256,512",
                        help="comma list of spatial resolutions M")
        if solvers:
            sp.add_argument("--solver", choices=solvers)
            sp.add_argument("--tol", type=float, default=1e-12)
        sp.add_argument("--out", help="CSV path (default stdout)")
    top.add_argument("command", choices=commands)
    top.add_argument("flags", nargs=argparse.REMAINDER,
                     help="the subcommand's flags")
    return top, commands


def main(argv: Optional[List[str]] = None) -> int:
    top, commands = make_parsers()
    try:
        cmd = top.parse_args(argv)
        args = commands[cmd.command].parse_args([*cmd.config, *cmd.flags])
    except SystemExit as exc:
        return exc.code
    # The checks across flags and the opening of --out come before any
    # solve, so a run that cannot finish fails at once.
    try:
        args.spec = build_problem(args)
        out = (open(args.out, "w", newline="") if args.out
               else contextlib.nullcontext(sys.stdout))
    except (ValueError, OSError) as exc:
        print(f"mtfade {cmd.command}: error: {exc}", file=sys.stderr)
        return 2
    with out as fh:  # closed also if the command raises
        return args.func(args, csv.writer(fh))


if __name__ == "__main__":
    sys.exit(main())
