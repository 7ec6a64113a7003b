"""Command-line experiment runner.

Subcommands reproduce the standard study tables as CSV: `convergence`
(error/rate sweeps), `condest` (extremal eigenvalues and condition
numbers), `bench` (per-solver iteration counts and wall times on the
first-step system), and `solve` (full march, final-time nodal values).

Output is RFC-4180 CSV with a header row; floating values carry six
significant digits in scientific notation.  Exit codes: 0 success,
1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
import time
from typing import List, Optional

import numpy as np

from .amg import AdaptiveSolver
from .analysis import kappa_ratio_table
from .assembly import initial_state, rhs_vector, step_matrix
from .camg_dense import DenseAmg
from .problem import (FractionalOrders, ProblemSpec, TimePolicy,
                      make_example_1, make_example_2, make_mesh)
from .solvers import cg_solve
from .timestepper import SolverFailure, convergence_table, march

DEFAULT_SIZES = (64, 128, 256, 512)
BENCH_MAXIT = 1000
EXAMPLES = (1, 2)
SOLVERS = ("cg", "icamg", "camg-dense-oracle")
POLICIES = tuple(t.value for t in TimePolicy)
# The values of the flags that neither the command line nor a config
# file sets.  The flags themselves default to None, so that a file can
# fill every flag left unset.
DEFAULTS = {"example": 1, "alpha": "0.9,0.4", "beta": 0.3, "gamma": 0.8,
            "policy": TimePolicy.TAU_EQ_H.value, "tol": 1e-12}


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.5E}"


def _parse_floats(text: str) -> List[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def _parse_sizes(text: str) -> List[int]:
    vals = _parse_floats(text)
    if not vals or not all(v.is_integer() and v >= 4 for v in vals):
        raise ConfigError(f"sizes must be integers >= 4, got {text!r}")
    return [int(v) for v in vals]


def _read_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment; keys match flag names."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {raw!r}")
            key, val = (p.strip() for p in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def build_problem(args) -> ProblemSpec:
    alphas = tuple(args.alpha)
    orders = FractionalOrders(alphas, tuple(1.0 for _ in alphas),
                              args.beta, args.gamma)
    if args.example == 1:
        return make_example_1(orders)
    return make_example_2(orders, args.k1, args.k2)


@contextlib.contextmanager
def _csv_out(out: Optional[str]):
    """A CSV writer on the file out (closed also if the command raises),
    or on stdout."""
    with (open(out, "w", newline="") if out
          else contextlib.nullcontext(sys.stdout)) as fh:
        yield csv.writer(fh)


def cmd_convergence(args) -> int:
    spec = build_problem(args)
    policy = TimePolicy(args.policy)
    try:
        rows = convergence_table(spec, policy, args.sizes, tol=args.tol,
                                 tau_const=args.tau_const,
                                 force=args.solver if args.solver != "icamg" else None)
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with _csv_out(args.out) as w:
        w.writerow(["M", "N", "h", "tau", "l2_error", "rate_h", "rate_paper"])
        for r in rows:
            w.writerow([r["M"], r["N"], _fmt(r["h"]), _fmt(r["tau"]),
                        _fmt(r["l2_error"]), _fmt(r["rate_h"]),
                        _fmt(r["rate_steps"])])
    return 0


def cmd_condest(args) -> int:
    spec = build_problem(args)
    policy = TimePolicy(args.policy)

    def mesh_for(m):
        return make_mesh(spec, m, policy, args.tau_const)

    try:
        rows = kappa_ratio_table(spec, mesh_for, args.sizes)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with _csv_out(args.out) as w:
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


def cmd_bench(args) -> int:
    spec = build_problem(args)
    policy = TimePolicy(args.policy)
    solvers = [args.solver] if args.solver else ["cg", "camg-dense-oracle", "icamg"]
    with _csv_out(args.out) as w:
        w.writerow(["M", "solver", "branch", "iterations", "converged",
                    "final_relres", "setup_seconds", "solve_seconds"])
        for m in args.sizes:
            mesh = make_mesh(spec, m, policy, args.tau_const)
            for solver in solvers:
                if solver == "camg-dense-oracle" and m > 4096:
                    continue
                rep, setup_s, solve_s = _bench_cell(spec, mesh, solver,
                                                    args.tol)
                w.writerow([m, solver, rep.branch, rep.iterations,
                            "yes" if rep.converged else "non-converged",
                            _fmt(rep.final_relres), _fmt(setup_s),
                            _fmt(solve_s)])
    return 0


def cmd_solve(args) -> int:
    spec = build_problem(args)
    policy = TimePolicy(args.policy)
    if len(args.sizes) != 1:
        print("error: solve takes exactly one size", file=sys.stderr)
        return 2
    mesh = make_mesh(spec, args.sizes[0], policy, args.tau_const)
    try:
        res = march(spec, mesh, tol=args.tol,
                    force=args.solver if args.solver != "icamg" else None)
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    a, _ = spec.domain
    xs = mesh.interior_nodes(a)
    t_final = float(mesh.times[-1])
    with _csv_out(args.out) as w:
        if spec.exact is not None:
            w.writerow(["x", "u_h", "u_exact", "abs_err"])
            ue = np.asarray(spec.exact(xs, t_final), dtype=np.float64)
            for x, uh, uex in zip(xs, res.final_state, ue):
                w.writerow([_fmt(x), _fmt(uh), _fmt(uex),
                            _fmt(abs(uh - uex))])
        else:
            w.writerow(["x", "u_h"])
            for x, uh in zip(xs, res.final_state):
                w.writerow([_fmt(x), _fmt(uh)])
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mtfade",
        description="Fractional advection-diffusion FE solver experiments")
    p.add_argument("--config", help="key = value file; flags override it")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("convergence", cmd_convergence),
                     ("condest", cmd_condest),
                     ("bench", cmd_bench),
                     ("solve", cmd_solve)):
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        sp.add_argument("--example", type=int, choices=EXAMPLES)
        sp.add_argument("--alpha",
                        help="comma list of Caputo orders, strictly decreasing")
        sp.add_argument("--beta", type=float)
        sp.add_argument("--gamma", type=float)
        sp.add_argument("--k1", type=float, default=None)
        sp.add_argument("--k2", type=float, default=None)
        sp.add_argument("--policy", choices=POLICIES)
        sp.add_argument("--tau-const", type=float, default=None)
        sp.add_argument("--sizes", default=None,
                        help="comma list of spatial resolutions M")
        sp.add_argument("--solver", default=None, choices=SOLVERS)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--out", default=None, help="CSV path (default stdout)")
    return p


def _finalize_args(args) -> None:
    if args.config:
        overrides = _read_config_file(args.config)
        for key, val in overrides.items():
            if key in ("command", "config", "func") or not hasattr(args, key):
                raise ConfigError(f"unknown config key {key!r}")
            # Command-line flags win over file values only when the flag
            # was given; argparse cannot tell, so every flag defaults to
            # None and the file only fills fields still at None.
            if getattr(args, key) is None:
                setattr(args, key, val)
    for key, val in DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, val)
    # File values arrive as strings and get the checks argparse gives
    # the flags.
    args.example = int(args.example)
    if args.example not in EXAMPLES:
        raise ConfigError(f"example must be one of {EXAMPLES}")
    if args.policy not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}")
    if args.solver is not None and args.solver not in SOLVERS:
        raise ConfigError(f"solver must be one of {SOLVERS}")
    args.alpha = _parse_floats(args.alpha) if isinstance(args.alpha, str) else args.alpha
    args.sizes = _parse_sizes(args.sizes) if isinstance(args.sizes, str) else \
        (list(args.sizes) if args.sizes else list(DEFAULT_SIZES))
    for key in ("beta", "gamma", "k1", "k2", "tau_const", "tol"):
        val = getattr(args, key)
        if isinstance(val, str):
            setattr(args, key, float(val))
    if args.example == 2 and (args.k1 is None or args.k2 is None):
        raise ConfigError("example 2 needs --k1 and --k2")
    if args.k1 is None:
        args.k1 = 1.0
    if args.k2 is None:
        args.k2 = 2.0
    if not 0 < args.tol < np.inf:
        raise ConfigError("tolerance must be positive and finite")


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _finalize_args(args)
        build_problem(args)  # surface validation errors as config errors
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
