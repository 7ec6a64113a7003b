"""The benchmark's trace sites still name what the solvers call.

perfbench/spans.py patches mtfade's layers at the module attributes that
their callers look up.  A refactor that renames such an attribute, or
routes a call around it, shows up in traced runs only as an absent layer
or a layer that reads 0 s; these tests catch it in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mtfade.amg
from mtfade import (FractionalOrders, Mesh, TimePolicy, make_example_1,
                    make_mesh, march, step_matrix)
from mtfade.amg import AdaptiveSolver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SITES


@pytest.mark.parametrize("name, module, path", load_sites())
def test_site_resolves(name, module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj), name


@pytest.mark.parametrize("branch, reached", [
    ("cg", ["cg_solve"]),
    ("amg", ["amg_solve", "vcycle", "cf_jacobi_sweep"]),
])
def test_adaptive_solver_calls_through_amg_globals(monkeypatch, branch,
                                                   reached):
    spec = make_example_1(FractionalOrders((0.9, 0.4), (1.0, 1.0), 0.3, 0.8))
    mesh = make_mesh(spec, 64, TimePolicy.TAU_EQ_H)
    mats = step_matrix(spec, mesh, 1)
    calls = dict.fromkeys(["cg_solve", "amg_solve", "vcycle",
                           "cf_jacobi_sweep"], 0)

    def counting(name):
        fn = getattr(mtfade.amg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mtfade.amg, name, counting(name))
    _, rep = AdaptiveSolver(spec, mesh, mats).solve(
        np.ones(mats.a_full.m), force=branch)
    assert rep.converged and rep.branch == branch
    assert [name for name, n in calls.items() if n] == reached


def test_graded_march_reaches_its_per_step_sites(monkeypatch):
    # A graded step has its own step matrix, memory weights and (on the
    # AMG branch) hierarchy; the traced layers must still see each of
    # them once per step, from the sites the tracer patches.
    spec = make_example_1(FractionalOrders((0.9, 0.4), (1.0, 1.0), 0.3, 0.8))
    n_steps = 16
    times = spec.horizon * (np.arange(n_steps + 1) / n_steps) ** 2
    mesh = Mesh(m=64, h=1.0 / 64, taus=np.diff(times), times=times)
    wanted = ("assembly.step_matrix", "assembly.history_weight", "amg.setup")
    calls = dict.fromkeys(wanted, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, module, path in load_sites():
        if name in wanted:
            owner = importlib.import_module(module)
            monkeypatch.setattr(owner, path,
                                counting(name, getattr(owner, path)))
    res = march(spec, mesh)
    assert calls["assembly.step_matrix"] == n_steps
    assert calls["assembly.history_weight"] == n_steps - 1
    amg_steps = sum(r.branch == "amg" for r in res.per_step_reports)
    assert amg_steps and calls["amg.setup"] >= amg_steps
