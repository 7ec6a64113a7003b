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
from mtfade import (FractionalOrders, TimePolicy, make_example_1, make_mesh,
                    step_matrix)
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
