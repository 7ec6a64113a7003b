"""The demo scripts import against the current library.

Each demos/*.py is loaded as a module without running its main(), so a
renamed or deleted name that a demo imports fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mtfade import FractionalOrders, make_example_1

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(load(path).main)


def test_solver_showdown_first_step():
    demo = load(next(p for p in DEMOS if p.stem == "solver_showdown"))
    spec = make_example_1(FractionalOrders((0.9, 0.4), (1.0, 1.0), 0.3, 0.8))
    mats, b = demo.first_step(spec, 16)
    assert mats.a_full.m == b.size == 15
    assert np.all(np.isfinite(b)) and np.any(b)
