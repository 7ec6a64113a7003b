"""Span tracing of mtfade's layers from outside the package.

The tracer replaces module attributes with wrappers that record one span
per call: name, start, end and parent span.  Step ids are assigned from the
operations' segment clocks when the spans are written out.  march() looks
its callees up in mtfade.timestepper's globals, rhs_vector looks up the
source quadrature and memory weights in mtfade.assembly's, and the adaptive
driver looks up the solvers in mtfade.amg's; so each wrapper goes where the
caller looks, not where the function is defined.  A site that no longer
exists is reported as absent, so a later refactor does not crash the
benchmark.  The true residuals of the solves are checked by the workloads,
not here.

Calls made outside an operation span (input generation, output checks)
pass through unrecorded.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute path).  Each span name is one layer
# boundary; a name may be patched at several sites.
SITES = (
    ("assembly.step_matrix", "mtfade.timestepper", "step_matrix"),
    ("assembly.step_matrix", "mtfade.assembly", "step_matrix"),
    ("assembly.rhs_vector", "mtfade.timestepper", "rhs_vector"),
    ("assembly.source_moment", "mtfade.assembly", "source_moment"),
    ("assembly.history_weight", "mtfade.assembly", "history_weight"),
    ("toeplitz.matvec", "mtfade.toeplitz", "SymToeplitz.matvec"),
    ("amg.setup", "mtfade.amg", "setup"),
    ("solvers.cg", "mtfade.amg", "cg_solve"),
    ("amg.solve", "mtfade.amg", "amg_solve"),
    ("amg.vcycle", "mtfade.amg", "vcycle"),
    ("solvers.cf_jacobi_sweep", "mtfade.amg", "cf_jacobi_sweep"),
    ("amg.transfer", "mtfade.amg", "restrict_apply"),
    ("amg.transfer", "mtfade.amg", "interp_apply"),
    ("amg.coarse_solve", "mtfade.amg", "lu_solve_nopivot"),
)
# Counted, not spanned: every Toeplitz symbol constructed.
COUNTED = (("toeplitz.symbols_built", "mtfade.toeplitz",
            "SymToeplitz.__init__"),)
SOURCE = "problem.source"  # the spec's source callback


def _source_hook(tracer, fn, args, kwargs, out):
    tracer.note("problem.source.points", np.size(args[0]))


def _cg_hook(tracer, fn, args, kwargs, out):
    tracer.note("solvers.cg.iterations", getattr(out[1], "iterations", 0))


def _setup_hook(tracer, fn, args, kwargs, out):
    tracer.note("amg.levels", getattr(out, "n_levels", 0))
    tracer.note("amg.stored_entries", getattr(out, "stored_entries", 0))


HOOKS = {SOURCE: _source_hook, "solvers.cg": _cg_hook,
         "amg.setup": _setup_hook}
# Notes that keep their largest value instead of summing.
MAX_NOTES = ("amg.levels", "amg.stored_entries")


def _resolve(module, path):
    obj = importlib.import_module(module)
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr, getattr(obj, attr)


class Tracer:
    """In-memory spans of the current process, one root span per operation
    (or per traced set-up)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.notes: list[tuple[str, int, float]] = []  # (name, root, value)
        self.present: set[str] = set()
        self.missing: list[str] = []   # "span name (module.path)"
        self.wanted: set[str] = set()
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def note(self, name: str, value):
        self.notes.append((name, self.stack[0], float(value)))

    def wrap(self, name: str, fn):
        nid = self._id(name)
        hook = HOOKS.get(name)
        stack, names, parents = self.stack, self.name, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, fn, args, kwargs, out)
            return out
        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack:
                self.note(name, 1)
            return fn(*args, **kwargs)
        return counted

    # -- installing ------------------------------------------------------
    def _patch(self, name, module, path, make):
        try:
            owner, attr, fn = _resolve(module, path)
        except (ImportError, AttributeError):
            self.missing.append(f"{name} ({module}.{path})")
            return
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, make(name, fn))
        self.present.add(name)

    @contextmanager
    def installed(self, spec, sites=SITES, counted=COUNTED):
        """Patch every site and yield spec with its source callback traced;
        the original attributes come back on exit."""
        self.wanted = ({s[0] for s in sites} | {s[0] for s in counted}
                       | {SOURCE})
        try:
            for name, module, path in sites:
                self._patch(name, module, path, self.wrap)
            for name, module, path in counted:
                self._patch(name, module, path, self.count)
            try:
                spec = dataclasses.replace(
                    spec, source=self.wrap(SOURCE, spec.source))
                self.present.add(SOURCE)
            except (AttributeError, TypeError):
                self.missing.append(f"{SOURCE} (ProblemSpec.source)")
            yield spec
        finally:
            for owner, attr, fn in reversed(self._undo):
                setattr(owner, attr, fn)
            self._undo.clear()

    def absent_layers(self) -> list[str]:
        """Span names none of whose sites exist."""
        return sorted(self.wanted - self.present)

    # -- analysis --------------------------------------------------------
    def arrays(self):
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        return name, parent, start, end

    def roots(self, parent):
        """Index of each span's root span (parents precede children)."""
        root = np.where(parent < 0, np.arange(parent.size), parent)
        while True:
            up = parent[root]
            nxt = np.where(up < 0, root, up)
            if np.array_equal(nxt, root):
                return root
            root = nxt

    def layer_metrics(self, op_name: str) -> dict:
        """Per-layer counts and seconds for one set-up plus one operation.

        Spans under an operation root count 1/(number of operations); spans
        under a traced set-up root count once.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        kids = parent >= 0
        child = np.bincount(parent[kids], weights=dur[kids],
                            minlength=dur.size)
        self_s = dur - child
        root = self.roots(parent)
        op_id = self._ids.get(op_name, -1)
        is_op = name == op_id            # by span index; used at roots
        n_ops = max(int(np.count_nonzero((parent < 0) & is_op)), 1)
        in_op = is_op[root]

        def per_op(values, sel):
            """Sum over set-up roots plus mean over operation roots."""
            return float(values[sel & ~in_op].sum()
                         + values[sel & in_op].sum() / n_ops)

        ones = np.ones(dur.size)

        def calls(layer):
            return per_op(ones, name == self._ids.get(layer, -1))

        def secs(layer, values=dur):
            return per_op(values, name == self._ids.get(layer, -1))

        noted = {}
        for key, r, value in self.notes:
            if key in MAX_NOTES:
                noted[key] = max(noted.get(key, 0.0), value)
            else:
                noted[key] = noted.get(key, 0.0) + (
                    value / n_ops if is_op[r] else value)

        n_cg, n_amg = calls("solvers.cg"), calls("amg.solve")
        m = {
            "problem.source.calls": calls(SOURCE),
            "problem.source.points": noted.get("problem.source.points", 0.0),
            "problem.source.s": secs(SOURCE),
            "assembly.source_moment.calls": calls("assembly.source_moment"),
            "assembly.source_moment.s": secs("assembly.source_moment"),
            "assembly.source_moment.self_s": secs("assembly.source_moment",
                                                  self_s),
            "assembly.rhs_vector.self_s": secs("assembly.rhs_vector", self_s),
            "assembly.history_weight.calls": calls("assembly.history_weight"),
            "assembly.history_weight.s": secs("assembly.history_weight"),
            "assembly.step_matrix.calls": calls("assembly.step_matrix"),
            "assembly.step_matrix.s": secs("assembly.step_matrix"),
            "toeplitz.matvec.calls": calls("toeplitz.matvec"),
            "toeplitz.matvec.s": secs("toeplitz.matvec"),
            "toeplitz.symbols_built": noted.get("toeplitz.symbols_built", 0.0),
            "solvers.cg.calls": n_cg,
            "solvers.cg.iterations": noted.get("solvers.cg.iterations", 0.0),
            "solvers.cg.s": secs("solvers.cg"),
            "solvers.cf_jacobi_sweep.calls": calls("solvers.cf_jacobi_sweep"),
            "solvers.cf_jacobi_sweep.self_s": secs("solvers.cf_jacobi_sweep",
                                                   self_s),
            "amg.setup.calls": calls("amg.setup"),
            "amg.setup.s": secs("amg.setup"),
            "amg.levels": noted.get("amg.levels", 0.0),
            "amg.stored_entries": noted.get("amg.stored_entries", 0.0),
            "amg.solve.calls": n_amg,
            "amg.solve.s": secs("amg.solve"),
            "amg.cycles": calls("amg.vcycle"),
            "amg.cycles_per_solve": calls("amg.vcycle") / n_amg if n_amg else 0.0,
            "amg.vcycle.self_s": secs("amg.vcycle", self_s),
            "amg.transfer.s": secs("amg.transfer"),
            "amg.coarse_solve.s": secs("amg.coarse_solve"),
            "amg.branch.cg_share": n_cg / (n_cg + n_amg) if n_cg + n_amg else 0.0,
            "trace.absent_layers": float(len(self.absent_layers())),
        }
        return m

    def save(self, path, op_name: str, step_ends):
        """Write every span as arrays in one .npz, with its step id: the
        k-th operation's steps end at step_ends[k]; spans before the first
        end belong to step 1, spans outside operations to step 0."""
        name, parent, start, end = self.arrays()
        root = self.roots(parent)
        step = np.zeros(name.size, dtype=np.int32)
        ops = np.flatnonzero((parent < 0) & (name == self._ids.get(op_name)))
        for r, ends in zip(ops, step_ends):
            sel = np.flatnonzero(root == r)
            step[sel] = np.searchsorted(ends, start[sel], side="right") + 1
        t0 = start.min() if start.size else 0.0
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start - t0, end=end - t0, step=step)
