"""The benchmark's workloads: fixed inputs, set-up, one operation and the
check of its output.

All four use example 1 with the paper's SET1 orders, alpha = (0.9, 0.4),
beta = 0.3, gamma = 0.8, K1 = 1, K2 = 2, T = 0.5.  Only the right-hand
sides of solve-large depend on the seed; the march inputs are fixed so that
l2_error has a reference.  The benchmark reaches mtfade only through its
public names, looked up on the module at call time so that a tracer that
replaces them sees the calls.  Each workload's reason is its "why" in
BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import math
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import mtfade
from mtfade import amg, assembly, timestepper

TOL = 1e-12
# The l2_error references below were measured at the commit that defined
# the benchmark.  A solver change that still meets TOL moves l2_error by
# about 1e-9 relative; any change of the discretisation moves it by far
# more than this tolerance.
L2_REFERENCE_RTOL = 1e-6
# Largest accepted ||x - u|| / ||u|| of a solve-large solution.  It is
# about 1.2e-11 at M = 32768, where the true relres is about 7e-14.
SOLVE_ERROR_LIMIT = 1e-8
# Relative size of the seeded perturbation of the solve-large solutions.
SOLVE_NOISE = 0.1
# Wall seconds of one timed set-up sample.  A march's set-up takes tens of
# microseconds, so a sample runs set-ups back to back for about this long
# and reports their mean; single set-ups timed one by one spread the
# per-run medians by up to 2x.
SETUP_SAMPLE_S = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "march" or "solve"
    mesh: str            # "tau-h", "tau-h2" or "graded"
    m: int
    m_tiny: int          # size used by the self-test
    steps: int = 0       # graded mesh only
    steps_tiny: int = 0
    l2_reference: Optional[float] = None
    probe: str = "small-arrays"   # key of PROBES


WORKLOADS = {w.name: w for w in (
    Workload("march-tau-h", "march", "tau-h", m=256, m_tiny=16,
             l2_reference=1.8701246e-04),
    Workload("march-tau-h2", "march", "tau-h2", m=32, m_tiny=8,
             l2_reference=1.3544165e-02),
    Workload("march-graded", "march", "graded", m=64, m_tiny=8, steps=256,
             steps_tiny=16, l2_reference=3.1677558e-03),
    Workload("solve-large", "solve", "tau-h", m=32768, m_tiny=512,
             probe="fft"),
)}


def orders():
    return mtfade.FractionalOrders((0.9, 0.4), (1.0, 1.0), beta=0.3,
                                   gamma=0.8)


def build_mesh(w: Workload, spec, tiny: bool = False):
    m = w.m_tiny if tiny else w.m
    if w.mesh == "graded":
        n = w.steps_tiny if tiny else w.steps
        times = spec.horizon * (np.arange(n + 1) / n) ** 2
        a, b = spec.domain
        return mtfade.Mesh(m=m, h=(b - a) / m, taus=np.diff(times),
                           times=times)
    policy = {"tau-h": mtfade.TimePolicy.TAU_EQ_H,
              "tau-h2": mtfade.TimePolicy.TAU_EQ_H2}[w.mesh]
    return mtfade.make_mesh(spec, m, policy)


def set_up(spec, mesh):
    """From (spec, mesh) to a ready solver, as march does before step 1:
    the first step matrix and the adaptive driver, with its hierarchy
    built when the driver picks AMG."""
    mats = assembly.step_matrix(spec, mesh, 1)
    solver = amg.AdaptiveSolver(spec, mesh, mats)
    if not solver.use_cg:
        solver.hierarchy
    return mats, solver


_SMALL = np.linspace(0.1, 0.9, 8)
_LONG = np.random.default_rng(0).standard_normal(1 << 16)


def _small_arrays():
    for _ in range(100):
        np.sin(_SMALL) * _SMALL + _SMALL ** 1.5


def _fft():
    np.fft.irfft(np.fft.rfft(_LONG))


@dataclass(frozen=True)
class Probe:
    """A fixed numpy kernel, independent of mtfade, and its time on the
    host the benchmark was defined on at that host's full speed: the
    reference speed that timings are rescaled to.  A workload's probe
    resembles the work that dominates it, so that both slow down alike
    when the host does."""
    kernel: Callable[[], None]
    ref_s: float

    def __call__(self) -> float:
        """The median time of three runs of the kernel.  A preemption
        during one run does not pass for a slow host; the fastest of the
        three would follow a rare fast mode of the host instead of its
        speed: on the host the benchmark was defined on it spread the
        rescaled march timings between runs by up to 1.7 times as much as
        the median does."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]


PROBES = {
    # Python-level loops over tiny arrays: the per-cell source callbacks,
    # scalar memory weights and small solves of a march.
    "small-arrays": Probe(_small_arrays, 2.0e-4),
    # One FFT round trip of the circulant embedding of M = 32768.
    "fft": Probe(_fft, 2.4e-3),
}


class SegmentClock:
    """Times an operation in segments, with a speed probe before, between
    and after them, outside the segments' timing.

    The shared host this benchmark was defined on changes speed by up to
    about 2x, for seconds at a time, so wall times of the same work spread
    by tens of percent between runs.  The probes on both sides of a
    segment measure the host's speed while it ran; rescaling each segment
    by the probe's reference time over their mean gives its time at the
    reference speed.  On that host this cut the interquartile range of a
    workload's median over ten runs from about 25% of the median to under
    5%.  The rescaling divides out any slowdown of the host, including one
    the measured program causes itself (threads left spinning after a
    step, cache pressure from retained data); the raw wall times are kept
    beside the rescaled ones so that such a change shows as a disagreement
    between the two.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.marks: list = []      # (start, end) of each segment
        self.probes = [probe()]    # probe k precedes segment k
        self._start = time.perf_counter()

    def start(self):
        """Start the next segment."""
        self._start = time.perf_counter()

    def cut(self):
        """End the current segment and probe."""
        self.marks.append((self._start, time.perf_counter()))
        self.probes.append(self.probe())

    @property
    def durations(self):
        """Wall seconds of each segment."""
        return [end - start for start, end in self.marks]

    @property
    def normalized(self):
        """Seconds of each segment at the reference host speed."""
        p, ref = self.probes, self.probe.ref_s
        return [d * 2.0 * ref / (p[j] + p[j + 1])
                for j, d in enumerate(self.durations)]

    @property
    def seconds(self):
        """Seconds of the whole operation at the reference host speed."""
        return sum(self.normalized)

    @property
    def wall(self):
        return sum(self.durations)

    @property
    def slowdown(self):
        """Median probe time over its reference: how much slower than the
        reference speed the host ran during the operation."""
        return float(np.median(self.probes)) / self.probe.ref_s


@dataclass
class Outcome:
    """One operation: its segment clock (one segment per march step plus
    the march's final error evaluation; one segment for a solve), the
    sub-operations (march steps, or one solve) attempted and failed, the
    error of its output, and how many solves had their true relres checked
    and reported convergence above TOL."""
    clock: SegmentClock
    attempted: int
    failed: int
    error: float
    problems: list = field(default_factory=list)
    checked: int = 0
    false_converged: int = 0

    @property
    def seconds(self):
        return self.clock.seconds

    @property
    def wall(self):
        return self.clock.wall


def _call(span, clock, fn):
    """Run fn() inside span, timed by clock; an exception is a failed
    operation.  Returns (value, exception)."""
    with span:
        clock.start()
        try:
            out, exc = fn(), None
        except Exception as e:
            out, exc = None, e
        clock.cut()
    return out, exc


@contextmanager
def step_solves(clock, solves):
    """Make each per-step solve of a march end a segment of clock, and
    append (matrix, b, x, converged) of the solve to solves.

    This is the benchmark's one patch of AdaptiveSolver.solve.  The
    arguments are recorded after the cut, outside the timing, and checked
    once the march has ended, outside any traced span.
    """
    cls = getattr(amg, "AdaptiveSolver", None)
    solve = getattr(cls, "solve", None)
    if solve is None:
        yield
        return
    signature = inspect.signature(solve)

    def solve_and_record(*args, **kwargs):
        out = solve(*args, **kwargs)
        clock.cut()
        try:
            b = signature.bind(*args, **kwargs).arguments["b"]
            x, report = out
            solves.append((args[0].mats.a_full, np.array(b), np.array(x),
                           bool(report.converged)))
        except (AttributeError, KeyError, TypeError, ValueError):
            solves.append(None)
        clock.start()
        return out

    cls.solve = solve_and_record
    try:
        yield
    finally:
        cls.solve = solve


def true_relres(A, b, x) -> float:
    """||b - A x|| / ||b||, computed from outside the solver."""
    return float(np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b))


def _describe(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def check_march(result, n_steps: int, reference: Optional[float],
                relres=()):
    """Failed steps of a finished march and what was wrong.

    A step fails when it is missing, did not converge, reports a relres
    above TOL or has a true relres (relres[i - 1] for step i, None where
    it could not be computed) above TOL.  A non-finite final state or an
    l2_error off the reference fails every step, since the march as a
    whole gave a wrong answer.
    """
    reports = list(result.per_step_reports)
    relres = list(relres) + [None] * (len(reports) - len(relres))
    bad = [i for i, (r, true) in enumerate(zip(reports, relres), 1)
           if not (r.converged and r.final_relres <= TOL
                   and (true is None or true <= TOL))]
    failed = len(bad) + max(0, n_steps - len(reports))
    problems = ([f"steps not converged to tol, by their reports or their "
                 f"true relres: {bad[:5]}"] if bad else [])
    err = result.l2_error
    if not np.all(np.isfinite(result.final_state)):
        problems.append("non-finite final state")
        failed = n_steps
    elif err is None or not math.isfinite(err):
        problems.append(f"l2_error is {err}")
        failed = n_steps
    elif reference is not None and not math.isclose(
            err, reference, rel_tol=L2_REFERENCE_RTOL):
        problems.append(f"l2_error {err:.7e} differs from the reference "
                        f"{reference:.7e}")
        failed = n_steps
    return failed, problems


def check_solve(A, b, x, u, report):
    """Failure of one solve from outside: non-convergence, non-finite x,
    true relres above TOL or a solution far from u.  Returns (failed,
    problems, ||x - u|| / ||u||, true relres)."""
    if not np.all(np.isfinite(x)):
        return 1, ["non-finite solution"], math.nan, math.nan
    relres = true_relres(A, b, x)
    err = float(np.linalg.norm(x - u) / np.linalg.norm(u))
    problems = []
    if not report.converged:
        problems.append(f"reported non-convergence (relres "
                        f"{report.final_relres:.3e})")
    if not relres <= TOL:
        problems.append(f"true relres {relres:.3e} > {TOL:g}")
    if not err <= SOLVE_ERROR_LIMIT:
        problems.append(f"||x-u||/||u|| = {err:.3e} > {SOLVE_ERROR_LIMIT:g}")
    return int(bool(problems)), problems, err, relres


class Case:
    """One workload's inputs, built from the seed."""

    def __init__(self, w: Workload, seed: int, tiny: bool = False,
                 reference: Optional[float] = None):
        self.workload = w
        self.kind = w.kind
        self.spec = mtfade.make_example_1(orders())
        self.mesh = build_mesh(w, self.spec, tiny)
        # The recorded references hold for the full sizes only.
        self.reference = (reference if tiny or reference is not None
                          else w.l2_reference)
        self.rng = np.random.default_rng(seed)
        self.probe = PROBES[w.probe]
        if self.kind == "solve":
            a, _ = self.spec.domain
            self.u_base = np.asarray(self.spec.exact(
                self.mesh.interior_nodes(a), self.spec.horizon))

    def set_up_solver(self):
        """(Re)build the solver that the solves use."""
        self.mats, self.solver = set_up(self.spec, self.mesh)

    def setup_batch(self) -> int:
        """Set-ups per timed sample: about SETUP_SAMPLE_S seconds' worth,
        judged from the median of five untimed set-ups after a warm-up."""
        set_up(self.spec, self.mesh)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            set_up(self.spec, self.mesh)
            times.append(time.perf_counter() - t0)
        return max(1, math.ceil(SETUP_SAMPLE_S / statistics.median(times)))

    def time_setup(self, batch: int):
        """(rescaled, wall) seconds of one set-up: the mean of batch
        set-ups run back to back and timed as one segment."""
        clock = SegmentClock(self.probe)
        clock.start()
        for _ in range(batch):
            set_up(self.spec, self.mesh)
        clock.cut()
        return clock.seconds / batch, clock.wall / batch

    def run(self, spec=None, span=None) -> Outcome:
        """One operation; span (a context manager) encloses exactly the
        timed call."""
        span = nullcontext() if span is None else span
        if self.kind == "march":
            return self._march(self.spec if spec is None else spec, span)
        return self._solve(span)

    def _march(self, spec, span) -> Outcome:
        n = self.mesh.n_steps
        clock = SegmentClock(self.probe)
        solves = []
        with step_solves(clock, solves):
            result, exc = _call(
                span, clock, lambda: timestepper.march(spec, self.mesh,
                                                       tol=TOL))
        relres = [None if s is None else true_relres(*s[:3]) for s in solves]
        checked = sum(r is not None for r in relres)
        false_converged = sum(r is not None and not r <= TOL and s[3]
                              for r, s in zip(relres, solves))
        if isinstance(exc, timestepper.SolverFailure):
            return Outcome(clock, n, n - exc.step + 1, math.nan,
                           [_describe(exc)], checked, false_converged)
        if exc is not None:
            return Outcome(clock, n, n, math.nan, [_describe(exc)], checked,
                           false_converged)
        failed, problems = check_march(result, n, self.reference, relres)
        err = result.l2_error if result.l2_error is not None else math.nan
        return Outcome(clock, n, failed, err, problems, checked,
                       false_converged)

    def _solve(self, span) -> Outcome:
        # A fresh solver, untimed, before every solve.  Where the solver's
        # arrays and the FFT temporaries land in memory changes the speed
        # of the solves and of the probe for the life of a process; with
        # one solver per process, the medians of runs of the same code
        # fell into two groups about 25% apart.  New arrays for each solve
        # spread that effect over the run's solves.
        self.set_up_solver()
        u = self.u_base * (1.0 + SOLVE_NOISE
                           * self.rng.standard_normal(self.u_base.size))
        A = self.mats.a_full
        b = A.matvec(u)
        clock = SegmentClock(self.probe)
        out, exc = _call(
            span, clock, lambda: self.solver.solve(b, tol=TOL, force="amg"))
        if exc is not None:
            return Outcome(clock, 1, 1, math.nan, [_describe(exc)])
        x, report = out
        failed, problems, err, relres = check_solve(A, b, x, u, report)
        false_converged = int(report.converged and not relres <= TOL)
        return Outcome(clock, 1, failed, err, problems, 1, false_converged)
