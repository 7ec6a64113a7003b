"""Time marching, the L2 error norm, and convergence tables."""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dgesv

from mtfade import (AdaptiveSolver, FractionalOrders, Mesh, ProblemSpec,
                    SeparableSource, TimePolicy, convergence_table,
                    initial_state, l2_error, make_example_1, make_mesh, march,
                    rhs_vector, step_matrix)
from mtfade import timestepper
from mtfade.timestepper import (PROJECTION_WINDOW, ProjectedStart,
                                SolverFailure)


def orders(alphas=(0.9, 0.4), beta=0.3, gamma=0.8):
    return FractionalOrders(alphas, (1.0,) * len(alphas), beta, gamma)


def oracle_start(proj, b, states):
    """ProjectedStart.start as numpy products under an error-state
    switch, on proj's products (already brought up to len(states)); the
    oracle the BLAS form must match bitwise."""
    n = len(states)
    x = states[max(0, n - PROJECTION_WINDOW):]
    ax = proj._products[PROJECTION_WINDOW - len(x):]
    u, au = x[-1], ax[-1]
    d = x - u
    d[-1] = u
    ad = ax - au
    ad[-1] = au
    with np.errstate(all="ignore"):
        r = b - au
        _, _, c, info = dgesv(d @ ad.T, d @ r)
        if info == 0:
            r0 = r - c @ ad
            slack = (len(u) * np.finfo(np.float64).eps * np.abs(c).sum()
                     * math.sqrt(au @ au))
            if math.sqrt(r0 @ r0) + slack < math.sqrt(r @ r):
                return u + c @ d
    return u


class TestMarch:
    def test_small_run_is_accurate(self):
        spec = make_example_1(orders())
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        res = march(spec, mesh, tol=1e-12)
        assert res.l2_error < 2e-2
        assert len(res.per_step_reports) == mesh.n_steps
        assert all(r.converged for r in res.per_step_reports)
        assert res.states.shape == (mesh.n_steps + 1, mesh.m - 1)
        assert np.array_equal(res.states[0], initial_state(spec, mesh))
        assert np.array_equal(res.states[-1], res.final_state)

    def test_states_replay_step_by_step(self):
        # On a graded mesh every step has its own matrix; each stored
        # state solves the system built from the states before it.
        spec = make_example_1(orders())
        n_steps = 12
        times = spec.horizon * (np.arange(n_steps + 1) / n_steps) ** 2
        mesh = Mesh(m=16, h=1.0 / 16, taus=np.diff(times), times=times)
        res = march(spec, mesh, tol=1e-12)
        for n in range(1, n_steps + 1):
            b = rhs_vector(spec, mesh, res.states[:n],
                           step_matrix(spec, mesh, n))
            want = np.linalg.solve(
                step_matrix(spec, mesh, n).a_full.to_dense(), b)
            assert np.linalg.norm(res.states[n] - want) \
                <= 1e-10 * np.linalg.norm(want)

    def test_forced_branches_agree(self):
        spec = make_example_1(orders())
        mesh = make_mesh(spec, 64, TimePolicy.TAU_EQ_H)
        tol = 1e-12
        res_cg = march(spec, mesh, tol=tol, force="cg")
        res_amg = march(spec, mesh, tol=tol, force="amg")
        assert all(r.branch == "cg" for r in res_cg.per_step_reports)
        assert all(r.branch == "amg" for r in res_amg.per_step_reports)
        scale = np.linalg.norm(res_cg.final_state)
        assert np.linalg.norm(res_cg.final_state - res_amg.final_state) \
            <= 100 * tol * scale

    def test_history_causality(self):
        # zeroing the source after t_k must not change U^1 .. U^k
        base = make_example_1(orders())
        mesh = make_mesh(base, 16, TimePolicy.TAU_EQ_H)
        k = mesh.n_steps // 2
        t_cut = mesh.times[k]

        def cut(g):
            return lambda t: np.where(t > t_cut, 0.0, g(t))

        # both marches take the cached separable path, so they can agree
        # bitwise
        truncated = SeparableSource(tuple((cut(g), p)
                                          for g, p in base.source.terms))
        spec_cut = ProblemSpec(orders=base.orders, k1=base.k1, k2=base.k2,
                               domain=base.domain, horizon=base.horizon,
                               source=truncated, initial=base.initial)
        full = march(base, mesh, tol=1e-12)
        cut = march(spec_cut, mesh, tol=1e-12)
        assert np.array_equal(full.states[:k + 1], cut.states[:k + 1])
        assert not np.array_equal(full.states[k + 1], cut.states[k + 1])

    def test_zero_source_zero_initial_stays_zero(self):
        base = make_example_1(orders())
        spec = ProblemSpec(
            orders=base.orders, k1=1.0, k2=2.0, domain=(0.0, 1.0),
            horizon=0.5,
            source=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            exact=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)))
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        res = march(spec, mesh, tol=1e-12)
        assert np.all(res.final_state == 0.0)
        assert res.l2_error == 0.0

    @pytest.mark.parametrize("h, m", [(0.5, 8), (1 / 64, 32),
                                      (1 / 32 * (1 + 1e-9), 32)])
    def test_mesh_must_span_the_domain(self, h, m):
        spec = make_example_1(orders())
        mesh = Mesh(m=m, h=h, taus=[0.25, 0.25], times=[0.0, 0.25, 0.5])
        with pytest.raises(ValueError, match="span the domain"):
            march(spec, mesh)

    def test_solver_failure_raises(self):
        spec = make_example_1(orders())
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        with pytest.raises(SolverFailure) as exc:
            march(spec, mesh, tol=1e-300)
        assert exc.value.step == 1
        assert exc.value.report.reason == "maxit"

    def test_source_called_once_per_time_node(self):
        # The spatial rule is built once per mesh: each step evaluates the
        # source at its 4 time nodes over all points, never cell by cell.
        base = make_example_1(orders())
        calls = []

        def counted(x, t):
            calls.append(t)
            return base.source(x, t)

        spec = dataclasses.replace(base, source=counted)
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        march(spec, mesh, tol=1e-12)
        assert len(calls) == 4 * mesh.n_steps

    def test_phase_timers_separate_rhs_from_solves(self):
        base = make_example_1(orders())
        pause = 0.01
        calls = []

        def slow(x, t):
            calls.append(t)
            time.sleep(pause)
            return base.source(x, t)

        spec = dataclasses.replace(base, source=slow)
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        res = march(spec, mesh, tol=1e-12)
        slept = pause * len(calls)
        assert res.rhs_seconds >= slept
        assert res.solve_seconds < 0.5 * slept
        assert res.setup_seconds < 0.5 * slept


def smooth_history(x, times):
    """Rows u(x, t) = sum_k exp(-k t) sin(k pi x) / k^2, k = 1..20: smooth
    in t and not confined to a few spatial modes."""
    k = np.arange(1, 21)[:, None]
    return np.array([(np.exp(-k * t) / k ** 2 * np.sin(k * np.pi * x)).sum(0)
                     for t in times])


def replay_from_previous(spec, mesh, tol=1e-12):
    """The march with every step started from U^{n-1}, the start that
    march made before the projection: (states, total iterations)."""
    solver = AdaptiveSolver(spec, mesh, step_matrix(spec, mesh, 1))
    states = np.empty((mesh.n_steps + 1, mesh.m - 1))
    states[0] = initial_state(spec, mesh)
    iterations = 0
    for n in range(1, mesh.n_steps + 1):
        b = rhs_vector(spec, mesh, states[:n], solver.mats)
        states[n], rep = solver.solve(b, tol=tol, x0=states[n - 1])
        assert rep.converged
        iterations += rep.iterations
    return states, iterations


class TestProjectedStart:
    def setup_method(self):
        spec = make_example_1(orders())
        self.mesh = make_mesh(spec, 64, TimePolicy.TAU_EQ_H)
        self.A = step_matrix(spec, self.mesh, 1).a_full
        self.x = self.mesh.interior_nodes()

    def a_norm(self, e):
        return math.sqrt(e @ self.A.matvec(e))

    def test_never_worse_than_the_previous_state(self):
        A = self.A
        states = smooth_history(self.x, 0.02 * np.arange(12))
        proj = ProjectedStart(A.m)
        for n in range(1, len(states)):
            want = states[n]
            x0 = proj.start(A, A.matvec(want), states[:n],
                            A.matvec(states[n - 1]))
            assert self.a_norm(want - x0) \
                <= self.a_norm(want - states[n - 1])
        # a full window of a smooth history gains orders of magnitude
        assert self.a_norm(want - x0) \
            <= 1e-3 * self.a_norm(want - states[n - 1])

    @pytest.mark.parametrize("bad", ["b", "au"])
    def test_rejects_b_or_au_of_the_wrong_shape(self, bad):
        A = self.A
        states = smooth_history(self.x, 0.02 * np.arange(4))
        args = {"b": A.matvec(states[-1] + self.x), "au": A.matvec(states[-1])}
        args[bad] = args[bad][:5]
        with pytest.raises(ValueError, match=bad):
            ProjectedStart(A.m).start(A, args["b"], states, args["au"])

    def test_products_follow_the_matrix(self):
        # one new product per level with the same matrix; all of them
        # again when the matrix changes
        spec = make_example_1(orders())
        other = step_matrix(spec, make_mesh(spec, 64, TimePolicy.TAU_EQ_H2),
                            1).a_full
        states = smooth_history(self.x, 0.02 * np.arange(10))
        proj = ProjectedStart(self.A.m)
        for n in range(1, len(states)):
            A = other if n in (4, 5, 8) else self.A
            proj.start(A, A.matvec(states[n]), states[:n],
                       A.matvec(states[n - 1]))
            window = states[max(0, n - PROJECTION_WINDOW):n]
            np.testing.assert_allclose(
                proj._products[-len(window):], A.row_products(window),
                rtol=0, atol=1e-13 * np.abs(window).max())

    @staticmethod
    def products_outside_the_solves(monkeypatch, spec, mesh):
        """March, and return the step-matrix matvecs and the row_products
        blocks taken outside the solves, each as the list of its
        matrices in call order (the mass matrix's products left out)."""
        mass = step_matrix(spec, mesh, 1).mass  # one object per mesh
        Toeplitz = type(mass)
        matvecs, blocks, solving = [], [], []
        matvec, row_products = Toeplitz.matvec, Toeplitz.row_products
        solve = AdaptiveSolver.solve

        def counted_matvec(self, x):
            if not solving and self is not mass:
                matvecs.append(self)
            return matvec(self, x)

        def counted_block(self, x):
            if not solving:
                blocks.append(self)
            return row_products(self, x)

        def solving_flagged(self, *args, **kwargs):
            solving.append(True)
            try:
                return solve(self, *args, **kwargs)
            finally:
                solving.pop()

        monkeypatch.setattr(Toeplitz, "matvec", counted_matvec)
        monkeypatch.setattr(Toeplitz, "row_products", counted_block)
        monkeypatch.setattr(AdaptiveSolver, "solve", solving_flagged)
        march(spec, mesh, tol=1e-12)
        return matvecs, blocks

    @pytest.mark.parametrize("policy", [TimePolicy.TAU_EQ_H,
                                        TimePolicy.TAU_EQ_H2])
    def test_uniform_step_takes_one_product_outside_the_solve(
            self, monkeypatch, policy):
        # A U^{n-1} serves both the right-hand side and the projected
        # start: one step-matrix product per step before the solve, and
        # one block product (step 1 retakes its one-row window).
        spec = make_example_1(orders())
        mesh = make_mesh(spec, 16, policy)
        matvecs, blocks = self.products_outside_the_solves(monkeypatch,
                                                           spec, mesh)
        assert len(matvecs) == mesh.n_steps
        assert len({id(a) for a in matvecs}) == 1  # the one step matrix
        assert len(blocks) == 1 and blocks[0] is matvecs[0]

    def test_graded_step_takes_one_product_and_one_block(self,
                                                          monkeypatch):
        # march-graded's mesh with fewer steps: each step has its own
        # matrix, takes A U^{n-1} with it once and retakes its window
        # with it as one block product.
        spec = make_example_1(orders())
        times = spec.horizon * (np.arange(17) / 16) ** 2
        mesh = Mesh(m=64, h=1 / 64, taus=np.diff(times), times=times)
        matvecs, blocks = self.products_outside_the_solves(monkeypatch,
                                                           spec, mesh)
        assert len(matvecs) == mesh.n_steps
        assert len({id(a) for a in matvecs}) == mesh.n_steps
        assert [id(a) for a in blocks] == [id(a) for a in matvecs]

    @pytest.mark.parametrize("history", ["zero", "identical", "collinear",
                                         "zero-then-one", "rounding-noise",
                                         "huge"])
    def test_degenerate_history_gives_a_finite_start(self, history):
        # "rounding-noise" states differ by 1e-17 relative, below what the
        # products resolve: its Gram matrix is regular but meaningless,
        # and solving it unguarded gives a residual 1.9 times U^{n-1}'s.
        # "huge" overflows the Gram matrix.
        A = self.A
        u = np.sin(np.pi * self.x)
        noise = np.random.default_rng(1).standard_normal((7, A.m))
        states = {"zero": np.zeros((7, A.m)),
                  "identical": np.tile(u, (7, 1)),
                  "collinear": np.outer(np.arange(1, 8), u),
                  "zero-then-one": np.array([0 * u, u]),
                  "rounding-noise": u + 1e-17 * noise,
                  "huge": np.outer(1e300 * np.arange(1, 8), u)}[history]
        b = A.matvec(1.5 * u + self.x)
        au = A.matvec(states[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x0 = ProjectedStart(A.m).start(A, b, states, au)
        assert np.all(np.isfinite(x0))
        r0, r = b - A.matvec(x0), b - A.matvec(states[-1])
        if history != "huge":  # whose residual overflows
            assert r0 @ r0 <= r @ r
        if history in ("zero", "identical", "huge"):
            assert np.array_equal(x0, states[-1])

    @pytest.mark.parametrize("case", ["tau-h", "tau-h2", "graded"])
    def test_start_is_the_oracle_bitwise(self, case):
        # the histories of the benchmark's three marches, step by step
        spec = make_example_1(orders())
        if case == "graded":
            times = spec.horizon * (np.arange(257) / 256) ** 2
            mesh = Mesh(m=64, h=1 / 64, taus=np.diff(times), times=times)
        else:
            mesh = make_mesh(spec, *{"tau-h": (256, TimePolicy.TAU_EQ_H),
                                     "tau-h2": (32, TimePolicy.TAU_EQ_H2)
                                     }[case])
        states = march(spec, mesh, tol=1e-12).states
        proj = ProjectedStart(mesh.m - 1)
        projected = 0
        for n in range(1, mesh.n_steps + 1):
            mats = step_matrix(spec, mesh, n)
            au = mats.a_full.matvec(states[n - 1])
            b = rhs_vector(spec, mesh, states[:n], mats, au)
            x0 = proj.start(mats.a_full, b, states[:n], au)
            assert np.array_equal(x0, oracle_start(proj, b, states[:n]))
            projected += not np.shares_memory(x0, states)
        assert projected >= mesh.n_steps // 2  # the projection is taken

    @pytest.mark.parametrize("scale", [1e200, math.inf, math.nan])
    def test_nonfinite_residual_norm_gives_the_previous_state(self, scale):
        # ||r||^2 overflows (or r is not finite): BLAS raises no
        # warning, and the start is U^{n-1}, as the oracle's
        A = self.A
        states = smooth_history(self.x, 0.02 * np.arange(7))
        b = scale * A.matvec(states[-1] + self.x)
        au = A.matvec(states[-1])
        proj = ProjectedStart(A.m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x0 = proj.start(A, b, states, au)
        assert np.array_equal(x0, states[-1])
        assert np.array_equal(x0, oracle_start(proj, b, states))

    @pytest.mark.parametrize("size, b_of", [
        (1.0, lambda au: np.full_like(au, math.inf)),
        (1.0, lambda au: np.full_like(au, -math.inf)),
        (1e300, lambda au: -np.finfo(np.float64).max * np.sign(au))])
    def test_one_row_window_with_nonfinite_sums_warns_nothing(self, size,
                                                              b_of):
        # One state, so D = (U^0), U^0 = size sin(pi x) > 0: b = +-inf
        # makes c +-inf and r - c AD inf - inf; b the largest double
        # against the sign of a huge A U^0 makes b - A U^0 overflow.
        # No call may warn, and the start is U^{n-1}, as the oracle's.
        A = self.A
        states = size * np.sin(np.pi * self.x)[None, :]
        au = A.matvec(states[-1])
        b = b_of(au)
        proj = ProjectedStart(A.m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x0 = proj.start(A, b, states, au)
        assert np.array_equal(x0, states[-1])
        assert np.array_equal(x0, oracle_start(proj, b, states))

    def test_differences_keep_the_gain_at_small_tau(self):
        # Example 1 at tau = h^2, M = 16: 288 CG iterations; the same
        # projection from the Gram matrix of the raw states takes 689,
        # since states 1e-3 apart leave it few digits.
        spec = make_example_1(orders())
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H2)
        assert march(spec, mesh, tol=1e-12).total_iterations <= 400

    def test_start_is_timed_with_the_solves(self, monkeypatch):
        pause = 0.01
        start = ProjectedStart.start

        def slow(self, A, b, states, au):
            time.sleep(pause)
            return start(self, A, b, states, au)

        monkeypatch.setattr(timestepper.ProjectedStart, "start", slow)
        spec = make_example_1(orders())
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        res = march(spec, mesh, tol=1e-12)
        slept = pause * mesh.n_steps
        assert res.solve_seconds >= slept
        assert res.rhs_seconds < 0.5 * slept
        assert res.setup_seconds < 0.5 * slept


class TestCgMarch:
    def test_counts_and_error_are_pinned(self):
        # The benchmark's march-tau-h2 case: example 1, SET1, M = 32 and
        # tau = h^2 (N = 512).  tau^alpha0 h^(-2 gamma) <= 1 at every step,
        # so every step is one CG solve from the projected start; a change
        # of the start, the right-hand side or CG shows here as moved
        # counts or digits.
        spec = make_example_1(orders())
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H2)
        res = march(spec, mesh, tol=1e-12)
        assert mesh.n_steps == 512
        assert [r.branch for r in res.per_step_reports] == ["cg"] * 512
        assert res.total_iterations == 777
        assert res.l2_error == pytest.approx(1.3544165292835e-2, rel=1e-12)


class TestGradedMarch:
    def test_counts_and_error_are_pinned(self):
        # The benchmark's march-graded case: example 1, SET1, M = 64 and
        # t_n = T (n/N)^2 with N = 256.  A graded step builds its own step
        # matrix and, on the AMG branch, its own hierarchy, so a change of
        # how they are built shows here as moved counts or digits.
        spec = make_example_1(orders())
        n_steps = 256
        times = spec.horizon * (np.arange(n_steps + 1) / n_steps) ** 2
        a, b = spec.domain
        mesh = Mesh(m=64, h=(b - a) / 64, taus=np.diff(times), times=times)
        res = march(spec, mesh, tol=1e-12)
        iterations = {}
        for r in res.per_step_reports:
            iterations[r.branch] = iterations.get(r.branch, 0) + r.iterations
        assert iterations == {"cg": 127, "amg": 293}
        assert res.l2_error == pytest.approx(3.1677557843879352e-03,
                                             rel=1e-12)


class TestNotPolynomialInTime:
    """Problems whose solutions are not polynomials in t, where
    extrapolation in time gains little: the projected start must still
    save at least 30% of the iterations of starting from U^{n-1}."""

    @pytest.mark.parametrize("problem", ["cos-source", "decay"])
    def test_projection_saves_iterations(self, problem):
        base = make_example_1(orders())
        if problem == "cos-source":
            source = SeparableSource(((lambda t: 100.0 * np.cos(10.0 * t),
                                       lambda x: x * (1.0 - x)),))
            initial = np.zeros_like
        else:
            source = lambda x, t: np.zeros_like(x)  # noqa: E731
            initial = lambda x: np.sin(np.pi * x)  # noqa: E731
        spec = ProblemSpec(orders=base.orders, k1=base.k1, k2=base.k2,
                           domain=base.domain, horizon=base.horizon,
                           source=source, initial=initial)
        mesh = make_mesh(spec, 64, TimePolicy.TAU_EQ_H)
        res = march(spec, mesh, tol=1e-12)
        want, iterations = replay_from_previous(spec, mesh)
        assert res.total_iterations <= 0.7 * iterations
        for n in range(1, mesh.n_steps + 1):
            assert np.linalg.norm(res.states[n] - want[n]) \
                <= 1e-10 * np.linalg.norm(want[n])


class TestL2Error:
    def test_interpolation_error_closed_form(self):
        # for u = x - x^2 the linear interpolant error is h^2 / sqrt(30)
        spec0 = make_example_1(orders())
        spec = ProblemSpec(
            orders=spec0.orders, k1=1.0, k2=2.0, domain=(0.0, 1.0),
            horizon=0.5, source=spec0.source, initial=spec0.initial,
            exact=lambda x, t: x - x * x)
        for m in (8, 32):
            mesh = make_mesh(spec, m, TimePolicy.TAU_EQ_H)
            x = mesh.interior_nodes()
            err = l2_error(x - x * x, spec, mesh)
            assert err == pytest.approx(mesh.h ** 2 / math.sqrt(30.0),
                                        rel=1e-12)

    def test_exact_nodal_state_of_linear_exact_gives_zero(self):
        spec0 = make_example_1(orders())
        spec = ProblemSpec(
            orders=spec0.orders, k1=1.0, k2=2.0, domain=(0.0, 1.0),
            horizon=0.5, source=spec0.source, initial=spec0.initial,
            exact=lambda x, t: np.minimum(x, 1.0 - x))
        mesh = make_mesh(spec, 8, TimePolicy.TAU_EQ_H)
        x = mesh.interior_nodes()
        assert l2_error(np.minimum(x, 1.0 - x), spec, mesh) < 1e-15

    def test_requires_exact_solution(self):
        spec0 = make_example_1(orders())
        spec = ProblemSpec(
            orders=spec0.orders, k1=1.0, k2=2.0, domain=(0.0, 1.0),
            horizon=0.5, source=spec0.source, initial=spec0.initial)
        mesh = make_mesh(spec, 8, TimePolicy.TAU_EQ_H)
        with pytest.raises(ValueError):
            l2_error(np.zeros(7), spec, mesh)


class TestConvergenceTable:
    def test_second_order_rates(self):
        spec = make_example_1(orders((0.5, 0.2)))
        rows = convergence_table(spec, TimePolicy.TAU_EQ_H, [16, 32, 64])
        assert rows[0]["rate_h"] is None
        for r in rows[1:]:
            assert 1.9 <= r["rate_h"] <= 2.25
        errs = [r["l2_error"] for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_rate_steps_absent_for_fixed_time_grid(self):
        spec = make_example_1(orders())
        rows = convergence_table(spec, TimePolicy.TAU_CONST, [16, 32],
                                 tau_const=0.125)
        assert rows[1]["N"] == rows[0]["N"]
        assert rows[1]["rate_steps"] is None
        assert rows[1]["rate_h"] is not None

    def test_rejects_unsorted_sizes(self):
        spec = make_example_1(orders())
        with pytest.raises(ValueError):
            convergence_table(spec, TimePolicy.TAU_EQ_H, [32, 16])
