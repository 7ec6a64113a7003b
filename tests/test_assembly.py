"""Per-step matrix symbols, source moments, and the memory weights."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import roots_legendre

from mtfade import (FractionalOrders, Mesh, TimePolicy, TimeHistory,
                    history_weight, make_example_1, make_example_2, make_mesh,
                    mass_symbol, rhs_vector, source_moment, step_matrix,
                    stiffness_symbol)
from mtfade.assembly import _graded_panels
from mtfade.problem import ProblemSpec

# 40-digit reference values for stiffness-symbol entries
# (mu, h, lag, value, rel_tol).  The lag-50 entry cancels ~7 digits in
# the 5-term power difference, hence the looser tolerance.
STIFF_REF = [
    (0.80, 0.01, 0, 21.464195971099443, 1e-13),
    (0.80, 0.01, 1, -8.6699440226940766, 1e-13),
    (0.80, 0.01, 5, -0.068931964499731101, 1e-12),
    (0.80, 0.01, 50, -0.00016227063145310476, 1e-7),
    (0.15, 0.01, 1, 0.002286962212788088, 1e-13),
]
# Large-lag entries land in the series-expansion branch; references come
# from the exact 5-term difference evaluated in 40-digit arithmetic.
STIFF_REF_LARGE_LAG = [
    (0.95, 1e-5, 20000, -9.6831916681827881e-10),
    (0.95, 1e-5, 100000, -9.0992482492346646e-12),
]
# Memory weights (alpha, tau, n, k) with uniform steps, same precision.
HISTORY_REF = [
    (0.5, 0.1, 5, 2, 0.10374617015325189),
    (0.9, 0.05, 8, 7, 0.10166173919555631),
]


def default_spec(alphas=(0.9, 0.4), beta=0.3, gamma=0.8):
    return make_example_1(
        FractionalOrders(alphas, (1.0,) * len(alphas), beta, gamma))


def loop_source_moment(spec, mesh, n, nx=4, nt=4):
    """Reference source moments: the tensor Gauss-Legendre rule applied
    cell by cell, with one source call per cell and time node."""
    m, h = mesh.m, mesh.h
    a, _ = spec.domain
    t0, t1 = mesh.times[n - 1], mesh.times[n]
    gx, wx = roots_legendre(nx)
    gt, wt = roots_legendre(nt)
    t_nodes = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * gt
    t_weights = 0.5 * (t1 - t0) * wt
    out = np.zeros(m - 1)
    for k in range(1, m + 1):  # cell k spans [x_{k-1}, x_k]
        lo, hi = a + (k - 1) * h, a + k * h
        if k == 1:
            cuts = _graded_panels(lo, hi, toward_lo=True)
        elif k == m:
            cuts = _graded_panels(lo, hi, toward_lo=False)
        else:
            cuts = np.array([lo, hi])
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        half = 0.5 * np.diff(cuts)
        pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
        wts = (half[:, None] * wx[None, :]).ravel()
        ft = np.zeros_like(pts)
        for tq, twq in zip(t_nodes, t_weights):
            ft += twq * np.asarray(spec.source(pts, tq), dtype=np.float64)
        # phi_{k-1} falls and phi_k rises across cell k
        if k - 1 >= 1:
            out[k - 2] += np.dot(wts * ft, (hi - pts) / h)
        if k <= m - 1:
            out[k - 1] += np.dot(wts * ft, (pts - lo) / h)
    return out


def loop_rhs_vector(spec, mesh, n, states, mats):
    """Reference right-hand side with the memory sum taken level by level
    from the scalar history weights."""
    orders = spec.orders
    tau = float(mesh.taus[n - 1])
    a0 = orders.alpha0
    u_prev = states[n - 1]
    c_prev = sum(c * tau ** (1.0 - a) / gamma_fn(3.0 - a)
                 for a, c in zip(orders.alphas, orders.a_coeffs))
    rhs = (source_moment(spec, mesh, n)
           + c_prev * mats.mass.matvec(u_prev)
           - spec.k1 * tau / 2.0 * mats.stiff_beta.matvec(u_prev)
           - spec.k2 * tau / 2.0 * mats.stiff_gamma.matvec(u_prev))
    acc = np.zeros_like(u_prev)
    for k in range(1, n):
        w = sum(c * float(history_weight(a, n, k, mesh))
                for a, c in zip(orders.alphas, orders.a_coeffs))
        acc += w * (states[k] - states[k - 1])
    rhs -= mats.mass.matvec(acc)
    return gamma_fn(3.0 - a0) * tau ** (a0 - 1.0) * rhs


def graded_mesh(spec, m, n_steps):
    """Time levels t_n = T (n/N)^2 on a uniform spatial grid."""
    a, b = spec.domain
    times = spec.horizon * (np.arange(n_steps + 1) / n_steps) ** 2
    return Mesh(m=m, h=(b - a) / m, taus=np.diff(times), times=times)


def rel_diff(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestMassSymbol:
    def test_entries_and_row_sums(self):
        h = 0.125
        mass = mass_symbol(8, h)
        assert mass.symbol[0] == pytest.approx(4 * h / 6)
        assert mass.symbol[1] == pytest.approx(h / 6)
        assert np.all(mass.symbol[2:] == 0.0)
        # interior hat functions integrate to h
        assert mass.row_sums()[3] == pytest.approx(h)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mass_symbol(3, 0.1)
        with pytest.raises(ValueError):
            mass_symbol(8, 0.0)


class TestStiffnessSymbol:
    @pytest.mark.parametrize("mu,h,lag,want,rel", STIFF_REF)
    def test_reference_entries(self, mu, h, lag, want, rel):
        t = stiffness_symbol(mu, 64, h).symbol
        assert t[lag] == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("mu,h,lag,want", STIFF_REF_LARGE_LAG)
    def test_large_lag_expansion(self, mu, h, lag, want):
        t = stiffness_symbol(mu, lag + 2, h).symbol
        # the expansion branch keeps ~9 digits where naive differencing
        # would cancel to noise
        assert t[lag] == pytest.approx(want, rel=1e-8)

    def test_sign_pattern_diffusion_range(self):
        t = stiffness_symbol(0.8, 128, 0.01).symbol
        assert t[0] > 0
        assert np.all(t[1:] < 0)

    def test_rejects_half_order(self):
        with pytest.raises(ValueError):
            stiffness_symbol(0.5, 16, 0.1)
        with pytest.raises(ValueError):
            stiffness_symbol(1.2, 16, 0.1)


def closed_form_symbol(spec, mats):
    """sum_i a_i G0 tau^(a0 - a_i) / G(3 - a_i) M + (G0 tau^a0 / 2)
    (k1 S_beta + k2 S_gamma), with G0 = G(3 - a0)."""
    orders, tau = spec.orders, mats.tau
    a0 = orders.alphas[0]
    g0 = gamma_fn(3.0 - a0)
    c_mass = sum(c * g0 * tau ** (a0 - a) / gamma_fn(3.0 - a)
                 for a, c in zip(orders.alphas, orders.a_coeffs))
    half = g0 * tau ** a0 / 2.0
    return (c_mass * mats.mass.symbol
            + spec.k1 * half * mats.stiff_beta.symbol
            + spec.k2 * half * mats.stiff_gamma.symbol)


class TestStepMatrix:
    def test_symbol_is_recorded_combination(self):
        spec = default_spec()
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, 1)
        assert np.allclose(mats.a_full.symbol, closed_form_symbol(spec, mats),
                           rtol=1e-15)
        assert mats.tau == pytest.approx(mesh.taus[0])

    def test_scales_match_closed_form(self):
        # example 2 with its free k1 and k2, tau = h^2
        spec = make_example_2(
            FractionalOrders((0.7, 0.4), (1.0, 1.0), 0.3, 0.85), 5.0, 30.0)
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H2)
        mats = step_matrix(spec, mesh, 1)
        assert np.allclose(mats.a_full.symbol, closed_form_symbol(spec, mats),
                           rtol=1e-15)

    def test_out_of_range_level(self):
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        with pytest.raises(ValueError):
            step_matrix(spec, mesh, 0)
        with pytest.raises(ValueError):
            step_matrix(spec, mesh, mesh.n_steps + 1)


class TestSourceMoment:
    def smooth_spec(self):
        spec = default_spec()
        return ProblemSpec(
            orders=spec.orders, k1=1.0, k2=2.0, domain=(0.0, 1.0),
            horizon=0.5, source=lambda x, t: np.sin(np.pi * x) * t,
            initial=lambda x: np.zeros_like(x))

    def test_smooth_source_against_quadrature(self):
        spec = self.smooth_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        got = source_moment(spec, mesh, 2)
        h = mesh.h
        t0, t1 = mesh.times[1], mesh.times[2]
        t_int = 0.5 * (t1 ** 2 - t0 ** 2)
        for l in (1, 7, 15):
            xl = l * h

            def hat(x):
                return max(0.0, 1.0 - abs(x - xl) / h)

            want, _ = quad(lambda x: math.sin(math.pi * x) * hat(x),
                           max(0.0, xl - h), min(1.0, xl + h), limit=200)
            assert got[l - 1] == pytest.approx(want * t_int, rel=1e-10)

    def test_boundary_cells_stay_finite_on_fine_meshes(self):
        # the built-in sources blow up like x^(1-2*gamma) at the walls;
        # graded panels must not collapse onto the singular endpoint
        spec = default_spec(gamma=0.95, beta=0.15, alphas=(0.7, 0.5))
        mesh = make_mesh(spec, 4096, TimePolicy.TAU_EQ_H)
        got = source_moment(spec, mesh, 1)
        assert np.all(np.isfinite(got))
        assert got.shape == (4095,)

    def test_singular_source_accuracy(self):
        # f = x^(-0.4): moment against the first hat has a closed form
        spec = default_spec()
        spec = ProblemSpec(
            orders=spec.orders, k1=1.0, k2=2.0, domain=(0.0, 1.0),
            horizon=0.5, source=lambda x, t: np.power(x, -0.4),
            initial=lambda x: np.zeros_like(x))
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        got = source_moment(spec, mesh, 1)
        h, tau = mesh.h, mesh.times[1]
        # int_0^h x^0.6/h dx + int_h^2h x^-0.4 (2h-x)/h dx, times tau
        p1 = h ** 0.6 / 1.6
        p2 = 2.0 * (2.0 ** 0.6 - 1.0) * h ** 0.6 / 0.6 \
            - (2.0 ** 1.6 - 1.0) * h ** 0.6 / 1.6
        want = (p1 + p2) * tau
        # the graded composite rule carries ~7 digits on this integrand
        assert got[0] == pytest.approx(want, rel=5e-6)
        # a richer per-panel rule tightens it further
        finer = source_moment(spec, mesh, 1, nx=8)
        assert abs(finer[0] - want) < abs(got[0] - want)


    @pytest.mark.parametrize("example", [1, 2])
    @pytest.mark.parametrize("m", [4, 5, 16, 257])
    @pytest.mark.parametrize("nx", [4, 8])
    def test_matches_loop_oracle(self, example, m, nx):
        if example == 1:
            spec = default_spec()
        else:
            spec = make_example_2(
                FractionalOrders((0.7, 0.5), (1.0, 1.0), 0.15, 0.95), 1.0, 2.0)
        mesh = make_mesh(spec, m, TimePolicy.TAU_EQ_H)
        for n in sorted({1, (mesh.n_steps + 1) // 2}):
            got = source_moment(spec, mesh, n, nx=nx)
            assert rel_diff(got, loop_source_moment(spec, mesh, n, nx=nx)) \
                <= 1e-13

    def test_rule_is_not_shared_across_domains(self):
        # same m, different intervals: each mesh gets its own points
        base = default_spec()
        source = lambda x, t: np.exp(x) * (1.0 + t)  # noqa: E731
        for domain in ((0.0, 1.0), (1.0, 2.0), (0.0, 2.0), (1.0, 2.0)):
            spec = ProblemSpec(orders=base.orders, k1=1.0, k2=2.0,
                               domain=domain, horizon=0.5, source=source,
                               initial=lambda x: np.zeros_like(x))
            mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
            got = source_moment(spec, mesh, 1)
            assert rel_diff(got, loop_source_moment(spec, mesh, 1)) <= 1e-13


class TestHistoryWeights:
    @pytest.mark.parametrize("alpha,tau,n,k,want", HISTORY_REF)
    def test_reference_values(self, alpha, tau, n, k, want):
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_CONST, tau_const=tau)
        assert mesh.taus[0] == pytest.approx(tau, rel=1e-12)
        assert history_weight(alpha, n, k, mesh) == pytest.approx(
            want, rel=1e-13)

    def test_positivity_across_orders(self):
        spec = default_spec()
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        n = mesh.n_steps
        for alpha in (0.15, 0.5, 0.9, 0.99):
            ws = [history_weight(alpha, n, k, mesh) for k in range(1, n)]
            assert all(w > 0 for w in ws)
            # weights grow toward the current time level (kernel decay)
            assert all(a <= b for a, b in zip(ws, ws[1:]))

    def test_array_levels_match_scalar_calls(self):
        spec = default_spec()
        mesh = graded_mesh(spec, 32, 40)
        n = 30
        k = np.arange(1, n)
        want = [history_weight(0.7, n, int(j), mesh) for j in k]
        # a weight is a four-term difference of powers: a one-ulp change
        # in a power (array vs scalar pow) moves it by up to ~4e-13
        np.testing.assert_allclose(history_weight(0.7, n, k, mesh), want,
                                   rtol=1e-12, atol=0.0)
        with pytest.raises(ValueError):
            history_weight(0.7, n, np.arange(0, n), mesh)

    def test_index_guard(self):
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        with pytest.raises(ValueError):
            history_weight(0.5, 3, 0, mesh)
        with pytest.raises(ValueError):
            history_weight(0.5, 3, 3, mesh)


class TestRhsVector:
    def test_requires_full_history(self):
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, 1)
        history = TimeHistory.from_initial(spec, mesh)
        with pytest.raises(ValueError):
            rhs_vector(spec, mesh, 2, history, mats)

    def test_first_step_matches_direct_assembly(self):
        from scipy.special import gamma as gamma_fn
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, 1)
        history = TimeHistory.from_initial(spec, mesh)
        got = rhs_vector(spec, mesh, 1, history, mats)
        tau = mats.tau
        g0 = gamma_fn(3.0 - 0.9)
        u0 = history.states[0]
        c_prev = sum(tau ** (1.0 - a) / gamma_fn(3.0 - a) for a in (0.9, 0.4))
        want = g0 * tau ** (0.9 - 1.0) * (
            source_moment(spec, mesh, 1)
            + c_prev * mats.mass.matvec(u0)
            - spec.k1 * tau / 2.0 * mats.stiff_beta.matvec(u0)
            - spec.k2 * tau / 2.0 * mats.stiff_gamma.matvec(u0))
        assert np.allclose(got, want, rtol=1e-14)

    @pytest.mark.parametrize("graded", [True, False])
    def test_memory_term_matches_per_level_loop(self, graded):
        spec = default_spec()
        if graded:
            mesh = graded_mesh(spec, 32, 64)
        else:
            mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H2)
        rng = np.random.default_rng(7)
        x = mesh.interior_nodes()
        states = np.array([spec.exact(x, t) for t in mesh.times])
        states *= 1.0 + 1e-3 * rng.standard_normal(states.shape)
        history = TimeHistory(states[0])
        for n in (2, 3, 17, mesh.n_steps // 2, mesh.n_steps):
            while len(history) < n:
                history.append(states[len(history)])
            mats = step_matrix(spec, mesh, n)
            got = rhs_vector(spec, mesh, n, history, mats)
            want = loop_rhs_vector(spec, mesh, n, states, mats)
            assert rel_diff(got, want) <= 1e-13

    def test_history_is_one_array(self):
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        history = TimeHistory.from_initial(spec, mesh)
        u0 = history.states[0].copy()
        for j in range(1, mesh.n_steps + 1):
            history.append(np.full(mesh.m - 1, float(j)))
        assert len(history) == mesh.n_steps + 1
        assert history.states.shape == (mesh.n_steps + 1, mesh.m - 1)
        assert np.array_equal(history.states[0], u0)
        assert np.array_equal(history.states[1:, 0],
                              np.arange(1.0, mesh.n_steps + 1))
