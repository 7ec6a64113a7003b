"""Per-step matrix symbols, source moments, and the memory weights."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import roots_legendre

from mtfade import (FractionalOrders, Mesh, SeparableSource, SymToeplitz,
                    TimePolicy, history_weight, initial_state,
                    make_example_1, make_example_2, make_mesh, march,
                    mass_symbol, rhs_vector, source_moment, step_matrix,
                    stiffness_symbol)
from mtfade import assembly
from mtfade.assembly import (_graded_panels, _lag_row, _memory_row,
                             _spatial_symbols, _time_integrals)
from mtfade.problem import ProblemSpec
from mtfade.toeplitz import DENSE_MATVEC_CUTOFF

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
# The paper's first two sets of orders: alphas, beta, gamma.
SET1 = ((0.9, 0.4), 0.3, 0.8)
SET2 = ((0.7, 0.5), 0.15, 0.95)
# Memory weights (alpha, tau, n, k) with uniform steps, same precision.
HISTORY_REF = [
    (0.5, 0.1, 5, 2, 0.10374617015325189),
    (0.9, 0.05, 8, 7, 0.10166173919555631),
]


def default_spec(alphas=(0.9, 0.4), beta=0.3, gamma=0.8):
    return make_example_1(
        FractionalOrders(alphas, (1.0,) * len(alphas), beta, gamma))


def loop_source_moment(spec, mesh, n, nx=4):
    """Reference source moments: the tensor Gauss-Legendre rule applied
    cell by cell, with one source call per cell and time node."""
    m, h = mesh.m, mesh.h
    a, _ = spec.domain
    t0, t1 = mesh.times[n - 1], mesh.times[n]
    gx, wx = roots_legendre(nx)
    gt, wt = roots_legendre(4)
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


def loop_rhs_vector(spec, mesh, n, states):
    """Reference right-hand side in the scheme's three-product form: the
    mass and both stiffness matrices, built from their symbols, on
    U^{n-1}, and the memory sum taken level by level from the scalar
    history weights."""
    orders = spec.orders
    tau = float(mesh.taus[n - 1])
    a0 = orders.alpha0
    mass = mass_symbol(mesh.m, mesh.h)
    u_prev = states[n - 1]
    c_prev = sum(c * tau ** (1.0 - a) / gamma_fn(3.0 - a)
                 for a, c in zip(orders.alphas, orders.a_coeffs))
    rhs = (source_moment(spec, mesh, n)
           + c_prev * mass.matvec(u_prev)
           - spec.k1 * tau / 2.0
           * stiffness_symbol(orders.beta, mesh.m, mesh.h).matvec(u_prev)
           - spec.k2 * tau / 2.0
           * stiffness_symbol(orders.gamma, mesh.m, mesh.h).matvec(u_prev))
    acc = np.zeros_like(u_prev)
    for k in range(1, n):
        w = sum(c * float(history_weight(a, n, k, mesh))
                for a, c in zip(orders.alphas, orders.a_coeffs))
        acc += w * (states[k] - states[k - 1])
    rhs -= mass.matvec(acc)
    return gamma_fn(3.0 - a0) * tau ** (a0 - 1.0) * rhs


def longdouble_rhs_vector(spec, mesh, n, states):
    """The three-product form of loop_rhs_vector with dense products and
    every sum in np.longdouble, from the same float64 symbols, source
    moments and history weights."""
    ld = np.longdouble
    orders = spec.orders
    tau = float(mesh.taus[n - 1])
    a0 = orders.alpha0
    i = np.arange(mesh.m - 1)
    lag = np.abs(np.subtract.outer(i, i))

    def product(T, x):
        return T.symbol.astype(ld)[lag] @ x

    states = states[:n].astype(ld)
    u_prev = states[n - 1]
    c_prev = sum(c * tau ** (1.0 - a) / gamma_fn(3.0 - a)
                 for a, c in zip(orders.alphas, orders.a_coeffs))
    w = sum(c * history_weight(a, n, np.arange(1, n), mesh)
            for a, c in zip(orders.alphas, orders.a_coeffs)) if n > 1 else []
    acc = np.asarray(w, dtype=ld) @ (states[1:] - states[:-1])
    mass = mass_symbol(mesh.m, mesh.h)
    rhs = (source_moment(spec, mesh, n).astype(ld)
           + product(mass, ld(c_prev) * u_prev - acc)
           - ld(spec.k1 * tau / 2.0)
           * product(stiffness_symbol(orders.beta, mesh.m, mesh.h), u_prev)
           - ld(spec.k2 * tau / 2.0)
           * product(stiffness_symbol(orders.gamma, mesh.m, mesh.h), u_prev))
    return ld(gamma_fn(3.0 - a0)) * ld(tau) ** ld(a0 - 1.0) * rhs


def four_term_history_weight(alpha, n, k, mesh):
    """The memory weight as the four-term difference of powers
    (t_n - t_{k-1})^e - (t_{n-1} - t_{k-1})^e - (t_n - t_k)^e
    + (t_{n-1} - t_k)^e over tau_k Gamma(3 - alpha), e = 2 - alpha:
    four arrays of powers for a row of weights.

    A single k is taken as a one-element array, as history_weight takes
    it: numpy's scalar and array powers can differ by an ulp, which the
    cancellation in a far-history weight (n = 128, k = 1 on a uniform
    mesh) magnifies to about 2e-11."""
    k = np.asarray(k)
    kk = np.atleast_1d(k)
    t = mesh.times
    e = 2.0 - alpha
    num = ((t[n] - t[kk - 1]) ** e - (t[n - 1] - t[kk - 1]) ** e
           - (t[n] - t[kk]) ** e + (t[n - 1] - t[kk]) ** e)
    w = num / (mesh.taus[kk - 1] * gamma_fn(3.0 - alpha))
    return w.reshape(k.shape)


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


def closed_form_symbol(spec, mesh, tau):
    """sum_i a_i G0 tau^(a0 - a_i) / G(3 - a_i) M + (G0 tau^a0 / 2)
    (k1 S_beta + k2 S_gamma), with G0 = G(3 - a0)."""
    orders = spec.orders
    a0 = orders.alphas[0]
    g0 = gamma_fn(3.0 - a0)
    c_mass = sum(c * g0 * tau ** (a0 - a) / gamma_fn(3.0 - a)
                 for a, c in zip(orders.alphas, orders.a_coeffs))
    half = g0 * tau ** a0 / 2.0
    return (c_mass * mass_symbol(mesh.m, mesh.h).symbol
            + spec.k1 * half
            * stiffness_symbol(orders.beta, mesh.m, mesh.h).symbol
            + spec.k2 * half
            * stiffness_symbol(orders.gamma, mesh.m, mesh.h).symbol)


def fresh_step_symbol(spec, mesh, n):
    """step_matrix's symbol at level n by its own expression, from mass
    and stiffness symbols built afresh for this call."""
    orders = spec.orders
    tau = float(mesh.taus[n - 1])
    a0 = orders.alpha0
    g0 = gamma_fn(3.0 - a0)
    c_mass = sum(c * g0 * tau ** (a0 - a) / gamma_fn(3.0 - a)
                 for a, c in zip(orders.alphas, orders.a_coeffs))
    c_beta = spec.k1 * g0 * tau ** a0 / 2.0
    c_gamma = spec.k2 * g0 * tau ** a0 / 2.0
    return (c_mass * mass_symbol(mesh.m, mesh.h).symbol
            + c_beta * stiffness_symbol(orders.beta, mesh.m, mesh.h).symbol
            + c_gamma * stiffness_symbol(orders.gamma, mesh.m, mesh.h).symbol)


class TestStepMatrix:
    def test_symbol_is_recorded_combination(self):
        spec = default_spec()
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, 1)
        assert np.allclose(mats.a_full.symbol,
                           closed_form_symbol(spec, mesh, mats.tau), rtol=1e-15)
        assert mats.tau == pytest.approx(mesh.taus[0])

    def test_scales_match_closed_form(self):
        # example 2 with its free k1 and k2, tau = h^2
        spec = make_example_2(
            FractionalOrders((0.7, 0.4), (1.0, 1.0), 0.3, 0.85), 5.0, 30.0)
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H2)
        mats = step_matrix(spec, mesh, 1)
        assert np.allclose(mats.a_full.symbol,
                           closed_form_symbol(spec, mesh, mats.tau), rtol=1e-15)

    @pytest.mark.parametrize("graded", [False, True])
    def test_rhs_scale_matches_the_coefficients(self, graded):
        # rhs_vector takes F^n = s F_src + M (2 c_mass U^{n-1} - s mem)
        # - A U^{n-1} because s (c' M - k1 tau/2 S_beta - k2 tau/2
        # S_gamma) = 2 c_mass M - A, with c' = sum_i a_i tau^(1 - alpha_i)
        # / Gamma(3 - alpha_i); both sides from symbols built afresh.
        spec = make_example_2(
            FractionalOrders((0.7, 0.4), (1.0, 1.0), 0.3, 0.85), 5.0, 30.0)
        if graded:
            mesh = graded_mesh(spec, 32, 40)
        else:
            mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, mesh.n_steps // 2)
        orders, tau = spec.orders, mats.tau
        a0 = orders.alpha0
        assert mats.rhs_scale == gamma_fn(3.0 - a0) * tau ** (a0 - 1.0)
        c_prev = sum(c * tau ** (1.0 - a) / gamma_fn(3.0 - a)
                     for a, c in zip(orders.alphas, orders.a_coeffs))
        got = mats.rhs_scale * (
            c_prev * mass_symbol(mesh.m, mesh.h).symbol
            - spec.k1 * tau / 2.0
            * stiffness_symbol(orders.beta, mesh.m, mesh.h).symbol
            - spec.k2 * tau / 2.0
            * stiffness_symbol(orders.gamma, mesh.m, mesh.h).symbol)
        want = 2.0 * mats.c_mass * mats.mass.symbol - mats.a_full.symbol
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_out_of_range_level(self):
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        with pytest.raises(ValueError):
            step_matrix(spec, mesh, 0)
        with pytest.raises(ValueError):
            step_matrix(spec, mesh, mesh.n_steps + 1)

    def test_symbols_built_once_per_mesh(self, monkeypatch):
        # a graded march builds a step matrix at every step, from one
        # mass and two stiffness symbols per mesh, not three per step
        spec = default_spec()
        calls = []

        def counting(name):
            fn = getattr(assembly, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("mass_symbol", "stiffness_symbol"):
            monkeypatch.setattr(assembly, name, counting(name))
        _spatial_symbols.cache_clear()
        for m in (16, 32):
            mesh = graded_mesh(spec, m, 12)
            march(spec, mesh)
            march(spec, mesh)
            assert calls == ["mass_symbol"] + ["stiffness_symbol"] * 2
            calls.clear()

    @pytest.mark.parametrize("graded", [True, False])
    def test_symbol_equals_a_fresh_combination(self, graded):
        spec = default_spec()
        if graded:
            mesh = graded_mesh(spec, 32, 40)
        else:
            mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        mass = step_matrix(spec, mesh, 1).mass
        for n in (1, 2, 3, mesh.n_steps // 2, mesh.n_steps):
            mats = step_matrix(spec, mesh, n)
            assert np.array_equal(mats.a_full.symbol,
                                  fresh_step_symbol(spec, mesh, n))
            assert mats.mass is mass  # one mass matrix per mesh

    def test_cached_parts_are_read_only(self):
        # what is shared per mesh cannot be written into, so one caller
        # cannot change the marches that follow on the same mesh
        spec = default_spec()
        mesh = graded_mesh(spec, 16, 12)
        _spatial_symbols.cache_clear()
        first = march(spec, mesh)
        mats = step_matrix(spec, mesh, 3)
        parts = _spatial_symbols(mesh.m, mesh.h, spec.orders.beta,
                                 spec.orders.gamma)
        assert parts[0] is mats.mass
        shared = [part.symbol for part in parts]
        shared += [mats.mass.to_dense(), mats.a_full.to_dense()]
        for array in shared:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0
        second = march(spec, mesh)
        assert np.array_equal(second.states, first.states)


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


class TestSeparableSource:
    @pytest.mark.parametrize("example", [1, 2])
    @pytest.mark.parametrize("orders", [SET1, SET2])
    @pytest.mark.parametrize("graded", [False, True])
    def test_cached_moments_match_callback(self, example, orders, graded):
        alphas, beta, gamma = orders
        fo = FractionalOrders(alphas, (1.0, 1.0), beta, gamma)
        spec = make_example_1(fo) if example == 1 \
            else make_example_2(fo, 5.0, 30.0)
        assert isinstance(spec.source, SeparableSource)
        # the same source as a plain callable takes the callback path
        plain = ProblemSpec(orders=spec.orders, k1=spec.k1, k2=spec.k2,
                            domain=spec.domain, horizon=spec.horizon,
                            source=lambda x, t: spec.source(x, t),
                            initial=spec.initial)
        mesh = graded_mesh(spec, 64, 40) if graded \
            else make_mesh(spec, 64, TimePolicy.TAU_EQ_H)
        for n in (1, 2, mesh.n_steps):
            got = source_moment(spec, mesh, n)
            want = source_moment(plain, mesh, n)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_parts_called_once_per_mesh(self):
        base = default_spec(*SET1)
        space_calls, time_calls = [], []

        def counted(g, p, i):
            def g_counted(t):
                time_calls.append((i, np.shape(t)))
                return g(t)

            def p_counted(x):
                space_calls.append(i)
                return p(x)
            return g_counted, p_counted

        source = SeparableSource(tuple(
            counted(g, p, i) for i, (g, p) in enumerate(base.source.terms)))
        spec = ProblemSpec(orders=base.orders, k1=base.k1, k2=base.k2,
                           domain=base.domain, horizon=base.horizon,
                           source=source, initial=base.initial)
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        march(spec, mesh, tol=1e-12)
        assert sorted(space_calls) == [0, 1]
        # each time part once, on the 4 Gauss nodes of every slab
        nodes = (4 * mesh.n_steps,)
        assert sorted(time_calls) == [(0, nodes), (1, nodes)]

    @pytest.mark.parametrize("graded", [False, True])
    def test_slab_integrals_match_per_step_rule(self, graded):
        # every row of the per-grid table is the 4-node rule on its slab
        spec = default_spec(*SET1)
        mesh = graded_mesh(spec, 32, 40) if graded \
            else make_mesh(spec, 32, TimePolicy.TAU_EQ_H)
        slabs = _time_integrals(spec.source.terms, mesh)
        assert slabs.shape == (mesh.n_steps, len(spec.source.terms))
        assert not slabs.flags.writeable
        gt, wt = roots_legendre(4)
        for n in range(1, mesh.n_steps + 1):
            t0, t1 = mesh.times[n - 1], mesh.times[n]
            nodes = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * gt
            want = [0.5 * (t1 - t0) * wt @ g(nodes)
                    for g, _ in spec.source.terms]
            assert np.all(np.abs(slabs[n - 1] - want)
                          <= 1e-14 * np.abs(want))

    def test_call_sums_the_terms(self):
        source = SeparableSource(((lambda t: t + 1.0, np.sin),
                                  (np.cos, lambda x: x * x)))
        x = np.linspace(0.0, 1.0, 7)
        np.testing.assert_allclose(
            source(x, 0.5), 1.5 * np.sin(x) + math.cos(0.5) * x * x,
            rtol=1e-15)
        with pytest.raises(ValueError):
            SeparableSource(())


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

    @pytest.mark.parametrize("graded", [True, False])
    def test_two_rows_match_four_term_formula(self, graded):
        spec = default_spec()
        if graded:
            mesh = graded_mesh(spec, 32, 64)
        else:
            mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H2)
        last = mesh.n_steps
        for n in (2, 3, 17, last):
            levels = [np.arange(1, n), np.array([1, n - 1]), 1, n - 1]
            if n > 8:
                levels.append(np.array([3, 7, 8]))
            for alpha in (0.15, 0.5, 0.9, 0.99):
                for k in levels:
                    got = history_weight(alpha, n, k, mesh)
                    assert np.shape(got) == np.shape(k)
                    np.testing.assert_allclose(
                        got, four_term_history_weight(alpha, n, k, mesh),
                        rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alphas, m, policy, tau_const", [
        pytest.param(alphas, *mesh, id=f"alphas{i}{tag}")
        for tag, mesh in (("", (16, TimePolicy.TAU_CONST, 0.5 / 64)),
                          # the benchmark's tau = h and tau = h^2 meshes
                          ("-tau-h", (256, TimePolicy.TAU_EQ_H, None)),
                          ("-tau-h2", (32, TimePolicy.TAU_EQ_H2, None)))
        for i, alphas in enumerate((SET1[0], SET1[0][:1], SET1[0][1:]))])
    def test_lag_row_matches_history_weight(self, alphas, m, policy,
                                            tau_const):
        # At every level the row rhs_vector takes is the lag row's
        # weights differenced as a graded row is, bitwise.  Against
        # history_weight both forms lose about 2 log10(lag) digits to the
        # same cancellation, so that bound is tight only for short
        # histories: it is checked at tau = 2^-7, N = 64, where the
        # mesh's elapsed times are exact and both forms difference the
        # same powers; on other uniform meshes they differ by that
        # cancellation, about 3e-12 at N = 64.
        orders = FractionalOrders(alphas, (1.0,) * len(alphas), *SET1[1:])
        mesh = make_mesh(default_spec(), m, policy, tau_const=tau_const)
        assert mesh.uniform
        if tau_const is not None:
            assert mesh.n_steps == 64
        w_lag = _lag_row(orders, float(mesh.taus[0]), mesh.n_steps)
        assert not w_lag.flags.writeable  # cached and shared by every step
        for n in range(2, mesh.n_steps + 1):
            w = w_lag[n - 1:0:-1]  # level k has lag n - k
            dw = _memory_row(orders, mesh, n)
            assert np.array_equal(
                dw, np.concatenate((w[:1], np.diff(w), -w[-1:])))
            if tau_const is None:
                continue
            w = sum(c * history_weight(a, n, np.arange(1, n), mesh)
                    for a, c in zip(orders.alphas, orders.a_coeffs))
            np.testing.assert_allclose(w_lag[n - 1:0:-1], w, rtol=1e-12,
                                       atol=0.0)
            want = np.concatenate((w[:1], np.diff(w), -w[-1:]))
            assert np.max(np.abs(dw - want)) <= 1e-12 * np.max(w)

    def test_orders_in_one_call_match_calls_per_order(self):
        spec = default_spec()
        mesh = graded_mesh(spec, 32, 64)
        alphas = np.array([0.9, 0.4, 0.15])
        for n in (2, 3, 32, 64):
            for k in (np.arange(1, n), np.array([1, n - 1]), n - 1, 1,
                      range(1, n), range(max(1, n - 3), n), range(1, n, 2)):
                rows = history_weight(alphas, n, k, mesh)
                assert rows.shape == alphas.shape + np.shape(k)
                for alpha, row in zip(alphas, rows):
                    assert np.array_equal(
                        row, history_weight(float(alpha), n, k, mesh))
                if isinstance(k, range):  # slices against the gather
                    assert np.array_equal(
                        rows, history_weight(alphas, n, np.array(k), mesh))
            for k in (0, n, np.arange(0, n), np.arange(1, n + 1),
                      range(0, n), range(1, n + 1)):
                for alpha in (alphas, alphas[0]):
                    with pytest.raises(ValueError, match="history index"):
                        history_weight(alpha, n, k, mesh)

    @pytest.mark.parametrize("alphas", [SET1[0], (0.9, 0.6, 0.2)])
    def test_graded_memory_row_is_the_sum_over_orders(self, alphas):
        # The benchmark's graded mesh (t_n = T (n/N)^2, M = 64, N = 256)
        # at every level: the row rhs_vector takes is history_weight's
        # rows on k = 1 .. n-1 summed over the orders in order, bitwise.
        orders = FractionalOrders(alphas, (1.0, 0.5, 2.0)[:len(alphas)],
                                  *SET1[1:])
        mesh = graded_mesh(default_spec(), 64, 256)
        for n in range(2, mesh.n_steps + 1):
            k = np.arange(1, n)
            w = sum(c * history_weight(a, n, k, mesh)
                    for a, c in zip(orders.alphas, orders.a_coeffs))
            want = np.concatenate((w[:1], np.diff(w), -w[-1:]))
            assert np.array_equal(_memory_row(orders, mesh, n), want)

    def test_index_guard(self):
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        with pytest.raises(ValueError):
            history_weight(0.5, 3, 0, mesh)
        with pytest.raises(ValueError):
            history_weight(0.5, 3, 3, mesh)
        # a level past the mesh (N = 8 here) has no t_n to weigh against
        n_past = mesh.n_steps + 1
        for k in (3, np.array([1, 3]), range(1, n_past)):
            with pytest.raises(ValueError, match="n=9") as err:
                history_weight(0.5, n_past, k, mesh)
            assert "\n" not in str(err.value)


class TestRhsVector:
    def test_requires_full_history(self):
        # states must be 1 .. N rows of M - 1 values
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, 1)
        u0 = initial_state(spec, mesh)
        for bad in (u0, u0[None, 1:], u0[None, :][:0],
                    np.tile(u0, (mesh.n_steps + 1, 1))):
            with pytest.raises(ValueError, match="states"):
                rhs_vector(spec, mesh, bad, mats)

    def test_rejects_an_au_of_the_wrong_shape(self):
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, 1)
        u0 = initial_state(spec, mesh)
        for bad in (0.0, u0[:5], np.append(u0, 0.0), u0[None]):
            with pytest.raises(ValueError, match="au"):
                rhs_vector(spec, mesh, u0[None], mats, bad)

    def test_first_step_matches_direct_assembly(self):
        from scipy.special import gamma as gamma_fn
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, 1)
        u0 = initial_state(spec, mesh)
        got = rhs_vector(spec, mesh, u0[None], mats)
        tau = mats.tau
        g0 = gamma_fn(3.0 - 0.9)
        c_prev = sum(tau ** (1.0 - a) / gamma_fn(3.0 - a) for a in (0.9, 0.4))
        want = g0 * tau ** (0.9 - 1.0) * (
            source_moment(spec, mesh, 1)
            + c_prev * mass_symbol(mesh.m, mesh.h).matvec(u0)
            - spec.k1 * tau / 2.0
            * stiffness_symbol(0.3, mesh.m, mesh.h).matvec(u0)
            - spec.k2 * tau / 2.0
            * stiffness_symbol(0.8, mesh.m, mesh.h).matvec(u0))
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
        for n in (2, 3, 17, mesh.n_steps // 2, mesh.n_steps):
            mats = step_matrix(spec, mesh, n)
            got = rhs_vector(spec, mesh, states[:n], mats)
            want = loop_rhs_vector(spec, mesh, n, states)
            assert rel_diff(got, want) <= 1e-13

    def test_requires_step_matrix_of_its_time_step(self):
        spec = default_spec()
        mesh = graded_mesh(spec, 16, 8)
        states = np.tile(initial_state(spec, mesh), (2, 1))
        with pytest.raises(ValueError, match="tau"):
            rhs_vector(spec, mesh, states, step_matrix(spec, mesh, 1))

    def test_two_products_per_call(self, monkeypatch):
        # The mass matrix on 2 c_mass U^{n-1} - s mem and the step matrix
        # on U^{n-1}, with or without a memory term.
        spec = default_spec()
        mesh = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, 1)
        states = np.tile(initial_state(spec, mesh), (3, 1))
        calls = []
        matvec = SymToeplitz.matvec

        def counted(self, x):
            calls.append(self.m)
            return matvec(self, x)

        monkeypatch.setattr(SymToeplitz, "matvec", counted)
        for n in (1, 2, 3):
            calls.clear()
            rhs_vector(spec, mesh, states[:n], mats)
            assert len(calls) == 2

    def test_fft_products_match_longdouble_reference(self):
        # M = 1024 takes the FFT product.  Both forms stay within 1e-11 of
        # a dense long-double evaluation of the same float64 data.
        spec = make_example_2(
            FractionalOrders((0.7, 0.5), (1.0, 1.0), 0.15, 0.95), 5.0, 30.0)
        mesh = make_mesh(spec, 1024, TimePolicy.TAU_EQ_H)
        mats = step_matrix(spec, mesh, 1)
        assert mats.a_full.m > DENSE_MATVEC_CUTOFF
        rng = np.random.default_rng(11)
        x = mesh.interior_nodes()
        n_last = 64
        states = np.array([spec.exact(x, t) for t in mesh.times[:n_last]])
        states *= 1.0 + 1e-3 * rng.standard_normal(states.shape)
        for n in (1, 2, n_last):
            want = longdouble_rhs_vector(spec, mesh, n, states)
            for got in (rhs_vector(spec, mesh, states[:n], mats),
                        loop_rhs_vector(spec, mesh, n, states)):
                assert rel_diff(got.astype(np.longdouble), want) <= 1e-11
