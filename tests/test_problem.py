"""Problem definitions, meshes, and the built-in manufactured sources."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from mtfade import (FractionalOrders, Mesh, ProblemSpec, TimePolicy,
                    make_example_1, make_example_2, make_mesh)
from mtfade.assembly import _space_rule

# High-precision reference values for the manufactured sources, computed
# independently from the closed-form Caputo and Riemann-Liouville
# derivatives of the exact solutions (40-digit arithmetic, rounded).
SRC1_A = ((0.3, 0.2), (0.9, 0.4), -1.6833594851652943)
SRC1_B = ((0.85, 0.45), (0.5, 0.2), 344.86031469973391)
SRC2_REF = ((0.4, 0.25), (0.7, 0.4), 5.0, 300.0, 0.3, 0.85,
            17332.297302245935)


# The paper's two sets of orders: (alpha_1, alpha_2), beta, gamma.
SET1 = ((0.9, 0.4), 0.3, 0.8)
SET2 = ((0.7, 0.5), 0.15, 0.95)


def caputo_t2(orders, t):
    """sum_i a_i Caputo^{alpha_i} of (t^2 + 1), in closed form."""
    return sum(c * 2.0 * t ** (2.0 - a) / gamma_fn(3.0 - a)
               for a, c in zip(orders.alphas, orders.a_coeffs))


def reference_source_1(orders, x, t):
    """Example 1's source term by term, each power taken on its own."""
    y = 1.0 - x
    out = 100.0 * (x * x - x ** 3) * caputo_t2(orders, t)
    for mu, k in ((orders.beta, 1.0), (orders.gamma, 2.0)):
        bracket = (y ** (1.0 - 2.0 * mu) / gamma_fn(2.0 - 2.0 * mu)
                   + (2.0 * x ** (2.0 - 2.0 * mu)
                      - 4.0 * y ** (2.0 - 2.0 * mu)) / gamma_fn(3.0 - 2.0 * mu)
                   + (6.0 * y ** (3.0 - 2.0 * mu)
                      - 6.0 * x ** (3.0 - 2.0 * mu)) / gamma_fn(4.0 - 2.0 * mu))
        out = out + (k * 100.0 * (t * t + 1.0)
                     / (2.0 * math.cos(mu * math.pi)) * bracket)
    return out


def reference_source_2(orders, k1, k2, x, t):
    """Example 2's source term by term, each power taken on its own."""
    y = 1.0 - x
    out = 100.0 * (x * y) ** 2 * caputo_t2(orders, t)
    for mu, k in ((orders.beta, k1), (orders.gamma, k2)):
        bracket = ((x ** (2.0 - 2.0 * mu) + y ** (2.0 - 2.0 * mu))
                   / gamma_fn(3.0 - 2.0 * mu)
                   - (6.0 * x ** (3.0 - 2.0 * mu)
                      + 6.0 * y ** (3.0 - 2.0 * mu)) / gamma_fn(4.0 - 2.0 * mu)
                   + (12.0 * x ** (4.0 - 2.0 * mu)
                      + 12.0 * y ** (4.0 - 2.0 * mu)) / gamma_fn(5.0 - 2.0 * mu))
        out = out + (k * 100.0 * (t * t + 1.0) / math.cos(mu * math.pi)
                     * bracket)
    return out


def orders_default(alphas=(0.9, 0.4), beta=0.3, gamma=0.8):
    return FractionalOrders(alphas, (1.0,) * len(alphas), beta, gamma)


class TestFractionalOrders:
    def test_valid(self):
        o = orders_default()
        assert o.alpha0 == 0.9
        assert o.alphas == (0.9, 0.4)

    @pytest.mark.parametrize("kwargs", [
        dict(alphas=(), a_coeffs=(), beta=0.3, gamma=0.8),
        dict(alphas=(0.9,), a_coeffs=(1.0, 1.0), beta=0.3, gamma=0.8),
        dict(alphas=(1.2, 0.4), a_coeffs=(1.0, 1.0), beta=0.3, gamma=0.8),
        dict(alphas=(0.4, 0.9), a_coeffs=(1.0, 1.0), beta=0.3, gamma=0.8),
        dict(alphas=(0.9, 0.9), a_coeffs=(1.0, 1.0), beta=0.3, gamma=0.8),
        dict(alphas=(0.9, 0.4), a_coeffs=(0.0, 1.0), beta=0.3, gamma=0.8),
        dict(alphas=(0.9, 0.4), a_coeffs=(1.0, -1.0), beta=0.3, gamma=0.8),
        dict(alphas=(0.9, 0.4), a_coeffs=(1.0, 1.0), beta=0.5, gamma=0.8),
        dict(alphas=(0.9, 0.4), a_coeffs=(1.0, 1.0), beta=0.3, gamma=0.5),
        dict(alphas=(0.9, 0.4), a_coeffs=(1.0, 1.0), beta=0.3, gamma=1.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FractionalOrders(**kwargs)


class TestProblemSpec:
    def test_rejects_bad_coefficients_and_domain(self):
        o = orders_default()
        good = make_example_1(o)
        with pytest.raises(ValueError):
            ProblemSpec(o, -1.0, 2.0, (0.0, 1.0), 0.5,
                        good.source, good.initial)
        with pytest.raises(ValueError):
            ProblemSpec(o, 1.0, 2.0, (1.0, 1.0), 0.5,
                        good.source, good.initial)
        with pytest.raises(ValueError):
            ProblemSpec(o, 1.0, 2.0, (0.0, 1.0), 0.0,
                        good.source, good.initial)


class TestMesh:
    def test_make_mesh_tau_eq_h(self):
        spec = make_example_1(orders_default())
        mesh = make_mesh(spec, 64, TimePolicy.TAU_EQ_H)
        assert mesh.m == 64 and mesh.h == pytest.approx(1 / 64)
        # N * tau = T exactly: T = 0.5, h = 1/64 -> N = 32
        assert mesh.n_steps == 32
        assert mesh.n_steps * mesh.taus[0] == pytest.approx(0.5, rel=1e-15)
        assert mesh.uniform
        assert mesh.times[0] == 0.0 and mesh.times[-1] == pytest.approx(0.5)

    def test_make_mesh_tau_eq_h2(self):
        spec = make_example_1(orders_default())
        mesh = make_mesh(spec, 32, TimePolicy.TAU_EQ_H2)
        # h^2 = 1/1024, T = 0.5 -> N = 512
        assert mesh.n_steps == 512
        assert mesh.taus[0] == pytest.approx(0.5 / 512, rel=1e-15)

    def test_make_mesh_tau_const_rounds_up(self):
        spec = make_example_1(orders_default())
        mesh = make_mesh(spec, 16, TimePolicy.TAU_CONST, tau_const=0.3)
        # ceil(0.5 / 0.3) = 2 steps of 0.25 each
        assert mesh.n_steps == 2
        assert mesh.taus[0] == pytest.approx(0.25)

    def test_make_mesh_tau_const_requires_value(self):
        spec = make_example_1(orders_default())
        for tau_const in (None, math.nan, math.inf):
            with pytest.raises(ValueError, match="tau_const") as err:
                make_mesh(spec, 16, TimePolicy.TAU_CONST, tau_const)
            assert "\n" not in str(err.value)

    @pytest.mark.parametrize("m", [16.0, math.nan, np.float64(16)],
                             ids=["float", "nan", "numpy-float"])
    def test_make_mesh_requires_an_integer_m(self, m):
        spec = make_example_1(orders_default())
        with pytest.raises(ValueError, match="m must be an integer"):
            make_mesh(spec, m, TimePolicy.TAU_EQ_H)

    def test_numpy_integer_m_passes(self):
        spec = make_example_1(orders_default())
        want = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        mesh = make_mesh(spec, np.int64(16), TimePolicy.TAU_EQ_H)
        assert mesh.m == 16 and np.array_equal(mesh.times, want.times)
        assert Mesh(m=np.int32(16), h=want.h, taus=want.taus,
                    times=want.times).m == 16

    def test_mesh_is_equal_only_to_itself(self):
        spec = make_example_1(orders_default())
        a = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        b = make_mesh(spec, 16, TimePolicy.TAU_EQ_H)
        assert a == a and a != b
        assert len({a, a, b}) == 2

    def test_mesh_arrays_are_read_only_copies(self):
        taus, times = np.full(4, 0.125), np.linspace(0.0, 0.5, 5)
        mesh = Mesh(m=8, h=0.125, taus=taus, times=times)
        for name in ("taus", "times"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(mesh, name)[0] = 1.0
        taus[0] = times[0] = 1.0  # the caller's arrays stay writable
        assert mesh.taus[0] == 0.125 and mesh.times[0] == 0.0

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            Mesh(m=2, h=0.5, taus=np.array([0.1]), times=np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            Mesh(m=8, h=0.125, taus=np.array([-0.1]),
                 times=np.array([0.0, 0.1]))
        with pytest.raises(ValueError, match="times"):  # too few times
            Mesh(m=16, h=1 / 16, taus=[0.1] * 5, times=[0.0, 0.1])
        with pytest.raises(ValueError, match="times"):  # steps off taus
            Mesh(m=16, h=1 / 16, taus=[0.1, 0.1], times=[0.0, 0.1, 0.3])

    def test_interior_nodes(self):
        spec = make_example_1(orders_default())
        mesh = make_mesh(spec, 8, TimePolicy.TAU_EQ_H)
        assert np.allclose(mesh.interior_nodes(0.0),
                           np.arange(1, 8) / 8.0)


NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _valid_fields():
    spec = make_example_1(orders_default())
    orders = dict(alphas=(0.9, 0.4), a_coeffs=(1.0, 1.0), beta=0.3,
                  gamma=0.8)
    problem = dict(orders=spec.orders, k1=1.0, k2=2.0, domain=(0.0, 1.0),
                   horizon=0.5, source=spec.source, initial=spec.initial)
    times = 0.5 * (np.arange(9) / 8) ** 2
    mesh = dict(m=16, h=1 / 16, taus=np.diff(times), times=times)
    return orders, problem, mesh


@st.composite
def _one_entry(draw, values, bad):
    """values (a tuple or array) with one entry replaced by bad."""
    i = draw(st.integers(0, len(values) - 1))
    out = np.array(values, dtype=np.float64)
    out[i] = draw(bad)
    return out if isinstance(values, np.ndarray) else tuple(out)


@st.composite
def invalid_input(draw):
    """(constructor, kwargs) with one generated non-finite or
    out-of-range field; every other field is valid."""
    orders, problem, mesh = _valid_fields()
    positive_bad = NONFINITE | st.floats(max_value=0.0)
    cases = {
        (FractionalOrders, "alphas"): _one_entry(
            orders["alphas"], NONFINITE | FINITE.filter(
                lambda a: not 0.0 < a < 1.0)),
        (FractionalOrders, "a_coeffs"): _one_entry(
            orders["a_coeffs"], NONFINITE | st.floats(max_value=-1e-300)),
        (FractionalOrders, "beta"): NONFINITE | FINITE.filter(
            lambda b: not 0.0 < b < 0.5),
        (FractionalOrders, "gamma"): NONFINITE | FINITE.filter(
            lambda g: not 0.5 < g < 1.0),
        (ProblemSpec, "k1"): positive_bad,
        (ProblemSpec, "k2"): positive_bad,
        (ProblemSpec, "horizon"): positive_bad,
        (ProblemSpec, "domain"): _one_entry(problem["domain"], NONFINITE),
        # a cell count must be an integer: 8.0 is refused as nan is
        (Mesh, "m"): NONFINITE | st.floats(4.0, 1e6),
        (Mesh, "h"): positive_bad,
        (Mesh, "taus"): _one_entry(mesh["taus"], positive_bad),
        (Mesh, "times"): _one_entry(mesh["times"], NONFINITE),
    }
    (make, field) = draw(st.sampled_from(sorted(cases, key=str)))
    kwargs = {FractionalOrders: orders, ProblemSpec: problem,
              Mesh: mesh}[make]
    kwargs[field] = draw(cases[make, field])
    return make, kwargs


class TestInvalidInput:
    @settings(max_examples=200, deadline=None)
    @given(case=invalid_input())
    def test_construction_raises_value_error(self, case):
        make, kwargs = case
        with pytest.raises(ValueError):
            make(**kwargs)

    @settings(max_examples=50, deadline=None)
    @given(shift=st.floats(-1e3, 1e3).filter(lambda s: s != 0.0))
    def test_times_must_start_at_zero(self, shift):
        # a mesh on [shift, shift + T] steps by its taus, but its memory
        # would start at t = shift while U^0 is the data at t = 0 (shifts
        # stay small enough that the steps keep their size)
        _, _, mesh = _valid_fields()
        mesh["times"] = mesh["times"] + shift
        mesh["taus"] = np.diff(mesh["times"])
        with pytest.raises(ValueError, match="times"):
            Mesh(**mesh)

    def test_empty_time_grid_is_refused(self):
        with pytest.raises(ValueError, match="taus") as err:
            Mesh(m=8, h=1 / 8, taus=[], times=[0.0])
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("a_coeffs", (1.0, math.nan)), ("a_coeffs", (math.inf, 1.0)),
        ("k1", math.nan), ("k2", math.inf), ("horizon", math.nan),
        ("domain", (0.0, math.inf)), ("h", math.nan),
        ("taus", [math.nan] * 8), ("times", [math.nan] * 9), ("m", 8.0)])
    def test_message_names_the_field(self, field, value):
        orders, problem, mesh = _valid_fields()
        make, kwargs = next((make, kw) for make, kw in (
            (FractionalOrders, orders), (ProblemSpec, problem),
            (Mesh, mesh)) if field in kw)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field) as err:
            make(**kwargs)
        assert "\n" not in str(err.value)


class TestManufacturedProblems:
    @pytest.mark.parametrize("make, at_half", [
        (make_example_1, 0.125),  # x^2 - x^3 at x = 1/2
        (partial(make_example_2, k1=5.0, k2=300.0), 0.0625),  # x^2 (1-x)^2
    ], ids=["example_1", "example_2"])
    def test_exact_and_initial(self, make, at_half):
        spec = make(orders_default())
        x = np.array([0.25, 0.5, 0.8])
        assert np.array_equal(spec.initial(x), spec.exact(x, 0.0))
        assert spec.exact(np.array([0.5]), 1.0)[0] == pytest.approx(
            100.0 * 2.0 * at_half)
        # boundary values vanish at all times
        assert np.array_equal(spec.exact(np.array([0.0, 1.0]), 0.37),
                              [0.0, 0.0])

    def test_example_1_source_reference_values(self):
        for (x, t), alphas, want in (
                ((SRC1_A[0][0], SRC1_A[0][1]), SRC1_A[1], SRC1_A[2]),
                ((SRC1_B[0][0], SRC1_B[0][1]), SRC1_B[1], SRC1_B[2])):
            spec = make_example_1(orders_default(alphas))
            got = spec.source(np.array([x]), t)[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_example_2_source_reference_value(self):
        (x, t), alphas, k1, k2, beta, gamma, want = SRC2_REF
        spec = make_example_2(orders_default(alphas, beta, gamma), k1, k2)
        got = spec.source(np.array([x]), t)[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_example_2_symmetry(self):
        spec = make_example_2(orders_default(), 5.0, 30.0)
        x = np.array([0.2, 0.35])
        assert np.allclose(spec.source(x, 0.3), spec.source(1.0 - x, 0.3),
                           rtol=1e-12)
        assert np.allclose(spec.exact(x, 0.3), spec.exact(1.0 - x, 0.3))

    @pytest.mark.parametrize("m", [16, 257])
    @pytest.mark.parametrize("orders", [SET1, SET2])
    def test_sources_match_term_by_term_forms(self, orders, m):
        # The quadrature points of source_moment, with the graded panels
        # that reach toward the singular endpoints.
        x, _ = _space_rule(0.0, 1.0 / m, m)
        o = orders_default(*orders)
        cases = [(make_example_1(o), partial(reference_source_1, o))]
        for k1, k2 in ((1.0, 2.0), (5.0, 300.0)):
            cases.append((make_example_2(o, k1, k2),
                          partial(reference_source_2, o, k1, k2)))
        for spec, reference in cases:
            for t in (0.0, 1e-3, 0.17, 0.5):
                want = reference(x, t)
                got = spec.source(x, t)
                assert got.shape == x.shape
                assert (np.max(np.abs(got - want))
                        <= 1e-13 * np.max(np.abs(want)))

    def test_example_guards(self):
        three = FractionalOrders((0.9, 0.5, 0.2), (1.0, 1.0, 1.0), 0.3, 0.8)
        with pytest.raises(ValueError):
            make_example_1(three)
        weighted = FractionalOrders((0.9, 0.4), (2.0, 1.0), 0.3, 0.8)
        with pytest.raises(ValueError):
            make_example_1(weighted)
        with pytest.raises(ValueError):
            make_example_2(orders_default(), -5.0, 300.0)
