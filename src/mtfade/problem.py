"""Continuous problem definitions, meshes, and the built-in manufactured tests.

The model equation on an interval (a, b) is

    sum_i a_i * D_t^{alpha_i} u = K1 * d^{2 beta} u / d|x|^{2 beta}
                                + K2 * d^{2 gamma} u / d|x|^{2 gamma} + f

with homogeneous Dirichlet boundary data, Caputo derivatives in time
(orders alpha_i in (0,1), strictly decreasing) and Riesz derivatives in
space (advection order 2*beta with beta in (0, 1/2), diffusion order
2*gamma with gamma in (1/2, 1)).
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as gamma_fn


@dataclass(frozen=True)
class FractionalOrders:
    """Temporal orders (alphas with weights a_coeffs) and spatial orders."""

    alphas: tuple
    a_coeffs: tuple
    beta: float
    gamma: float

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        a_coeffs = tuple(float(c) for c in self.a_coeffs)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "a_coeffs", a_coeffs)
        if not alphas:
            raise ValueError("need at least one temporal order")
        if len(alphas) != len(a_coeffs):
            raise ValueError("alphas and a_coeffs must have equal length")
        if not all(map(math.isfinite, a_coeffs)):
            raise ValueError(f"a_coeffs must be finite, got {a_coeffs}")
        if any(not 0.0 < a < 1.0 for a in alphas):
            raise ValueError("temporal orders must lie in (0, 1)")
        if any(alphas[i] <= alphas[i + 1] for i in range(len(alphas) - 1)):
            raise ValueError("temporal orders must be strictly decreasing")
        if a_coeffs[0] <= 0.0:
            raise ValueError("leading temporal coefficient must be positive")
        if any(c < 0.0 for c in a_coeffs):
            raise ValueError("temporal coefficients must be nonnegative")
        # beta = 1/2 and gamma = 1/2 are excluded: cos(mu*pi) vanishes
        # there and the stiffness prefactor blows up.
        if not 0.0 < self.beta < 0.5:
            raise ValueError("advection order beta must lie in (0, 1/2)")
        if not 0.5 < self.gamma < 1.0:
            raise ValueError("diffusion order gamma must lie in (1/2, 1)")

    @property
    def alpha0(self):
        return self.alphas[0]


@dataclass(frozen=True)
class SeparableSource:
    """A source f(x, t) = sum_i g_i(t) p_i(x) that states its terms.

    terms is a tuple of (g, p) pairs: each g maps an array of times, and
    each p an array of points, to an array of the same shape.  Called as
    f(x, t) it sums the products, so it serves wherever a source
    callback does; source_moment reads terms and integrates each p once
    per mesh and each g once per step.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((g, p) for g, p in self.terms)
        if not terms:
            raise ValueError("a separable source needs at least one term")
        object.__setattr__(self, "terms", terms)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(x)
        for g, p in self.terms:
            out += g(t) * p(x)
        return out


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem instance: orders, coefficients, domain, data."""

    orders: FractionalOrders
    k1: float
    k2: float
    domain: tuple
    horizon: float
    source: Callable[[np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        for name in ("k1", "k2", "horizon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("advection/diffusion coefficients must be positive")
        if self.horizon <= 0:
            raise ValueError("final time must be positive")
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"domain ends must be finite, got {self.domain}")
        if not a < b:
            raise ValueError("domain must be a nonempty interval (a, b)")


class TimePolicy(enum.Enum):
    """How the uniform time step relates to the spatial step."""

    TAU_EQ_H = "tau-eq-h"
    TAU_EQ_H2 = "tau-eq-h2"
    TAU_CONST = "tau-const"


def _check_cells(m):
    """Refuse a cell count m that is not an integer of at least 4
    (numpy integers pass; 8.0 and nan do not)."""
    if not isinstance(m, numbers.Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 4:
        raise ValueError("need at least 4 spatial cells")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform spatial grid plus a (by default uniform) time grid.

    A mesh is equal only to itself and hashes by identity, so tables
    built once per mesh can key on it; it holds taus and times as
    read-only copies, so such a table cannot go stale.
    """

    m: int
    h: float
    taus: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        _check_cells(self.m)
        if not math.isfinite(self.h):
            raise ValueError(f"h must be finite, got {self.h}")
        if self.h <= 0:
            raise ValueError("spatial step must be positive")
        taus = np.array(self.taus, dtype=np.float64)
        if taus.size == 0:
            raise ValueError("taus must hold at least one time step")
        if not np.all(np.isfinite(taus)):
            raise ValueError("taus must be finite")
        if np.any(taus <= 0):
            raise ValueError("time steps must be positive")
        times = np.array(self.times, dtype=np.float64)
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        # times[-1] scales the rounding that make_mesh's linspace leaves
        if len(times) != len(taus) + 1 or np.any(
                np.abs(np.diff(times) - taus) > 1e-12 * abs(times[-1])):
            raise ValueError("times must step by taus, with one more entry")
        if times[0] != 0.0:
            raise ValueError(f"times must start at 0, got times[0] = "
                             f"{times[0]}")
        for name, value in (("taus", taus), ("times", times)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_steps(self):
        return len(self.taus)

    @functools.cached_property
    def uniform(self):
        t = self.taus
        return bool(np.all(np.abs(t - t[0]) <= 1e-14 * t[0]))

    def interior_nodes(self, a=0.0):
        return a + self.h * np.arange(1, self.m)


def make_mesh(spec: ProblemSpec, m: int, policy: TimePolicy,
              tau_const: Optional[float] = None) -> Mesh:
    """Build a uniform mesh with tau = h, tau = h^2 or tau = const.

    N is rounded up so that N * tau = T exactly (tau is then T / N).
    """
    _check_cells(m)
    a, b = spec.domain
    h = (b - a) / m
    T = spec.horizon
    if policy is TimePolicy.TAU_EQ_H:
        tau_nominal = h
    elif policy is TimePolicy.TAU_EQ_H2:
        tau_nominal = h * h
    elif policy is TimePolicy.TAU_CONST:
        if tau_const is None or not 0.0 < tau_const < math.inf:
            raise ValueError(f"tau-const policy needs a positive, finite "
                             f"tau_const, got {tau_const}")
        tau_nominal = tau_const
    else:
        raise ValueError(f"unknown time policy {policy!r}")
    n = math.ceil(T / tau_nominal - 1e-12)
    if n < 1:
        raise ValueError("time policy produced no time steps")
    tau = T / n
    taus = np.full(n, tau)
    times = np.linspace(0.0, T, n + 1)
    return Mesh(m=m, h=h, taus=taus, times=times)


def _manufactured(orders: FractionalOrders, k1: float, k2: float, profile,
                  space) -> ProblemSpec:
    """The problem on (0, 1), T = 0.5, with exact solution
    100 (t^2 + 1) profile(x).

    space is S(x), the spatial operator applied to the exact solution's
    100 profile(x).  The source is
    f(x, t) = (t^2 + 1) S(x) + D_t(t^2 + 1) 100 profile(x), where
    D_t = sum_i a_i Caputo^{alpha_i} maps t^2 + 1 to
    sum_i 2 a_i t^(2 - alpha_i) / Gamma(3 - alpha_i).
    """
    if len(orders.alphas) != 2:
        raise ValueError("this example uses exactly two temporal orders")
    if orders.a_coeffs != (1.0, 1.0):
        raise ValueError("this example uses unit temporal coefficients")
    time_terms = tuple((2.0 * c / gamma_fn(3.0 - a), 2.0 - a)
                       for a, c in zip(orders.alphas, orders.a_coeffs))

    def growth(t):
        return t * t + 1.0

    def memory(t):
        return sum(c * t ** e for c, e in time_terms)

    def shape(x):
        return 100.0 * profile(np.asarray(x, dtype=np.float64))

    def exact(x, t):
        return growth(t) * shape(x)

    def initial(x):
        return exact(x, 0.0)

    source = SeparableSource(((growth, space), (memory, shape)))
    return ProblemSpec(orders=orders, k1=k1, k2=k2, domain=(0.0, 1.0),
                       horizon=0.5, source=source, initial=initial, exact=exact)


def make_example_1(orders: FractionalOrders) -> ProblemSpec:
    """Manufactured problem with exact solution 100 (t^2+1)(x^2 - x^3).

    Domain (0,1), T = 0.5, two temporal terms with unit weights,
    K1 = 1, K2 = 2.  The caller picks the four fractional orders.
    """
    def space(x):
        # Order mu with coefficient K, p = 1 - 2 mu, y = 1 - x, adds
        #   100 K / (2 cos(mu pi)) [y^p / G(p+1)
        #   + (2 x^(p+1) - 4 y^(p+1)) / G(p+2)
        #   + (6 y^(p+2) - 6 x^(p+2)) / G(p+3)].
        x = np.asarray(x, dtype=np.float64)
        y = 1.0 - x
        out = np.zeros_like(x)
        for mu, k in ((orders.beta, 1.0), (orders.gamma, 2.0)):
            p = 1.0 - 2.0 * mu
            out += 100.0 * k / (2.0 * math.cos(mu * math.pi)) * (
                y ** p / gamma_fn(p + 1.0)
                + (2.0 * x ** (p + 1.0) - 4.0 * y ** (p + 1.0))
                / gamma_fn(p + 2.0)
                + (6.0 * y ** (p + 2.0) - 6.0 * x ** (p + 2.0))
                / gamma_fn(p + 3.0))
        return out

    return _manufactured(orders, 1.0, 2.0, lambda x: x * x * (1.0 - x), space)


def make_example_2(orders: FractionalOrders, k1: float, k2: float) -> ProblemSpec:
    """Manufactured problem with exact solution 100 (t^2+1) x^2 (1-x)^2.

    Symmetric initial profile; K1 and K2 are free so the effect of large
    diffusion coefficients can be studied.
    """
    def space(x):
        # Order mu with coefficient K, q = 2 - 2 mu, y = 1 - x, adds
        #   100 K / cos(mu pi) [(x^q + y^q) / G(q+1)
        #   - 6 (x^(q+1) + y^(q+1)) / G(q+2)
        #   + 12 (x^(q+2) + y^(q+2)) / G(q+3)].
        x = np.asarray(x, dtype=np.float64)
        y = 1.0 - x
        out = np.zeros_like(x)
        for mu, k in ((orders.beta, k1), (orders.gamma, k2)):
            q = 2.0 - 2.0 * mu
            out += 100.0 * k / math.cos(mu * math.pi) * (
                (x ** q + y ** q) / gamma_fn(q + 1.0)
                - 6.0 * (x ** (q + 1.0) + y ** (q + 1.0)) / gamma_fn(q + 2.0)
                + 12.0 * (x ** (q + 2.0) + y ** (q + 2.0))
                / gamma_fn(q + 3.0))
        return out

    return _manufactured(orders, k1, k2, lambda x: (x * (1.0 - x)) ** 2, space)
