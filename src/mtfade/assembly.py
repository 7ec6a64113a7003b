"""Assembly of the per-step linear system in Toeplitz symbol form.

The fully discrete scheme leads, at every time level n, to a system
A U^n = F^n whose matrix is a fixed linear combination of the hat-function
mass matrix and two fractional stiffness matrices, all symmetric Toeplitz.
Those three depend on the mesh alone and are built once per mesh; only
their coefficients depend on the time step.  The right-hand side
carries the Caputo memory term: a weighted sum over the whole solution
history.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import gamma as gamma_fn
from scipy.special import roots_legendre

from .problem import Mesh, ProblemSpec
from .toeplitz import SymToeplitz

# Beyond this lag the 5-term power difference loses too many digits to
# cancellation; switch to its central-difference expansion.
_LAG_EXPANSION_CUTOFF = 10_000

# The 4-point Gauss-Legendre rule on [-1, 1], read-only: every spatial
# panel and every time slab of source_moment uses it.
_GAUSS_X, _GAUSS_W = roots_legendre(4)
_GAUSS_X.setflags(write=False)
_GAUSS_W.setflags(write=False)

# Geometric grading depth for cells touching the domain boundary, where
# the manufactured sources have algebraic endpoint singularities.  The
# innermost panel has width h * 2^(1-levels); deeper grading would push
# quadrature points onto the singular endpoint in double precision.
_BOUNDARY_GRADE_LEVELS = 30


def mass_symbol(m: int, h: float) -> SymToeplitz:
    """Hat-function mass matrix on m cells: symbol [4h/6, h/6, 0, ...]."""
    if m < 4 or h <= 0:
        raise ValueError("need m >= 4 and h > 0")
    t = np.zeros(m - 1)
    t[0] = 4.0 * h / 6.0
    t[1] = h / 6.0
    return SymToeplitz(t)


def _lag_difference(l: np.ndarray, sigma: float) -> np.ndarray:
    """(l+2)^s - 4(l+1)^s + 6 l^s - 4(l-1)^s + (l-2)^s for lags l >= 2."""
    l = np.asarray(l, dtype=np.float64)
    out = (np.power(l + 2.0, sigma) - 4.0 * np.power(l + 1.0, sigma)
           + 6.0 * np.power(l, sigma) - 4.0 * np.power(l - 1.0, sigma)
           + np.power(l - 2.0, sigma))
    big = l > _LAG_EXPANSION_CUTOFF
    if np.any(big):
        lb = l[big]
        c4 = sigma * (sigma - 1.0) * (sigma - 2.0) * (sigma - 3.0)
        c6 = c4 * (sigma - 4.0) * (sigma - 5.0)
        out[big] = (c4 * np.power(lb, sigma - 4.0)
                    + c6 / 6.0 * np.power(lb, sigma - 6.0))
    return out


def stiffness_symbol(mu: float, m: int, h: float) -> SymToeplitz:
    """Fractional stiffness matrix of order 2*mu on hat functions.

    Shared prefactor h^(1-2mu) / (2 cos(mu pi) Gamma(4-2mu)); lag >= 2
    entries use the 5-term power difference.  mu = 1/2 is rejected since
    cos(mu pi) = 0 makes the prefactor singular.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("order mu must lie in (0, 1)")
    if abs(mu - 0.5) < 1e-14:
        raise ValueError("mu = 1/2 is singular: cos(mu*pi) = 0")
    if m < 4 or h <= 0:
        raise ValueError("need m >= 4 and h > 0")
    sigma = 3.0 - 2.0 * mu
    pre = h ** (1.0 - 2.0 * mu) / (2.0 * math.cos(mu * math.pi)
                                   * gamma_fn(4.0 - 2.0 * mu))
    t = np.empty(m - 1)
    t[0] = pre * (2.0 ** (4.0 - 2.0 * mu) - 8.0)
    t[1] = pre * (3.0 ** sigma - 2.0 ** (5.0 - 2.0 * mu) + 7.0)
    t[2:] = pre * _lag_difference(np.arange(2, m - 1), sigma)
    return SymToeplitz(t)


@functools.lru_cache(maxsize=8)
def _spatial_symbols(m: int, h: float, beta: float, gamma: float):
    """The parts of every step matrix on m cells of width h that do not
    depend on the time step: the mass matrix and the stiffness matrices
    of orders 2 beta and 2 gamma, built once per mesh.  Every step matrix
    of the mesh shares them, so their symbols are read-only."""
    parts = (mass_symbol(m, h), stiffness_symbol(beta, m, h),
             stiffness_symbol(gamma, m, h))
    for part in parts:
        part.symbol.setflags(write=False)
    return parts


@dataclass(frozen=True)
class StepMatrix:
    """The per-step coefficient matrix A = c_mass M + c_beta S_beta +
    c_gamma S_gamma, with what the right-hand side also needs: the mass
    matrix M, the scalar c_mass and the step's scale
    rhs_scale = s = Gamma(3 - alpha0) tau^(alpha0 - 1).

    With c' = sum_i a_i tau^(1 - alpha_i) / Gamma(3 - alpha_i), the
    coefficients satisfy

        s (c' M - k1 tau/2 S_beta - k2 tau/2 S_gamma) = 2 c_mass M - A,

    since s c' is c_mass and s k tau/2 are the stiffness coefficients of
    A; rhs_vector relies on it.  M, S_beta and S_gamma depend on the mesh
    alone and are built once per mesh; a step computes the three
    coefficients and combines the symbols.  mass is the mesh's one
    shared, read-only M, so its dense copy (or circulant spectrum) is
    made once, not once per step."""

    a_full: SymToeplitz
    mass: SymToeplitz
    c_mass: float
    tau: float
    rhs_scale: float


def step_matrix(spec: ProblemSpec, mesh: Mesh, n: int) -> StepMatrix:
    """Assemble the coefficient matrix for time level n (1-based), with
    its mass matrix, c_mass and rhs_scale, all from one Gamma(3 - alpha0)
    and the level's tau."""
    if not 1 <= n <= mesh.n_steps:
        raise ValueError(f"time level {n} outside 1..{mesh.n_steps}")
    orders = spec.orders
    tau = float(mesh.taus[n - 1])
    a0 = orders.alpha0
    g0 = gamma_fn(3.0 - a0)
    mass, stiff_b, stiff_g = _spatial_symbols(
        mesh.m, float(mesh.h), orders.beta, orders.gamma)
    c_mass = sum(c * g0 * tau ** (a0 - a) / gamma_fn(3.0 - a)
                 for a, c in zip(orders.alphas, orders.a_coeffs))
    c_beta = spec.k1 * g0 * tau ** a0 / 2.0
    c_gamma = spec.k2 * g0 * tau ** a0 / 2.0
    symbol = (c_mass * mass.symbol + c_beta * stiff_b.symbol
              + c_gamma * stiff_g.symbol)
    return StepMatrix(a_full=SymToeplitz(symbol), mass=mass, c_mass=c_mass,
                      tau=tau, rhs_scale=g0 * tau ** (a0 - 1.0))


def initial_state(spec: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """U^0: the initial data at the interior nodes."""
    a, _ = spec.domain
    return np.asarray(spec.initial(mesh.interior_nodes(a)), dtype=np.float64)


def _graded_panels(lo, hi, toward_lo):
    """Split [lo, hi] into panels shrinking geometrically toward one end.

    Cut points are anchored at the graded endpoint (offsets subtracted
    from it directly) so the tiny innermost panels stay representable in
    floating point instead of rounding onto the singularity.
    """
    w = hi - lo
    frac = 0.5 ** np.arange(_BOUNDARY_GRADE_LEVELS - 1, 0, -1)
    if toward_lo:
        return np.concatenate(([lo], lo + w * frac, [hi]))
    return np.concatenate(([lo], hi - w * frac[::-1], [hi]))


@functools.lru_cache(maxsize=8)
def _space_rule(a: float, h: float, m: int):
    """Spatial quadrature of the hat moments on the m cells of width h
    starting at a: (points, weigh).

    Every panel carries the 4 Gauss-Legendre points; the two cells
    touching the boundary are split into geometrically graded panels
    because the built-in sources are singular there.  weigh is the
    sparse (m-1) x P matrix that maps values at the P points to the
    moments against the interior hats: cell k = 1..m (spanning
    [x_{k-1}, x_k]) feeds phi_{k-1} (falling) and phi_k (rising).
    """
    k = np.arange(1, m + 1)
    lo, hi = a + (k - 1) * h, a + k * h
    first = _graded_panels(lo[0], hi[0], toward_lo=True)
    last = _graded_panels(lo[-1], hi[-1], toward_lo=False)
    p_lo = np.concatenate((first[:-1], lo[1:-1], last[:-1]))
    p_hi = np.concatenate((first[1:], hi[1:-1], last[1:]))
    cell = np.concatenate((np.zeros(first.size - 1, dtype=np.intp),
                           np.arange(1, m - 1),
                           np.full(last.size - 1, m - 1)))  # 0-based
    mid = 0.5 * (p_lo + p_hi)
    half = 0.5 * (p_hi - p_lo)
    pts = (mid[:, None] + half[:, None] * _GAUSS_X).ravel()
    wts = (half[:, None] * _GAUSS_W).ravel()
    cell = np.repeat(cell, _GAUSS_X.size)
    rows = np.concatenate((cell - 1, cell))
    cols = np.tile(np.arange(pts.size), 2)
    vals = np.concatenate((wts * (hi[cell] - pts) / h,
                           wts * (pts - lo[cell]) / h))
    keep = (rows >= 0) & (rows <= m - 2)  # boundary hats carry no moment
    weigh = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                          shape=(m - 1, pts.size))
    # cached and shared by every caller (pts goes to user callbacks)
    pts.setflags(write=False)
    weigh.data.setflags(write=False)
    return pts, weigh


@functools.lru_cache(maxsize=8)
def _space_moments(terms, a: float, h: float, m: int):
    """The moments weigh @ p_i(points) of each spatial part p_i of a
    separable source's terms, as a read-only (terms x m-1) array."""
    pts, weigh = _space_rule(a, h, m)
    moments = np.array([weigh @ p(pts) for _, p in terms])
    moments.setflags(write=False)
    return moments


def _slab_rule(t0, t1):
    """(nodes, weights): the 4-node Gauss-Legendre rule on the time slab
    (t0, t1), broadcast along a last axis of length 4."""
    return (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * _GAUSS_X,
            0.5 * (t1 - t0) * _GAUSS_W)


@functools.lru_cache(maxsize=8)
def _time_integrals(terms, mesh: Mesh):
    """The integral of each time part g_i of a separable source's terms
    over every slab (t_{n-1}, t_n) of the mesh's time grid, by
    _slab_rule: a read-only (N x terms) array whose row n-1 is slab
    n.  Each g_i is evaluated once, on all 4N nodes."""
    t = mesh.times
    nodes, weights = _slab_rule(t[:-1, None], t[1:, None])
    nodes = nodes.ravel()
    slabs = np.stack([(weights * g(nodes).reshape(weights.shape)).sum(axis=1)
                      for g, _ in terms], axis=1)
    slabs.setflags(write=False)
    return slabs


def source_moment(spec: ProblemSpec, mesh: Mesh, n: int) -> np.ndarray:
    """Moments of the source against each hat function over one time slab.

    Entry l is the integral of f * phi_l over (x_{l-1}, x_{l+1}) x
    (t_{n-1}, t_n), by the tensor 4-point Gauss-Legendre rule on every
    spatial panel and the slab.  The spatial rule is built once per
    (a, h, m).

    A source that states its terms, f = sum_i g_i(t) p_i(x) (see
    problem.SeparableSource), has the spatial moments of its p_i and
    the time integrals of its g_i cached once per mesh (each g_i
    evaluated once, on the 4 nodes of every slab); a step then takes
    one (terms x m-1) product.  Any other source is a callback:
    each step makes 4 vectorised source(x, t) calls over all the points
    and one sparse product.
    """
    if not 1 <= n <= mesh.n_steps:
        raise ValueError(f"time level {n} outside 1..{mesh.n_steps}")
    a, _ = spec.domain
    # an attribute, not a type: a wrapper that copies the callable's
    # __dict__ (functools.wraps) keeps the cached path
    terms = getattr(spec.source, "terms", None)
    if terms is not None:
        moments = _space_moments(terms, float(a), float(mesh.h), mesh.m)
        return _time_integrals(terms, mesh)[n - 1] @ moments
    t_nodes, t_weights = _slab_rule(mesh.times[n - 1], mesh.times[n])
    pts, weigh = _space_rule(float(a), float(mesh.h), mesh.m)
    ft = np.zeros(pts.size)
    for tq, twq in zip(t_nodes, t_weights):
        ft += twq * np.asarray(spec.source(pts, tq), dtype=np.float64)
    return weigh @ ft


def history_weight(orders, n: int, mesh: Mesh) -> np.ndarray:
    """The memory weights w_1 .. w_{n-1} at level n (empty for n = 1),
    summed over the temporal orders (a FractionalOrders) in order.

    With e = 2 - alpha and g_j = (t_n - t_j)^e - (t_{n-1} - t_j)^e, the
    weight of level k for one order is (g_{k-1} - g_k) / (tau_k
    Gamma(3-alpha)): the second difference of t -> t^e across the two
    intervals, positive by convexity.  On a uniform mesh rhs_vector reads
    the same row from _lag_row.  A level n outside 1 .. N raises
    ValueError.
    """
    if not 1 <= n <= mesh.n_steps:
        raise ValueError(f"level n={n} is outside 1..{mesh.n_steps}")
    t, taus = mesh.times[:n], mesh.taus[:n - 1]
    w = np.zeros(n - 1)
    for alpha, c in zip(orders.alphas, orders.a_coeffs):
        e = 2.0 - alpha
        g = (mesh.times[n] - t) ** e - (mesh.times[n - 1] - t) ** e
        w += c * ((g[:-1] - g[1:]) / (taus * gamma_fn(3.0 - alpha)))
    return w


@functools.lru_cache(maxsize=8)
def _lag_row(orders, tau: float, n_steps: int):
    """history_weight on a uniform mesh, as one read-only row by lag.

    The weight of level k at level n depends on the lag L = n - k alone,
    and is taken as history_weight takes it, the second difference of
    t^e at the elapsed times L tau.  w[L] sums it over the temporal
    orders for L = 0 .. N-1 (w[0] = 0: no level has lag 0), so
    history_weight(orders, n, mesh) is w[n-1:0:-1].
    """
    lag_times = tau * np.arange(n_steps + 1)
    w = np.zeros(n_steps)
    for alpha, c in zip(orders.alphas, orders.a_coeffs):
        g = np.diff(lag_times ** (2.0 - alpha))
        w[1:] += c / (tau * gamma_fn(3.0 - alpha)) * (g[1:] - g[:-1])
    w.setflags(write=False)
    return w


def _memory_row(orders, mesh: Mesh, n: int) -> np.ndarray:
    """dw with dw @ (U^0 .. U^{n-1}) = -mem at level n >= 2.

    mem = sum_k w_k (U^k - U^{k-1}) = sum_j (w_j - w_{j+1}) U^j with
    w_0 = w_n = 0, w the row of history_weight (a slice of _lag_row on
    a uniform mesh).
    """
    if mesh.uniform:
        w = _lag_row(orders, float(mesh.taus[0]), mesh.n_steps)[n - 1:0:-1]
    else:
        w = history_weight(orders, n, mesh)
    dw = np.empty(n)
    dw[0] = w[0]
    np.subtract(w[1:], w[:-1], out=dw[1:-1])
    dw[-1] = -w[-1]
    return dw


def rhs_vector(spec: ProblemSpec, mesh: Mesh, states: np.ndarray,
               mats: StepMatrix, au: np.ndarray | None = None
               ) -> np.ndarray:
    """Assemble the scaled right-hand side for time level n = len(states).

    states holds U^0 .. U^{n-1} as rows, and mats is the step matrix A
    for this level's time step.  au is A U^{n-1} when the caller has
    already taken it with mats.a_full.matvec (march shares it with the
    projected start), and is otherwise taken here; an au that is not
    m - 1 values raises ValueError.  With the step's
    scale s = mats.rhs_scale and the memory sum
    mem = sum_k w_k (U^k - U^{k-1}),

        F^n = s F_src + M (2 c_mass U^{n-1} - s mem) - A U^{n-1},

    by the identity StepMatrix states, and -mem = _memory_row @ states.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != mesh.m - 1 \
            or not 1 <= len(states) <= mesh.n_steps:
        raise ValueError(f"states must be 1..{mesh.n_steps} rows of "
                         f"{mesh.m - 1} values, got shape {states.shape}")
    n = len(states)
    if abs(mats.tau - mesh.taus[n - 1]) > 1e-14 * mats.tau:
        raise ValueError(f"step matrix tau {mats.tau} is not that of level {n}")
    s = mats.rhs_scale

    u_prev = states[n - 1]
    v = 2.0 * mats.c_mass * u_prev
    if n > 1:
        v += s * (_memory_row(spec.orders, mesh, n) @ states)
    if au is None:
        au = mats.a_full.matvec(u_prev)
    elif np.shape(au) != u_prev.shape:
        raise ValueError(f"au must be {mesh.m - 1} values, got shape "
                         f"{np.shape(au)}")
    return s * source_moment(spec, mesh, n) + mats.mass.matvec(v) - au
