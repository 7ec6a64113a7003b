"""Assembly of the per-step linear system in Toeplitz symbol form.

The fully discrete scheme leads, at every time level n, to a system
A U^n = F^n whose matrix is a fixed linear combination of the hat-function
mass matrix and two fractional stiffness matrices, all symmetric Toeplitz.
The right-hand side carries the Caputo memory term: a weighted sum over
the whole solution history.
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
    if m > 3:
        t[2:] = pre * _lag_difference(np.arange(2, m - 1), sigma)
    return SymToeplitz(t)


@dataclass(frozen=True)
class StepMatrix:
    """The per-step coefficient matrix plus its Toeplitz components."""

    a_full: SymToeplitz
    mass: SymToeplitz
    stiff_beta: SymToeplitz
    stiff_gamma: SymToeplitz
    tau: float


def step_matrix(spec: ProblemSpec, mesh: Mesh, n: int) -> StepMatrix:
    """Assemble the coefficient matrix for time level n (1-based)."""
    if not 1 <= n <= mesh.n_steps:
        raise ValueError(f"time level {n} outside 1..{mesh.n_steps}")
    orders = spec.orders
    tau = float(mesh.taus[n - 1])
    a0 = orders.alpha0
    g0 = gamma_fn(3.0 - a0)
    mass = mass_symbol(mesh.m, mesh.h)
    stiff_b = stiffness_symbol(orders.beta, mesh.m, mesh.h)
    stiff_g = stiffness_symbol(orders.gamma, mesh.m, mesh.h)
    c_mass = sum(c * g0 * tau ** (a0 - a) / gamma_fn(3.0 - a)
                 for a, c in zip(orders.alphas, orders.a_coeffs))
    c_beta = spec.k1 * g0 * tau ** a0 / 2.0
    c_gamma = spec.k2 * g0 * tau ** a0 / 2.0
    symbol = (c_mass * mass.symbol + c_beta * stiff_b.symbol
              + c_gamma * stiff_g.symbol)
    return StepMatrix(a_full=SymToeplitz(symbol), mass=mass,
                      stiff_beta=stiff_b, stiff_gamma=stiff_g, tau=tau)


class TimeHistory:
    """Nodal solution vectors U^0 ... U^{n-1}, stored as the first n rows
    of one array.

    The array doubles its rows when full rather than holding all N+1
    levels from the start: callers that need only the first step at
    tau = h^2 would otherwise allocate N (M-1) numbers (32 GiB at
    M = 2048).
    """

    def __init__(self, u0: np.ndarray):
        u0 = np.asarray(u0, dtype=np.float64)
        self._rows = u0[None, :].copy()
        self._len = 1

    @classmethod
    def from_initial(cls, spec: ProblemSpec, mesh: Mesh) -> "TimeHistory":
        a, _ = spec.domain
        return cls(spec.initial(mesh.interior_nodes(a)))

    @property
    def states(self) -> np.ndarray:
        """The stored states as rows, a view of the history array."""
        return self._rows[:self._len]

    def append(self, state: np.ndarray):
        if self._len == len(self._rows):
            grown = np.empty((2 * self._len, self._rows.shape[1]))
            grown[:self._len] = self._rows
            self._rows = grown
        self._rows[self._len] = state
        self._len += 1

    def __len__(self):
        return self._len


def _graded_panels(lo, hi, toward_lo, levels=_BOUNDARY_GRADE_LEVELS):
    """Split [lo, hi] into panels shrinking geometrically toward one end.

    Cut points are anchored at the graded endpoint (offsets subtracted
    from it directly) so the tiny innermost panels stay representable in
    floating point instead of rounding onto the singularity.
    """
    w = hi - lo
    frac = 0.5 ** np.arange(levels - 1, 0, -1)
    if toward_lo:
        return np.concatenate(([lo], lo + w * frac, [hi]))
    return np.concatenate(([lo], hi - w * frac[::-1], [hi]))


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = roots_legendre(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.lru_cache(maxsize=8)
def _space_rule(a: float, h: float, m: int, nx: int):
    """Spatial quadrature of the hat moments on the m cells of width h
    starting at a: (points, weigh).

    Every cell carries nx Gauss-Legendre points per panel; the two cells
    touching the boundary are split into geometrically graded panels
    because the built-in sources are singular there.  weigh is the
    sparse (m-1) x P matrix that maps values at the P points to the
    moments against the interior hats: cell k = 1..m (spanning
    [x_{k-1}, x_k]) feeds phi_{k-1} (falling) and phi_k (rising).
    """
    gx, wx = _gauss_legendre(nx)
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
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * wx[None, :]).ravel()
    cell = np.repeat(cell, nx)
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


def source_moment(spec: ProblemSpec, mesh: Mesh, n: int,
                  nx: int = 4, nt: int = 4) -> np.ndarray:
    """Moments of the source against each hat function over one time slab.

    Entry l is the integral of f * phi_l over (x_{l-1}, x_{l+1}) x
    (t_{n-1}, t_n), by tensor Gauss-Legendre quadrature.  The spatial
    rule is built once per (a, h, m, nx); each call makes nt vectorised
    source calls over all its points and one sparse product.
    """
    if not 1 <= n <= mesh.n_steps:
        raise ValueError(f"time level {n} outside 1..{mesh.n_steps}")
    a, _ = spec.domain
    pts, weigh = _space_rule(float(a), float(mesh.h), mesh.m, nx)
    t0, t1 = mesh.times[n - 1], mesh.times[n]
    gt, wt = _gauss_legendre(nt)
    t_nodes = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * gt
    t_weights = 0.5 * (t1 - t0) * wt
    ft = np.zeros(pts.size)
    for tq, twq in zip(t_nodes, t_weights):
        ft += twq * np.asarray(spec.source(pts, tq), dtype=np.float64)
    return weigh @ ft


def history_weight(alpha: float, n: int, k, mesh: Mesh):
    """Memory-term weight for history level k at the current level n.

    This is the second difference of t -> t^(2-alpha) across the two
    intervals, divided by tau_k * Gamma(3-alpha); always positive by
    convexity of the power map.  k may be an integer array, giving the
    weights of all those levels at once.
    """
    k = np.asarray(k)
    if np.any((k < 1) | (k > n - 1)):
        raise ValueError(f"history index k={k} must satisfy 1 <= k <= n-1={n - 1}")
    t = mesh.times
    e = 2.0 - alpha
    num = ((t[n] - t[k - 1]) ** e - (t[n - 1] - t[k - 1]) ** e
           - (t[n] - t[k]) ** e + (t[n - 1] - t[k]) ** e)
    return num / (mesh.taus[k - 1] * gamma_fn(3.0 - alpha))


def rhs_vector(spec: ProblemSpec, mesh: Mesh, n: int,
               history: TimeHistory, mats: StepMatrix) -> np.ndarray:
    """Assemble the scaled right-hand side for time level n.

    history must hold exactly n states U^0 .. U^{n-1}.  All products use
    the FFT Toeplitz matvec.  The memory sum over k = 1..n-1 of
    w_k (U^k - U^{k-1}) is one product of the differenced weight vector
    with the stacked history, collapsed into a single mass-matrix product.
    """
    if len(history) != n:
        raise ValueError(f"history holds {len(history)} states, expected {n}")
    orders = spec.orders
    tau = float(mesh.taus[n - 1])
    a0 = orders.alpha0
    g0 = gamma_fn(3.0 - a0)

    states = history.states
    u_prev = states[n - 1]
    c_mass_prev = sum(c * tau ** (1.0 - a) / gamma_fn(3.0 - a)
                      for a, c in zip(orders.alphas, orders.a_coeffs))
    rhs = (source_moment(spec, mesh, n)
           + c_mass_prev * mats.mass.matvec(u_prev)
           - spec.k1 * tau / 2.0 * mats.stiff_beta.matvec(u_prev)
           - spec.k2 * tau / 2.0 * mats.stiff_gamma.matvec(u_prev))

    if n > 1:
        k = np.arange(1, n)
        w = sum(c * history_weight(a, n, k, mesh)
                for a, c in zip(orders.alphas, orders.a_coeffs))
        # sum_k w_k (U^k - U^{k-1}) = sum_j (w_j - w_{j+1}) U^j, w_0 = w_n = 0
        acc = -np.diff(w, prepend=0.0, append=0.0) @ states
        rhs -= mats.mass.matvec(acc)

    return g0 * tau ** (a0 - 1.0) * rhs
