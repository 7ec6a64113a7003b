"""The iteration driver, relaxation sweeps, conjugate gradients, and the
pivot-free LU."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfade import (FractionalOrders, SymToeplitz, TimePolicy, amg_solve,
                    cf_jacobi_sweep, cg_solve, dense_solve, make_example_1,
                    make_mesh, setup, step_matrix)
from mtfade.assembly import TimeHistory, rhs_vector
from mtfade.solvers import lu_nopivot, lu_solve_nopivot


def spd_toeplitz(m, seed=0):
    rng = np.random.default_rng(seed)
    t = -np.abs(rng.standard_normal(m))
    t[0] = 2.0 * np.abs(t[1:]).sum() + 1.0
    return SymToeplitz(t)


def first_step_set1(m):
    """First-step system of example 1, SET1 orders, tau = h."""
    spec = make_example_1(FractionalOrders((0.9, 0.4), (1.0, 1.0), 0.3, 0.8))
    mesh = make_mesh(spec, m, TimePolicy.TAU_EQ_H)
    mats = step_matrix(spec, mesh, 1)
    b = rhs_vector(spec, mesh, 1, TimeHistory.from_initial(spec, mesh), mats)
    return mats.a_full, b


def true_relres(T, x, b):
    return float(np.linalg.norm(b - T.matvec(x)) / np.linalg.norm(b))


def scale_free_relres(T, x, b):
    """true_relres after scaling b and x by the same power of two to
    max|b| in [1/2, 1), so that no norm underflows or overflows for a
    b of any size."""
    e = np.frexp(np.max(np.abs(b)))[1]
    return true_relres(T, np.ldexp(x, -e), np.ldexp(b, -e))


class TestCfJacobi:
    def test_matches_dense_reference(self):
        T = spd_toeplitz(30, seed=5)
        dense = T.to_dense()
        d = T.symbol[0]
        rng = np.random.default_rng(6)
        x = rng.standard_normal(30)
        b = rng.standard_normal(30)
        got = cf_jacobi_sweep(T, x, b)
        want = x.copy()
        for grp in "FCF":
            r = b - dense @ want
            s = slice(0, None, 2) if grp == "F" else slice(1, None, 2)
            want[s] += r[s] / d
        assert np.allclose(got, want, rtol=1e-13)
        # a residual handed in replaces the first pass's product
        r = b - T.matvec(x)
        assert np.array_equal(cf_jacobi_sweep(T, x, b, r=r), got)
        # the dense matrix is an operator with a diagonal too
        assert np.allclose(cf_jacobi_sweep(dense, x, b), got, rtol=1e-13)

    def test_rejects_nonpositive_diagonal(self):
        T = SymToeplitz(np.array([-1.0, 0.2, 0.1, 0.0]))
        for A in (T, T.to_dense()):
            with pytest.raises(ValueError):
                cf_jacobi_sweep(A, np.zeros(4), np.ones(4))

    def test_input_left_untouched(self):
        T = spd_toeplitz(10, seed=7)
        x = np.ones(10)
        cf_jacobi_sweep(T, x, np.zeros(10))
        assert np.array_equal(x, np.ones(10))


class TestCg:
    def test_solves_to_tolerance(self):
        T = spd_toeplitz(200, seed=9)
        rng = np.random.default_rng(10)
        b = rng.standard_normal(200)
        x, rep = cg_solve(T, b, tol=1e-12)
        assert rep.converged and rep.reason == "converged"
        assert np.linalg.norm(b - T.matvec(x)) <= 1e-11 * np.linalg.norm(b)
        want = scipy.linalg.solve(T.to_dense(), b)
        assert np.allclose(x, want, rtol=1e-8)

    def test_zero_rhs_short_circuits(self):
        T = spd_toeplitz(16, seed=11)
        x, rep = cg_solve(T, np.zeros(16))
        assert rep.iterations == 0 and rep.converged
        assert np.array_equal(x, np.zeros(16))

    def test_warm_start_helps(self):
        T = spd_toeplitz(128, seed=12)
        b = np.sin(np.arange(128))
        x, rep_cold = cg_solve(T, b, tol=1e-12)
        _, rep_warm = cg_solve(T, b, tol=1e-12, x0=x)
        assert rep_warm.iterations <= 1

    def test_maxit_reported_honestly(self):
        T = spd_toeplitz(128, seed=13)
        b = np.ones(128)
        _, rep = cg_solve(T, b, tol=1e-15, maxit=1)
        assert not rep.converged and rep.iterations == 1
        assert rep.reason == "maxit"
        with pytest.raises(ValueError):
            cg_solve(T, b, tol=0.0)

    def test_breakdown_is_reported(self):
        # A negative diagonal gives p.Ap < 0 at the first step.
        T = SymToeplitz(np.array([-4.0, 1.0, 0.5, 0.25]))
        x, rep = cg_solve(T, np.ones(4))
        assert rep.converged is False and rep.reason == "breakdown"
        assert rep.iterations == 0 and not np.any(x)
        assert rep.final_relres == 1.0

    @pytest.mark.parametrize("m", [16, 64, 128])
    def test_rounding_floor_is_reported_not_claimed(self, m):
        # At tol 1e-300 the recurrence residual underflows (M = 16, 64)
        # or p.Ap does (M = 128); neither may end in a claim or a raise.
        T, b = first_step_set1(m)
        x, rep = cg_solve(T, b, tol=1e-300, maxit=1000)
        assert rep.converged is False
        assert rep.iterations == 1000
        assert rep.final_relres == true_relres(T, x, b)

    def test_converged_means_true_residual_meets_tol(self):
        # The recurrence residual reaches 1e-12 here while the true one
        # is still above it.
        T, b = first_step_set1(4096)
        x, rep = cg_solve(T, b, tol=1e-12)
        if rep.converged:
            assert true_relres(T, x, b) <= 1e-12

    def test_underflowing_rhs_norm_is_not_claimed(self):
        # ||b|| underflows to 0 although b does not.  The solve is of the
        # scaled system, so a claim of convergence must hold there, and a
        # warm start must not raise.
        T = spd_toeplitz(32, seed=18)
        b = np.full(32, 1e-200)
        for x0 in (None, np.ones(32)):
            with np.errstate(all="ignore"):
                x, rep = cg_solve(T, b, x0=x0)
                relres = scale_free_relres(T, x, b)
            assert rep.converged == (rep.reason == "converged")
            if rep.converged:
                assert relres <= 1e-12
            if x0 is None:
                assert rep.converged


@st.composite
def dominant_symbol(draw):
    """A random strictly diagonally dominant symbol, so the matrix is SPD."""
    m = draw(st.integers(2, 255))
    seed = draw(st.integers(0, 2**32 - 1))
    t = np.random.default_rng(seed).uniform(-1.0, 1.0, m)
    t[0] = 2.0 * np.abs(t[1:]).sum() + draw(st.floats(1e-3, 10.0))
    return t


class TestStoppingProperty:
    """For any tol > 0: no exception, converged only when the true relres,
    recomputed free of scale, meets tol, and final_relres is that
    recomputed value."""

    @settings(max_examples=40, deadline=None)
    @given(t=dominant_symbol(), scale=st.integers(-300, 300),
           tol=st.floats(1e-300, 1e-2), warm=st.booleans(),
           solver=st.sampled_from(["cg", "amg"]),
           seed=st.integers(0, 2**32 - 1))
    def test_converged_means_true_relres_meets_tol(self, t, scale, tol, warm,
                                                   solver, seed):
        T = SymToeplitz(t)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(T.m) * 10.0 ** scale
        x0 = rng.standard_normal(T.m) if warm else None
        with np.errstate(all="ignore"):
            if solver == "cg":
                x, rep = cg_solve(T, b, tol=tol, maxit=300, x0=x0)
            else:
                x, rep = amg_solve(setup(T), b, tol=tol, maxit=30, x0=x0)
            relres = scale_free_relres(T, x, b)
        assert rep.reason in ("converged", "nonfinite", "maxit", "breakdown")
        assert rep.converged == (rep.reason == "converged")
        if rep.converged:
            assert relres <= tol
        assert rep.final_relres == relres or (np.isnan(relres)
                                              and np.isnan(rep.final_relres))


class TestLu:
    def test_roundtrip_matches_scipy(self):
        A = spd_toeplitz(12, seed=14).to_dense()
        b = np.arange(12.0)
        assert np.allclose(dense_solve(A, b), scipy.linalg.solve(A, b),
                           rtol=1e-10)

    def test_factor_reuse(self):
        A = spd_toeplitz(9, seed=15).to_dense()
        lu = lu_nopivot(A)
        for seed in (16, 17):
            b = np.random.default_rng(seed).standard_normal(9)
            assert np.allclose(A @ lu_solve_nopivot(lu, b), b, rtol=1e-10)

    def test_zero_pivot_raises(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular, pivot cancels
        with pytest.raises(ZeroDivisionError):
            lu_nopivot(A)
