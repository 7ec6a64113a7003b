"""The iteration driver, relaxation sweeps, conjugate gradients, and the
pivot-free LU."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mtfade import (FractionalOrders, SymToeplitz, TimePolicy, amg_solve,
                    cf_jacobi_sweep, cg_solve, make_example_1,
                    make_mesh, setup, step_matrix)
from mtfade.assembly import initial_state, rhs_vector
from mtfade.solvers import lu_nopivot, lu_solve_nopivot, norm2
from mtfade.toeplitz import DENSE_MATVEC_CUTOFF


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
    b = rhs_vector(spec, mesh, initial_state(spec, mesh)[None], mats)
    return mats.a_full, b


def true_relres(T, x, b):
    return float(scaled_norm(b - T.matvec(x)) / scaled_norm(b))


def scaled_norm(v):
    """np.linalg.norm of v scaled by the power of two of max|v|, scaled
    back: the plain norm wherever v.v neither overflows nor underflows,
    and finite for every finite v."""
    e = np.frexp(np.max(np.abs(v)))[1]
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e)


def scale_free_relres(T, x, b):
    """true_relres after scaling b and x by the same power of two to
    max|b| in [1/2, 1), so that no norm underflows or overflows for a
    b of any size."""
    e = np.frexp(np.max(np.abs(b)))[1]
    return true_relres(T, np.ldexp(x, -e), np.ldexp(b, -e))


def oracle_half_spectra(T):
    """(P, S_EE, S_EO) of T's stride-2 blocks, built as the sweep built
    them before SymToeplitz took over its products."""
    t, m = T.symbol, T.m
    pad = 1 << (m - 1).bit_length()
    n_even, n_odd = (m + 1) // 2, m // 2
    col = np.zeros(pad)
    col[:n_even] = t[0::2]
    col[pad - n_even + 1:] = t[2::2][::-1]
    s_ee = np.fft.rfft(col).real.copy()
    col[:] = 0.0
    col[:n_even] = t[np.abs(2 * np.arange(n_even) - 1)]
    col[pad - n_odd + 1:] = t[2 * n_odd - 1:2:-2]
    return pad, s_ee, np.fft.rfft(col)


def oracle_stride2_sweep(T, x, b, r, w):
    """The FFT sweep with its own spectra, pad, row counts and
    transforms, as it was written before SymToeplitz took over its
    products; the sweep must equal it bitwise."""
    pad, s_ee, s_eo = oracle_half_spectra(T)
    F, C = slice(0, None, 2), slice(1, None, 2)
    nf, nc = (T.m + 1) // 2, T.m // 2

    def spectrum(v):
        return np.fft.rfft(v, n=pad) if v.any() else 0.0

    def f_rows(xf, xc):
        return b[F] - np.fft.irfft(s_ee * xf + s_eo * xc, n=pad)[:nf]

    def c_rows(xf, xc):
        return b[C] - np.fft.irfft(s_eo.conj() * xf + s_ee * xc,
                                   n=pad)[:nc]

    xc = spectrum(x[C])
    x[F] += (f_rows(spectrum(x[F]), xc) if r is None else r[F]) * w
    xf = np.fft.rfft(x[F], n=pad)
    x[C] += c_rows(xf, xc) * w
    xc = np.fft.rfft(x[C], n=pad)
    x[F] += f_rows(xf, xc) * w

    def residual():
        xf = np.fft.rfft(x[F], n=pad)
        out = np.empty_like(x)
        out[F] = f_rows(xf, xc)
        out[C] = c_rows(xf, xc)
        return out
    return x, residual


class TestCfJacobi:
    def test_matches_dense_reference(self):
        T = spd_toeplitz(30, seed=5)
        dense = T.to_dense()
        d = T.symbol[0]
        rng = np.random.default_rng(6)
        x = rng.standard_normal(30)
        b = rng.standard_normal(30)
        got = cf_jacobi_sweep(T, x, b)[0]
        want = x.copy()
        for grp in "FCF":
            r = b - dense @ want
            s = slice(0, None, 2) if grp == "F" else slice(1, None, 2)
            want[s] += r[s] / d
        assert np.allclose(got, want, rtol=1e-13)
        # a residual handed in replaces the first pass's product
        r = b - T.matvec(x)
        assert np.array_equal(cf_jacobi_sweep(T, x, b, r=r)[0], got)
        # the dense matrix is an operator with a diagonal too
        assert np.allclose(cf_jacobi_sweep(dense, x, b)[0], got, rtol=1e-13)

    def test_rejects_nonpositive_diagonal(self):
        T = SymToeplitz(np.array([-1.0, 0.2, 0.1, 0.0]))
        for A in (T, T.to_dense()):
            with pytest.raises(ValueError):
                cf_jacobi_sweep(A, np.zeros(4), np.ones(4))

    @pytest.mark.parametrize("t0", [0.0, math.nan, math.inf])
    def test_rejects_a_zero_or_nonfinite_diagonal(self, t0):
        # a Toeplitz matrix with a dense copy, one on the stride-2
        # spectra, and dense arrays whose first or last diagonal entry
        # alone is bad
        t = spd_toeplitz(DENSE_MATVEC_CUTOFF + 1, seed=8).symbol.copy()
        t[0] = t0
        dense = spd_toeplitz(5, seed=9).to_dense()
        first, last = dense.copy(), dense.copy()
        first[0, 0] = last[-1, -1] = t0
        for A in (SymToeplitz(t[:4]), SymToeplitz(t), first, last):
            n = A.shape[0]
            with pytest.raises(ValueError, match="finite diagonal"):
                cf_jacobi_sweep(A, np.zeros(n), np.ones(n))

    def test_input_left_untouched(self):
        T = spd_toeplitz(10, seed=7)
        x = np.ones(10)
        cf_jacobi_sweep(T, x, np.zeros(10))
        assert np.array_equal(x, np.ones(10))

    # Above DENSE_MATVEC_CUTOFF the sweep works on the stride-2 spectra;
    # the per-row dense branch on the same matrix is its oracle.  Odd and
    # even sizes, one just above the cutoff, one just below a power of two.
    @pytest.mark.parametrize("m", [385, 386, 1023, 1024])
    def test_fft_sweep_matches_the_dense_sweep(self, m):
        T, _ = first_step_set1(m + 1)
        assert T.m == m > DENSE_MATVEC_CUTOFF
        dense = T.to_dense()
        rng = np.random.default_rng(m)
        b = rng.standard_normal(m)

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

        # a warm x with and without its residual, and a zero guess (x = 0,
        # r = b, as on a coarse level), whose odd half is not transformed
        x = rng.standard_normal(m)
        for x, r in ((x, None), (x, b - T.matvec(x)),
                     (np.zeros(m), None), (np.zeros(m), b)):
            want, want_residual = cf_jacobi_sweep(dense, x, b, r)
            got, residual = cf_jacobi_sweep(T, x, b, r)
            assert close(got, want)
            r_after = residual()
            assert close(r_after, want_residual())
            assert close(r_after, b - T.matvec(got))


    @pytest.mark.parametrize("m", [385, 386, 511, 1023, 4095])
    def test_fft_sweep_is_the_oracle_bitwise(self, m):
        T, b = first_step_set1(m + 1)
        assert T.dense_rows() is None
        x = np.random.default_rng(m).standard_normal(m)
        for x in (x, np.zeros(m)):
            for r in (None, b - T.matvec(x)):
                got, residual = cf_jacobi_sweep(T, x, b, r)
                want, want_residual = oracle_stride2_sweep(
                    T, x.copy(), b, r, 1.0 / T.symbol[0])
                assert np.array_equal(got, want)
                assert np.array_equal(residual(), want_residual())


class TestNorm2:
    def test_is_the_plain_norm_where_squares_fit(self):
        v = np.random.default_rng(14).standard_normal(100)
        for scale in (1e-150, 1.0, 1e150):
            assert norm2(scale * v) == np.linalg.norm(scale * v)

    def test_huge_vector_has_a_finite_norm(self):
        v = np.random.default_rng(15).standard_normal(100)
        want = 1e200 * np.linalg.norm(v)
        assert norm2(1e200 * v) == pytest.approx(want, rel=1e-14)
        assert norm2(np.full(4, 1e300)) == pytest.approx(2e300, rel=1e-15)
        assert norm2(np.full(4, 1e308)) == np.inf

    def test_nonfinite_entries_give_a_nonfinite_norm(self):
        assert norm2(np.array([1e200, np.inf])) == np.inf
        assert np.isnan(norm2(np.array([1e200, np.nan])))
        assert np.isnan(norm2(np.array([1.0, np.nan])))

    def test_views_and_other_dtypes_are_taken_in_double(self):
        # A float32 v is summed in float64, where np.linalg.norm(v) would
        # sum it in float32; an empty v has norm 0.
        v = 1e3 * np.random.default_rng(16).standard_normal(301)
        for w in (v[::3], v[300:0:-7], v[5:200:2], v.astype(np.float32),
                  v[1::2].astype(np.float32), v.astype(np.int64),
                  v[::-2].astype(np.int32), v[:0]):
            assert norm2(w) == np.linalg.norm(w.astype(np.float64))

    def test_overflow_and_nonfinite_entries_raise_no_warning(self):
        v = np.random.default_rng(15).standard_normal(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm2(1e200 * v) == pytest.approx(
                1e200 * np.linalg.norm(v), rel=1e-14)
            assert norm2(np.full(4, 1e300)) == pytest.approx(2e300,
                                                             rel=1e-15)
            assert norm2(np.full(4, 1e308)) == np.inf
            assert norm2(np.array([1e200, np.inf])) == np.inf
            assert np.isnan(norm2(np.array([1e200, np.nan])))


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
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                cg_solve(T, b, tol=tol)

    @pytest.mark.parametrize("m", [31, DENSE_MATVEC_CUTOFF + 116])
    def test_product_count(self, monkeypatch, m):
        # A warm-started call that converges in k iterations of one
        # restart makes k + 2 products with T: one per iteration, and
        # iterate()'s checks before and after; a product taken through a
        # patched SymToeplitz.matvec is seen, as the benchmark's trace
        # sees it.
        T = spd_toeplitz(m, seed=17)
        rng = np.random.default_rng(18)
        x = rng.standard_normal(m)
        b = T.matvec(x)
        calls = []
        matvec = SymToeplitz.matvec

        def counted(self, v):
            calls.append(self)
            return matvec(self, v)

        monkeypatch.setattr(SymToeplitz, "matvec", counted)
        for scale in (1e-2, 1e-6, 1e-10):
            calls.clear()
            x0 = x + scale * rng.standard_normal(m)
            _, rep = cg_solve(T, b, tol=1e-12, x0=x0)
            assert rep.converged and rep.iterations > 0
            assert len(calls) == rep.iterations + 2
            assert all(c is T for c in calls)

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

    @pytest.mark.parametrize("scale", [1e-100, 1e-150])
    def test_far_warm_start_converges(self, scale):
        # x0 = ones is ~1e100 times the solution, so the true residual
        # stalls near eps ||r0|| while the recurrence residual keeps
        # falling; only a restart from the true residual gets below it.
        T, b = first_step_set1(64)
        b = scale * b
        x, rep = cg_solve(T, b, tol=1e-12, x0=np.ones(T.m))
        assert rep.converged
        assert scale_free_relres(T, x, b) <= 1e-12


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
        assert np.allclose(lu_solve_nopivot(lu_nopivot(A), b),
                           scipy.linalg.solve(A, b), rtol=1e-10)

    def test_factor_reuse(self):
        A = spd_toeplitz(9, seed=15).to_dense()
        lu = lu_nopivot(A)
        for seed in (16, 17):
            b = np.random.default_rng(seed).standard_normal(9)
            assert np.allclose(A @ lu_solve_nopivot(lu, b), b, rtol=1e-10)

    def test_block_matches_column_solves(self):
        A = spd_toeplitz(11, seed=18).to_dense()
        lu = lu_nopivot(A)
        B = np.random.default_rng(19).standard_normal((11, 4))
        got = lu_solve_nopivot(lu, B)
        want = np.column_stack([lu_solve_nopivot(lu, b) for b in B.T])
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-14 * np.abs(want).max())

    def test_zero_pivot_raises(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular, pivot cancels
        with pytest.raises(ZeroDivisionError):
            lu_nopivot(A)
