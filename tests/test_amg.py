"""Hierarchy construction, transfer operators, and the multigrid solves."""

import numpy as np
import pytest

from mtfade import (FractionalOrders, SymToeplitz, TimePolicy, amg_solve,
                    cg_solve, cg_switch, galerkin_symbol, interp_apply,
                    make_example_1, make_mesh, restrict_apply, setup,
                    step_matrix, two_level_solve, vcycle)
from mtfade.amg import AdaptiveSolver
from mtfade.assembly import TimeHistory, rhs_vector
from mtfade.camg_dense import DenseAmg
from mtfade.solvers import dense_solve, lu_nopivot, lu_solve_nopivot


def model_matrix(m=512, alphas=(0.9, 0.4), beta=0.3, gamma=0.8,
                 policy=TimePolicy.TAU_EQ_H):
    spec = make_example_1(
        FractionalOrders(alphas, (1.0,) * len(alphas), beta, gamma))
    mesh = make_mesh(spec, m, policy)
    return spec, mesh, step_matrix(spec, mesh, 1)


def first_step_system(m):
    spec, mesh, mats = model_matrix(m=m)
    b = rhs_vector(spec, mesh, 1, TimeHistory.from_initial(spec, mesh), mats)
    return mats.a_full, b


# The V-cycle as first written, kept as the reference for the fast one:
# a full residual before every smoothing pass, products with the zero
# guess of the coarse levels, index-array transfers and a pivot-free
# coarsest solve.

def reference_interp(coarse, m_fine):
    fine = np.empty(m_fine)
    fine[1::2] = coarse
    ext = np.concatenate(([0.0], coarse, [0.0]))
    f_idx = np.arange(0, m_fine, 2)
    j = f_idx // 2
    fine[f_idx] = 0.5 * (ext[j] + ext[j + 1])
    return fine


def reference_restrict(fine, m_fine):
    ext = np.concatenate((fine, [0.0, 0.0]))
    j = np.arange(m_fine // 2)
    return ext[2 * j + 1] + 0.5 * (ext[2 * j] + ext[2 * j + 2])


def reference_sweep(T, x, b):
    x = np.array(x, dtype=np.float64)
    for grp in "FCF":
        r = b - T.matvec(x)
        s = slice(0, None, 2) if grp == "F" else slice(1, None, 2)
        x[s] += (1.0 / T.symbol[0]) * r[s]
    return x


def reference_vcycle(h, b, x):
    *smoothed, coarsest = h.matrices
    lu = lu_nopivot(coarsest.to_dense())
    xs, bs = [], []
    xk, bk = x, b
    for A in smoothed:
        xk = reference_sweep(A, xk, bk)
        r = bk - A.matvec(xk)
        xs.append(xk)
        bs.append(bk)
        bk = reference_restrict(r, A.m)
        xk = np.zeros(A.m // 2)
    xk = lu_solve_nopivot(lu, bk)
    for A, xf, bf in zip(reversed(smoothed), reversed(xs), reversed(bs)):
        xk = xf + reference_interp(xk, A.m)
        xk = reference_sweep(A, xk, bf)
    return xk


def reference_amg_solve(h, b, x, tol=1e-12, maxit=1000):
    A = h.matrices[0]
    bnorm = np.linalg.norm(b)
    for it in range(maxit + 1):
        if np.linalg.norm(b - A.matvec(x)) <= tol * bnorm:
            return x, it
        x = reference_vcycle(h, b, x)
    raise AssertionError("reference solve did not converge")


class TestTransfers:
    def test_interp_small_example(self):
        fine = interp_apply(np.array([2.0, 4.0, 6.0]), 7)
        assert np.allclose(fine, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 3.0])

    def test_adjointness(self):
        rng = np.random.default_rng(21)
        for m in (7, 8, 33, 100):
            xc = rng.standard_normal(m // 2)
            yf = rng.standard_normal(m)
            lhs = interp_apply(xc, m) @ yf
            rhs = xc @ restrict_apply(yf, m)
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_same_arithmetic_as_index_arrays(self):
        rng = np.random.default_rng(24)
        for m in (1, 2, 3, 4, 7, 8, 33, 100, 255):
            xc = rng.standard_normal(m // 2)
            yf = rng.standard_normal(m)
            assert np.array_equal(interp_apply(xc, m),
                                  reference_interp(xc, m))
            assert np.array_equal(restrict_apply(yf, m),
                                  reference_restrict(yf, m))

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            interp_apply(np.zeros(4), 7)
        with pytest.raises(ValueError):
            restrict_apply(np.zeros(6), 7)


class TestGalerkinSymbol:
    def interp_matrix(self, m):
        cols = [interp_apply(col, m) for col in np.eye(m // 2)]
        return np.array(cols).T

    @pytest.mark.parametrize("m", [33, 64, 127])
    def test_matches_dense_triple_product_interior(self, m):
        _, _, mats = model_matrix(m=m + 1)
        A = mats.a_full
        P = self.interp_matrix(A.m)
        dense_coarse = P.T @ A.to_dense() @ P
        sym_coarse = SymToeplitz(galerkin_symbol(A.symbol)).to_dense()
        scale = np.abs(dense_coarse).max()
        # the interior block agrees exactly; boundary rows/columns may
        # differ through the one-sided boundary interpolation
        assert np.allclose(sym_coarse[2:-2, 2:-2], dense_coarse[2:-2, 2:-2],
                           rtol=0, atol=1e-12 * scale)

    def test_minimum_symbol_length(self):
        with pytest.raises(ValueError):
            galerkin_symbol(np.array([1.0, 0.5]))


class TestSetup:
    def test_level_counts_and_storage(self):
        # M - 1 = 2^k - 1 unknowns halve to 2^(k-1) - 1 down to 7.  At
        # M = 8 the finest matrix is the coarsest: there is no smoothing
        # level, and one cycle is a direct solve.
        for m in (8, 64, 512, 32768):
            A, b = first_step_system(m)
            h = setup(A)
            k = m.bit_length() - 1
            sizes = [2 ** j - 1 for j in range(k, 2, -1)]
            assert [T.m for T in h.matrices] == sizes
            assert h.n_levels == k - 2
            assert h.stored_entries == sum(sizes) <= 2 * m
            if m == 8:
                x, rep = amg_solve(h, b, tol=1e-300, maxit=1)
                assert rep.iterations == 1
                want = np.linalg.solve(A.to_dense(), b)
                assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            setup(SymToeplitz(np.array([-1.0, 0.5, 0.1, 0.0])))

    def test_rejects_singular_coarsest_matrix(self):
        with pytest.raises(np.linalg.LinAlgError):
            setup(SymToeplitz(np.ones(4)))


class TestVcycleSolve:
    def test_amg_matches_dense_solution(self):
        _, _, mats = model_matrix(m=256)
        A = mats.a_full
        rng = np.random.default_rng(22)
        b = rng.standard_normal(A.m)
        h = setup(A)
        x, rep = amg_solve(h, b, tol=1e-12)
        assert rep.converged
        want = dense_solve(A.to_dense(), b)
        assert np.allclose(x, want, rtol=1e-8)

    def test_iteration_count_is_mesh_independent(self):
        counts = []
        for m in (128, 256, 512):
            _, _, mats = model_matrix(m=m)
            h = setup(mats.a_full)
            b = np.ones(mats.a_full.m)
            _, rep = amg_solve(h, b, tol=1e-12)
            assert rep.converged
            counts.append(rep.iterations)
        assert max(counts) - min(counts) <= 2
        assert max(counts) <= 12

    def test_single_cycle_contracts_error(self):
        _, _, mats = model_matrix(m=128)
        A = mats.a_full
        h = setup(A)
        rng = np.random.default_rng(23)
        e = rng.standard_normal(A.m)
        b = np.zeros(A.m)
        before = np.linalg.norm(e)
        e = vcycle(h, b, e)
        assert np.linalg.norm(e) < 0.2 * before

    # 16 and 256 keep every level below the dense matvec cutoff; at 1024
    # the finest level uses the FFT product.
    @pytest.mark.parametrize("m", [16, 256, 1024])
    def test_matches_reference_cycle(self, m):
        A, _ = first_step_system(m)
        h = setup(A)
        rng = np.random.default_rng(m)
        x = rng.standard_normal(A.m)
        b = rng.standard_normal(A.m)
        want = reference_vcycle(h, b, x)
        for r in (None, b - A.matvec(x)):
            got = vcycle(h, b, x, r)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        x_ref, it_ref = reference_amg_solve(h, b, x)
        got, rep = amg_solve(h, b, tol=1e-12, x0=x)
        assert rep.converged and rep.iterations == it_ref
        assert np.linalg.norm(got - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_product_count(self, monkeypatch):
        # One iteration: the check, three products per CF-Jacobi sweep
        # (two sweeps per level, the first pass of each pre-sweep reusing
        # a known residual) and one residual before restriction.
        A, b = first_step_system(256)
        h = setup(A)
        n_smooth = h.n_levels - 1
        calls = []
        matvec = SymToeplitz.matvec

        def counted(self, x):
            calls.append(self.m)
            return matvec(self, x)

        monkeypatch.setattr(SymToeplitz, "matvec", counted)
        _, rep = amg_solve(h, b, tol=1e-12)
        assert rep.converged and rep.iterations > 0
        assert len(calls) == rep.iterations * (6 * n_smooth + 1) + 1
        calls.clear()
        vcycle(h, b, np.zeros(A.m))
        assert len(calls) == 6 * n_smooth + 1

    def test_zero_rhs(self):
        _, _, mats = model_matrix(m=64)
        h = setup(mats.a_full)
        x, rep = amg_solve(h, np.zeros(mats.a_full.m))
        assert rep.iterations == 0 and np.all(x == 0.0)

    def test_rhs_shape_guard(self):
        _, _, mats = model_matrix(m=64)
        h = setup(mats.a_full)
        with pytest.raises(ValueError):
            vcycle(h, np.zeros(10), np.zeros(10))


class TestAdaptiveBranch:
    def test_switch_rule(self):
        spec, mesh_h, _ = model_matrix(m=64)
        # tau = h: large tau^alpha0 / h^(2 gamma) -> multigrid branch
        assert not cg_switch(spec, mesh_h.taus[0], mesh_h.h)
        # tau = h^2: the ratio is h^(2 alpha0 - 2 gamma) <= 1 -> CG branch
        mesh2 = make_mesh(spec, 64, TimePolicy.TAU_EQ_H2)
        assert cg_switch(spec, mesh2.taus[0], mesh2.h)

    def test_driver_picks_branch_and_reuses_hierarchy(self):
        spec, mesh, mats = model_matrix(m=128)
        driver = AdaptiveSolver(spec, mesh, mats)
        assert not driver.use_cg
        b = np.ones(mats.a_full.m)
        _, rep = driver.solve(b, tol=1e-12)
        assert rep.branch == "amg" and rep.converged
        first = driver.hierarchy
        driver.solve(b, tol=1e-12)
        assert driver.hierarchy is first  # setup ran once

    def test_forced_branch_and_one_shot(self):
        spec, mesh, mats = model_matrix(m=128)
        b = np.ones(mats.a_full.m)
        x_cg, rep_cg = AdaptiveSolver(spec, mesh, mats).solve(b, tol=1e-12)
        driver = AdaptiveSolver(spec, mesh, mats)
        x_f, rep_f = driver.solve(b, tol=1e-12, force="cg")
        assert rep_f.branch == "cg"
        assert np.allclose(x_cg, x_f, rtol=1e-9)
        with pytest.raises(ValueError):
            driver.solve(b, force="lobotomy")


class TestTwoLevelBaseline:
    def test_converges_and_matches_dense(self):
        _, _, mats = model_matrix(m=128)
        A = mats.a_full
        b = np.linspace(-1.0, 1.0, A.m)
        x, rep = two_level_solve(A, b, tol=1e-8)
        assert rep.converged
        want = dense_solve(A.to_dense(), b)
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)

    def test_zero_rhs(self):
        _, _, mats = model_matrix(m=64)
        x, rep = two_level_solve(mats.a_full, np.zeros(mats.a_full.m))
        assert rep.iterations == 0 and np.all(x == 0.0)


def solve_with(solver, A, b, tol=1e-12, x0=None):
    """One of the four solvers that share the iteration driver."""
    if solver == "cg":
        return cg_solve(A, b, tol, x0=x0)
    if solver == "amg":
        return amg_solve(setup(A), b, tol, x0=x0)
    if solver == "two-level":
        return two_level_solve(A, b, tol)
    return DenseAmg(A.to_dense()).solve(b, tol)


def scale_free_relres(A, x, b):
    """||b - A x|| / ||b|| after scaling b and x by the same power of two
    to max|b| in [1/2, 1), so that no norm underflows."""
    e = np.frexp(np.max(np.abs(b)))[1]
    bs, xs = np.ldexp(b, -e), np.ldexp(x, -e)
    return float(np.linalg.norm(bs - A.matvec(xs)) / np.linalg.norm(bs))


@pytest.mark.parametrize("solver", ["amg", "two-level", "camg-dense", "cg"])
def test_underflowing_rhs_norm_is_not_claimed(solver):
    # First-step system of example 1 at M = 64, b scaled by 1e-200: b is
    # nonzero but ||b|| underflows to 0.  The solve is of the scaled
    # system, so a claim of convergence must hold there.
    spec, mesh, mats = model_matrix(m=64)
    A = mats.a_full
    b = 1e-200 * rhs_vector(spec, mesh, 1,
                            TimeHistory.from_initial(spec, mesh), mats)
    assert np.any(b) and np.linalg.norm(b) == 0.0
    starts = (None, np.ones(A.m)) if solver in ("amg", "cg") else (None,)
    for x0 in starts:
        with np.errstate(all="ignore"):
            x, rep = solve_with(solver, A, b, x0=x0)
            relres = scale_free_relres(A, x, b)
        assert rep.converged == (rep.reason == "converged")
        if rep.converged:
            assert relres <= 1e-12
        if x0 is None:  # from a zero guess the tiny b is solved
            assert rep.converged


@pytest.mark.parametrize("k", [-150, -155, -158])
@pytest.mark.parametrize("solver", ["amg", "two-level", "camg-dense", "cg"])
def test_tiny_rhs_is_solved_with_its_true_relres(solver, k):
    # b = N(0,1) 10^k: r.r underflows long before r does, so a relres
    # computed without scaling reads 0 and claims a false convergence.
    A, _ = first_step_system(64)
    b = np.random.default_rng(-k).standard_normal(A.m) * 10.0 ** k
    x, rep = solve_with(solver, A, b)
    relres = scale_free_relres(A, x, b)
    assert rep.converged and relres <= 1e-12
    assert rep.final_relres == relres


@pytest.mark.parametrize("solver", ["cg", "amg", "two-level", "camg-dense"])
def test_nonpositive_tol_raises(solver):
    A, b = first_step_system(64)
    for tol in (0.0, -1e-12):
        with pytest.raises(ValueError, match="tolerance"):
            solve_with(solver, A, b, tol)
