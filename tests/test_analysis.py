"""Matrix classification, extremal eigenvalues, and contraction factors."""

import numpy as np
import pytest
import scipy.linalg

from mtfade import (FractionalOrders, TimePolicy, analysis, beta0,
                    class_conditions, classify, kappa_ratio_table,
                    make_example_1, make_mesh, spectrum, step_matrix,
                    stiffness_symbol, two_level_contraction)
from mtfade.camg_dense import direct_interp
from mtfade.toeplitz import SymToeplitz

# Root of 3^(3-2b) - 2^(5-2b) + 7 in (0, 1/2), 40-digit arithmetic.
# Note the same expression also vanishes at exactly b = 1/2, so the
# bracketing below must stay strictly inside the interval.
BETA0_REF = 0.23737706619407098885


def model(m, alphas=(0.9, 0.4), beta=0.3, gamma=0.8,
          policy=TimePolicy.TAU_EQ_H):
    spec = make_example_1(
        FractionalOrders(alphas, (1.0,) * len(alphas), beta, gamma))
    mesh = make_mesh(spec, m, policy)
    return spec, mesh, step_matrix(spec, mesh, 1)


class TestBeta0:
    def test_reference_value(self):
        assert beta0() == pytest.approx(BETA0_REF, abs=1e-13)

    def test_is_a_sign_change(self):
        f = lambda b: 3.0 ** (3 - 2 * b) - 2.0 ** (5 - 2 * b) + 7.0
        b0 = beta0()
        assert f(b0 - 1e-6) * f(b0 + 1e-6) < 0
        assert 0.23 < b0 < 0.25

    def test_cached(self):
        assert beta0() is beta0() or beta0() == beta0()


class TestClassify:
    def test_advection_pattern_flips_at_beta0(self):
        below = classify(stiffness_symbol(0.15, 64, 1 / 64))
        above = classify(stiffness_symbol(0.3, 64, 1 / 64))
        assert below.offdiag_pattern == "first-offdiag-nonnegative"
        assert above.offdiag_pattern == "all-negative"

    def test_step_matrix_is_m_matrix_for_tau_eq_h(self):
        for alphas, beta, gamma in [((0.9, 0.4), 0.3, 0.8),
                                    ((0.5, 0.2), 0.3, 0.8),
                                    ((0.7, 0.5), 0.15, 0.95)]:
            _, mesh, mats = model(128, alphas, beta, gamma)
            rep = classify(mats.a_full)
            assert rep.diag_positive
            assert rep.diagonally_dominant
            assert rep.row_sums_positive

    def test_row_sum_bounds_for_diffusion_block(self):
        _, mesh, _ = model(64)
        rep = classify(stiffness_symbol(0.8, mesh.m, mesh.h), mu=0.8,
                       h=mesh.h)
        assert rep.m_matrix
        assert rep.row_sum_bounds_hold is True

    def test_row_sum_bounds_checked_on_every_row(self):
        # moving half of t0 from lag m-2 to lag m-1 leaves rows 0, m/2
        # and m-1 inside their bounds, but rows 1 and m-2 sum to -6.63
        t = stiffness_symbol(0.8, 64, 1 / 64).symbol.copy()
        t[-2] -= 0.5 * t[0]
        t[-1] += 0.5 * t[0]
        rep = classify(SymToeplitz(t), mu=0.8, h=1 / 64)
        assert rep.row_sum_bounds_hold is False

    def test_bounds_skipped_on_coarse_mesh(self):
        rep = classify(stiffness_symbol(0.8, 4, 0.25), mu=0.8, h=0.25)
        assert rep.row_sum_bounds_hold is None

    @pytest.mark.parametrize("symbol, dominant", [
        # row off-diagonal sums 1.7, 2.4, 2.4, 1.7, though 2 sum |t_k| = 3.4
        ((3.0, -1.0, -0.4, -0.3), True),
        ((2.0, -1.0, -0.4, -0.3), False),  # row 1's sum is 2.4
    ])
    def test_dominance_is_per_row(self, symbol, dominant):
        rep = classify(SymToeplitz(np.array(symbol)))
        assert rep.diagonally_dominant is dominant

    def test_dominance_matches_the_dense_definition(self):
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(200):
            m = int(rng.integers(1, 12))
            t = rng.standard_normal(m)
            t[0] = rng.uniform(0.5, 2.0) * np.abs(t[1:]).sum()
            dense = SymToeplitz(t).to_dense()
            off = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
            want = bool(np.all(np.abs(np.diag(dense)) > off))
            assert classify(SymToeplitz(t)).diagonally_dominant is want
            seen.add(want)
        assert seen == {True, False}


class TestClassConditions:
    def test_class1_holds_above_beta0(self):
        spec, mesh, _ = model(128, beta=0.3)
        class1, class2 = class_conditions(spec, mesh)
        assert class1 and not class2

    def test_class2_takes_over_below_beta0(self):
        spec, mesh, _ = model(128, alphas=(0.7, 0.5), beta=0.15, gamma=0.95)
        class1, class2 = class_conditions(spec, mesh)
        assert not class1
        assert class2

    def test_either_class_implies_m_matrix(self):
        for alphas, beta, gamma in [((0.9, 0.4), 0.3, 0.8),
                                    ((0.7, 0.5), 0.15, 0.95)]:
            spec, mesh, mats = model(256, alphas, beta, gamma)
            class1, class2 = class_conditions(spec, mesh)
            if class1 or class2:
                assert classify(mats.a_full).m_matrix


class TestSpectrum:
    def test_dense_branch(self):
        _, _, mats = model(64)
        rep = spectrum(mats.a_full)
        assert rep.method == "dense"
        assert 0 < rep.lambda_min < rep.lambda_max
        dense = mats.a_full.to_dense()
        w = np.linalg.eigvalsh(dense)
        assert rep.lambda_min == pytest.approx(w[0], rel=1e-10)
        assert rep.lambda_max == pytest.approx(w[-1], rel=1e-10)

    def test_iterative_branch_agrees_with_dense(self, monkeypatch):
        _, _, mats = model(300)
        dense_rep = spectrum(mats.a_full)
        monkeypatch.setattr(analysis, "EIG_DENSE_CAP", 100)
        iter_rep = spectrum(mats.a_full, tol=1e-8)
        assert iter_rep.method == "iterative"
        assert iter_rep.kappa == pytest.approx(dense_rep.kappa, rel=1e-4)

    @pytest.mark.parametrize("m", [300, 386, 392, 512])
    @pytest.mark.parametrize("alphas, beta, gamma", [
        ((0.9, 0.4), 0.3, 0.8), ((0.7, 0.5), 0.15, 0.95)])
    def test_iterative_branch_is_close_to_dense(self, monkeypatch, m, alphas,
                                                beta, gamma):
        _, _, mats = model(m, alphas, beta, gamma)
        want = spectrum(mats.a_full).kappa
        monkeypatch.setattr(analysis, "EIG_DENSE_CAP", 100)
        got = spectrum(mats.a_full, tol=1e-8)
        assert got.method == "iterative"
        assert got.kappa == pytest.approx(want, rel=1e-5)

    def test_lanczos_stops_exactly_on_an_invariant_space(self):
        # the start spans the eigenvectors of 3 and 6; after two steps
        # reorthogonalisation leaves only rounding in that span (1.8e-31)
        d = np.arange(1.0, 9.0)
        v = np.zeros(8)
        v[[2, 5]] = 1.0
        theta, move, lowest = analysis._lanczos_top(lambda x: d * x, v,
                                                    tol=0.0)
        assert theta == pytest.approx(6.0, rel=1e-14) and move == 0.0
        assert lowest == pytest.approx(3.0, rel=1e-14)

    def test_iterative_branch_on_a_multiple_of_the_identity(self,
                                                             monkeypatch):
        monkeypatch.setattr(analysis, "EIG_DENSE_CAP", 100)
        rep = spectrum(SymToeplitz(np.r_[2.0, np.zeros(499)]))
        assert rep.lambda_min == pytest.approx(2.0, rel=1e-14)
        assert rep.lambda_max == pytest.approx(2.0, rel=1e-14)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "_LANCZOS_MAXIT", 5)
        monkeypatch.setattr(analysis, "EIG_DENSE_CAP", 100)
        _, _, mats = model(300)
        with pytest.raises(RuntimeError, match="did not converge in 5 steps"):
            spectrum(mats.a_full)

    def test_deterministic(self, monkeypatch):
        monkeypatch.setattr(analysis, "EIG_DENSE_CAP", 100)
        _, _, mats = model(300)
        a = spectrum(mats.a_full)
        b = spectrum(mats.a_full)
        assert a.method == "iterative"
        assert a.kappa == b.kappa

    def test_dense_branch_rejects_an_indefinite_matrix(self):
        # eigenvalues 1 + 4 cos(k pi / 13): lambda_min is about -2.9, so
        # the dense branch would report kappa = -1.69
        with pytest.raises(np.linalg.LinAlgError,
                           match="not positive definite"):
            spectrum(SymToeplitz(np.r_[1.0, 2.0, np.zeros(10)]))

    def test_iterative_branch_rejects_an_indefinite_matrix(self,
                                                           monkeypatch):
        # the same matrix above the cap: Lanczos runs all 12 steps, and
        # its least Ritz value is then lambda_min, about -2.88, which
        # refuses the matrix before the inverse Lanczos's inner CG runs
        monkeypatch.setattr(analysis, "EIG_DENSE_CAP", 5)
        with pytest.raises(np.linalg.LinAlgError,
                           match="not positive definite"):
            spectrum(SymToeplitz(np.r_[1.0, 2.0, np.zeros(10)]))


class TestKappaTable:
    def test_ratio_chain(self):
        spec, _, _ = model(64)

        def mesh_for(m):
            return make_mesh(spec, m, TimePolicy.TAU_EQ_H)

        rows = kappa_ratio_table(spec, mesh_for, [32, 64, 128])
        assert rows[0]["ratio"] is None
        assert rows[1]["ratio"] == pytest.approx(
            rows[0]["kappa"] / rows[1]["kappa"], rel=1e-12)
        # kappa grows linearly with M under tau = h, so ratios < 1
        assert all(r["ratio"] < 1.0 for r in rows[1:])

    def test_single_row(self):
        spec, _, _ = model(64)
        rows = kappa_ratio_table(
            spec, lambda m: make_mesh(spec, m, TimePolicy.TAU_EQ_H), [32])
        assert len(rows) == 1 and rows[0]["ratio"] is None


class TestTwoLevelContraction:
    def test_uniform_contraction(self):
        for alphas, beta, gamma, cap in [((0.9, 0.4), 0.3, 0.8, 0.30),
                                         ((0.7, 0.5), 0.15, 0.95, 0.36)]:
            _, _, mats = model(256, alphas, beta, gamma)
            rho = two_level_contraction(mats.a_full)
            assert 0.0 < rho < cap

    @pytest.mark.parametrize("m", [64, 256])
    @pytest.mark.parametrize("alphas,beta,gamma", [((0.9, 0.4), 0.3, 0.8),
                                                  ((0.7, 0.5), 0.15, 0.95)])
    def test_is_the_spectral_radius_of_the_error_operator(self, m, alphas,
                                                          beta, gamma):
        # E = (I - L^-1 D)(I - P A_c^-1 P^T D), built densely here
        _, _, mats = model(m, alphas, beta, gamma)
        D = mats.a_full.to_dense()
        P = direct_interp(D).toarray()
        eye = np.eye(len(D))
        coarse = eye - P @ scipy.linalg.solve(P.T @ D @ P, P.T @ D)
        smooth = eye - scipy.linalg.solve_triangular(np.tril(D), D,
                                                     lower=True)
        want = np.max(np.abs(scipy.linalg.eigvals(smooth @ coarse)))
        assert two_level_contraction(mats.a_full) \
            == pytest.approx(want, rel=1e-10)
