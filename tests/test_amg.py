"""Hierarchy construction, transfer operators, and the multigrid solves."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

import mtfade.amg

from mtfade import (FractionalOrders, SymToeplitz, TimePolicy, amg_solve,
                    cg_solve, cg_switch, galerkin_symbol, interp_apply,
                    make_example_1, make_mesh, restrict_apply, setup,
                    step_matrix, two_level_solve, vcycle)
from mtfade.amg import AdaptiveSolver, TwoLevelV01, coarse_solve
from mtfade.assembly import initial_state, rhs_vector
from mtfade.camg_dense import DenseAmg
from mtfade.solvers import (COARSEST_MAX, _stride2_sweep, lu_nopivot,
                            lu_solve_nopivot, norm2)
from mtfade.toeplitz import DENSE_MATVEC_CUTOFF


def model_matrix(m=512, alphas=(0.9, 0.4), beta=0.3, gamma=0.8,
                 policy=TimePolicy.TAU_EQ_H):
    spec = make_example_1(
        FractionalOrders(alphas, (1.0,) * len(alphas), beta, gamma))
    mesh = make_mesh(spec, m, policy)
    return spec, mesh, step_matrix(spec, mesh, 1)


def first_step_system(m):
    spec, mesh, mats = model_matrix(m=m)
    b = rhs_vector(spec, mesh, initial_state(spec, mesh)[None], mats)
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
    return reference_cycle(h.matrices, b, x)


def reference_cycle(matrices, b, x):
    *smoothed, coarsest = matrices
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


# The V-cycle as it was before its fixed cost per call was cut: the
# sweep looks up the diagonal, the dense copy and its rows on every call
# and takes its residual through SymToeplitz.matvec, and a coarse level's
# zero guess is np.zeros_like.  The arithmetic is the same, so the fast
# cycle must equal it bitwise.

def per_call_sweep(A, x, b, r=None):
    d = A.symbol[0]
    if d <= 0:
        raise ValueError("Jacobi needs a positive diagonal")
    x = np.array(x, dtype=np.float64)
    w = 1.0 / d
    if A.m > DENSE_MATVEC_CUTOFF:
        return _stride2_sweep(A, x, b, r, w)
    dense = A.to_dense()
    if r is None:
        r = b - dense @ x
    rs = r[0::2]
    for k, s in enumerate((slice(0, None, 2), slice(1, None, 2),
                           slice(0, None, 2))):
        if k:
            rs = b[s] - dense[s] @ x
        x[s] += rs * w
    return x, lambda: b - A.matvec(x)


def per_call_cycle(h, b, x, r=None, j=0):
    if j == len(h.matrices) - 1:
        return coarse_solve(h, b)
    A = h.matrices[j]
    x, residual = per_call_sweep(A, x, b, r)
    coarse = restrict_apply(residual(), A.m)
    x += interp_apply(per_call_cycle(h, coarse, np.zeros_like(coarse),
                                     coarse, j + 1), A.m)
    return per_call_sweep(A, x, b)[0]


def loop_galerkin_symbol(fine_symbol):
    """galerkin_symbol as first written: one fancy-indexed pass per
    offset, the indices beyond the fine symbol masked out."""
    t = np.asarray(fine_symbol, dtype=np.float64)
    m = t.size
    mc = m // 2
    idx = 2 * np.arange(mc)
    s = np.zeros(mc)
    for off, c in ((-2, 0.25), (-1, 1.0), (0, 1.5), (1, 1.0), (2, 0.25)):
        j = np.abs(idx + off)
        ok = j < m
        s[ok] += c * t[j[ok]]
    return s


def reference_amg_solve(h, b, x, tol=1e-12, maxit=1000):
    A = h.matrices[0]
    bnorm = np.linalg.norm(b)
    for it in range(maxit + 1):
        if np.linalg.norm(b - A.matvec(x)) <= tol * bnorm:
            return x, it
        x = reference_vcycle(h, b, x)
    raise AssertionError("reference solve did not converge")


def checked_amg_solve(h, b, x0=None, tol=1e-12, maxit=1000):
    """amg_solve as it was before the cycle handed back its residual:
    vcycle iterated with a full A.matvec check before every cycle.
    Returns x, the iteration count and the last check's relres."""
    A = h.matrices[0]
    x = np.zeros(A.m) if x0 is None else x0
    bnorm = norm2(b)
    for it in range(maxit + 1):
        r = b - A.matvec(x)
        relres = norm2(r) / bnorm
        if relres <= tol:
            return x, it, relres
        x = vcycle(h, b, x, r)[0]
    raise AssertionError("checked solve did not converge")


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
        with pytest.raises(ValueError):  # vectors only, no blocks
            interp_apply(np.zeros((3, 2)), 7)
        with pytest.raises(ValueError):
            restrict_apply(np.zeros((7, 2)), 7)


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

    def test_matches_loop_form(self):
        sizes = list(range(3, 41)) + [2 ** k - 1 for k in range(2, 16)]
        for m in sizes:
            t = np.random.default_rng(m).standard_normal(m)
            got, want = galerkin_symbol(t), loop_galerkin_symbol(t)
            assert got.shape == want.shape == (m // 2,)
            scale = np.abs(t).max()
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * scale

    def test_minimum_symbol_length(self):
        with pytest.raises(ValueError):
            galerkin_symbol(np.array([1.0, 0.5]))


class TestSetup:
    def test_level_counts_and_storage(self):
        # M - 1 = 2^k - 1 unknowns halve to 2^(k-1) - 1 down to 15.  At
        # M = 8 and 16 the finest matrix is the coarsest: there is no
        # smoothing level, and one cycle is a direct solve.
        for m in (8, 16, 64, 512, 32768):
            A, b = first_step_system(m)
            h = setup(A)
            k = m.bit_length() - 1
            sizes = [2 ** j - 1 for j in range(k, 3, -1)] or [m - 1]
            assert [T.m for T in h.matrices] == sizes
            assert h.n_levels == max(k - 3, 1)
            assert h.stored_entries == sum(sizes) <= 2 * m
            if m <= 16:
                x, rep = amg_solve(h, b, tol=1e-300, maxit=1)
                assert rep.iterations == 1
                want = np.linalg.solve(A.to_dense(), b)
                assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)

    def test_dropped_hierarchy_dies_without_the_collector(self):
        # The FFT levels' stride-2 spectra are built on first use, held by
        # their matrix alone and refer to nothing back: set-up builds none,
        # and once a solve has built them, dropping the hierarchy frees its
        # coarse matrices by reference counting, with no cycle for the
        # garbage collector to find.  At M = 2048 three levels use them.
        A, b = first_step_system(2048)
        enabled = gc.isenabled()
        gc.disable()
        try:
            h = setup(A)
            assert all(T._half is None for T in h.matrices)
            _, rep = amg_solve(h, b)
            assert rep.converged
            fft = [T for T in h.matrices if T.m > DENSE_MATVEC_CUTOFF]
            assert len(fft) == 3 and all(T._half is not None for T in fft)
            coarse = [weakref.ref(T) for T in h.matrices[1:]]
            del h, fft
            assert all(ref() is None for ref in coarse)
        finally:
            if enabled:
                gc.enable()

    # coarse_solve applies the coarsest matrix's inverse through its
    # Cholesky factor.  8 and 16: the finest level is the coarsest; from
    # 32 on the coarsest has 15 unknowns.
    @pytest.mark.parametrize("m", [8, 16, 32, 64, 256, 4096])
    def test_coarsest_inverse(self, m):
        A, _ = first_step_system(m)
        h = setup(A)
        C = h.matrices[-1]
        assert C.m == min(m - 1, COARSEST_MAX)
        factor = h.coarsest_chol
        assert np.array_equal(factor, np.triu(factor))
        assert np.abs(factor.T @ factor - C.to_dense()).max() <= (
            1e-14 * C.symbol[0])
        rng = np.random.default_rng(m)
        for b in (rng.standard_normal(C.m), np.ones(C.m)):
            want = np.linalg.solve(C.to_dense(), b)
            got = coarse_solve(h, b)
            assert np.linalg.norm(got - want) <= (
                1e-13 * np.linalg.norm(want))

    def test_rejects_a_coarsest_matrix_that_is_not_positive_definite(self):
        # Symmetric, nonsingular and with a positive diagonal, but with a
        # negative eigenvalue: 1 - 2 * 0.9 < 0 for the vector (1, -1, 1).
        T = SymToeplitz(np.array([1.0, 0.9, 0.0]))
        assert np.linalg.det(T.to_dense()) != 0
        assert np.linalg.eigvalsh(T.to_dense())[0] < 0
        with pytest.raises(np.linalg.LinAlgError):
            setup(T)
        with pytest.raises(np.linalg.LinAlgError):
            DenseAmg(T.to_dense())

    # The constant is shared, so the dense oracle stops on the same size.
    @pytest.mark.parametrize("m", [16, 64, 512])
    def test_same_coarsest_size_as_the_dense_oracle(self, m):
        A, _ = first_step_system(m)
        h = setup(A)
        C = h.matrices[-1]
        assert DenseAmg(A.to_dense()).matrices[-1].shape == (C.m, C.m)
        b = np.random.default_rng(m).standard_normal(C.m)
        want = np.linalg.solve(C.to_dense(), b)
        got = coarse_solve(h, b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            setup(SymToeplitz(np.array([-1.0, 0.5, 0.1, 0.0])))

    @pytest.mark.parametrize("t0", [0.0, np.nan, np.inf])
    def test_rejects_a_zero_or_nonfinite_diagonal(self, t0):
        symbol = first_step_system(64)[0].symbol.copy()
        symbol[0] = t0
        with pytest.raises(ValueError, match="positive and finite"):
            setup(SymToeplitz(symbol))

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
        want = lu_solve_nopivot(lu_nopivot(A.to_dense()), b)
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
        e = vcycle(h, b, e)[0]
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
            got = vcycle(h, b, x, r)[0]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        x_ref, it_ref = reference_amg_solve(h, b, x)
        got, rep = amg_solve(h, b, tol=1e-12, x0=x)
        assert rep.converged and rep.iterations == it_ref
        assert np.linalg.norm(got - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    # 64 and 256: every level has a dense copy; at 1024 the finest level
    # sweeps on the stride-2 spectra.
    @pytest.mark.parametrize("m", [64, 256, 1024])
    def test_equals_the_per_call_cycle_bitwise(self, m):
        A, b = first_step_system(m)
        h = setup(A)
        x0 = np.random.default_rng(m).standard_normal(A.m)
        for x, r in ((x0, b - A.matvec(x0)), (x0, None), (np.zeros(A.m), b),
                     (np.zeros(A.m), None)):
            assert np.array_equal(vcycle(h, b, x, r)[0],
                                  per_call_cycle(h, b, x, r))

    # 256: every level has a dense copy, whose post-sweep residual is the
    # check's product itself; at 1024 and 4096 the finest levels sweep on
    # the stride-2 spectra, whose residual rounds differently from the
    # full circulant's product.
    @pytest.mark.parametrize("m", [256, 1024, 4096])
    def test_matches_the_loop_with_a_full_product_check(self, m):
        A, b = first_step_system(m)
        h = setup(A)
        warm = np.random.default_rng(m).standard_normal(A.m)
        for x0 in (None, warm):
            want, it, relres = checked_amg_solve(h, b, x0)
            got, rep = amg_solve(h, b, tol=1e-12, x0=x0)
            assert rep.converged and rep.iterations == it
            if m <= DENSE_MATVEC_CUTOFF:
                assert np.array_equal(got, want)
                assert rep.final_relres == relres
            else:
                assert (np.linalg.norm(got - want)
                        <= 1e-13 * np.linalg.norm(want))
            # Two roundings of b - A x differ by at most the product's,
            # eps ||A|| ||x|| / ||b||: 1.2e-13 at M = 1024 and 3.1e-13 at
            # 4096 on this b, near the rounding floor, where they were
            # measured 3e-15 and 2.6e-14 apart.
            floor = (np.finfo(np.float64).eps * 2 * np.abs(A.symbol).sum()
                     * norm2(got) / norm2(b))
            true = norm2(b - A.matvec(got)) / norm2(b)
            assert abs(rep.final_relres - true) <= floor

    @pytest.mark.parametrize("m", [1024, 4096])
    def test_reports_the_relres_of_a_full_product(self, m):
        # b = A u for a perturbed smooth u, as the benchmark's large
        # solves take it: the report's relres, from the finest
        # post-sweep's residual on the half pad, is the full product's.
        A, _ = first_step_system(m)
        h = setup(A)
        rng = np.random.default_rng(m)
        u = np.sin(np.pi * np.arange(1, A.m + 1) / (A.m + 1))
        b = A.matvec(u * (1.0 + 0.1 * rng.standard_normal(A.m)))
        for x0 in (None, rng.standard_normal(A.m)):
            x, rep = amg_solve(h, b, tol=1e-12, x0=x0)
            assert rep.converged
            true = norm2(b - A.matvec(x)) / norm2(b)
            assert abs(rep.final_relres - true) <= 1e-15

    def test_product_count(self, monkeypatch):
        # SymToeplitz.matvec calls in a solve: none from a zero start,
        # whose first check is b itself, and one, the first check, from a
        # warm start.  Every later check is the residual of the cycle's
        # finest post-sweep.  On a smoothed level with a dense copy
        # (m <= DENSE_MATVEC_CUTOFF) the sweeps' passes compute rows of
        # the cached dense copy, and the pre-sweep's residual, which the
        # cycle restricts, and the finest post-sweep's, the check, are
        # one product each with that copy; the coarsest solve is one
        # dpotrs call; so none of them calls matvec.  An FFT level makes
        # no matvec at all: its sweeps work on the stride-2 spectra, 15
        # transforms of the half pad P per cycle on the finest level (8
        # for the pre-sweep from the checked residual and its residual, 7
        # for the post-sweep) and 14 on a coarse level (the zero guess's
        # odd half is not transformed), and the check adds 3 on the
        # finest.  The first cycle of a solve from zero has a zero guess
        # on the finest level too.  Each smoothed level is swept twice.
        # No transform has the full pad 2P but the warm start's first
        # check.  At M = 256 every level has a dense copy; at 1024 the
        # two finest use the FFT.
        systems = [first_step_system(m) for m in (256, 1024)]
        hierarchies = [setup(A) for A, _ in systems]
        calls, swept, transforms = [], [], []
        matvec = SymToeplitz.matvec
        sweep = mtfade.amg.cf_jacobi_sweep
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def counted(self, x):
            calls.append(self.m)
            return matvec(self, x)

        def counted_sweep(A, *args):
            swept.append(A.m)
            return sweep(A, *args)

        def counted_fft(fft):
            def wrapper(a, n=None, **kwargs):
                transforms.append(n)
                return fft(a, n=n, **kwargs)
            return wrapper

        monkeypatch.setattr(SymToeplitz, "matvec", counted)
        monkeypatch.setattr(mtfade.amg, "cf_jacobi_sweep", counted_sweep)
        monkeypatch.setattr(np.fft, "rfft", counted_fft(rfft))
        monkeypatch.setattr(np.fft, "irfft", counted_fft(irfft))
        for (A, b), h in zip(systems, hierarchies):
            smoothed = [T.m for T in h.matrices[:-1]]
            # each FFT level's P >= m; asking for its stride-2 rows builds
            # the level's two spectra before the count starts
            pads = [1 << (T.m - 1).bit_length() for T in h.matrices[:-1]
                    if T.m > DENSE_MATVEC_CUTOFF]
            for T in h.matrices[:len(pads)]:
                T.stride2_rows()
            for x0, checks in ((None, 0), (b, 1)):
                calls.clear()
                swept.clear()
                transforms.clear()
                _, rep = amg_solve(h, b, tol=1e-12, x0=x0)
                it = rep.iterations
                assert rep.converged and it > 0
                assert calls == checks * [A.m]
                assert sorted(swept) == sorted(it * 2 * smoothed)
                want = {p: 14 * it for p in pads}
                if pads:
                    want[pads[0]] += 4 * it - (x0 is None)
                    if checks:
                        want[2 * pads[0]] = 2
                assert Counter(transforms) == want
            # No residual handed in: the finest pre-sweep computes its
            # F-rows first, from both halves' spectra unless x is zero;
            # residual() adds 3 transforms there, or one dense product.
            for x, finest in ((np.zeros(A.m), 15), (b, 17)):
                calls.clear()
                transforms.clear()
                _, residual = vcycle(h, b, x)
                if pads:
                    assert Counter(transforms)[pads[0]] == finest
                residual()
                assert not calls
                if pads:
                    assert Counter(transforms)[pads[0]] == finest + 3

    # 8: the cycle is the one-level direct solve; 256: every level has a
    # dense copy; 1024: the finest level uses the FFT product.
    @pytest.mark.parametrize("m", [8, 256, 1024])
    def test_leaves_its_arguments_unchanged(self, m):
        A, b = first_step_system(m)
        h = setup(A)
        x = np.random.default_rng(m).standard_normal(A.m)
        r = b - A.matvec(x)
        before = [v.copy() for v in (b, x, r)]
        for given in (r, None):
            vcycle(h, b, x, given)[1]()
        for v, w in zip((b, x, r), before):
            assert np.array_equal(v, w)

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
        want = lu_solve_nopivot(lu_nopivot(A.to_dense()), b)
        assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)

    def test_zero_rhs(self):
        _, _, mats = model_matrix(m=64)
        x, rep = two_level_solve(mats.a_full, np.zeros(mats.a_full.m))
        assert rep.iterations == 0 and np.all(x == 0.0)

    def test_block_apply_matches_vector_applies(self):
        _, _, mats = model_matrix(m=64)
        cyc = TwoLevelV01(mats.a_full)
        rng = np.random.default_rng(20)
        B, X = rng.standard_normal((2, mats.a_full.m, 4))
        got = cyc.apply(B, X)
        want = np.column_stack([cyc.apply(b, x) for b, x in zip(B.T, X.T)])
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


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
    u0 = initial_state(spec, mesh)[None]
    b = 1e-200 * rhs_vector(spec, mesh, u0, mats)
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


@pytest.mark.parametrize("k", [-160, -200])
def test_huge_warm_start_has_a_finite_residual_norm(k):
    # b = 10^k b0 with a warm start of ones: after iterate's scaling of b
    # to max|b| ~ 1, x0 is about 10^-k, so r.r overflows although r is
    # finite.  The multigrid solves it, and so does CG, whose every
    # restart solves for the correction with r scaled by a power of two.
    spec, mesh, mats = model_matrix(m=64)
    A = mats.a_full
    u0 = initial_state(spec, mesh)[None]
    b = 10.0 ** k * rhs_vector(spec, mesh, u0, mats)
    x0 = np.ones(A.m)
    for solver in ("amg", "cg"):
        x, rep = solve_with(solver, A, b, x0=x0)
        relres = scale_free_relres(A, x, b)
        assert rep.converged and relres <= 1e-12
        assert rep.final_relres == relres


@pytest.mark.parametrize("solver", ["cg", "amg", "two-level", "camg-dense"])
def test_nonpositive_tol_raises(solver):
    A, b = first_step_system(64)
    for tol in (0.0, -1e-12):
        with pytest.raises(ValueError, match="tolerance"):
            solve_with(solver, A, b, tol)
