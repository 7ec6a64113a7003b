"""End-to-end acceptance checks: one test (one pass/fail line) per claim.

Reference numbers and tolerances are pinned constants; measured
quantities come from full library runs, never from shortcuts.
"""

import functools
import time

import numpy as np
import pytest
import scipy.linalg

from mtfade import (FractionalOrders, SymToeplitz, TimePolicy, beta0,
                    cg_solve, classify, convergence_table, galerkin_symbol,
                    history_weight, interp_apply, make_example_1,
                    make_example_2, make_mesh, setup, spectrum, step_matrix,
                    two_level_solve)
from mtfade.amg import amg_solve
from mtfade.assembly import initial_state, rhs_vector
from mtfade.camg_dense import DenseAmg

SET1 = ((0.9, 0.4), 0.3, 0.8)          # alphas, beta, gamma
SET2 = ((0.7, 0.5), 0.15, 0.95)
TOL = 1e-12
BENCH_MAXIT = 1000


def problem(alphas, beta, gamma):
    return make_example_1(
        FractionalOrders(alphas, (1.0,) * len(alphas), beta, gamma))


def first_step_system(spec, m):
    mesh = make_mesh(spec, m, TimePolicy.TAU_EQ_H)
    mats = step_matrix(spec, mesh, 1)
    b = rhs_vector(spec, mesh, initial_state(spec, mesh)[None], mats)
    return mats, b


def test_manufactured_solution_converges_at_second_order():
    # Example problem 1, orders (0.5, 0.2, 0.3, 0.8), tau = h.
    want_err = [6.837e-2, 1.525e-2, 3.484e-3, 8.113e-4]
    want_rate = [2.165, 2.130, 2.102]
    spec = problem((0.5, 0.2), 0.3, 0.8)
    rows = convergence_table(spec, TimePolicy.TAU_EQ_H, [16, 32, 64, 128],
                             tol=TOL)
    errs = [r["l2_error"] for r in rows]
    rates = [r["rate_h"] for r in rows[1:]]
    for got, want in zip(errs, want_err):
        assert abs(got - want) <= 0.02 * want
    for got, want in zip(rates, want_rate):
        assert abs(got - want) <= 0.05


def test_large_diffusion_coefficient_keeps_second_order():
    # Example problem 2 with K1 = 5, K2 = 300, orders (0.7,0.4,0.3,0.85).
    want_err = [3.607e-2, 8.774e-3, 2.121e-3, 5.228e-4]
    spec = make_example_2(
        FractionalOrders((0.7, 0.4), (1.0, 1.0), 0.3, 0.85), 5.0, 300.0)
    rows = convergence_table(spec, TimePolicy.TAU_EQ_H, [16, 32, 64, 128],
                             tol=TOL)
    errs = [r["l2_error"] for r in rows]
    for got, want in zip(errs, want_err):
        assert abs(got - want) <= 0.03 * want
    for r in rows[1:]:
        assert 1.95 <= r["rate_h"] <= 2.10


def test_condition_number_grows_linearly_when_tau_tracks_h():
    want_kappa = [3.603e1, 6.316e1, 1.076e2, 1.801e2]
    want_ratio = [0.570, 0.587, 0.598]
    spec = problem(*SET1)
    kappas = []
    for m in (64, 128, 256, 512):
        mesh = make_mesh(spec, m, TimePolicy.TAU_EQ_H)
        kappas.append(spectrum(step_matrix(spec, mesh, 1).a_full).kappa)
    for got, want in zip(kappas, want_kappa):
        assert abs(got - want) <= 0.01 * want
    ratios = [a / b for a, b in zip(kappas, kappas[1:])]
    for got, want in zip(ratios, want_ratio):
        assert abs(got - want) <= 0.01


def test_condition_number_stays_bounded_when_tau_tracks_h_squared():
    want_kappa = [1.503, 1.382, 1.275, 1.190]
    spec = problem(*SET1)
    kappas = []
    for m in (32, 64, 128, 256):
        mesh = make_mesh(spec, m, TimePolicy.TAU_EQ_H2)
        kappas.append(spectrum(step_matrix(spec, mesh, 1).a_full).kappa)
    for got, want in zip(kappas, want_kappa):
        assert abs(got - want) <= 0.02 * want
        assert 1.1 <= got <= 1.6
    assert all(a >= b for a, b in zip(kappas, kappas[1:]))


def test_first_step_iteration_counts_match_references():
    # tau = h, tolerance 1e-12, zero initial guess, M in {512..4096}.
    sizes = (512, 1024, 2048, 4096)
    spec1 = problem(*SET1)
    spec2 = problem(*SET2)

    def iters(spec, m, solver, maxit=BENCH_MAXIT):
        mats, b = first_step_system(spec, m)
        if solver == "cg":
            _, rep = cg_solve(mats.a_full, b, tol=TOL, maxit=maxit)
        else:
            _, rep = amg_solve(setup(mats.a_full), b, tol=TOL, maxit=maxit)
        return rep

    # multigrid, first parameter set: within +-2 of [7, 8, 9, 9]
    got1 = [iters(spec1, m, "amg") for m in sizes]
    for rep, want in zip(got1, [7, 8, 9, 9]):
        assert rep.converged and abs(rep.iterations - want) <= 2

    # plain CG, first parameter set: within +-10% of [151, 225, 300, 385]
    got_cg = [iters(spec1, m, "cg") for m in sizes]
    for rep, want in zip(got_cg, [151, 225, 300, 385]):
        assert rep.converged and abs(rep.iterations - want) <= 0.10 * want

    # CG non-convergence at M = 4096 for the second parameter set
    rep = iters(spec2, 4096, "cg")
    assert not rep.converged and rep.iterations == BENCH_MAXIT

    # multigrid, second parameter set: within +-1 of [5, 5, 5, 5]
    got2 = [iters(spec2, m, "amg", maxit=200) for m in sizes]
    for rep, want in zip(got2, [5, 5, 5, 5]):
        assert rep.converged and abs(rep.iterations - want) <= 1


def test_two_level_baseline_iterations_constant_in_mesh_size():
    # V(0,1) two-level cycle, tolerance 1e-8, first-step systems.
    for (alphas, beta, gamma), want in ((SET1, 13), (SET2, 15)):
        spec = problem(alphas, beta, gamma)
        counts = []
        for m in (512, 1024, 2048):
            mats, b = first_step_system(spec, m)
            _, rep = two_level_solve(mats.a_full, b, tol=1e-8)
            assert rep.converged
            counts.append(rep.iterations)
        assert max(counts) == min(counts)  # mesh-independent
        for got in counts:
            assert abs(got - want) <= 2


def best_times(solvers, repeats):
    """Min-of-k wall time of each solver on its own right-hand side.

    The sizes take turns within each repeat, so that a slow spell of a
    shared host hits every size rather than one of them.
    """
    best = dict.fromkeys(solvers, np.inf)
    for _ in range(repeats):
        for m, (solve, b) in solvers.items():
            t0 = time.perf_counter()
            _, rep = solve(b, tol=TOL, maxit=BENCH_MAXIT)
            best[m] = min(best[m], time.perf_counter() - t0)
            assert rep.converged
    return best


def test_fast_hierarchy_scaling_and_speedup():
    spec = problem(*SET1)
    systems = {m: first_step_system(spec, m) for m in (2048, 4096)}

    hierarchies = {m: setup(mats.a_full) for m, (mats, _) in systems.items()}
    t_fast = best_times(
        {m: (functools.partial(amg_solve, hierarchies[m]), b)
         for m, (_, b) in systems.items()}, repeats=7)
    # near-linear work growth, O(M log M) signature
    assert t_fast[4096] / t_fast[2048] <= 2.6
    # O(M) storage: all level symbols together stay below 3 M numbers
    assert hierarchies[4096].stored_entries <= 3 * 4096

    # nine repeats: with five, a slow spell of the host over all five
    # M = 2048 solves (about 65 ms each) pulled the ratio below 3.4 in
    # about one run in eight
    t_dense = best_times(
        {m: (DenseAmg(mats.a_full.to_dense()).solve, b)
         for m, (mats, b) in systems.items()}, repeats=9)
    # quadratic work growth of the dense baseline
    assert t_dense[4096] / t_dense[2048] >= 3.4
    # measured speedup of the fast hierarchy at M = 4096
    assert t_dense[4096] / t_fast[4096] >= 5.0


def test_structural_properties_hold():
    rng = np.random.default_rng(0x5EED)

    # FFT matvec equals the dense product
    for m in (3, 64, 257, 1024):
        t = rng.standard_normal(m)
        t[0] = np.abs(t).sum() + 1.0
        T = SymToeplitz(t)
        x = rng.standard_normal(m)
        want = scipy.linalg.toeplitz(t) @ x
        assert np.max(np.abs(T.matvec(x) - want)) <= 1e-10 * np.max(np.abs(want))

    # closed-form coarse symbol equals the dense triple product inside
    spec1 = problem(*SET1)
    mesh = make_mesh(spec1, 128, TimePolicy.TAU_EQ_H)
    A = step_matrix(spec1, mesh, 1).a_full
    P = np.array([interp_apply(col, A.m) for col in np.eye(A.m // 2)]).T
    dense_coarse = P.T @ A.to_dense() @ P
    sym_coarse = SymToeplitz(galerkin_symbol(A.symbol)).to_dense()
    scale = np.abs(dense_coarse).max()
    assert np.allclose(sym_coarse[2:-2, 2:-2], dense_coarse[2:-2, 2:-2],
                       rtol=0, atol=1e-12 * scale)

    # the advection sign threshold is bracketed and flips the pattern
    b0 = beta0()
    assert 0.23 < b0 < 0.25
    from mtfade import stiffness_symbol
    assert classify(stiffness_symbol(b0 - 0.05, 64, 1 / 64)
                    ).offdiag_pattern == "first-offdiag-nonnegative"
    low = classify(stiffness_symbol(b0 + 0.05, 64, 1 / 64))
    assert low.offdiag_pattern == "all-negative" and low.m_matrix

    # every assembled step matrix on the study grid is strictly
    # diagonally dominant, and the memory weights stay positive
    grid = [SET1, ((0.5, 0.2), 0.3, 0.8), ((0.7, 0.4), 0.3, 0.85), SET2]
    for alphas, beta, gamma in grid:
        spec = problem(alphas, beta, gamma)
        for policy in (TimePolicy.TAU_EQ_H, TimePolicy.TAU_EQ_H2):
            mesh = make_mesh(spec, 64, policy)
            assert classify(step_matrix(spec, mesh, 1).a_full
                            ).diagonally_dominant
        mesh = make_mesh(spec, 64, TimePolicy.TAU_EQ_H)
        n = mesh.n_steps
        assert all(history_weight(a, n, k, mesh) > 0
                   for a in alphas for k in range(1, n))

    # a very large diffusion coefficient stops influencing conditioning
    kappas = []
    for k2 in (3e4, 3e5):
        spec = make_example_2(
            FractionalOrders((0.7, 0.4), (1.0, 1.0), 0.3, 0.85), 5.0, k2)
        mesh = make_mesh(spec, 256, TimePolicy.TAU_EQ_H)
        kappas.append(spectrum(step_matrix(spec, mesh, 1).a_full).kappa)
    assert abs(kappas[0] / kappas[1] - 1.0) <= 0.05
