"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS line; a thrown assertion marks the criterion FAIL."""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cautious_lbfgs import (
    CautiousParams,
    LineSearchError,
    LineSearchParams,
    OcpControlProblem,
    OcpGrid,
    PiecewiseQuadratic,
    RateConstants,
    Rosenbrock,
    SolverConfig,
    compare_traces,
    fd_gradient_check,
    linear_rate_check,
    lstep_qlinear,
    minimize,
    q_factors,
)
from cautious_lbfgs.direction import dense_hessian, dense_hessian_inverse, two_loop
from cautious_lbfgs.linesearch import armijo_backtrack, gll_nonmonotone, more_thuente, wolfe_weak
from test_direction import random_instance
from test_diagnostics import alternating_sequence
from test_linesearch import _random_smooth_problem
from cautious_lbfgs.cli import standard_normals

ROSEN_X0 = np.array([-1.2, 1.0])
TABLE2 = [(ls, m) for m in range(5) for ls in ("armijo", "mt")]
TABLE3 = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "wolfe")]


def ok(label: str) -> None:
    print(f"PASS {label}")


@pytest.fixture(scope="module")
def rosenbrock_runs():
    """Audited runs of every Rosenbrock configuration, plus timings."""
    prob = Rosenbrock()
    runs = {}
    for ls, m in TABLE2:
        config = SolverConfig(cautious=CautiousParams(m=m), linesearch=ls, grad_tol=1e-9)
        start = time.perf_counter()
        report = minimize(prob, prob.space, ROSEN_X0, config)
        runs[(ls, m)] = (report, time.perf_counter() - start)
    return prob, runs


@pytest.fixture(scope="module")
def pwquad_runs():
    """Audited runs of every piecewise-quadratic configuration."""
    prob = PiecewiseQuadratic(100)
    runs = {}
    for ls, m in TABLE3:
        config = SolverConfig(cautious=CautiousParams(m=m), linesearch=ls, grad_tol=1e-5)
        runs[(ls, m)] = minimize(prob, prob.space, prob.b.copy(), config)
    return prob, runs


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1_000_003)
    start = time.perf_counter()
    for _ in range(1000):
        space, store, gamma = random_instance(rng, max_pairs=5)
        grad = rng.standard_normal(space.dim)
        d = two_loop(space, store.pairs, gamma, grad)
        H = dense_hessian_inverse(space, store.pairs, gamma)
        B = dense_hessian(space, store.pairs, gamma)
        reference = -H.matrix @ grad
        scale = np.linalg.norm(reference)
        assert np.linalg.norm(d - reference) <= 1e-12 * max(scale, 1e-30)
        assert np.max(np.abs(H.matrix @ B.matrix - np.eye(space.dim))) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(f"criterion 1: two-loop/dense equivalence and mutual inverses on "
       f"1000 instances in {elapsed:.2f}s")


def test_criterion_2_norm_bound_audit(rosenbrock_runs, pwquad_runs):
    rng = np.random.default_rng(77_777)
    for _ in range(1000):
        space, store, gamma = random_instance(rng, max_pairs=5)
        if not store.pairs:
            continue
        threshold = min(1.0, gamma, 1.0 / gamma, min(p.quality for p in store.pairs))
        H = dense_hessian_inverse(space, store.pairs, gamma)
        m = len(store.pairs)
        norm_h, norm_h_inv = H.norms()
        assert norm_h_inv <= (m + 1) / threshold * (1 + 1e-9)
        assert norm_h <= 5.0**m * max(1.0, threshold ** -(2 * m + 1)) * (1 + 1e-9)
    _, rosen = rosenbrock_runs
    total = 0
    for report, _ in rosen.values():
        assert report.audits is not None and len(report.audits) == report.n_iter
        assert report.bound_violations == 0
        total += report.n_iter
    _, pwquad = pwquad_runs
    for report in pwquad.values():
        assert report.audits is not None and len(report.audits) == report.n_iter
        assert report.bound_violations == 0
        total += report.n_iter
    ok(f"criterion 2: zero norm-bound violations on 1000 random instances "
       f"and {total} audited solver iterations")


def test_criterion_3_rosenbrock_benchmarks(rosenbrock_runs):
    prob, runs = rosenbrock_runs
    report, elapsed = runs[("armijo", 2)]
    assert report.status == "converged"
    assert 30 <= report.n_iter <= 60
    assert np.max(np.abs(report.x_final - prob.x_star)) <= 1e-7
    pathological, elapsed_mt = runs[("mt", 0)]
    assert pathological.status == "converged"
    assert pathological.n_iter > 1000
    config = SolverConfig(cautious=CautiousParams(m=0), linesearch="gll",
                          ls=LineSearchParams(gll_memory=10), grad_tol=1e-9)
    start = time.perf_counter()
    nonmono = minimize(prob, prob.space, ROSEN_X0, config)
    elapsed_gll = time.perf_counter() - start
    assert nonmono.status == "converged"
    assert nonmono.n_iter <= 200
    for (ls, m), (_, dt) in runs.items():
        assert dt < 1.0, (ls, m, dt)
    assert elapsed_gll < 1.0
    ok(f"criterion 3: m=2 Armijo {report.n_iter} its to the minimizer, "
       f"m=0 strong-Wolfe {pathological.n_iter} its, m=0 nonmonotone "
       f"{nonmono.n_iter} its; slowest run {max(dt for _, dt in runs.values()):.2f}s")


def test_criterion_4_cautious_equals_classical(rosenbrock_runs):
    prob, runs = rosenbrock_runs
    for ls, m in TABLE2:
        classical = SolverConfig(cautious=CautiousParams(m=m), mode="classical",
                                 linesearch=ls, grad_tol=1e-9, keep_iterates=False)
        rep = minimize(prob, prob.space, ROSEN_X0, classical)
        divergence = compare_traces(runs[(ls, m)][0], rep)
        assert divergence is None, (ls, m, divergence)
    ok("criterion 4: cautious and classical traces identical for all "
       "10 Rosenbrock configurations")


def test_criterion_5_piecewise_quadratic(pwquad_runs):
    prob, runs = pwquad_runs
    for (ls, m), report in runs.items():
        assert report.status == "converged", (ls, m)
        assert 6 <= report.n_iter <= 15, (ls, m, report.n_iter)
        assert np.max(np.abs(report.x_final - prob.x_star)) <= 1e-12, (ls, m)
    for ls in ("armijo", "wolfe"):
        a, b = runs[(ls, 0)], runs[(ls, 10)]
        assert a.n_iter == b.n_iter
        assert np.array_equal(a.alphas(), b.alphas())
        assert_allclose(a.f_values(), b.f_values(), rtol=1e-9)
        assert np.max(np.abs(a.x_final - b.x_final)) <= 1e-12
    constants = RateConstants(mu=prob.mu, L=prob.lipschitz, sigma=1e-4)
    for (ls, m), report in runs.items():
        rate = linear_rate_check(report, constants, prob.f_star, k1=0,
                                 x_star=prob.x_star, space=prob.space)
        assert rate.eq_objective_all, (ls, m)
    n_runs = 1000
    iteration_counts = {}
    for ls, m in TABLE3:
        rng = np.random.Generator(np.random.Philox(2024))
        config = SolverConfig(cautious=CautiousParams(m=m), linesearch=ls,
                              grad_tol=1e-5, keep_iterates=False, oracle_checks=False)
        counts = []
        for _ in range(n_runs):
            x0 = standard_normals(rng, prob.space.dim)
            rep = minimize(prob, prob.space, x0, config)
            assert rep.status == "converged", (ls, m)
            counts.append(rep.n_iter)
        iteration_counts[(ls, m)] = np.mean(counts)
    ok(f"criterion 5: six configurations converge in "
       f"{sorted(set(r.n_iter for r in runs.values()))} iterations to the exact "
       f"solution, contraction inequality holds everywhere, and all "
       f"{n_runs} random starts per configuration converge "
       f"(mean iterations {min(iteration_counts.values()):.1f}"
       f"-{max(iteration_counts.values()):.1f})")


def test_criterion_6_mesh_independence():
    start = time.perf_counter()
    patterns = {0: 14, 5: 10, 10: 8}
    counts = {}
    # a problem holds no per-run state, so each mesh is built (and A + I factored) once
    meshes = {j: OcpControlProblem(OcpGrid(M=2**j)) for j in (4, 5, 6, 7)}
    for ls in ("armijo", "mt"):
        for m in (0, 5, 10):
            row = []
            for j, problem in meshes.items():
                sigma = 1e-8 if ls == "mt" else 1e-4
                config = SolverConfig(
                    cautious=CautiousParams(m=m), linesearch=ls,
                    ls=LineSearchParams(sigma=sigma), grad_tol=1e-9,
                    keep_iterates=False, oracle_checks=False,
                )
                report = minimize(problem, problem.space,
                                  np.zeros(problem.space.dim), config)
                assert report.status == "converged", (ls, m, j)
                row.append(report.n_iter)
                if ls == "armijo":
                    # full steps throughout; the coarsest mesh at zero
                    # memory halves a single early step
                    if (m, j) == (0, 4):
                        assert report.n_iter - report.n_unit_steps <= 1, (m, j)
                    else:
                        assert report.n_unit_steps == report.n_iter, (m, j)
                assert report.n_pairs_stored == report.n_iter, (ls, m, j)
            counts[(ls, m)] = row
            assert max(row) - min(row) <= 1, (ls, m, row)
            assert abs(row[-1] - patterns[m]) <= 2, (ls, m, row)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    ok(f"criterion 6: mesh-independent iteration counts "
       f"{ {k: v for k, v in counts.items()} } in {elapsed:.0f}s")


def test_criterion_7_gradient_correctness():
    worst_ocp = 0.0
    for j in (2, 3, 4):
        problem = OcpControlProblem(OcpGrid(M=2**j))
        rng = np.random.default_rng(j)
        u = rng.standard_normal(problem.space.dim)
        error = fd_gradient_check(problem, u, n_directions=5, step=1e-5, seed=j)
        worst_ocp = max(worst_ocp, error)
        assert error <= 1e-6, (j, error)
    rosen = fd_gradient_check(Rosenbrock(), np.array([0.5, 0.5]), step=1e-6)
    assert rosen <= 1e-7
    pw = PiecewiseQuadratic(5)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(15)
    x[np.abs(x) < 0.05] = 0.2  # keep away from the kinks
    pw_err = fd_gradient_check(pw, x, step=1e-6, seed=2)
    assert pw_err <= 1e-7
    ok(f"criterion 7: finite-difference gradient errors ocp<= {worst_ocp:.1e}, "
       f"rosenbrock {rosen:.1e}, piecewise quadratic {pw_err:.1e}")


def test_criterion_8_diagnostics(rosenbrock_runs):
    sequence = alternating_sequence(a=0.25, b=0.5, n_terms=40)
    for l in (2, 4, 6, 8):
        holds, _ = lstep_qlinear(sequence, l)
        assert holds, l
    for l in (1, 3, 5, 7):
        holds, _ = lstep_qlinear(sequence, l)
        assert not holds, l
    geometric = [0.5**k for k in range(12)]
    holds, kappa = lstep_qlinear(geometric, 1)
    assert holds and abs(kappa - 0.5) < 1e-12
    prob, runs = rosenbrock_runs
    report, _ = runs[("armijo", 2)]
    rates = q_factors(report, prob.f_star, prob.x_star, prob.space)
    assert rates.qf3 < 0.5
    assert rates.qf > 0.99
    ok(f"criterion 8: alternating sequence q-linear exactly for even steps, "
       f"geometric factor 0.5, Rosenbrock qf={rates.qf:.4f} qf3={rates.qf3:.3f}")


def test_criterion_9_line_search_certificates():
    params = LineSearchParams(maxfev=60)
    rng = np.random.default_rng(424242)
    counts = {"armijo": 0, "gll": 0, "wolfe": 0, "mt": 0}
    target = 2500
    attempts = 0
    while min(counts.values()) < target and attempts < 100_000:
        attempts += 1
        phi, dphi = _random_smooth_problem(rng)
        phi0, dphi0 = phi(0.0), dphi(0.0)
        if not dphi0 < 0.0:
            continue
        rule = ("armijo", "gll", "wolfe", "mt")[attempts % 4]
        if counts[rule] >= target:
            continue
        # the sufficient-decrease reference: phi(0), or the history maximum for gll
        reference = phi0
        try:
            if rule == "armijo":
                out = armijo_backtrack(phi, phi0, dphi0, params)
            elif rule == "gll":
                history = [phi0 + float(rng.uniform(0, 2)), phi0]
                reference = max(history)
                out = gll_nonmonotone(phi, dphi0, history, params)
            elif rule == "wolfe":
                out = wolfe_weak(phi, dphi, params, phi0=phi0, dphi0=dphi0)
            else:
                out = more_thuente(phi, dphi, params, phi0=phi0, dphi0=dphi0)
        except LineSearchError:
            continue
        alpha = out.alpha
        assert phi(alpha) <= reference + params.sigma * alpha * dphi0
        if rule == "wolfe":
            assert dphi(alpha) >= params.eta * dphi0
        elif rule == "mt":
            assert abs(dphi(alpha)) <= params.eta * abs(dphi0)
        if rule in ("wolfe", "mt"):
            assert alpha * (dphi(alpha) - dphi0) > 0.0  # inner(s, y) > 0
        counts[rule] += 1
    total = sum(counts.values())
    assert total >= 4 * target
    ok(f"criterion 9: {total} accepted steps re-verified their conditions "
       f"with zero violations ({counts})")
