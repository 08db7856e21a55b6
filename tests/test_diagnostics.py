import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cautious_lbfgs import (
    CautiousParams,
    LineSearchParams,
    PiecewiseQuadratic,
    RateConstants,
    Rosenbrock,
    SolverConfig,
    Space,
    error_sequences,
    linear_rate_check,
    lstep_qlinear,
    make_grid_space,
    minimize,
    q_factors,
)
from cautious_lbfgs.diagnostics import X_ERRORS_BLOCK
from cautious_lbfgs.solver import IterationRecord, SolveReport


def synthetic_report(f_errors, x_errors=None, f_star_offset=0.0):
    """Report whose objective values and iterate errors are prescribed."""
    f_values = np.asarray(f_errors, dtype=float) + f_star_offset
    K = len(f_values) - 1
    if x_errors is None:
        x_errors = f_errors
    iterates = [np.array([float(e), 0.0]) for e in x_errors]
    trace = [
        IterationRecord(
            k=k, f=f_values[k], grad_norm=float(abs(f_errors[k])), omega=1e-4,
            gamma=1.0, n_active=0, n_stored=0, alpha=1.0, pair_stored=True,
            n_feval_ls=1,
        )
        for k in range(K)
    ]
    return SolveReport(
        status="converged",
        x_final=iterates[-1],
        f_final=float(f_values[-1]),
        grad_norm_final=float(abs(f_errors[-1])),
        trace=trace,
        n_iter=K,
        n_feval=K,
        n_geval=K + 1,
        n_pairs_stored=K,
        n_unit_steps=K,
        alpha_min=1.0,
        alpha_max=1.0,
        iterates=iterates,
    )


class TestQFactors:
    space = Space(2)

    def test_geometric_sequence(self):
        errors = [2.0**-k for k in range(10)]
        report = synthetic_report(errors)
        rates = q_factors(report, 0.0, np.zeros(2), self.space)
        assert_allclose([rates.qf, rates.qf3], [0.5, 0.5], rtol=1e-12)
        assert_allclose([rates.qx, rates.qx3], [0.5, 0.5], rtol=1e-12)

    def test_constant_sequence(self):
        report = synthetic_report([1.0] * 8)
        rates = q_factors(report, 0.0, np.zeros(2), self.space)
        assert rates.qf == 1.0
        assert rates.qx == 1.0
        assert rates.qg == 1.0

    def test_final_three_restriction(self):
        # slow early, fast at the end: the tail factor drops
        errors = [1.0, 0.9, 0.81, 0.729, 0.07, 0.006, 0.0005]
        report = synthetic_report(errors)
        rates = q_factors(report, 0.0, np.zeros(2), self.space)
        assert rates.qf3 < 0.1 < rates.qf

    def test_tail_equals_total_for_short_runs(self):
        report = synthetic_report([1.0, 0.5, 0.3, 0.2])
        rates = q_factors(report, 0.0, np.zeros(2), self.space)
        assert rates.qf3 == rates.qf
        assert rates.qx3 == rates.qx
        assert rates.qg3 == rates.qg

    def test_zero_denominator_skipped(self):
        # the 0/0 quotients are left out, not read as nan
        report = synthetic_report([1.0, 0.0, 0.0, 0.0])
        rates = q_factors(report, 0.0, np.zeros(2), self.space)
        assert [rates.qf, rates.qf3, rates.qx, rates.qx3, rates.qg, rates.qg3] == [0.0] * 6

    def test_factors_can_exceed_one(self):
        report = synthetic_report([1.0, 4.0, 0.1, 0.01, 0.001])
        rates = q_factors(report, 0.0, np.zeros(2), self.space)
        assert rates.qf == 4.0

    def test_rosenbrock_run_bands(self):
        prob = Rosenbrock()
        cfg = SolverConfig(cautious=CautiousParams(m=2), grad_tol=1e-9, oracle_checks=False)
        report = minimize(prob, prob.space, np.array([-1.2, 1.0]), cfg)
        rates = q_factors(report, prob.f_star, prob.x_star, prob.space)
        assert rates.qf > 0.99
        assert rates.qf3 < 0.5

    def test_requires_a_completed_iteration(self):
        with pytest.raises(ValueError, match="completed iteration"):
            q_factors(synthetic_report([1.0]), 0.0, np.zeros(2), self.space)

    def test_requires_iterates(self):
        report = synthetic_report([1.0, 0.5])
        report.iterates = None
        with pytest.raises(ValueError):
            q_factors(report, 0.0, np.zeros(2), self.space)

    def test_lstep_table_composition(self):
        report = synthetic_report([2.0**-k for k in range(12)])
        x_err = error_sequences(report, 0.0, np.zeros(2), self.space)[1]
        holds, kappa = lstep_qlinear(x_err, 2)
        assert holds
        assert abs(kappa - 0.25) < 1e-12


def alternating_sequence(a=0.25, b=0.5, n_terms=40):
    """tau_{2n-1} = a^n, tau_{2n} = b^n, 1-indexed."""
    out = []
    for i in range(1, n_terms + 1):
        n = (i + 1) // 2
        out.append(a**n if i % 2 == 1 else b**n)
    return np.array(out)


class TestLstepQlinear:
    def test_geometric(self):
        holds, kappa = lstep_qlinear([0.5**k for k in range(10)], l=1)
        assert holds
        assert_allclose(kappa, 0.5, rtol=1e-12)

    def test_alternating_sequence_even_steps_only(self):
        seq = alternating_sequence()
        for l in (2, 4, 6, 8):
            holds, kappa = lstep_qlinear(seq, l)
            assert holds, (l, kappa)
        for l in (1, 3, 5, 7):
            holds, kappa = lstep_qlinear(seq, l)
            assert not holds, (l, kappa)

    def test_nonvanishing_sequence_ratio_approaches_one(self):
        # e_k = 1 + 1/k decays toward 1, not 0: every finite-window ratio
        # sits below 1, but the detector's kappa tends to 1 as the window
        # grows, exposing that no fixed contraction factor exists
        seq = [1.0 + 1.0 / k for k in range(1, 40)]
        for l in range(1, 6):
            holds, kappa = lstep_qlinear(seq, l)
            assert holds  # finite-window maximum is below one by construction
            assert kappa > 0.996
        short_kappa = lstep_qlinear(seq[:10], l=1)[1]
        long_kappa = lstep_qlinear(seq, l=1)[1]
        assert short_kappa < long_kappa < 1.0

    def test_k_start_skips_preasymptotic_terms(self):
        seq = np.concatenate([[1.0, 5.0, 1.0], [0.5**k for k in range(12)]])
        assert not lstep_qlinear(seq, l=1)[0]
        assert lstep_qlinear(seq, l=1, k_start=3)[0]

    def test_step_count_must_be_positive(self):
        with pytest.raises(ValueError, match="l must be >= 1"):
            lstep_qlinear([1.0, 0.5, 0.25], l=0)

    def test_too_few_terms(self):
        with pytest.raises(ValueError):
            lstep_qlinear([1.0, 0.5], l=2)
        with pytest.raises(ValueError):
            lstep_qlinear([1.0, 0.5, 0.2], l=1, k_start=2)

    @pytest.mark.parametrize("k_start", [0, 2])
    @pytest.mark.parametrize("l", [1, 3])
    def test_length_check_boundary(self, l, k_start):
        # l + 1 terms from k_start give one quotient; l terms give none
        seq = [0.5**k for k in range(k_start + l + 1)]
        assert lstep_qlinear(seq, l, k_start) == (True, 0.5**l)
        with pytest.raises(ValueError, match=f"need at least {l + 1} terms"):
            lstep_qlinear(seq[:-1], l, k_start)

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            lstep_qlinear([1.0, 0.0, 0.5], l=1)

    @given(
        st.lists(st.floats(min_value=1e-8, max_value=1e8), min_size=4, max_size=40),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=200)
    def test_kappa_matches_bruteforce_window_maximum(self, seq, l):
        if len(seq) < l + 1:
            return
        holds, kappa = lstep_qlinear(seq, l)
        brute = max(seq[k + l] / seq[k] for k in range(len(seq) - l))
        assert_allclose(kappa, brute, rtol=1e-12)
        assert holds == (brute < 1.0)


class TestRateConstants:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateConstants(mu=0.0, L=1.0, sigma=1e-4)
        with pytest.raises(ValueError):
            RateConstants(mu=2.0, L=1.0, sigma=1e-4)
        with pytest.raises(ValueError):
            RateConstants(mu=1.0, L=2.0, sigma=1.5)
        assert RateConstants(mu=2.0, L=3.0, sigma=0.5).kappa == 1.5


class TestLinearRateCheck:
    def test_factor_arithmetic(self):
        report = synthetic_report([1.0, 0.5])
        constants = RateConstants(mu=1.0, L=1.0, sigma=1e-4)
        out = linear_rate_check(report, constants, f_star=0.0, hinv_norms=[1.0])
        assert_allclose(out.nu_values, [1.0 - 2e-4], rtol=1e-15)

    def test_quadratic_single_step_solve(self):
        # an exact one-step solve satisfies the objective inequality at
        # every k because both sides vanish after the first step
        from test_solver import SphereProblem

        prob = SphereProblem()
        cfg = SolverConfig(cautious=CautiousParams(m=1), grad_tol=1e-12, oracle_checks=True)
        report = minimize(prob, prob.space, np.array([1.0, 1.0]), cfg)
        constants = RateConstants(mu=1.0, L=1.0, sigma=1e-4)
        out = linear_rate_check(report, constants, f_star=0.0, k1=0,
                                x_star=np.zeros(2), space=prob.space)
        assert out.eq_objective_all
        assert out.eq_objective_fraction == 1.0

    def test_pwquad_contraction_holds_everywhere(self):
        prob = PiecewiseQuadratic(100)
        cfg = SolverConfig(cautious=CautiousParams(m=0), grad_tol=1e-5, oracle_checks=True)
        report = minimize(prob, prob.space, prob.b.copy(), cfg)
        constants = RateConstants(mu=prob.mu, L=prob.lipschitz, sigma=1e-4)
        out = linear_rate_check(report, constants, prob.f_star, k1=0,
                                x_star=prob.x_star, space=prob.space)
        assert out.eq_objective_all
        assert out.nu_sup < 1.0
        assert all(out.envelope_ok.values())

    def test_objective_inequality_breaks_at_one_known_index(self):
        # nu_k = 1 - 2 * 0.25 * 1 * 1 / 1 = 0.5 at every k; the quotients of
        # f_err are 0.25, 0.8, 0.25, 0.2, so only k = 1 breaks the inequality
        report = synthetic_report([1.0, 0.25, 0.2, 0.05, 0.01])
        constants = RateConstants(mu=1.0, L=1.0, sigma=0.25)
        out = linear_rate_check(report, constants, 0.0, hinv_norms=[1.0] * 4, k1=0)
        assert out.eq_objective_fraction == 0.75
        assert not out.eq_objective_all
        out = linear_rate_check(report, constants, 0.0, hinv_norms=[1.0] * 4, k1=2)
        assert out.eq_objective_fraction == 1.0
        assert out.eq_objective_all

    def test_norm_count_mismatch(self):
        report = synthetic_report([1.0, 0.5, 0.25])
        constants = RateConstants(mu=1.0, L=1.0, sigma=1e-4)
        with pytest.raises(ValueError):
            linear_rate_check(report, constants, 0.0, hinv_norms=[1.0])

    @pytest.mark.parametrize("status", ["eval_error", "linesearch_failure"])
    def test_run_stopped_inside_an_iteration(self, status):
        # the stopped iteration was audited before its line search, so the
        # report holds one audit more than it has records
        from test_faults import Faulty

        prob = Rosenbrock()
        if status == "eval_error":
            prob = Faulty(prob, "zero_division", at=30)
            ls = LineSearchParams()
        else:
            ls = LineSearchParams(maxfev=1)
        cfg = SolverConfig(cautious=CautiousParams(m=2), ls=ls, oracle_checks=True)
        report = minimize(prob, prob.space, np.array([-1.2, 1.0]), cfg)
        assert report.status == status
        assert len(report.audits) == report.n_iter + 1
        constants = RateConstants(mu=0.5, L=1000.0, sigma=1e-4)
        out = linear_rate_check(report, constants, 0.0)
        expected = linear_rate_check(report, constants, 0.0,
                                     hinv_norms=[a.norm_h_inv for a in report.audits[:-1]])
        assert len(out.nu_values) == report.n_iter
        assert np.array_equal(out.nu_values, expected.nu_values)

    def test_missing_norms(self):
        report = synthetic_report([1.0, 0.5])
        constants = RateConstants(mu=1.0, L=1.0, sigma=1e-4)
        with pytest.raises(ValueError):
            linear_rate_check(report, constants, 0.0)


def edge_iterates(space, x_star, n_rows, seed):
    """Seeded iterates at scales 1e-150 .. 1e150, with signed zeros, x_star itself, an inf and a nan."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.choice([-150, -20, 0, 20, 150], size=n_rows)
    rows = [x_star + scale * rng.standard_normal(space.dim) for scale in scales]
    rows[0] = np.zeros(space.dim)
    rows[1] = np.where(np.arange(space.dim) % 2 == 0, -0.0, 0.0)
    rows[2] = x_star.copy()
    rows[3][0] = math.inf
    rows[4][-1] = math.nan
    return rows


@pytest.mark.parametrize("space", [Space(2), Space(300), make_grid_space(32)], ids=["n2", "n300", "grid32"])
@pytest.mark.parametrize("long_run", [False, True])
def test_x_errors_have_the_bits_of_the_space_norm(space, long_run):
    # a long run stacks its iterates in two blocks, the second of 9 rows
    n_rows = X_ERRORS_BLOCK // space.dim + 9 if long_run else 7
    x_star = np.random.default_rng(1).standard_normal(space.dim)
    x_star[0] = -0.0
    iterates = edge_iterates(space, x_star, n_rows, seed=n_rows + space.dim)
    report = dataclasses.replace(synthetic_report(np.linspace(1.0, 0.5, n_rows)),
                                 iterates=iterates, x_final=iterates[-1])
    oracle = np.array([space.norm_unchecked(x - x_star) for x in iterates])
    x_err = error_sequences(report, 0.0, x_star, space)[1]
    assert x_err.tobytes() == oracle.tobytes()

    constants = RateConstants(mu=1.0, L=4.0, sigma=1e-4)
    out = linear_rate_check(report, constants, 0.0, hinv_norms=[1.0] * (n_rows - 1),
                            x_star=x_star, space=space)
    nu_sup = float(np.max(out.nu_values))
    expected = {l: not np.any(oracle[l:] > math.sqrt(constants.kappa * nu_sup**l) * oracle[:-l] * (1.0 + 1e-12))
                for l in range(1, 6)}
    assert out.envelope_ok == expected


@given(st.lists(st.just(0.0) | st.floats(1e-12, 1e3), min_size=2, max_size=12))
def test_vectorised_diagnostics_match_loop_reference(errors):
    space = Space(2)
    report = synthetic_report(errors)
    f_err, x_err, g_err = error_sequences(report, 0.0, np.zeros(2), space)

    def max_quotient(e, start):
        worst = -math.inf
        for k in range(max(start, 1), len(e)):
            if e[k - 1] != 0.0:
                worst = max(worst, e[k] / e[k - 1])
        return worst

    tail = max(1, len(errors) - 3)
    expected = [max_quotient(e, start) for e in (f_err, x_err, g_err) for start in (1, tail)]
    rates = q_factors(report, 0.0, np.zeros(2), space)
    maxima = [rates.qf, rates.qf3, rates.qx, rates.qx3, rates.qg, rates.qg3]
    assert maxima == expected

    constants = RateConstants(mu=1.0, L=4.0, sigma=0.25)
    out = linear_rate_check(report, constants, 0.0, hinv_norms=[1.0] * (len(errors) - 1),
                            x_star=np.zeros(2), space=space)
    nu_sup = float(np.max(out.nu_values))
    for l, ok in out.envelope_ok.items():
        factor = math.sqrt(constants.kappa * nu_sup**l)
        violated = any(x_err[k + l] > factor * x_err[k] * (1.0 + 1e-12)
                       for k in range(len(x_err) - l))
        assert ok == (not violated)
