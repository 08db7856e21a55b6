import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cautious_lbfgs import (
    CautiousParams,
    LineSearchParams,
    PiecewiseQuadratic,
    Problem,
    Rosenbrock,
    SolverConfig,
    SolverState,
    compare_traces,
    euclidean,
    minimize,
)

ROSEN_X0 = np.array([-1.2, 1.0])


def config(m=2, **kwargs):
    kwargs.setdefault("oracle_checks", False)
    return SolverConfig(cautious=CautiousParams(m=m), **kwargs)


class SphereProblem(Problem):
    def __init__(self, dim=2):
        self.space = euclidean(dim)

    def value(self, x):
        x = self.space.check(x)
        return 0.5 * float(np.dot(x, x))

    def value_and_grad(self, x):
        x = self.space.check(x)
        return 0.5 * float(np.dot(x, x)), x.copy()


class NanGradProblem(Problem):
    """Finite values everywhere, NaN gradient near the minimizer."""

    def __init__(self):
        self.space = euclidean(1)

    def value(self, x):
        return float(x[0] ** 2)

    def value_and_grad(self, x):
        g = 2.0 * x[0] if abs(x[0]) > 0.1 else math.nan
        return self.value(x), np.array([g])


class TestMinimizeBasics:
    def test_sphere_converges_in_one_iteration(self):
        prob = SphereProblem()
        report = minimize(prob, prob.space, np.array([1.0, 1.0]), config(m=2, grad_tol=1e-9))
        assert report.status == "converged"
        assert report.n_iter == 1
        assert report.trace[0].gamma == 1.0
        assert report.trace[0].alpha == 1.0
        assert_allclose(report.x_final, [0.0, 0.0], atol=0)

    def test_rosenbrock_armijo_m2(self):
        prob = Rosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9))
        assert report.status == "converged"
        assert 30 <= report.n_iter <= 60
        assert np.max(np.abs(report.x_final - prob.x_star)) <= 1e-7

    def test_pwquad_armijo_m0(self):
        prob = PiecewiseQuadratic(100)
        report = minimize(prob, prob.space, prob.b.copy(), config(m=0, grad_tol=1e-5))
        assert report.status == "converged"
        assert 6 <= report.n_iter <= 15

    def test_max_iter_status(self):
        prob = Rosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9, max_iter=3))
        assert report.status == "max_iter"
        assert report.n_iter == 3

    def test_nonfinite_status(self):
        prob = NanGradProblem()
        report = minimize(prob, prob.space, np.array([-2.0]), config(m=1, grad_tol=1e-12))
        assert report.status == "nonfinite"
        assert abs(report.x_final[0]) <= 0.1  # the offending iterate

    def test_nonfinite_at_start(self):
        prob = NanGradProblem()
        report = minimize(prob, prob.space, np.array([0.05]), config(m=1))
        assert report.status == "nonfinite"
        assert report.n_iter == 0

    def test_linesearch_failure_status(self):
        class DownRay(Problem):
            def __init__(self):
                self.space = euclidean(1)

            def value(self, x):
                return float(-x[0])

            def value_and_grad(self, x):
                return float(-x[0]), np.array([-1.0])

        prob = DownRay()
        report = minimize(prob, prob.space, np.array([0.0]),
                          config(m=0, linesearch="wolfe", grad_tol=1e-9))
        assert report.status == "linesearch_failure"
        assert report.ls_failure == "stpmax"
        assert report.n_iter == 0
        assert report.n_feval > 0  # the failed search's trials still count


@pytest.fixture(scope="module")
def rosen_report():
    prob = Rosenbrock()
    return minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9))


class TestTraceInvariants:
    def test_objective_strictly_decreasing(self, rosen_report):
        f = rosen_report.f_values()
        assert np.all(np.diff(f) < 0.0)

    def test_counters_recomputable_from_trace(self, rosen_report):
        r = rosen_report
        assert r.n_iter == len(r.trace)
        assert r.n_pairs_stored == sum(t.pair_stored for t in r.trace)
        assert r.n_unit_steps == sum(t.alpha == 1.0 for t in r.trace)
        assert r.alpha_min == min(t.alpha for t in r.trace)
        assert r.alpha_max == max(t.alpha for t in r.trace)
        assert r.n_feval == sum(t.n_feval_ls for t in r.trace)

    def test_storage_and_threshold_records(self, rosen_report):
        for t in rosen_report.trace:
            assert t.n_stored <= 2
            assert t.n_active <= t.n_stored
            assert 0.0 < t.omega <= 1e-4
            assert t.omega <= t.gamma <= 1.0 / t.omega

    def test_final_gradient_below_tolerance(self, rosen_report):
        assert rosen_report.grad_norm_final <= 1e-9

    def test_gll_monotone_only_against_history_max(self):
        prob = Rosenbrock()
        cfg = config(m=0, linesearch="gll", grad_tol=1e-9,
                     ls=LineSearchParams(gll_memory=10))
        report = minimize(prob, prob.space, ROSEN_X0, cfg)
        assert report.status == "converged"
        f = report.f_values()
        increases = np.diff(f) > 0
        assert increases.any()  # genuinely nonmonotone on this problem
        for k in range(1, len(f)):
            window = f[max(0, k - 10):k]
            assert f[k] < window.max()

    def test_wolfe_stores_pair_every_iteration(self):
        prob = Rosenbrock()
        for ls in ("wolfe", "mt"):
            report = minimize(prob, prob.space, ROSEN_X0,
                              config(m=2, linesearch=ls, grad_tol=1e-9))
            assert report.status == "converged"
            assert all(t.pair_stored for t in report.trace)
            assert report.n_pairs_stored == report.n_iter


class TestStep:
    def test_no_step_after_termination(self):
        prob = SphereProblem()
        state = SolverState(prob, prob.space, np.zeros(2), config(m=1, grad_tol=1e-9))
        assert state.step() is None
        assert state.status == "converged"
        assert state.step() is None

    def test_first_rosenbrock_step_uses_seed_only(self):
        prob = Rosenbrock()
        state = SolverState(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9))
        record = state.step()
        assert record.k == 0
        assert record.n_active == 0
        assert record.gamma == 1.0

    def test_rejected_pair_resets_scaling_interval(self):
        class Valley(Problem):
            # gradient turns steeper along the ray, so inner(s, y) < 0
            def __init__(self):
                self.space = euclidean(1)

            def value(self, x):
                return float(-x[0] ** 3 / 3.0 - x[0])

            def value_and_grad(self, x):
                return self.value(x), np.array([-x[0] ** 2 - 1.0])

        prob = Valley()
        state = SolverState(prob, prob.space, np.array([0.0]), config(m=2, grad_tol=1e-12))
        record = state.step()
        assert record is not None
        assert not record.pair_stored
        assert state.store.gamma_minus == 0.0
        assert math.isinf(state.store.gamma_plus)
        assert len(state.store.pairs) == 0


class TestAudits:
    def test_audit_reports_present_and_clean(self):
        prob = Rosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0,
                          SolverConfig(cautious=CautiousParams(m=2), grad_tol=1e-9))
        assert report.audits is not None
        assert len(report.audits) == report.n_iter
        assert report.bound_violations == 0
        for audit, t in zip(report.audits, report.trace):
            assert audit.norm_h_inv <= (2 + 1) / t.omega * (1 + 1e-9)

    def test_coarse_pde_grid_audit_clean(self):
        from cautious_lbfgs import OcpControlProblem, OcpGrid

        problem = OcpControlProblem(OcpGrid(M=16))
        report = minimize(problem, problem.space, np.zeros(problem.space.dim),
                          SolverConfig(cautious=CautiousParams(m=5), grad_tol=1e-9))
        assert report.status == "converged"
        assert report.audits is not None
        assert report.bound_violations == 0

    @pytest.mark.parametrize("problem_id", ["pwquad", "rosenbrock"])
    def test_audit_changes_no_result(self, problem_id):
        # the t3 configurations on the piecewise quadratic, the t2 ones on Rosenbrock
        if problem_id == "pwquad":
            prob = PiecewiseQuadratic(100)
            x0, tol = prob.b.copy(), 1e-5
            configs = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "wolfe")]
        else:
            prob = Rosenbrock()
            x0, tol = ROSEN_X0, 1e-9
            configs = [(ls, m) for m in range(5) for ls in ("armijo", "mt")]
        for ls, m in configs:
            on, off = (
                minimize(prob, prob.space, x0,
                         config(m=m, linesearch=ls, grad_tol=tol, oracle_checks=audit,
                                keep_iterates=False))
                for audit in (True, False)
            )
            assert on.audits is not None and len(on.audits) == on.n_iter
            assert on.bound_violations == 0
            assert compare_traces(on, off) is None
            assert np.array_equal(on.x_final, off.x_final)

    def test_audit_disabled_for_classical_mode(self):
        prob = Rosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0,
                          SolverConfig(cautious=CautiousParams(m=2), mode="classical",
                                       grad_tol=1e-9))
        assert report.audits is None


class TestModes:
    def test_cautious_equals_classical_on_rosenbrock(self):
        prob = Rosenbrock()
        for ls in ("armijo", "mt"):
            for m in (0, 2):
                reports = {}
                for mode in ("cautious", "classical"):
                    reports[mode] = minimize(
                        prob, prob.space, ROSEN_X0,
                        config(m=m, mode=mode, linesearch=ls, grad_tol=1e-9,
                               keep_iterates=False),
                    )
                assert compare_traces(reports["cautious"], reports["classical"]) is None

    def test_aggressive_threshold_diverges_from_classical(self):
        prob = Rosenbrock()
        cautious = SolverConfig(cautious=CautiousParams(m=2, c0=1.0), grad_tol=1e-9,
                                oracle_checks=False)
        classical = SolverConfig(cautious=CautiousParams(m=2), mode="classical",
                                 grad_tol=1e-9, oracle_checks=False)
        ra = minimize(prob, prob.space, ROSEN_X0, cautious)
        rb = minimize(prob, prob.space, ROSEN_X0, classical)
        div = compare_traces(ra, rb)
        assert div is not None
        assert div >= 0

    def test_compare_traces_identical_reports(self):
        prob = Rosenbrock()
        cfg = config(m=1, grad_tol=1e-9)
        a = minimize(prob, prob.space, ROSEN_X0, cfg)
        b = minimize(prob, prob.space, ROSEN_X0, cfg)
        assert compare_traces(a, b) is None

    def test_compare_traces_length_mismatch(self):
        prob = Rosenbrock()
        a = minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9, max_iter=5))
        b = minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9, max_iter=9))
        assert compare_traces(a, b) == 5


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SolverConfig(cautious=CautiousParams(m=1), mode="fast")

    def test_bad_linesearch(self):
        with pytest.raises(ValueError):
            SolverConfig(cautious=CautiousParams(m=1), linesearch="exact")

    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(cautious=CautiousParams(m=1), grad_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(cautious=CautiousParams(m=1), max_iter=0)

    def test_rate_guard_warning_propagates(self):
        with pytest.warns(UserWarning):
            SolverConfig(cautious=CautiousParams(m=1, c2=0.9))


class TestExample2Structure:
    def test_zero_and_large_memory_agree(self):
        prob = PiecewiseQuadratic(100)
        reports = {}
        for m in (0, 10):
            reports[m] = minimize(prob, prob.space, prob.b.copy(),
                                  config(m=m, grad_tol=1e-5))
        a, b = reports[0], reports[10]
        assert a.n_iter == b.n_iter
        assert np.array_equal(a.alphas(), b.alphas())
        assert_allclose(a.f_values(), b.f_values(), rtol=1e-9)
        assert np.max(np.abs(a.x_final - b.x_final)) <= 1e-12

    def test_exact_solution_found(self):
        prob = PiecewiseQuadratic(100)
        report = minimize(prob, prob.space, prob.b.copy(), config(m=0, grad_tol=1e-5))
        assert np.max(np.abs(report.x_final - prob.x_star)) <= 1e-12
