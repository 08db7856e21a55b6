import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cautious_lbfgs import (
    CautiousParams,
    LineSearchParams,
    OcpControlProblem,
    OcpGrid,
    PiecewiseQuadratic,
    Problem,
    Rosenbrock,
    SecantStore,
    SolverConfig,
    Space,
    compare_traces,
    fd_gradient_check,
    minimize,
)
from cautious_lbfgs import solver
from cautious_lbfgs.direction import two_loop
from cautious_lbfgs.solver import _Ray

ROSEN_X0 = np.array([-1.2, 1.0])


def config(m=2, **kwargs):
    kwargs.setdefault("oracle_checks", False)
    return SolverConfig(cautious=CautiousParams(m=m), **kwargs)


class SphereProblem(Problem):
    def __init__(self, dim=2):
        self.space = Space(dim)

    def value(self, x):
        x = self.space.check(x)
        return 0.5 * float(np.dot(x, x))

    def value_and_grad(self, x):
        x = self.space.check(x)
        return 0.5 * float(np.dot(x, x)), x.copy()


class NanGradProblem(Problem):
    """Finite values everywhere, NaN gradient near the minimizer."""

    def __init__(self):
        self.space = Space(1)

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
                self.space = Space(1)

            def value(self, x):
                return float(-x[0])

            def value_and_grad(self, x):
                return float(-x[0]), np.array([-1.0])

        prob = DownRay()
        report = minimize(prob, prob.space, np.array([0.0]),
                          config(m=0, linesearch="wolfe", grad_tol=1e-9))
        assert report.status == "linesearch_failure"
        assert report.reason == "stpmax: bracket expansion exceeded stpmax = 1000.0"
        assert report.n_iter == 0
        assert report.n_feval > 0  # the failed search's trials still count

    def test_eval_error_status(self):
        # the damped Newton state solve fails at this start instead of raising:
        # the norm of the state residual overflows
        prob = OcpControlProblem(OcpGrid(M=8))
        report = minimize(prob, prob.space, np.full(49, 1e300),
                          config(m=5, linesearch="wolfe", grad_tol=1e-9))
        assert report.status == "eval_error"
        assert report.reason == "NewtonError: damping failed to reduce the state residual"
        assert report.n_iter == 0

    def test_eval_error_inside_line_search(self):
        class Cliff(Problem):
            # defined only on x > -1; the first unit step leaves the domain
            def __init__(self):
                self.space = Space(1)

            def value(self, x):
                return math.log(1.0 + x[0]) + x[0] ** 2

            def value_and_grad(self, x):
                return self.value(x), np.array([1.0 / (1.0 + x[0]) + 2.0 * x[0]])

        prob = Cliff()
        report = minimize(prob, prob.space, np.array([0.0]), config(m=1, grad_tol=1e-9))
        assert report.status == "eval_error"
        assert report.reason == "ValueError: math domain error"
        assert report.n_iter == 0
        assert report.n_feval == 1  # the failed trial counts
        assert report.f_final == 0.0  # the run stops at the last good iterate

    def test_non_descent_status(self):
        # weight 1e-300 and grad = 1e-13: the gradient norm 1e-163 is above
        # tolerance, but inner(grad, -grad) = -1e-326 underflows to -0.0
        prob = SphereProblem()
        prob.space = Space(dim=1, weight=1e-300)
        report = minimize(prob, prob.space, np.array([1e-13]), config(m=1, grad_tol=1e-300))
        assert report.status == "non_descent"
        assert report.reason == "direction is not a descent direction: dphi0 = -0.0"
        assert report.n_iter == 0

    @pytest.mark.parametrize("m", [0, 1])
    def test_more_thuente_with_inexact_slope_returns(self, m):
        # the reported gradient is three times the true one: rounding makes
        # a cubic discriminant negative inside the More-Thuente step
        class Quartic(Problem):
            space = Space(1)

            def value_and_grad(self, x):
                t = float(x[0])
                return 4 * t**4 - t**3 - t, np.array([3.0 * (16 * t**3 - 3 * t**2 - 1)])

        prob = Quartic()
        cfg = config(m=m, linesearch="mt", ls=LineSearchParams(sigma=0.3))
        report = minimize(prob, prob.space, np.zeros(1), cfg)
        assert report.status in ("converged", "linesearch_failure")
        assert (report.reason is None) == (report.status == "converged")

    def test_reason_given_for_every_stop_but_convergence(self):
        prob = Rosenbrock()
        done = minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9))
        capped = minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9, max_iter=3))
        assert done.status == "converged" and done.reason is None
        assert capped.status == "max_iter" and capped.reason.endswith("after 3 iterations")
        nan = NanGradProblem()
        report = minimize(nan, nan.space, np.array([0.05]), config(m=1))
        assert report.status == "nonfinite"
        assert report.reason == "nonfinite objective or gradient at the starting point"


@pytest.fixture(scope="module")
def rosen_report():
    prob = Rosenbrock()
    return minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9))


class CountingRosenbrock(Rosenbrock):
    def __init__(self):
        super().__init__()
        self.calls = {"value": 0, "value_and_grad": 0}

    def value(self, x):
        self.calls["value"] += 1
        return super().value(x)

    def value_and_grad(self, x):
        self.calls["value_and_grad"] += 1
        return super().value_and_grad(x)


class TestEvaluations:
    @pytest.mark.parametrize("ls", ["armijo", "wolfe", "mt", "gll"])
    def test_one_evaluation_per_trial_step(self, ls):
        # the accepted step's gradient comes from the line search's last
        # evaluation, never from a second one, and value is never called
        prob = CountingRosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0, config(m=2, linesearch=ls, grad_tol=1e-9))
        assert report.status == "converged"
        assert prob.calls["value"] == 0
        assert prob.calls["value_and_grad"] == report.n_geval == report.n_feval + 1
        assert report.n_feval == sum(t.n_feval_ls for t in report.trace)

    def test_problem_defining_only_value_and_grad(self):
        class Quartic(Problem):
            space = Space(3)

            def value_and_grad(self, x):
                x = self.space.check(x)
                return float(np.sum(x**4) + 0.5 * np.dot(x, x)), 4.0 * x**3 + x

        prob = Quartic()
        assert prob.value(np.ones(3)) == 4.5
        assert fd_gradient_check(prob, np.array([0.3, -0.7, 1.1])) < 1e-6
        report = minimize(prob, prob.space, np.array([0.3, -0.7, 1.1]), config(m=2))
        assert report.status == "converged"


class TestSearchLookup:
    @pytest.mark.parametrize("ls", ["armijo", "wolfe", "mt", "gll"])
    def test_each_run_calls_the_configured_name_only(self, monkeypatch, ls):
        # the solver looks each search up by its own name at every run,
        # though armijo and gll are one function, so a wrapper installed
        # on that name before a run (bench/tracing.py's spans) sees each call
        names = {"armijo": "armijo_backtrack", "wolfe": "wolfe_weak", "mt": "more_thuente",
                 "gll": "gll_nonmonotone"}
        calls = dict.fromkeys(names.values(), 0)
        for name in calls:
            def counted(ray, params, _name=name, _search=getattr(solver, name)):
                calls[_name] += 1
                return _search(ray, params)
            monkeypatch.setattr(solver, name, counted)
        prob = Rosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0, config(m=1, linesearch=ls, max_iter=5))
        assert report.status == "max_iter"
        assert calls == {name: 5 if name == names[ls] else 0 for name in calls}


class TestValidation:
    @pytest.mark.parametrize("m", [0, 5])
    @pytest.mark.parametrize("ls", ["armijo", "wolfe", "mt", "gll"])
    def test_each_array_checked_once_where_it_enters(self, monkeypatch, ls, m):
        # x0 once, and each evaluation twice: the problem's x, then
        # minimize's gradient.  two_loop and push trust those arrays, as
        # does everything else.
        prob = PiecewiseQuadratic(100)
        x0 = np.random.default_rng(7).standard_normal(prob.space.dim)
        calls = dict.fromkeys(("check", "inner", "norm"), 0)
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(Space, name)):
                calls[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(Space, name, counted)
        report = minimize(prob, prob.space, x0, config(m=m, linesearch=ls, grad_tol=1e-5))
        assert report.status == "converged"
        assert calls["check"] == 1 + 2 * report.n_geval
        assert calls["inner"] == calls["norm"] == 0


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

    def test_storage_recorded_only_when_kept(self, rosen_report):
        assert all(t.storage is None for t in rosen_report.trace)
        prob = Rosenbrock()
        kept = minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9, keep_storage=True))
        assert compare_traces(kept, rosen_report) is None
        for t in kept.trace:
            # the snapshot is taken after the iteration's push
            assert len(t.storage) == min(2, t.n_stored + t.pair_stored)
            if t.pair_stored:
                assert t.storage[-1]["index"] == t.k

    def test_final_gradient_below_tolerance(self, rosen_report):
        assert rosen_report.grad_norm_final <= 1e-9

    @pytest.mark.parametrize(("ls", "m"), [("armijo", 0), ("mt", 0), ("wolfe", 2)])
    def test_iterates_kept_uncopied_keep_the_bytes_they_were_evaluated_at(self, ls, m):
        # every iterate is a point the objective was evaluated at; its bytes
        # then are the oracle for the array the report holds
        class RecordingRosenbrock(Rosenbrock):
            def value_and_grad(self, x):
                # holding x keeps its id from being reused
                evaluated[id(x)] = (x, x.tobytes())
                return super().value_and_grad(x)

        evaluated = {}
        prob = RecordingRosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0, config(m=m, linesearch=ls, grad_tol=1e-9))
        assert report.status == "converged"
        assert len(report.iterates) == report.n_iter + 1
        for x in report.iterates:
            point, recorded = evaluated[id(x)]
            assert point is x and x.tobytes() == recorded
        assert report.iterates[-1] is report.x_final

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

    @pytest.mark.parametrize("m", [0, 2, 5])
    @pytest.mark.parametrize("problem_id", ["rosenbrock", "pwquad"])
    def test_gll_memory_one_is_armijo(self, problem_id, m):
        # a one-entry history holds only the current f; a window slice that
        # took the whole trace at memory 1 would measure against f_0
        if problem_id == "pwquad":
            prob = PiecewiseQuadratic(100)
            x0, tol = prob.b + 0.3, 1e-5
        else:
            prob, x0, tol = Rosenbrock(), ROSEN_X0, 1e-9
        armijo, gll = (
            minimize(prob, prob.space, x0,
                     config(m=m, linesearch=ls, grad_tol=tol, keep_iterates=False,
                            ls=LineSearchParams(gll_memory=1)))
            for ls in ("armijo", "gll")
        )
        assert armijo.status == "converged"
        assert compare_traces(armijo, gll) is None
        assert np.array_equal(armijo.x_final, gll.x_final)

    def test_wolfe_stores_pair_every_iteration(self):
        prob = Rosenbrock()
        for ls in ("wolfe", "mt"):
            report = minimize(prob, prob.space, ROSEN_X0,
                              config(m=2, linesearch=ls, grad_tol=1e-9))
            assert report.status == "converged"
            assert all(t.pair_stored for t in report.trace)
            assert report.n_pairs_stored == report.n_iter


class TestStep:
    def test_start_at_minimiser_converges_with_empty_trace(self):
        prob = SphereProblem()
        report = minimize(prob, prob.space, np.zeros(2), config(m=1, grad_tol=1e-9))
        assert report.status == "converged"
        assert report.reason is None
        assert report.trace == []
        assert (report.n_iter, report.n_feval, report.n_geval) == (0, 0, 1)

    def test_first_rosenbrock_step_uses_seed_only(self):
        prob = Rosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0, config(m=2, grad_tol=1e-9, max_iter=1))
        assert report.status == "max_iter"
        [record] = report.trace
        assert record.k == 0
        assert record.n_active == 0
        assert record.gamma == 1.0

    def test_rejected_pair_resets_scaling_interval(self):
        class Valley(Problem):
            # gradient turns steeper along the ray, so inner(s, y) < 0
            def __init__(self):
                self.space = Space(1)

            def value(self, x):
                return float(-x[0] ** 3 / 3.0 - x[0])

            def value_and_grad(self, x):
                return self.value(x), np.array([-x[0] ** 2 - 1.0])

        prob = Valley()
        report = minimize(prob, prob.space, np.array([0.0]),
                          config(m=2, grad_tol=1e-12, max_iter=2, keep_storage=True))
        first, second = report.trace
        assert not first.pair_stored
        assert first.storage == []
        # the rejected pair left no usable pair, so the next seed falls
        # back to unit-step gradient scaling
        assert second.gamma == 1.0 / second.grad_norm


# signed zeros and subnormals, where a reordered or skipped product would show in the bits
TINY = 5e-324
SIGNED_X = np.array([0.0, -0.0, 0.0, -0.0, TINY, -TINY, 2.0 * TINY, 1.5, -0.0])
SIGNED_D = np.array([-0.0, -0.0, 0.0, 0.0, -TINY, -TINY, 0.0, -1.5, TINY])
# phi0, dphi0 and reference of a ray that no search reads
NO_SEARCH_LEVELS = (math.nan, math.nan, math.nan)


class TestRayAndDirectionBits:
    def test_unit_step_point_has_the_bits_of_one_times_d(self):
        prob = SphereProblem(dim=len(SIGNED_X))
        ray = _Ray(prob, prob.space, SIGNED_X, SIGNED_D, *NO_SEARCH_LEVELS)
        ray.dphi(1.0)
        assert ray.point.tobytes() == (SIGNED_X + 1.0 * SIGNED_D).tobytes()
        ray.phi(1.0)
        assert ray.n_feval == 1
        ray.phi(0.5)
        assert ray.point.tobytes() == (SIGNED_X + 0.5 * SIGNED_D).tobytes()
        assert ray.n_feval == 2
        assert not np.shares_memory(ray.point, SIGNED_X) and not np.shares_memory(ray.point, SIGNED_D)

    def test_step_is_d_at_a_unit_step_and_alpha_d_otherwise(self):
        # the solver stores the ray's step as s, so it must be the step
        # that point adds to x, in the bits of alpha * d
        prob = SphereProblem(dim=len(SIGNED_X))
        ray = _Ray(prob, prob.space, SIGNED_X, SIGNED_D, *NO_SEARCH_LEVELS)
        ray.phi(1.0)
        assert ray.step is SIGNED_D
        assert ray.point.tobytes() == (SIGNED_X + ray.step).tobytes()
        for alpha in (0.5, 2.0, 0.1, 1e-300, 1e150):
            ray.phi(alpha)
            assert ray.step.tobytes() == (alpha * SIGNED_D).tobytes()
            assert ray.point.tobytes() == (SIGNED_X + ray.step).tobytes()
            assert not np.shares_memory(ray.step, SIGNED_D) and not np.shares_memory(ray.step, ray.point)

    @pytest.mark.parametrize("gamma", [1.0, 0.75, 3.0])
    def test_direction_without_pairs_is_minus_gamma_grad(self, gamma):
        space = Space(len(SIGNED_D))
        grad = SIGNED_D.copy()
        d = two_loop(space, [], gamma, grad)
        assert d.tobytes() == (-(gamma * SIGNED_D)).tobytes()
        assert grad.tobytes() == SIGNED_D.tobytes()
        assert not np.shares_memory(d, grad)

    def test_direction_with_pairs_leaves_grad_unwritten(self):
        space = Space(len(SIGNED_D))
        store = SecantStore(2)
        rng = np.random.default_rng(3)
        for k in range(2):
            s = rng.standard_normal(space.dim)
            assert store.push(space, s, 2.0 * s + 0.1 * rng.standard_normal(space.dim), index=k)
        grad = SIGNED_D.copy()
        d = two_loop(space, store.active(0.0), 0.5, grad)
        assert grad.tobytes() == SIGNED_D.tobytes()
        assert not np.shares_memory(d, grad)


class TestPairOwnership:
    @pytest.mark.parametrize("m", [0, 1, 5])
    @pytest.mark.parametrize("ls", ["armijo", "wolfe", "mt", "gll"])
    @pytest.mark.parametrize("problem_id", ["pwquad", "rosenbrock", "ocp"])
    def test_store_holds_the_arrays_pushed_with_their_bytes(self, monkeypatch, problem_id, ls, m):
        # push keeps the s and y it is handed uncopied, so the solver must
        # hand it arrays that nothing writes afterwards and that no other
        # stored vector, iterate or x_final shares; nor may it write the
        # gradients the problem returned
        rng = np.random.default_rng(5)
        if problem_id == "pwquad":
            prob = PiecewiseQuadratic(10)
            x0 = rng.standard_normal(prob.space.dim)
        elif problem_id == "rosenbrock":
            prob, x0 = Rosenbrock(), ROSEN_X0
        else:
            prob = OcpControlProblem(OcpGrid(M=8))
            x0 = 1e-3 * rng.standard_normal(prob.space.dim)
        pushes, gradients = {}, []
        push, value_and_grad = SecantStore.push, prob.value_and_grad

        def recording_push(self, space, s, y, index):
            pushes[index] = (self, s, y, s.tobytes(), y.tobytes())
            return push(self, space, s, y, index=index)

        def recording_value_and_grad(x):
            f, grad = value_and_grad(x)
            gradients.append((grad, grad.tobytes()))
            return f, grad

        monkeypatch.setattr(SecantStore, "push", recording_push)
        monkeypatch.setattr(prob, "value_and_grad", recording_value_and_grad)
        report = minimize(prob, prob.space, x0, config(m=m, linesearch=ls, grad_tol=1e-6, max_iter=100))
        assert len(pushes) == report.n_iter > 0
        (store,) = {id(rec[0]): rec[0] for rec in pushes.values()}.values()
        for _, s, y, s_bytes, y_bytes in pushes.values():
            assert s.tobytes() == s_bytes and y.tobytes() == y_bytes
        for grad, grad_bytes in gradients:
            assert grad.tobytes() == grad_bytes
        assert len(store.pairs) == min(m, report.n_pairs_stored) and (m == 0 or store.pairs)
        stored = []
        for pair in store.pairs:
            _, s, y, _, _ = pushes[pair.index]
            assert pair.s is s and pair.y is y
            stored += [s, y]
        for i, u in enumerate(stored):
            others = stored[i + 1:] + report.iterates + [report.x_final]
            assert not any(np.shares_memory(u, v) for v in others)


class TestAudits:
    def test_audit_reports_present_and_clean(self):
        prob = Rosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0,
                          SolverConfig(cautious=CautiousParams(m=2), grad_tol=1e-9,
                                       oracle_checks=True))
        assert report.audits is not None
        assert len(report.audits) == report.n_iter
        assert report.bound_violations == 0
        for audit, t in zip(report.audits, report.trace):
            assert audit.norm_h_inv <= (2 + 1) / t.omega * (1 + 1e-9)

    def test_bound_violations_count_failed_audits(self):
        prob = PiecewiseQuadratic(10)
        report = minimize(prob, prob.space, prob.b.copy(),
                          SolverConfig(cautious=CautiousParams(m=5), grad_tol=1e-5,
                                       oracle_checks=True))
        assert report.audits
        assert report.bound_violations == sum(not a.ok for a in report.audits)

    def test_coarse_pde_grid_audit_clean(self):
        problem = OcpControlProblem(OcpGrid(M=16))
        report = minimize(problem, problem.space, np.zeros(problem.space.dim),
                          SolverConfig(cautious=CautiousParams(m=5), grad_tol=1e-9,
                                       oracle_checks=True))
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

    def test_audit_at_every_dimension(self):
        prob = PiecewiseQuadratic(200)  # dim 600
        report = minimize(prob, prob.space, prob.b.copy(),
                          SolverConfig(cautious=CautiousParams(m=5), grad_tol=1e-5,
                                       oracle_checks=True))
        assert report.status == "converged"
        assert report.audits is not None and len(report.audits) == report.n_iter
        assert report.bound_violations == 0

    def test_audit_disabled_for_classical_mode(self):
        prob = Rosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0,
                          SolverConfig(cautious=CautiousParams(m=2), mode="classical",
                                       grad_tol=1e-9))
        assert report.audits is None

    def test_audit_off_by_default(self):
        prob = Rosenbrock()
        report = minimize(prob, prob.space, ROSEN_X0,
                          SolverConfig(cautious=CautiousParams(m=2), grad_tol=1e-9))
        assert report.audits is None and report.bound_violations == 0


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

    @pytest.mark.parametrize("audit", [True, False])
    def test_underflowing_threshold_filters_at_level_zero(self, audit):
        # c2 = 100 drives omega below the smallest float near the solution
        prob = Rosenbrock()
        with pytest.warns(UserWarning):
            cfg = SolverConfig(cautious=CautiousParams(m=2, c2=100), grad_tol=1e-9,
                               oracle_checks=audit)
        report = minimize(prob, prob.space, ROSEN_X0, cfg)
        assert report.status == "converged"
        assert report.trace[-1].omega == 0.0
        assert report.bound_violations == 0

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

    def test_compare_traces_final_iterate_mismatch(self):
        prob = Rosenbrock()
        a = minimize(prob, prob.space, ROSEN_X0, config(m=1, grad_tol=1e-9))
        b = dataclasses.replace(a, x_final=np.nextafter(a.x_final, np.inf))
        # equal records, so the runs part only after the last iteration
        assert compare_traces(a, b) == a.n_iter

    def test_compare_traces_nan_final_iterates_are_equal(self):
        # a NaN start ends the run before any record, with x_final holding the NaN
        prob, x0 = Rosenbrock(), np.array([math.nan, 1.0])
        a, b, classical = (
            minimize(prob, prob.space, x0, config(m=2, mode=mode))
            for mode in ("cautious", "cautious", "classical")
        )
        assert a.status == "nonfinite" and not a.trace and math.isnan(a.x_final[0])
        assert compare_traces(a, b) is None
        assert compare_traces(a, classical) is None


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

    @pytest.mark.parametrize("make", [
        lambda v: CautiousParams(m=v),
        lambda v: LineSearchParams(maxfev=v),
        lambda v: LineSearchParams(gll_memory=v),
        lambda v: SolverConfig(cautious=CautiousParams(m=1), max_iter=v),
    ], ids=["m", "maxfev", "gll_memory", "max_iter"])
    def test_integer_settings_reject_non_integers(self, make):
        make(np.int64(3))
        for bad in (2.5, 3.0, "3"):
            with pytest.raises(ValueError):
                make(bad)

    def test_rate_guard_warning_propagates(self):
        with pytest.warns(UserWarning) as caught:
            SolverConfig(cautious=CautiousParams(m=1, c2=0.9))
        # reported at the line that built the config
        assert [w.filename for w in caught] == [__file__]


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
