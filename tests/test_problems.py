import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from cautious_lbfgs import (
    CautiousParams,
    NewtonError,
    OcpControlProblem,
    OcpGrid,
    PiecewiseQuadratic,
    Rosenbrock,
    SolverConfig,
    compare_traces,
    fd_gradient_check,
    minimize,
    problems,
)
from cautious_lbfgs.problems import laplacian_5pt
from cautious_lbfgs.solver import SolverState


def hessian_spectrum_scan(lo=-0.5, hi=1.4, n=41) -> tuple[float, float]:
    """(min, max) Rosenbrock Hessian eigenvalue over an n x n scan of [lo, hi]^2.

    The minimum comes out negative on parts of that square (wherever
    x2 > x1^2 + 0.005), so strong-convexity constants have to be read
    off a region where the returned minimum is positive.
    """
    hessian = Rosenbrock().hessian
    grid = np.linspace(lo, hi, n)
    lo_eig, hi_eig = np.inf, -np.inf
    for a in grid:
        for b in grid:
            eig = np.linalg.eigvalsh(hessian(np.array([a, b])))
            lo_eig = min(lo_eig, eig[0])
            hi_eig = max(hi_eig, eig[-1])
    return float(lo_eig), float(hi_eig)


class TestRosenbrock:
    def test_minimizer(self):
        f, grad = Rosenbrock().value_and_grad(np.array([1.0, 1.0]))
        assert f == 0.0
        assert_allclose(grad, [0.0, 0.0], atol=0)

    def test_origin(self):
        f, grad = Rosenbrock().value_and_grad(np.array([0.0, 0.0]))
        assert f == 1.0
        assert_allclose(grad, [-2.0, 0.0], atol=0)

    def test_standard_start(self):
        # (2.2)^2 + 100 (1 - 1.44)^2 = 4.84 + 19.36
        f, _ = Rosenbrock().value_and_grad(np.array([-1.2, 1.0]))
        assert_allclose(f, 24.2, rtol=1e-14)

    def test_gradient_against_finite_differences(self):
        prob = Rosenbrock()
        assert fd_gradient_check(prob, np.array([0.5, 0.5]), step=1e-6) <= 1e-7

    def test_gradient_vanishes_only_at_minimizer(self):
        prob = Rosenbrock()
        rng = np.random.default_rng(0)
        for _ in range(500):
            x = rng.uniform(-2, 2, size=2)
            if np.linalg.norm(x - [1.0, 1.0]) > 1e-3:
                _, grad = prob.value_and_grad(x)
                assert np.linalg.norm(grad) > 0.0

    def test_hessian_scan_detects_indefiniteness(self):
        # the scan square contains points with x2 > x1^2 + 1/200 where the
        # Hessian is indefinite, so the reported minimum is negative
        lo, hi = hessian_spectrum_scan(n=15)
        assert lo < 0.0 < hi


class TestPiecewiseQuadratic:
    def test_stationary_point_has_zero_gradient(self):
        prob = PiecewiseQuadratic(4)
        _, grad = prob.value_and_grad(prob.x_star)
        assert_allclose(grad, np.zeros(12), atol=1e-16)

    def test_gradient_at_anchor(self):
        prob = PiecewiseQuadratic(3)
        _, grad = prob.value_and_grad(prob.b)
        assert_allclose(grad, np.tile([99.0, 0.0, 0.0], 3), atol=0)

    def test_single_block_at_origin(self):
        f, grad = PiecewiseQuadratic(1).value_and_grad(np.zeros(3))
        assert f == 1.0
        assert_allclose(grad, [-1.0, 1.0, 0.0], atol=0)

    def test_block_count_validation(self):
        with pytest.raises(ValueError):
            PiecewiseQuadratic(0)

    def test_gradient_against_finite_differences_off_kinks(self):
        prob = PiecewiseQuadratic(5)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(15)
            x[np.abs(x) < 0.05] = 0.1  # keep clear of the kinks
            assert fd_gradient_check(prob, x, step=1e-6, seed=1) <= 1e-7

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_strong_convexity_and_lipschitz_constants(self, seed):
        prob = PiecewiseQuadratic(3)
        rng = np.random.default_rng(seed)
        a = rng.uniform(-3, 3, size=9)
        b = rng.uniform(-3, 3, size=9)
        _, ga = prob.value_and_grad(a)
        _, gb = prob.value_and_grad(b)
        gap = a - b
        norm2 = float(np.dot(gap, gap))
        assert np.dot(ga - gb, gap) >= prob.mu * norm2 - 1e-12
        assert np.linalg.norm(ga - gb) <= prob.lipschitz * np.sqrt(norm2) + 1e-12


class TestLaplacian:
    def test_single_interior_node(self):
        A = laplacian_5pt(2).toarray()
        assert_allclose(A, [[16.0]], rtol=0)

    def test_symmetry_and_row_structure(self):
        A = laplacian_5pt(8)
        assert (A != A.T).nnz == 0
        dense = A.toarray()
        assert_allclose(np.diag(dense), 4.0 * 64.0)

    def test_positive_definite(self):
        A = laplacian_5pt(8).toarray()
        assert np.linalg.eigvalsh(A).min() > 0.0

    def test_matches_laplacian_of_polynomial(self):
        # u = x1(1-x1) x2(1-x2) vanishes on the boundary and is quadratic
        # in each variable separately, so the stencil is exact on it:
        # -lap u = 2 [x1(1-x1) + x2(1-x2)]
        M = 16
        h = 1.0 / M
        idx = np.arange(1, M) * h
        x1, x2 = np.meshgrid(idx, idx, indexing="ij")
        u = (x1 * (1 - x1) * x2 * (1 - x2)).ravel()
        expected = 2.0 * (x1 * (1 - x1) + x2 * (1 - x2)).ravel()
        assert_allclose(laplacian_5pt(M) @ u, expected, rtol=1e-11, atol=1e-13)


class TestOcpGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            OcpGrid(M=3)
        with pytest.raises(ValueError):
            OcpGrid(M=1)
        with pytest.raises(ValueError):
            OcpGrid(M=4, nu=0.0)

    def test_default_target_state_shape(self):
        grid = OcpGrid(M=8)
        assert grid.target_state.shape == (49,)

    def test_target_state_validation(self):
        with pytest.raises(ValueError):
            OcpGrid(M=4, target_state=np.zeros(5))


class TestOcpState:
    def test_single_node_forced_solution(self):
        # 16*0 + exp(0) = 1, so u = 1 gives y = 0
        y, _ = OcpControlProblem(OcpGrid(M=2)).solve_state(np.array([1.0]))
        assert_allclose(y, [0.0], atol=1e-13)

    def test_manufactured_single_node(self):
        c = 0.37
        u = np.array([16.0 * c + np.exp(c)])
        y, _ = OcpControlProblem(OcpGrid(M=2)).solve_state(u)
        assert_allclose(y, [c], atol=1e-12)

    def test_residual_postcondition(self):
        grid = OcpGrid(M=16)
        prob = OcpControlProblem(grid)
        y, _ = prob.solve_state(np.zeros(prob.space.dim))
        residual = prob.laplacian @ y + np.exp(y) - 0.0
        assert prob.space.norm(residual) <= 1e-12

    def test_manufactured_round_trip(self):
        grid = OcpGrid(M=8)
        prob = OcpControlProblem(grid)
        rng = np.random.default_rng(4)
        y_target = rng.uniform(-1, 1, size=prob.space.dim)
        u = prob.laplacian @ y_target + np.exp(y_target)
        y, _ = prob.solve_state(u)
        assert_allclose(y, y_target, atol=1e-10)

    def test_iteration_cap(self):
        grid = OcpGrid(M=4, newton_max=1)
        with pytest.raises(NewtonError):
            OcpControlProblem(grid).solve_state(np.full(9, 50.0))


class TestOcpAdjoint:
    def test_zero_mismatch(self):
        grid = OcpGrid(M=4)
        prob = OcpControlProblem(grid)
        p = prob.solve_adjoint(prob.target_state)
        assert_allclose(p, np.zeros(9), atol=1e-14)

    def test_single_node_value(self):
        grid = OcpGrid(M=2, target_state=np.array([1.0]))
        p = OcpControlProblem(grid).solve_adjoint(np.array([0.0]))
        assert_allclose(p, [-1.0 / 17.0], rtol=1e-14)

    def test_residual_postcondition(self):
        grid = OcpGrid(M=8)
        prob = OcpControlProblem(grid)
        rng = np.random.default_rng(8)
        y = rng.uniform(-0.5, 0.5, size=prob.space.dim)
        p = prob.solve_adjoint(y)
        lhs = (prob.laplacian @ p) + np.exp(y) * p
        assert np.linalg.norm(lhs - (y - prob.target_state)) <= 1e-12 * max(
            1.0, np.linalg.norm(y)
        )


class TestOcpObjective:
    def test_penalty_only_when_state_matches(self):
        grid = OcpGrid(M=2, nu=1e-3, target_state=np.array([0.0]))
        f, grad = OcpControlProblem(grid).value_and_grad(np.array([1.0]))
        assert_allclose(f, 1.25e-4, rtol=1e-12)
        assert_allclose(grad, 1e-3 * np.array([1.0]), atol=1e-15)

    def test_gradient_against_finite_differences(self):
        for j in (2, 3, 4):
            grid = OcpGrid(M=2**j)
            prob = OcpControlProblem(grid)
            rng = np.random.default_rng(j)
            u = rng.standard_normal(prob.space.dim)
            assert fd_gradient_check(prob, u, n_directions=5, step=1e-5, seed=j) <= 1e-6

    def test_riesz_convention_uses_grid_product(self):
        # the same mismatch on a finer grid scales the Euclidean entries
        # of the gradient, not its grid norm
        grid = OcpGrid(M=8)
        prob = OcpControlProblem(grid)
        u = np.ones(prob.space.dim)
        f, grad = prob.value_and_grad(u)
        v = np.ones(prob.space.dim)
        t = 1e-6
        directional = (prob.value(u + t * v) - prob.value(u - t * v)) / (2 * t)
        assert_allclose(prob.space.inner(grad, v), directional, rtol=1e-6)


class ReassemblingOcp(OcpControlProblem):
    """Oracle that assembles and factors A + diag(exp(y)) wherever a factor is needed.

    It never reuses the factor of A + I built at construction nor writes
    a diagonal into the shared pattern, so the problem must agree with it
    bit for bit.  splu is looked up on ``problems.spla`` so that counting
    views patched there see these calls too.
    """

    def _jacobian_lu(self, y):
        jac = (self.laplacian + sp.diags(np.exp(y))).tocsc()
        return problems.spla.splu(jac, permc_spec=problems.PERMC_SPEC)


def _controls(M):
    """u = 0, u = 1 (whose state is exactly y = 0) and a seeded random u."""
    dim = (M - 1) ** 2
    rng = np.random.default_rng(M)
    return [np.zeros(dim), np.ones(dim), rng.standard_normal(dim)]


@pytest.fixture
def splu_calls(monkeypatch):
    """Count the splu calls the problems module makes, as the bench tracer does."""
    calls = []
    real = problems.spla

    class CountingView:
        def __getattr__(self, name):
            return getattr(real, name)

        def splu(self, A, **kwargs):
            calls.append(A.shape)
            return real.splu(A, **kwargs)

    monkeypatch.setattr(problems, "spla", CountingView())
    return calls


class TestOcpFactorReuse:
    @pytest.mark.parametrize("M", [2, 4, 32])
    def test_value_and_grad_matches_reassembling_oracle(self, M):
        prob = OcpControlProblem(OcpGrid(M=M))
        oracle = ReassemblingOcp(OcpGrid(M=M))
        for u in _controls(M):
            f, grad = prob.value_and_grad(u)
            f_ref, grad_ref = oracle.value_and_grad(u)
            assert np.array_equal(f, f_ref)
            assert np.array_equal(grad, grad_ref)

    @pytest.mark.parametrize("ls", ["armijo", "mt"])
    @pytest.mark.parametrize("m", [0, 5, 10])
    def test_minimize_matches_reassembling_oracle(self, ls, m):
        grid = OcpGrid(M=16)
        runs = []
        for prob in (OcpControlProblem(grid), ReassemblingOcp(grid)):
            config = SolverConfig(cautious=CautiousParams(m=m), linesearch=ls,
                                  grad_tol=1e-8, oracle_checks=False)
            runs.append(minimize(prob, prob.space, np.zeros(prob.space.dim), config))
        ours, ref = runs
        assert ours.status == ref.status == "converged"
        assert compare_traces(ours, ref, fields=("f", "grad_norm", "gamma", "alpha", "n_active")) is None
        assert ours.x_final.tobytes() == ref.x_final.tobytes()

    @pytest.mark.parametrize("M", [2, 4, 32])
    def test_at_most_one_factorization_per_evaluation(self, M, splu_calls):
        prob = OcpControlProblem(OcpGrid(M=M))
        for u in _controls(M):
            del splu_calls[:]
            prob.value_and_grad(u)
            # the state solve steps on the factor of A + I; at u = 1 the state
            # is exactly y = 0, so the adjoint reuses that factor too
            assert len(splu_calls) <= 1
            assert (len(splu_calls) == 0) == np.array_equal(u, np.ones_like(u))

    def test_evaluations_leave_no_state_behind(self):
        grid = OcpGrid(M=8)
        prob = OcpControlProblem(grid)
        rng = np.random.default_rng(5)
        u1 = rng.standard_normal(prob.space.dim)
        u2 = 2.0 * rng.standard_normal(prob.space.dim)
        for u in (u1, u2, np.ones(prob.space.dim), u1):
            f, grad = prob.value_and_grad(u)
            f_fresh, grad_fresh = OcpControlProblem(grid).value_and_grad(u)
            assert np.array_equal(f, f_fresh)
            assert np.array_equal(grad, grad_fresh)


OCP8 = OcpControlProblem(OcpGrid(M=8))
CONTROLS8 = hnp.arrays(float, OCP8.space.dim, elements=st.floats(-50.0, 50.0))


class TestOcpEvaluator:
    def test_runs_interleaved_on_one_problem_match_runs_on_fresh_problems(self):
        grid = OcpGrid(M=16)
        shared = OcpControlProblem(grid)
        rng = np.random.default_rng(6)
        runs = [
            (SolverConfig(cautious=CautiousParams(m=5), linesearch="armijo", grad_tol=1e-8,
                          oracle_checks=False), np.zeros(shared.space.dim)),
            (SolverConfig(cautious=CautiousParams(m=10), linesearch="mt", grad_tol=1e-8,
                          oracle_checks=False), 1e-2 * rng.standard_normal(shared.space.dim)),
        ]
        states = [SolverState(shared, shared.space, x0, config) for config, x0 in runs]
        # one iteration of each run in turn, so every evaluation of one run
        # follows an evaluation of the other on the same problem
        while not all(state.terminated for state in states):
            for state in states:
                state.step()
        for state, (config, x0) in zip(states, runs):
            fresh = OcpControlProblem(grid)
            ref = minimize(fresh, fresh.space, x0, config)
            ours = state.report()
            assert ours.status == ref.status == "converged"
            assert compare_traces(ours, ref, fields=("f", "grad_norm", "gamma", "alpha", "n_active")) is None
            assert ours.x_final.tobytes() == ref.x_final.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(CONTROLS8, CONTROLS8, st.floats(0.0, 1.0))
    def test_warm_state_solve_matches_cold(self, u1, v, t):
        prob = OCP8
        u2 = u1 + t * v
        start = prob.solve_state(u1)
        y_warm, _ = prob.solve_state(u2, start=start)
        y_cold, _ = prob.solve_state(u2)
        residual = prob.laplacian @ y_warm + np.exp(y_warm) - u2
        assert prob.space.norm(residual) <= prob.grid.newton_tol
        assert np.max(np.abs(y_warm - y_cold)) <= 1e-10

    @pytest.mark.parametrize("j", [5, 6, 7])
    def test_tight_reference_solve_converges(self, j, splu_calls):
        # m = 10 Armijo to 1e-12 from u = 0: the reference solution of the
        # command line's q-factor columns (j = 6 in --table t4) and of the
        # benchmark (j = 5).  Near 1e-12 the Armijo test compares f values
        # a few ulps apart, so the states must sit at their rounding floor.
        prob = OcpControlProblem(OcpGrid(M=2**j))
        config = SolverConfig(cautious=CautiousParams(m=10), linesearch="armijo", grad_tol=1e-12,
                              max_iter=500, oracle_checks=False, keep_iterates=False)
        del splu_calls[:]
        report = minimize(prob, prob.space, np.zeros(prob.space.dim), config)
        assert report.status == "converged"
        assert len(splu_calls) <= 1.3 * report.n_geval
