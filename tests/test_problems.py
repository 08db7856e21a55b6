import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from cautious_lbfgs import (
    CautiousParams,
    LineSearchParams,
    NewtonError,
    OcpControlProblem,
    OcpGrid,
    PiecewiseQuadratic,
    Rosenbrock,
    SolverConfig,
    Space,
    compare_traces,
    fd_gradient_check,
    make_grid_space,
    minimize,
    problems,
)
from cautious_lbfgs.problems import laplacian_5pt
from test_faults import CountingMatmul


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


def rosenbrock_on_numpy_scalars(x):
    """Rosenbrock's f and gradient as computed on numpy scalars before floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = x[1] - x[0] ** 2
        f = (1.0 - x[0]) ** 2 + 100.0 * t**2
        grad = np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * t, 200.0 * t])
    return float(f), grad


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

    def test_float_arithmetic_matches_numpy_scalars_bit_for_bit(self):
        # seeded points of every sign with magnitudes from 1e-300 to 1e200;
        # past about 1e154 a square overflows, which raises in Python and
        # gives inf in numpy, and the result must still be numpy's
        rng = np.random.default_rng(25)
        points = np.exp(rng.uniform(np.log(1e-300), np.log(1e200), size=(20_000, 2)))
        points *= rng.choice([-1.0, 1.0], size=points.shape)
        points[:6] = [[1e155, 1.0], [1.0, 1e155], [-1e200, 1e200], [1e154, -1e200],
                      [1e-300, -1e-300], [1.0, 1e200]]
        prob = Rosenbrock()
        n_overflow = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in points:
                f, grad = prob.value_and_grad(x)
                f_old, grad_old = rosenbrock_on_numpy_scalars(x)
                assert np.float64(f).tobytes() == np.float64(f_old).tobytes(), x
                assert grad.dtype == float and grad.tobytes() == grad_old.tobytes(), x
                n_overflow += not np.isfinite(f)
        assert n_overflow > 1000

    def test_overflowing_trial_is_rejected_by_the_line_search(self):
        # the first trial from (1e25, 0) lies near (-4e77, 0), where the
        # square of x2 - x1^2 overflows: the searches backtrack from f = inf
        # as they did on numpy scalars (More-Thuente fails on it), instead
        # of ending the run as eval_error
        class NumpyScalarRosenbrock(Rosenbrock):
            def value_and_grad(self, x):
                return rosenbrock_on_numpy_scalars(self.space.check(x))

        x0 = np.array([1e25, 0.0])
        for ls in ("armijo", "wolfe", "mt", "gll"):
            config = SolverConfig(cautious=CautiousParams(m=2), linesearch=ls, max_iter=30,
                                  ls=LineSearchParams(maxfev=300))
            report = minimize(Rosenbrock(), Space(2), x0, config)
            assert report.status != "eval_error", ls
            old = minimize(NumpyScalarRosenbrock(), Space(2), x0, config)
            assert (report.status, report.reason) == (old.status, old.reason)
            assert compare_traces(report, old) is None

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

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e200])
    def test_evaluation_has_the_bits_of_the_allocating_formula(self, scale):
        # the gradient is formed in place in max(0, x); f and every entry must
        # keep the bits of the formula with a fresh array per operation
        prob = PiecewiseQuadratic(100)
        b = prob.b.copy()
        rng = np.random.default_rng(int(math.log10(scale)) + 400)
        signed = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]
        for extra in ([], [math.inf, -math.inf], [math.nan, -math.nan], [math.inf, math.nan]):
            x = scale * rng.standard_normal(300)
            x[rng.permutation(300)[:24]] = (signed + extra) * (24 // len(signed + extra))
            with np.errstate(all="ignore"):
                d = x - b
                pos = np.maximum(0.0, x)
                f_expected = 0.5 * np.dot(d, d) + 49.5 * np.add.reduce(pos**2)
                grad_expected = d + 99.0 * pos
                f, grad = prob.value_and_grad(x)
            assert np.float64(f).tobytes() == np.float64(f_expected).tobytes()
            assert grad.tobytes() == grad_expected.tobytes()
            assert not np.shares_memory(grad, x) and not np.shares_memory(grad, prob.b)
            assert prob.b.tobytes() == b.tobytes()

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

    def test_target_state_whose_tracking_term_overflows_is_rejected(self):
        # 0.5 h^2 ||y_d||^2 overflows at entries of 1e155, and every run from
        # there would end nonfinite at its start; 1e150 still evaluates
        with pytest.raises(ValueError, match="finite"):
            OcpGrid(M=4, target_state=np.full(9, 1e155))
        grid = OcpGrid(M=4, target_state=np.full(9, 1e150))
        f, _ = OcpControlProblem(grid).value_and_grad(np.zeros(9))
        assert math.isfinite(f)


class TestOcpState:
    def test_single_node_forced_solution(self):
        # 16*0 + exp(0) = 1, so u = 1 gives y = 0
        y = OcpControlProblem(OcpGrid(M=2)).solve_state(np.array([1.0]))
        assert_allclose(y, [0.0], atol=1e-13)

    def test_manufactured_single_node(self):
        c = 0.37
        u = np.array([16.0 * c + np.exp(c)])
        y = OcpControlProblem(OcpGrid(M=2)).solve_state(u)
        assert_allclose(y, [c], atol=1e-12)

    def test_residual_postcondition(self):
        grid = OcpGrid(M=16)
        prob = OcpControlProblem(grid)
        y = prob.solve_state(np.zeros(prob.space.dim))
        residual = prob.laplacian @ y + np.exp(y) - 0.0
        assert prob.space.norm(residual) <= 1e-12

    def test_manufactured_round_trip(self):
        grid = OcpGrid(M=8)
        prob = OcpControlProblem(grid)
        rng = np.random.default_rng(4)
        y_target = rng.uniform(-1, 1, size=prob.space.dim)
        u = prob.laplacian @ y_target + np.exp(y_target)
        y = prob.solve_state(u)
        assert_allclose(y, y_target, atol=1e-10)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(problems, "NEWTON_MAX", 1)
        with pytest.raises(NewtonError):
            OcpControlProblem(OcpGrid(M=4)).solve_state(np.full(9, 50.0))

    def test_steps_run_out_at_the_rounding_floor(self, monkeypatch):
        # a large constant control's residual floor lies above NEWTON_TOL, so
        # no step ends the solve by the tolerance.  Raise the cap one step at
        # a time: the first cap at which the solve returns is one where the
        # steps ran out, since the floor test inside a step would have seen
        # the same residual under the cap before, which raised
        prob = OcpControlProblem(OcpGrid(M=8))
        u = np.full(49, 3000.0)
        for n_max in range(1, problems.NEWTON_MAX):
            monkeypatch.setattr(problems, "NEWTON_MAX", n_max)
            try:
                y = prob.solve_state(u)
                break
            except NewtonError as err:
                assert "unfinished" in str(err)
        assert n_max > 1
        residual = prob.laplacian @ y + np.exp(y) - u
        floor = abs(prob.laplacian) @ np.abs(y) + np.exp(y) + np.abs(u)
        res_norm = prob.space.norm(residual)
        assert problems.NEWTON_TOL < res_norm <= 8.0 * problems.EPS * prob.space.norm(floor)


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


def _adjoint_controls(M):
    """The problem on the grid M, a smooth control and 10 N(0, I)."""
    prob = OcpControlProblem(OcpGrid(M=M))
    idx = np.arange(1, M) / M
    x1, x2 = np.meshgrid(idx, idx, indexing="ij")
    smooth = (np.sin(np.pi * x1) * np.sin(np.pi * x2)).ravel()
    return prob, [smooth, 10.0 * np.random.default_rng(M).standard_normal(prob.space.dim)]


class TestOcpNeumannAdjoint:
    @pytest.mark.parametrize("M", [4, 32, 128])
    def test_matches_refined_superlu(self, M):
        prob, controls = _adjoint_controls(M)
        for u in controls:
            y = prob.solve_state(u)
            rhs = y - prob.target_state
            matrix = (prob.laplacian + sp.diags(np.exp(y))).tocsc()
            lu = problems.spla.splu(matrix, permc_spec=problems.PERMC_SPEC)
            exact = matrix.astype(np.longdouble)
            p_ref = lu.solve(rhs)
            for _ in range(2):
                p_ref = p_ref + lu.solve((rhs - exact @ p_ref).astype(float))
            # measured at most 4.5e-15 relative (M = 128)
            p = prob.solve_adjoint(y)
            assert np.linalg.norm(p - p_ref) <= 1e-13 * np.linalg.norm(p_ref)

    @pytest.mark.parametrize("M", [4, 32, 128])
    def test_no_product_with_the_laplacian(self, M):
        prob, controls = _adjoint_controls(M)
        prob.laplacian = CountingMatmul(prob.laplacian)
        sine_solves = []
        solve = prob._solve_at_zero

        def counted_solve(r):
            sine_solves.append(r)
            return solve(r)

        prob._solve_at_zero = counted_solve
        for u in controls:
            # the state solve forms one residual per chord step it takes,
            # none for its start y = 0, and its last sine solve ends it
            del sine_solves[:]
            y = prob.solve_state(u)
            assert prob.laplacian.count == len(sine_solves) - 1
            prob.laplacian.count = 0
            prob.solve_adjoint(y)
            assert prob.laplacian.count == 0
        # the control whose state is y = 0 costs no product at all
        assert not np.any(prob.solve_state(np.ones(prob.space.dim)))
        assert prob.laplacian.count == 0

    def test_stall_forms_one_residual_and_factors(self):
        # (e^4 - 1) / (lambda_min + 1) is about 2.6, so the second correction
        # is larger than the first
        prob = OcpControlProblem(OcpGrid(M=8))
        prob.laplacian = CountingMatmul(prob.laplacian)
        y = np.full(prob.space.dim, 4.0)
        p = prob.solve_adjoint(y)
        assert prob.laplacian.count == 1
        assert np.array_equal(p, prob._jacobian_lu(y).solve(y - prob.target_state))

    def test_stall_below_the_tolerance_returns_the_partial_sum(self, splu_calls):
        # the series diverges at y = 4 as above, but y - y_d is so small that
        # the residual after the first correction is already below NEWTON_TOL
        y = np.full(49, 4.0)
        prob = OcpControlProblem(OcpGrid(M=8, target_state=y - 1e-13))
        prob.laplacian = CountingMatmul(prob.laplacian)
        p = prob.solve_adjoint(y)
        assert prob.laplacian.count == 1
        assert splu_calls == []
        assert np.array_equal(p, prob._solve_at_zero(y - prob.target_state))


@pytest.mark.parametrize(("build", "args", "kwargs"), [
    (Space, (2.5,), {}),
    (Space, (3.0,), {}),
    (Space, (3,), {"weight": math.inf}),
    (Space, (3,), {"weight": math.nan}),
    (make_grid_space, (4.5,), {}),
    (PiecewiseQuadratic, (2.5,), {}),
    (OcpGrid, (), {"M": 4.5}),
    (OcpGrid, (), {"M": 4.0}),
    (OcpGrid, (), {"M": 4, "nu": math.inf}),
    (OcpGrid, (), {"M": 2, "target_state": np.array([math.nan])}),
])
def test_sizes_are_integers_and_weights_finite(build, args, kwargs):
    with pytest.raises(ValueError):
        build(*args, **kwargs)


def test_numpy_integer_sizes_are_valid():
    assert Space(np.int64(3)).dim == 3
    assert make_grid_space(np.int32(4)).dim == 9
    assert PiecewiseQuadratic(np.int64(2)).space.dim == 6
    assert OcpControlProblem(OcpGrid(M=np.int64(4))).space.dim == 9


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
    """Oracle that assembles and factors A + diag(exp(y)) at every Newton step and for the adjoint.

    Its state solve is damped Newton from y = 0 that, once the residual is
    below ``newton_tol`` (by default the library's NEWTON_TOL), takes two
    more full steps, which carry a quadratic iteration to its rounding
    floor; it never solves with A + I in its sine basis.  splu is looked up
    on ``problems.spla`` so that counting views patched there see these
    calls too.
    """

    def __init__(self, grid, newton_tol=problems.NEWTON_TOL):
        super().__init__(grid)
        self.newton_tol = newton_tol

    def _factor(self, y):
        jac = (self.laplacian + sp.diags(np.exp(y))).tocsc()
        return problems.spla.splu(jac, permc_spec=problems.PERMC_SPEC)

    def _residual(self, y, u):
        residual = self.laplacian @ y + np.exp(y) - u
        return residual, self.space.norm(residual)

    def solve_state(self, u):
        tol = self.newton_tol
        y = np.zeros(self.space.dim)
        residual, res_norm = self._residual(y, u)
        extra = 2
        for _ in range(problems.NEWTON_MAX):
            if res_norm <= tol:
                if extra == 0:
                    return y
                extra -= 1
            delta = self._factor(y).solve(-residual)
            t = 1.0
            with np.errstate(over="ignore", invalid="ignore"):
                r_trial, r_norm = self._residual(y + delta, u)
                while res_norm > tol and not r_norm < res_norm:
                    t *= 0.5
                    if t < 2.0**-40:
                        raise NewtonError("oracle damping failed")
                    r_trial, r_norm = self._residual(y + t * delta, u)
            y, residual, res_norm = y + t * delta, r_trial, r_norm
        raise NewtonError("oracle Newton solve unfinished")

    def solve_adjoint(self, y):
        return self._factor(y).solve(y - self.target_state)


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
            # measured at most 9.1e-16 relative on the gradient here (8.6e-15 at M = 64)
            assert abs(f - f_ref) <= 1e-13 * abs(f_ref)
            assert np.linalg.norm(grad - grad_ref) <= 1e-13 * np.linalg.norm(grad_ref)

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
        assert (ours.n_iter, ours.n_feval, ours.n_unit_steps) == (ref.n_iter, ref.n_feval, ref.n_unit_steps)
        assert_allclose(ours.x_final, ref.x_final, rtol=0, atol=1e-10 * np.max(np.abs(ref.x_final)))

    @pytest.mark.parametrize("M", [2, 4, 32])
    def test_at_most_one_factorization_per_evaluation(self, M, splu_calls):
        prob = OcpControlProblem(OcpGrid(M=M))
        for u in _controls(M):
            prob.value_and_grad(u)
        # none at all, construction included: both solves step with A + I
        # in its sine basis, which needs no factor
        assert splu_calls == []

    @pytest.mark.parametrize("M", [2, 4, 16, 64, 128])
    def test_sine_basis_solve_matches_superlu(self, M):
        prob = OcpControlProblem(OcpGrid(M=M))
        matrix = (prob.laplacian + sp.identity(prob.space.dim)).tocsc()
        lu = problems.spla.splu(matrix, permc_spec=problems.PERMC_SPEC)
        exact = matrix.astype(np.longdouble)
        rng = np.random.default_rng(M)
        for _ in range(3):
            r = rng.standard_normal(prob.space.dim)
            x = prob._solve_at_zero(r)
            # SuperLU's own forward error reaches 1.3e-13 at M = 128 (the
            # condition number of A + I grows like M^2), so the oracle is its
            # solution refined twice on residuals in long double
            x_ref = lu.solve(r)
            for _ in range(2):
                x_ref = x_ref + lu.solve((r - exact @ x_ref).astype(float))
            # measured at most 3.5e-14 relative residual and 1.7e-15 relative
            # difference (M = 128)
            assert np.linalg.norm(matrix @ x - r) <= 1e-13 * np.linalg.norm(r)
            assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)

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


def matmul_sine_solve(prob, r):
    """The sine-basis solve written with ``@``: the oracle of ``_solve_at_zero``'s bits."""
    V = prob._sine
    return (V @ ((V @ r.reshape(V.shape) @ V) / prob._eigenvalues) @ V).ravel()


class TestOcpInPlaceSolves:
    @pytest.mark.parametrize("M", [2, 4, 8, 16, 32, 64, 128])
    def test_sine_basis_solve_gives_the_bits_of_matmul(self, M):
        # at M >= 4 ndarray.dot and @ reach the same GEMM.  At M = 2 dot
        # multiplies the 1 x 1 products, where @ sums them from +0: the two
        # differ on an entry of -0, and on a negative entry whose quotient
        # by the eigenvalue underflows
        prob = OcpControlProblem(OcpGrid(M=M))
        dim = prob.space.dim
        rng = np.random.default_rng(M)
        vectors = [scale * rng.standard_normal(dim) for scale in 10.0 ** np.arange(-100, 101, 20)]
        signed = rng.standard_normal(dim)
        signed[::3], signed[1::3] = -0.0, 0.0
        vectors += [signed, np.full(dim, -0.0), np.full(dim, -5e-324)]
        for r in vectors:
            assert prob._solve_at_zero(r).tobytes() == matmul_sine_solve(prob, r).tobytes()
            # r + 0.0 turns every -0 into +0: the solve's bits do not depend
            # on the signs of zeros in its input, which the state's negated
            # residual relies on
            assert prob._solve_at_zero(r).tobytes() == prob._solve_at_zero(r + 0.0).tobytes()

    @pytest.mark.parametrize(("path", "factors"), [
        ("chord", (0, 0, 0)),
        ("newton", (5, 1, 6)),
        ("adjoint stall", (2, 1, 3)),
        ("adjoint partial sum", (2, 0, 2)),
    ])
    def test_solves_leave_their_inputs_unchanged_and_unshared(self, path, factors, splu_calls):
        # the state's residual and the adjoint's series are updated in
        # place, on arrays the solves made themselves
        y4 = np.full(49, 4.0)
        if path == "chord":
            prob, controls = _adjoint_controls(32)
            u = 1e-3 * controls[0]
            y = prob.solve_state(u)
        elif path == "newton":
            # the large constant control of test_steps_run_out_at_the_rounding_floor
            prob = OcpControlProblem(OcpGrid(M=8))
            u = np.full(49, 3000.0)
            y = prob.solve_state(u)
        else:
            # the diverging series of the two stall tests of TestOcpNeumannAdjoint
            target = y4 - 1e-13 if path == "adjoint partial sum" else None
            prob = OcpControlProblem(OcpGrid(M=8, target_state=target))
            u, y = prob.laplacian @ y4 + np.exp(y4), y4
        inputs = {"u": u, "y": y, "target_state": prob.grid.target_state}
        saved = {name: v.tobytes() for name, v in inputs.items()}
        outputs, counts = {}, []
        for name, call in (("state", lambda: prob.solve_state(u)),
                           ("adjoint", lambda: prob.solve_adjoint(y)),
                           ("gradient", lambda: prob.value_and_grad(u)[1])):
            del splu_calls[:]
            outputs[name] = call()
            counts.append(len(splu_calls))
        # each case takes the branches it is named for
        assert tuple(counts) == factors
        for name, v in inputs.items():
            assert v.tobytes() == saved[name], name
        for out_name, out in outputs.items():
            for name, v in inputs.items():
                assert not np.shares_memory(out, v), (out_name, name)


def _signed_controls(M):
    """u = 0, u = 1 (whose residual at y = 0 cancels exactly) and seeded
    controls with +-0 and subnormal entries."""
    dim = (M - 1) ** 2
    rng = np.random.default_rng(M)
    signed = rng.standard_normal(dim)
    signed[::3], signed[1::3] = -0.0, 0.0
    tiny = 1e-3 * rng.standard_normal(dim)
    tiny[::2] = np.copysign(5e-324, tiny[::2])
    tiny[1::4] = -2.5e-310
    return [np.zeros(dim), np.ones(dim), signed, tiny]


def negated_solve_chord_state(prob, u):
    """The state's chord steps on the residual A y + exp(y) - u, each solving for -r.

    The oracle of ``solve_state``'s bits where no step damps or factors;
    it fails where one would.
    """
    space, tol = prob.space, problems.NEWTON_TOL
    y = np.zeros(space.dim)
    residual = prob.laplacian @ y + np.exp(y) - u
    res_norm, step_norm = space.norm(residual), np.inf
    for _ in range(problems.NEWTON_MAX):
        delta = prob._solve_at_zero(-residual)
        delta_norm = space.norm(delta)
        halves = delta_norm <= 0.5 * step_norm
        if res_norm <= tol and (not halves or delta_norm <= 4.0 * problems.EPS * space.norm(y)):
            return y
        assert halves, "a chord step failed to halve above the tolerance"
        y = y + delta
        residual = prob.laplacian @ y + np.exp(y) - u
        r_norm = space.norm(residual)
        assert res_norm <= tol or r_norm < res_norm, "a full step failed to reduce the residual"
        res_norm, step_norm = r_norm, delta_norm
    raise AssertionError("the chord steps ran out")


class TestOcpEvaluationBits:
    @pytest.mark.parametrize("M", [2, 4, 32, 128])
    def test_objective_has_the_bits_of_the_long_double_sums(self, M):
        prob = OcpControlProblem(OcpGrid(M=M))
        for u in _signed_controls(M):
            y = prob.solve_state(u)
            f_ref = float(0.5 * prob.space.weight * (
                np.sum(np.square(y - prob.target_state, dtype=np.longdouble))
                + prob.grid.nu * np.sum(np.square(u, dtype=np.longdouble))))
            f, _ = prob.value_and_grad(u)
            assert np.float64(f).tobytes() == np.float64(f_ref).tobytes()

    @pytest.mark.parametrize("M", [2, 4, 32, 128])
    def test_state_has_the_bits_of_the_negated_solve(self, M, splu_calls):
        # the state carries u - (A y + exp(y)), which differs from the
        # negated residual only in the signs of zeros (u = 1 makes every
        # entry of the first one a zero)
        prob, controls = _adjoint_controls(M)
        for u in _signed_controls(M) + [1e-3 * c for c in controls] + controls:
            assert prob.solve_state(u).tobytes() == negated_solve_chord_state(prob, u).tobytes()
        # none of them damps or factors
        assert splu_calls == []


OCP8 = OcpControlProblem(OcpGrid(M=8))
ORACLE8 = ReassemblingOcp(OcpGrid(M=8))
CONTROLS8 = hnp.arrays(float, OCP8.space.dim, elements=st.floats(-500.0, 500.0))


class TestOcpEvaluator:
    @settings(max_examples=40, deadline=None)
    @given(CONTROLS8)
    def test_cold_state_matches_newton_oracle(self, u):
        # where u is large, exp(y) - 1 exceeds the smallest eigenvalue of
        # A + I (about 20), the chord steps stop halving, and the solve
        # falls back to Newton steps on fresh factors: 6-12 of them per
        # solve for uniform draws from this range
        y = OCP8.solve_state(u)
        residual = OCP8.laplacian @ y + np.exp(y) - u
        assert OCP8.space.norm(residual) <= problems.NEWTON_TOL
        assert np.max(np.abs(y - ORACLE8.solve_state(u))) <= 1e-12

    @pytest.mark.parametrize(("j", "level"), [(7, 10.0), (7, -10.0), (5, 300.0), (5, -300.0),
                                              (3, 3000.0), (3, -3000.0)])
    def test_large_constant_control_evaluates_at_the_rounding_floor(self, j, level):
        # the residual's rounding floor, about eps || |A| |y| + exp(y) + |u| ||,
        # lies above NEWTON_TOL for these controls (j = 7 is a grid of the
        # mesh study, whose optimum reaches amplitude 12), so the state solve
        # returns there; the oracle's tolerance is scaled with the control
        prob = OcpControlProblem(OcpGrid(M=2**j))
        u = np.full(prob.space.dim, level)
        f, grad = prob.value_and_grad(u)
        assert np.isfinite(f) and np.all(np.isfinite(grad))
        # the floor is tested where the full step first fails, not after
        # 40 halvings: 10-32 residual evaluations, where halving to 2^-40
        # took 50-88
        prob.laplacian = CountingMatmul(prob.laplacian)
        y = prob.solve_state(u)
        assert prob.laplacian.count <= 35
        y_ref = ReassemblingOcp(OcpGrid(M=2**j), newton_tol=1e-10 * abs(level)).solve_state(u)
        # measured at most 3.4e-14
        assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_tight_reference_solve_converges_at_either_blas_thread_count(self, threads):
        # the BLAS thread count changes the summation order of every inner
        # product of the run, and so the last bits of its iterates; it is
        # read when the BLAS loads, hence one process per count
        code = (
            "import numpy as np\n"
            "from cautious_lbfgs import CautiousParams, OcpControlProblem, OcpGrid, SolverConfig, minimize\n"
            "prob = OcpControlProblem(OcpGrid(M=2**7))\n"
            "config = SolverConfig(cautious=CautiousParams(m=10), linesearch='armijo', grad_tol=1e-12,\n"
            "                      max_iter=500, keep_iterates=False)\n"
            "report = minimize(prob, prob.space, np.zeros(prob.space.dim), config)\n"
            "print(report.status, report.n_iter, report.n_geval, report.reason)\n"
        )
        src = str(Path(problems.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split()[0] == "converged", run.stdout


def test_scipy_sparse_imported_on_first_use():
    # only the control problem needs scipy.sparse, most of the package's
    # import time, and only a factored Jacobian needs scipy.sparse.linalg;
    # a fresh process shows what importing the CLI and evaluating load
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import cautious_lbfgs.cli\n"
        "from cautious_lbfgs import problems\n"
        "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse imported with the package'\n"
        "prob = problems.OcpControlProblem(problems.OcpGrid(M=4))\n"
        "prob.value_and_grad(np.zeros(prob.space.dim))\n"
        "assert problems.sp is sys.modules['scipy.sparse']\n"
        "assert 'scipy.sparse.linalg' not in sys.modules, 'scipy.sparse.linalg imported by an evaluation'\n"
        "assert problems.spla is sys.modules['scipy.sparse.linalg']\n"
    )
    src = str(Path(problems.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_scipy_linalg_imported_on_the_first_audit_with_pairs():
    # scipy.linalg takes about 0.25 s to import, and only the norm audit
    # of an operator with pairs calls LAPACK through it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import cautious_lbfgs.cli\n"
        "from cautious_lbfgs import CautiousParams, Rosenbrock, SolverConfig, minimize\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported with the package'\n"
        "prob = Rosenbrock()\n"
        "def solve(m, audit):\n"
        "    config = SolverConfig(cautious=CautiousParams(m=m), oracle_checks=audit)\n"
        "    return minimize(prob, prob.space, np.array([-1.2, 1.0]), config)\n"
        "assert solve(3, False).status == 'converged'\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported by an unaudited solve'\n"
        "assert len(solve(0, True).audits) > 0\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported by an audit without pairs'\n"
        "assert solve(1, True).status == 'converged'\n"
        "assert 'scipy.linalg.lapack' in sys.modules\n"
    )
    src = str(Path(problems.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_type_hints_resolve_before_first_use():
    # every annotation must name something its module holds from import
    # on, not a name such as problems.sp that appears on first use; a
    # fresh process has used nothing yet
    code = (
        "import importlib, inspect, pkgutil, typing\n"
        "import cautious_lbfgs\n"
        "for info in pkgutil.iter_modules(cautious_lbfgs.__path__):\n"
        "    module = importlib.import_module('cautious_lbfgs.' + info.name)\n"
        "    for name, obj in vars(module).items():\n"
        "        if name.startswith('_') or getattr(obj, '__module__', None) != module.__name__:\n"
        "            continue\n"
        "        targets = [obj]\n"
        "        if inspect.isclass(obj):\n"
        "            targets += [f for n, f in vars(obj).items() if inspect.isfunction(f) and not n.startswith('_')]\n"
        "        for target in targets:\n"
        "            typing.get_type_hints(target)\n"
        "        print(module.__name__, name)\n"
    )
    src = str(Path(problems.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "cautious_lbfgs.problems laplacian_5pt" in run.stdout.splitlines()
