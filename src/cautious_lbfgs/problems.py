"""Benchmark objectives: Rosenbrock, a block piecewise quadratic, and a
semilinear elliptic optimal-control problem on the unit square.

Every problem defines ``value_and_grad`` where the gradient is the Riesz
representative with respect to the problem's space, i.e. the directional
derivative at x along v equals space.inner(grad, v).  That convention
matters for the grid-weighted control problem, whose gradient differs
from the vector of partial derivatives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .space import Space, euclidean, make_grid_space

# fill-reducing column ordering of every SuperLU factor of A + diag(exp(y))
PERMC_SPEC = "MMD_AT_PLUS_A"


class Problem:
    """Objective interface used by the solver.

    Subclasses define ``value_and_grad``; ``value`` is its first component,
    so each objective formula is written once.
    """

    space: Space

    def value(self, x) -> float:
        return self.value_and_grad(x)[0]

    def value_and_grad(self, x) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def evaluator(self):
        """value_and_grad for one run; a problem may carry work from one
        evaluation of the run to the next, never between runs."""
        return self.value_and_grad


class Rosenbrock(Problem):
    """f(x) = (1 - x1)^2 + 100 (x2 - x1^2)^2 on Euclidean R^2."""

    def __init__(self):
        self.space = euclidean(2)
        self.x_star = np.array([1.0, 1.0])
        self.f_star = 0.0

    def value_and_grad(self, x):
        x = self.space.check(x)
        t = x[1] - x[0] ** 2
        f = (1.0 - x[0]) ** 2 + 100.0 * t**2
        grad = np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * t, 200.0 * t])
        return float(f), grad

    def hessian(self, x) -> np.ndarray:
        x = self.space.check(x)
        return np.array(
            [
                [2.0 - 400.0 * x[1] + 1200.0 * x[0] ** 2, -400.0 * x[0]],
                [-400.0 * x[0], 200.0],
            ]
        )


class PiecewiseQuadratic(Problem):
    """f(x) = 0.5 ||x - b||^2 + 49.5 * sum(max(0, x_i)^2) on R^(3n).

    b repeats the block (1, -1, 0).  The objective is 1-strongly convex
    with a 100-Lipschitz, piecewise linear gradient that is not
    differentiable on the coordinate hyperplanes; the unique stationary
    point repeats the block (0.01, -1, 0).
    """

    mu = 1.0
    lipschitz = 100.0

    def __init__(self, n_blocks: int = 100):
        if n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
        self.n_blocks = n_blocks
        self.space = euclidean(3 * n_blocks)
        self.b = np.tile([1.0, -1.0, 0.0], n_blocks)
        self.x_star = np.tile([0.01, -1.0, 0.0], n_blocks)
        self.f_star = self.value(self.x_star)

    def value_and_grad(self, x):
        x = self.space.check(x)
        d = x - self.b
        pos = np.maximum(0.0, x)
        f = 0.5 * np.dot(d, d) + 49.5 * np.sum(pos**2)
        return float(f), d + 99.0 * pos


class NewtonError(RuntimeError):
    """Inner state solver failed to reach its residual tolerance."""


def _default_target_state(M: int) -> np.ndarray:
    h = 1.0 / M
    idx = np.arange(1, M) * h
    x1, x2 = np.meshgrid(idx, idx, indexing="ij")
    return (np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)).ravel()


def laplacian_5pt(M: int) -> sp.csr_matrix:
    """Dirichlet 5-point-stencil Laplacian on the (M-1)^2 interior nodes.

    Scaled by 1/h^2; node ordering is lexicographic, x1-major.
    """
    n = M - 1
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return ((sp.kron(eye, T) + sp.kron(T, eye)) * float(M * M)).tocsr()


@dataclass(frozen=True)
class OcpGrid:
    """Discretization data of the optimal-control problem.

    M is the grid parameter (mesh width 1/M, must be a power of two),
    nu the control penalty weight, and target_state the desired state at
    the interior nodes (defaults to sin(2 pi x1) cos(2 pi x2)).
    """

    M: int
    nu: float = 1e-3
    target_state: np.ndarray | None = None
    newton_tol: float = 1e-12
    newton_max: int = 50

    def __post_init__(self) -> None:
        if self.M < 2 or self.M & (self.M - 1) != 0:
            raise ValueError(f"M must be a power of two >= 2, got {self.M}")
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.target_state is None:
            object.__setattr__(self, "target_state", _default_target_state(self.M))
        else:
            y_d = np.asarray(self.target_state, dtype=float)
            if y_d.shape != ((self.M - 1) ** 2,):
                raise ValueError(f"target_state must have {(self.M - 1) ** 2} entries")
            object.__setattr__(self, "target_state", y_d)


class _LastEvaluation:
    """A run's last successful evaluation: its state and its adjoint factor."""

    start: tuple[np.ndarray, object] | None = None


class OcpControlProblem(Problem):
    """Tracking objective constrained by -lap(y) + exp(y) = u, y = 0 on the boundary.

    f(u) = 0.5 ||y_u - y_d||^2 + nu/2 ||u||^2 in the grid inner product.
    The gradient nu*u + p comes from one linearized (self-adjoint) solve
    with the Jacobian A + diag(exp(y)) at the state.  The state solve
    steps with a factor it already holds: ``value_and_grad`` starts from
    y = 0 with the factor of A + I built at construction, and the
    evaluator of a run from the state and factor of the run's previous
    evaluation, the exact sensitivity dy/du there (chord steps).  It
    factors the Jacobian where a chord step fails to halve the residual,
    which happens once the residual reaches its rounding floor, and that
    factor also serves the adjoint solve and the next evaluation.  So an
    evaluation costs at most one sparse LU factorization while the chord
    steps converge, and none where the state is exactly y = 0.
    """

    def __init__(self, grid: OcpGrid):
        self.grid = grid
        self.space = make_grid_space(grid.M)
        self.laplacian = laplacian_5pt(grid.M)
        self.target_state = grid.target_state
        n = self.space.dim
        # every Jacobian A + diag(exp(y)) shares the sparsity pattern of A + I
        pattern = (self.laplacian + sp.identity(n)).tocsc()
        pattern.sort_indices()
        self._jac_pattern = pattern
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        self._diag_slots = np.flatnonzero(pattern.indices == rows)
        self._lap_diag = self.laplacian.diagonal()
        self._lu_at_zero = spla.splu(pattern, permc_spec=PERMC_SPEC)

    def _jacobian_lu(self, y: np.ndarray):
        """SuperLU factor of A + diag(exp(y)).

        exp(0) is exactly 1, so at y = 0 the factor of A + I built at
        construction is the same matrix bit for bit.  Otherwise the
        diagonal is written into a copy of the shared pattern, which is
        never modified.
        """
        if not y.any():
            return self._lu_at_zero
        jac = self._jac_pattern.copy()
        jac.data[self._diag_slots] = self._lap_diag + np.exp(y)
        return spla.splu(jac, permc_spec=PERMC_SPEC)

    def solve_state(self, u, start=None) -> tuple[np.ndarray, object]:
        """State y whose residual A y + exp(y) - u is below newton_tol, and
        the factor of the Jacobian A + diag(exp(y)) at y, or at the state
        one final Newton step before it.

        ``start`` is a state and the factor of the Jacobian there, as this
        method returns them; the default is y = 0 with the factor of
        A + I.  Each step solves with
        the factor held.  A step on a factor taken at an earlier state (a
        chord step) must halve the residual norm; otherwise the factor is
        taken again at the current state and the step is a Newton step,
        halved until the residual norm decreases.  Below newton_tol the
        loop keeps stepping while a step halves the residual.  The first
        Newton step that does not ends the solve, taken if it keeps the
        residual below newton_tol: near its rounding floor the residual
        norm no longer sees the state's error, which that step still
        removes.  The residual is measured in the grid norm; the Euclidean
        norm of the strong-form residual scales like 1/h^2 and would sit
        above any fixed absolute tolerance on fine grids.
        """
        u = self.space.check(u)
        if start is None:
            zero = np.zeros(self.space.dim)
            start = (zero, self._jacobian_lu(zero))
        y, lu = start
        at_y = True  # lu is the factor of the Jacobian at y

        def trial(step):
            y_trial = y + step
            r_trial = self.laplacian @ y_trial + np.exp(y_trial) - u
            return y_trial, r_trial, self.space.norm(r_trial)

        with np.errstate(over="ignore", invalid="ignore"):
            residual = self.laplacian @ y + np.exp(y) - u
            res_norm = self.space.norm(residual)
            for _ in range(self.grid.newton_max):
                delta = lu.solve(-residual)
                y_trial, r_trial, r_norm = trial(delta)
                if not r_norm < 0.5 * res_norm and not at_y:
                    lu, at_y = self._jacobian_lu(y), True
                    delta = lu.solve(-residual)
                    y_trial, r_trial, r_norm = trial(delta)
                if not r_norm < 0.5 * res_norm:
                    if res_norm <= self.grid.newton_tol:
                        return (y_trial, lu) if r_norm <= self.grid.newton_tol else (y, lu)
                    t = 1.0
                    while not r_norm < res_norm:
                        t *= 0.5
                        if t < 2.0**-40:
                            raise NewtonError("damping failed to reduce the state residual")
                        y_trial, r_trial, r_norm = trial(t * delta)
                y, residual, res_norm, at_y = y_trial, r_trial, r_norm, False
            if res_norm <= self.grid.newton_tol:
                return y, self._jacobian_lu(y)
        raise NewtonError(
            f"state residual {res_norm} above {self.grid.newton_tol} "
            f"after {self.grid.newton_max} iterations"
        )

    def solve_adjoint(self, y, lu=None) -> np.ndarray:
        """Solve (A + diag(exp(y))) p = y - y_d, with ``lu`` as that matrix's factor if given.

        The linearized state operator is self-adjoint in the grid inner
        product, so the same matrix serves as its own adjoint.
        """
        y = self.space.check(y)
        if lu is None:
            lu = self._jacobian_lu(y)
        return lu.solve(y - self.target_state)

    def value_and_grad(self, u, last: _LastEvaluation | None = None):
        """f and gradient at u; a state solve from ``last``, which the call then updates, if given."""
        u = self.space.check(u)
        y, lu = self.solve_state(u, None if last is None else last.start)
        mismatch = y - self.target_state
        f = 0.5 * self.space.inner(mismatch, mismatch) + 0.5 * self.grid.nu * self.space.inner(u, u)
        grad = self.grid.nu * u + self.solve_adjoint(y, lu)
        if last is not None:
            last.start = (y, lu)
        return f, grad

    def evaluator(self):
        """value_and_grad warm-started at the run's previous successful evaluation."""
        return functools.partial(self.value_and_grad, last=_LastEvaluation())


def fd_gradient_check(problem: Problem, x, n_directions: int = 5,
                      step: float = 1e-6, seed: int = 0) -> float:
    """Max relative error of inner(grad, v) against central differences.

    Directions are random unit vectors in the problem's space norm.  The
    relative error is taken against the larger of the two derivative
    magnitudes to stay meaningful when either is small.
    """
    space = problem.space
    x = space.check(x)
    _, grad = problem.value_and_grad(x)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_directions):
        v = rng.standard_normal(space.dim)
        v /= space.norm(v)
        fd = (problem.value(x + step * v) - problem.value(x - step * v)) / (2.0 * step)
        exact = space.inner(grad, v)
        scale = max(abs(fd), abs(exact), 1e-300)
        worst = max(worst, abs(fd - exact) / scale)
    return worst
