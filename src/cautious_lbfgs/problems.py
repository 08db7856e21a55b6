"""Benchmark objectives: Rosenbrock, a block piecewise quadratic, and a
semilinear elliptic optimal-control problem on the unit square.

Every problem defines ``value_and_grad`` where the gradient is the Riesz
representative with respect to the problem's space, i.e. the directional
derivative at x along v equals space.inner(grad, v).  That convention
matters for the grid-weighted control problem, whose gradient differs
from the vector of partial derivatives.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .space import Space, make_grid_space

# fill-reducing column ordering of every SuperLU factor of A + diag(exp(y))
PERMC_SPEC = "MMD_AT_PLUS_A"
# grid-norm residual below which the control problem's state solve may
# stop, and its cap on steps
NEWTON_TOL = 1e-12
NEWTON_MAX = 50
EPS = np.finfo(float).eps
_SPARSE_MODULES = {"sp": "scipy.sparse", "spla": "scipy.sparse.linalg"}


def _sparse(name: str):
    """``sp`` (scipy.sparse) or ``spla`` (scipy.sparse.linalg), each imported on first use.

    Only the control problem needs scipy.sparse, and only its Newton
    fallback and its adjoint's direct solve need scipy.sparse.linalg;
    they are most of the package's import time.  Once imported each is a
    module global, so ``problems.spla`` reads, and can be replaced, like
    any attribute.
    """
    if name not in globals():
        globals()[name] = importlib.import_module(_SPARSE_MODULES[name])
    return globals()[name]


def __getattr__(name: str):
    """``problems.sp`` and ``problems.spla`` read before their first use here."""
    if name in _SPARSE_MODULES:
        return _sparse(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _rosenbrock(x1, x2):
    """Rosenbrock's f and gradient from two Python floats or two numpy scalars."""
    t = x2 - x1**2
    f = (1.0 - x1) ** 2 + 100.0 * t**2
    return float(f), np.array([-2.0 * (1.0 - x1) - 400.0 * x1 * t, 200.0 * t])


class Rosenbrock(Problem):
    """f(x) = (1 - x1)^2 + 100 (x2 - x1^2)^2 on Euclidean R^2."""

    def __init__(self):
        self.space = Space(2)
        self.x_star = np.array([1.0, 1.0])
        self.f_star = 0.0

    def value_and_grad(self, x):
        """f and gradient at x, computed on Python floats.

        At n = 2 numpy's per-scalar overhead is most of the cost.  Python's
        ``**`` and numpy's scalar power call the same libm pow, and the
        other operations round alike, so the bits are numpy's.  Where a
        Python power overflows it raises, and numpy's gives inf, so that x
        is evaluated again on numpy scalars: a trial step there has
        f = inf, which a line search rejects.
        """
        x = self.space.check(x)
        try:
            return _rosenbrock(*x.tolist())
        except OverflowError:
            with np.errstate(over="ignore", invalid="ignore"):
                return _rosenbrock(*x)

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
        if not isinstance(n_blocks, Integral) or n_blocks < 1:
            raise ValueError(f"n_blocks must be an integer >= 1, got {n_blocks!r}")
        self.space = Space(3 * n_blocks)
        self.b = np.tile([1.0, -1.0, 0.0], n_blocks)
        self.x_star = np.tile([0.01, -1.0, 0.0], n_blocks)
        self.f_star = self.value(self.x_star)

    def value_and_grad(self, x):
        """f and its gradient d + 99 max(0, x), with d = x - b.

        The bits are those of ``0.5 * np.dot(d, d) + 49.5 *
        np.add.reduce(pos**2)`` and ``d + 99.0 * pos``: ``d.dot(d)`` is the
        ``ddot`` that ``np.dot`` calls, ``pos * pos`` is numpy's square for
        ``**2``, and the gradient is formed in the ``pos`` array in place,
        as ``99.0 * pos`` then ``+ d``, since addition commutes exactly.
        """
        x = self.space.check(x)
        d = x - self.b
        pos = np.maximum(0.0, x)
        f = 0.5 * d.dot(d) + 49.5 * np.add.reduce(pos * pos)
        pos *= 99.0
        pos += d
        return float(f), pos


class NewtonError(RuntimeError):
    """Inner state solver failed to reach its residual tolerance."""


def _default_target_state(M: int) -> np.ndarray:
    h = 1.0 / M
    idx = np.arange(1, M) * h
    x1, x2 = np.meshgrid(idx, idx, indexing="ij")
    return (np.sin(2.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)).ravel()


def laplacian_5pt(M: int):
    """Dirichlet 5-point-stencil Laplacian on the (M-1)^2 interior nodes.

    A ``scipy.sparse`` CSR matrix, scaled by 1/h^2; node ordering is
    lexicographic, x1-major.
    """
    sp = _sparse("sp")
    n = M - 1
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return ((sp.kron(eye, T) + sp.kron(T, eye)) * float(M * M)).tocsr()


@dataclass(frozen=True)
class OcpGrid:
    """Discretization data of the optimal-control problem.

    M is the grid parameter (mesh width 1/M, must be a power of two),
    nu the control penalty weight (positive, finite), and target_state the
    finite desired state at the interior nodes (defaults to
    sin(2 pi x1) cos(2 pi x2)), whose tracking term 0.5 ||y_d||^2 in the
    grid norm must not overflow.
    """

    M: int
    nu: float = 1e-3
    target_state: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.M, Integral) or self.M < 2 or self.M & (self.M - 1) != 0:
            raise ValueError(f"M must be a power of two >= 2, got {self.M!r}")
        if not 0.0 < self.nu < np.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        if self.target_state is None:
            object.__setattr__(self, "target_state", _default_target_state(self.M))
        else:
            y_d = np.asarray(self.target_state, dtype=float)
            if y_d.shape != ((self.M - 1) ** 2,):
                raise ValueError(f"target_state must have {(self.M - 1) ** 2} entries")
            if not np.isfinite(y_d).all():
                raise ValueError("target_state entries must be finite")
            # f at y = 0, u = 0, summed as value_and_grad sums it: where even
            # that overflows, every run ends nonfinite at its start
            h = 1.0 / self.M
            if not np.isfinite(float(0.5 * (h * h) * np.sum(np.square(y_d, dtype=np.longdouble)))):
                raise ValueError("0.5 ||target_state||^2 in the grid norm must be finite")
            object.__setattr__(self, "target_state", y_d)


class OcpControlProblem(Problem):
    """Tracking objective constrained by -lap(y) + exp(y) = u, y = 0 on the boundary.

    f(u) = 0.5 ||y_u - y_d||^2 + nu/2 ||u||^2 in the grid inner product.
    The gradient nu*u + p comes from one linearized (self-adjoint) solve
    with the Jacobian A + diag(exp(y)) at the state.  Every evaluation is
    cold: the state solve starts at y = 0, and both solves step with A + I
    solved in its eigenbasis, judging its contraction by the size of their
    corrections.  The state's chord steps measure each residual exactly;
    the adjoint sums a Neumann series whose residuals follow from its
    corrections, and forms a product with A only where it stalls.  Both
    solves factor the Jacobian at the current state only where a
    correction fails to halve the one before while the residual is above
    NEWTON_TOL.  Where exp(y) - 1 stays small against the smallest
    eigenvalue of A + I (about 2 pi^2 + 1), as for the benchmark's
    controls, an evaluation makes no factorization at all, and neither
    does construction.

    A is the 5-point Laplacian, which the orthogonal, symmetric sine
    matrix V[k, l] = sqrt(2/M) sin(k l pi / M) diagonalizes in each grid
    direction with eigenvalues lambda_k = (2 M sin(k pi / 2M))^2.  A solve
    with A + I is then four dense products with V and one division by
    lambda_i + lambda_j + 1 (the fast diagonalization method; Lynch, Rice &
    Thomas, Numer. Math. 6, 1964).  At M >= 128 the BLAS threads these
    products, and the last bits of the solve, hence of every evaluation,
    then depend on its thread count.
    """

    def __init__(self, grid: OcpGrid):
        self.grid = grid
        self.space = make_grid_space(grid.M)
        self.laplacian = laplacian_5pt(grid.M)
        self.target_state = grid.target_state
        self._abs_laplacian = abs(self.laplacian)
        k = np.arange(1, grid.M)
        # k l reduced mod 2M: sin is most accurate below 2 pi, and V is then
        # orthogonal to 4e-16 at M = 128 (6e-15 unreduced)
        self._sine = np.sqrt(2.0 / grid.M) * np.sin(np.outer(k, k) % (2 * grid.M) * (np.pi / grid.M))
        lam = (2.0 * grid.M * np.sin(k * (np.pi / (2 * grid.M)))) ** 2
        self._eigenvalues = lam[:, None] + lam + 1.0

    def _solve_at_zero(self, r: np.ndarray) -> np.ndarray:
        """Solve (A + I) x = r in the sine basis of A.

        The four products are ``ndarray.dot`` GEMMs: at M <= 32 the
        dispatch of ``@`` costs about as much as the GEMM itself, and both
        reach ``cblas_dgemm`` with the same arguments, hence the same bits.
        The GEMM accumulates each entry from +0, so ``@`` returns no -0.
        At M = 2 ``dot`` takes the 1 x 1 products as plain
        multiplications, which can give -0; the +0 added to a result of
        one entry keeps the bits of ``@`` there too.  Larger results come
        from the GEMM, where +0 changes no bit, and get no such pass.  So
        the output does not depend on the signs of zeros in r: a GEMM
        entry is a sum started from +0, to which a zero product adds
        nothing, and at M = 2 the +0 pass makes any zero +0.
        """
        V = self._sine
        x = V.dot(r.reshape(V.shape)).dot(V)
        x /= self._eigenvalues
        x = V.dot(x).dot(V).ravel()
        if x.size == 1:
            x += 0.0
        return x

    def _jacobian_lu(self, y: np.ndarray):
        """SuperLU factor of the Jacobian A + diag(exp(y))."""
        jac = (self.laplacian + _sparse("sp").diags(np.exp(y))).tocsc()
        return _sparse("spla").splu(jac, permc_spec=PERMC_SPEC)

    def solve_state(self, u) -> np.ndarray:
        """State y from y = 0 whose residual A y + exp(y) - u is below NEWTON_TOL.

        Each step solves with A + I in its sine basis (a chord step; Kelley
        1995), whose last bits depend on the BLAS thread count at M >= 128.
        The chord's contraction is judged by the size of its steps,
        Deuflhard's natural monotonicity test: where a step fails to halve
        the one before, the solve ends if the residual is below NEWTON_TOL
        (the steps have reached their rounding floor), and otherwise
        factors the Jacobian at the current state and takes a Newton step.
        Above NEWTON_TOL a step is halved until the residual norm
        decreases.  The solve also ends where the residual is below
        NEWTON_TOL and the step below 4 eps ||y||.  The residual is measured
        in the grid norm; the Euclidean norm of the strong-form residual
        scales like 1/h^2 and would sit above any fixed absolute tolerance
        on fine grids.  For a large control its rounding floor, about
        eps || |A| |y| + exp(y) + |u| ||, lies above NEWTON_TOL.  Where the
        full step first fails to reduce the residual, or the steps run out,
        a finite residual within 8 times that floor returns y; a solve that
        ends elsewhere above NEWTON_TOL raises NewtonError.

        The solve carries the negated residual u - (A y + exp(y)), the
        right side of each step, so no step negates an array.  It has the
        bits of -(A y + exp(y) - u) except where the two terms cancel
        exactly, and there it holds +0 where the negation holds -0.  The
        sine-basis solve's output does not depend on the signs of zeros in
        its input, and a factor's solve can only change the sign of a zero
        in the step; y + (+-0) is y, since y starts at +0 and never holds
        -0.  So y has the bits of a solve that negates the residual.
        """
        u = self.space.check(u)
        tol = NEWTON_TOL
        y = np.zeros(self.space.dim)
        solve = self._solve_at_zero

        def trial(step):
            y_trial = y + step
            # u - (A y + exp(y)), in that order, on one fresh array
            r_trial = self.laplacian @ y_trial
            r_trial += np.exp(y_trial)
            np.subtract(u, r_trial, out=r_trial)
            return y_trial, r_trial, self.space.norm_unchecked(r_trial)

        def at_rounding_floor():
            if not np.isfinite(res_norm):
                return False
            terms = self._abs_laplacian @ np.abs(y) + np.exp(y) + np.abs(u)
            return res_norm <= 8.0 * EPS * self.space.norm_unchecked(terms)

        with np.errstate(over="ignore", invalid="ignore"):
            # u - (A @ 0 + exp(0)), bit for bit: the product of zeros is +0
            residual = u - 1.0
            res_norm = self.space.norm_unchecked(residual)
            step_norm = np.inf
            for _ in range(NEWTON_MAX):
                delta = solve(residual)
                delta_norm = self.space.norm_unchecked(delta)
                halves = delta_norm <= 0.5 * step_norm
                if res_norm <= tol and (not halves or delta_norm <= 4.0 * EPS * self.space.norm_unchecked(y)):
                    return y
                if not halves:
                    solve = self._jacobian_lu(y).solve
                    delta = solve(residual)
                    delta_norm = self.space.norm_unchecked(delta)
                y_trial, r_trial, r_norm = trial(delta)
                t = 1.0
                while res_norm > tol and not r_norm < res_norm:
                    if t == 1.0 and at_rounding_floor():
                        return y
                    t *= 0.5
                    if t < 2.0**-40:
                        raise NewtonError("damping failed to reduce the state residual")
                    y_trial, r_trial, r_norm = trial(t * delta)
                y, residual, res_norm, step_norm = y_trial, r_trial, r_norm, t * delta_norm
            if at_rounding_floor():
                return y
        raise NewtonError(
            f"state solve unfinished after {NEWTON_MAX} steps, "
            f"residual {res_norm} (tolerance {tol})"
        )

    def solve_adjoint(self, y) -> np.ndarray:
        """Solve (A + diag(exp(y))) p = y - y_d as a Neumann series in A + I.

        p is the sum of the corrections c_0 = S(y - y_d) and
        c_{j+1} = S((1 - exp(y)) c_j), where S solves with A + I in its
        sine basis (whose last bits depend on the BLAS thread count at
        M >= 128): the series of (A + I)^-1 (I - diag(exp(y))).  Since
        (A + I) c_j is the residual r_j that c_j was solved for, the
        residual after adding c_j is r_j - (A + diag(exp(y))) c_j =
        (1 - exp(y)) c_j, so no step forms a product with A.  The term this
        drops is the sine solve's own residual, at most 3.5e-14 relative
        at M = 128.  The sum ends where a correction falls below
        4 eps ||p||.  Where a correction fails to halve the one before,
        the true residual is formed, once: if it is below NEWTON_TOL the
        sum so far is returned, and otherwise the matrix is factored at y.
        The linearized state operator is self-adjoint in the grid inner
        product, so it is its own adjoint.
        """
        y = self.space.check(y)
        rhs = y - self.target_state
        exp_y = np.exp(y)
        damping = 1.0 - exp_y
        p = np.zeros(self.space.dim)
        correction = self._solve_at_zero(rhs)
        previous = np.inf
        while True:
            size = self.space.norm_unchecked(correction)
            if not size <= 0.5 * previous:
                residual = rhs - (self.laplacian @ p + exp_y * p)
                if self.space.norm_unchecked(residual) <= NEWTON_TOL:
                    return p
                return self._jacobian_lu(y).solve(rhs)
            p += correction
            if size <= 4.0 * EPS * self.space.norm_unchecked(p):
                return p
            previous = size
            correction *= damping
            correction = self._solve_at_zero(correction)

    def value_and_grad(self, u):
        """f and gradient at u.

        f is summed in numpy's long double (80-bit extended on x86) and
        rounded once, so its final bits do not depend on the BLAS's
        summation order, which changes with its thread count: near the
        optimum a line search compares values of f a few ulps apart.
        y - y_d is subtracted in double and then cast, so each square is
        that of the double mismatch: the bits of
        ``np.sum(np.square(y - y_d, dtype=np.longdouble))``, whose cast,
        square and pairwise sum are here formed in place.  A subtraction
        in long double would change them.
        """
        u = self.space.check(u)
        y = self.solve_state(u)
        mismatch = (y - self.target_state).astype(np.longdouble)
        mismatch *= mismatch
        control = u.astype(np.longdouble)
        control *= control
        squares = np.add.reduce(mismatch) + self.grid.nu * np.add.reduce(control)
        f = float(0.5 * self.space.weight * squares)
        return f, self.grid.nu * u + self.solve_adjoint(y)


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
