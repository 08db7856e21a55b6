"""The four benchmark workloads: problem, solver configurations, seeded
starts, and the checks every solve must pass.

Every ``SolverConfig`` is spelled out with the command-line defaults of
the library as constants, so a change to a command-line default does
not silently change a workload.  A workload runs in rounds; a round
solves every configuration from every start, configuration-major, and
each round of one run is identical, so count metrics do not depend on
how many rounds fit into the measured time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cautious_lbfgs import (
    CautiousParams,
    LineSearchParams,
    OcpControlProblem,
    OcpGrid,
    PiecewiseQuadratic,
    Rosenbrock,
    SolverConfig,
    minimize,
)
from cautious_lbfgs.cli import standard_normals

TABLE2 = [(ls, m) for m in range(5) for ls in ("armijo", "mt")]
TABLE3 = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "wolfe")]
TABLE4 = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "mt")]

# Iteration counts of the paper's tables from the anchor start
# (results/rosenbrock_table.csv, results/rosenbrock_nonmonotone.csv and
# the t5 mesh study at j = 5).
ROSENBROCK_ITERS = dict(zip(TABLE2 + [("gll", 0)], [85, 4121, 83, 45, 39, 36, 39, 36, 38, 37, 62]))
OCP_J5_ITERS = dict(zip(TABLE4, [14, 15, 9, 9, 8, 8]))

OCP_MESH_J = 5
OCP_START_SCALE = 1e-3  # coefficient scale of the seeded control
OCP_REF_TOL = 1e-12
PWQUAD_AUDIT_STARTS = 2
PWQUAD_AUDIT_SCALE = 1e-6  # seeded perturbation of the anchor b
PWQUAD_STARTS = 100
ROSENBROCK_STARTS = 2
ROSENBROCK_SCALE = 1e-2  # seeded perturbation of (-1.2, 1)


def solver_config(ls: str, m: int, tol: float, audit: bool, sigma: float = 1e-4) -> SolverConfig:
    """SolverConfig with the command-line default constants written out."""
    return SolverConfig(
        cautious=CautiousParams(m=m, c0=1e-4, c1=1.0, c2=1.0 / (2 * m + 3)),
        mode="cautious",
        linesearch=ls,
        ls=LineSearchParams(
            sigma=sigma, eta=0.9, beta1=0.5, beta2=0.5, maxfev=20,
            stpmin=0.0, stpmax=1000.0, xtol=1e-7, gll_memory=10,
        ),
        grad_tol=tol,
        max_iter=50_000,
        oracle_checks=audit,
        keep_iterates=True,
        keep_storage=False,
    )


@dataclass
class Setup:
    """Everything one round needs, built from the workload seed.

    ``radius(grad_norm)`` is the largest distance from ``x_ref`` a
    converged solve may end at; ``paper_iters`` holds the iteration
    counts expected from start 0.
    """

    problem: object
    configs: list[tuple[str, int]]
    solver_configs: list[SolverConfig]
    starts: list[np.ndarray]
    f_ref: float
    x_ref: np.ndarray
    radius: Callable[[float], float]
    audit: bool
    paper_iters: dict[tuple[str, int], int] | None = None

    def tasks(self) -> list[tuple[int, int]]:
        """(config index, start index) pairs of one round."""
        return [(c, s) for c in range(len(self.configs)) for s in range(len(self.starts))]


def starts_digest(starts: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for x in starts:
        h.update(np.ascontiguousarray(x, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _pwquad_normal_starts(problem: PiecewiseQuadratic, seed: int) -> list[np.ndarray]:
    rng = _philox(seed)
    return [standard_normals(rng, problem.space.dim) for _ in range(PWQUAD_STARTS)]


def _pwquad_anchor_starts(problem: PiecewiseQuadratic, seed: int) -> list[np.ndarray]:
    rng = _philox(seed)
    return [problem.b.copy()] + [
        problem.b + PWQUAD_AUDIT_SCALE * standard_normals(rng, problem.space.dim)
        for _ in range(PWQUAD_AUDIT_STARTS)
    ]


def _pwquad(seed: int, audit: bool) -> Setup:
    problem = PiecewiseQuadratic(100)
    make = _pwquad_anchor_starts if audit else _pwquad_normal_starts
    return Setup(
        problem=problem,
        configs=TABLE3,
        solver_configs=[solver_config(ls, m, 1e-5, audit) for ls, m in TABLE3],
        starts=make(problem, seed),
        f_ref=problem.f_star,
        x_ref=problem.x_star,
        # strong convexity: ||x - x*|| <= ||g|| / mu
        radius=lambda g: g / problem.mu,
        audit=audit,
    )


def _ocp_starts(problem: OcpControlProblem, seed: int) -> list[np.ndarray]:
    """u = 0 plus one control from 3 x 3 sine modes with seeded coefficients."""
    M = problem.grid.M
    nodes = np.arange(1, M) / M
    x1, x2 = np.meshgrid(nodes, nodes, indexing="ij")
    modes = [
        (np.sin(k * np.pi * x1) * np.sin(l * np.pi * x2)).ravel()
        for k in (1, 2, 3) for l in (1, 2, 3)
    ]
    coeffs = OCP_START_SCALE * standard_normals(_philox(seed), len(modes))
    return [np.zeros(problem.space.dim), sum(c * mode for c, mode in zip(coeffs, modes))]


def _ocp(seed: int) -> Setup:
    problem = OcpControlProblem(OcpGrid(M=2**OCP_MESH_J, nu=1e-3))
    # reference solution with the constants of the command line's q-factor reference
    ref_config = SolverConfig(
        cautious=CautiousParams(m=10),
        linesearch="armijo",
        grad_tol=OCP_REF_TOL,
        max_iter=500,
        oracle_checks=False,
        keep_iterates=False,
    )
    ref = minimize(problem, problem.space, np.zeros(problem.space.dim), ref_config)
    if ref.status != "converged":
        raise RuntimeError(f"reference solve failed: {ref.status}")
    nu = problem.grid.nu
    return Setup(
        problem=problem,
        configs=TABLE4,
        solver_configs=[
            solver_config(ls, m, 1e-9, False, sigma=1e-8 if ls == "mt" else 1e-4)
            for ls, m in TABLE4
        ],
        starts=_ocp_starts(problem, seed),
        f_ref=ref.f_final,
        x_ref=ref.x_final,
        # local modulus taken as nu/2; both points are that close to u*
        radius=lambda g: 2.0 * (g + ref.grad_norm_final) / nu,
        audit=False,
        paper_iters=OCP_J5_ITERS,
    )


def _rosenbrock_starts(problem: Rosenbrock, seed: int) -> list[np.ndarray]:
    rng = _philox(seed)
    anchor = np.array([-1.2, 1.0])
    return [anchor] + [
        anchor + ROSENBROCK_SCALE * standard_normals(rng, problem.space.dim)
        for _ in range(ROSENBROCK_STARTS)
    ]


def _rosenbrock(seed: int) -> Setup:
    problem = Rosenbrock()
    configs = TABLE2 + [("gll", 0)]
    mu = float(np.linalg.eigvalsh(problem.hessian(problem.x_star))[0])
    return Setup(
        problem=problem,
        configs=configs,
        solver_configs=[solver_config(ls, m, 1e-9, True) for ls, m in configs],
        starts=_rosenbrock_starts(problem, seed),
        f_ref=problem.f_star,
        x_ref=problem.x_star,
        # local modulus taken as half the Hessian's smallest eigenvalue at x*
        radius=lambda g: 2.0 * g / mu,
        audit=True,
        paper_iters=ROSENBROCK_ITERS,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Setup]
    make_starts: Callable[[object, int], list[np.ndarray]]
    kernel: str  # the reference kernel doing the same kind of work (reference.KERNELS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pwquad-starts", lambda seed: _pwquad(seed, audit=False), _pwquad_normal_starts, "interp"),
        Workload("pwquad-audit", lambda seed: _pwquad(seed, audit=True), _pwquad_anchor_starts, "mixed"),
        Workload("ocp-j5", _ocp, _ocp_starts, "mixed"),
        Workload("rosenbrock", _rosenbrock, _rosenbrock_starts, "interp"),
    )
}


def check_solve(setup: Setup, task: tuple[int, int], report) -> list[str]:
    """Reasons the solve counts as failed; empty when it passed."""
    ci, si = task
    tol = setup.solver_configs[ci].grad_tol
    reasons = []
    if report.status != "converged" or not report.grad_norm_final <= tol:
        reasons.append(f"status {report.status}, |g| = {report.grad_norm_final:.3e}")
        return reasons
    space = setup.problem.space
    dist = space.norm(report.x_final - setup.x_ref)
    if not dist <= setup.radius(report.grad_norm_final):
        reasons.append(f"|x - x_ref| = {dist:.3e} > {setup.radius(report.grad_norm_final):.3e}")
    if setup.audit and not report.audits:
        reasons.append("audit did not run")
    if report.bound_violations:
        reasons.append(f"{report.bound_violations} audit bound violations")
    if setup.paper_iters is not None and si == 0:
        expected = setup.paper_iters[setup.configs[ci]]
        if report.n_iter != expected:
            reasons.append(f"n_iter {report.n_iter} != paper {expected}")
    return reasons
