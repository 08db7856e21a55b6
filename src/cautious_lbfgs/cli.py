"""Command-line front end: single solves, benchmark tables, the mesh
study and the random-start study, with CSV summaries and JSONL traces.

Outputs are deterministic: a fixed flag set (and seed, where one
applies) yields byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .diagnostics import q_factors
from .linesearch import LineSearchParams
from .problems import OcpControlProblem, OcpGrid, PiecewiseQuadratic, Problem, Rosenbrock
from .secant_store import CautiousParams
from .solver import SolveReport, SolverConfig, minimize

SUMMARY_COLUMNS = [
    "problem", "ls", "m", "mode", "status",
    "n_iter", "n_feval", "n_pairs", "n_unit_steps", "alpha_max", "alpha_min",
    "qf", "qf3", "qx", "qx3", "qg", "qg3",
    "f_final", "grad_norm_final",
]

TABLE2_CONFIGS = [(ls, m) for m in range(5) for ls in ("armijo", "mt")]
TABLE3_CONFIGS = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "wolfe")]
TABLE4_CONFIGS = [(ls, m) for m in (0, 5, 10) for ls in ("armijo", "mt")]
TABLES = {
    "t2": ("rosenbrock", TABLE2_CONFIGS),
    "t3": ("pwquad", TABLE3_CONFIGS),
    "t4": ("ocp", TABLE4_CONFIGS),
    "t5": ("ocp", TABLE4_CONFIGS),
}


def format_value(v) -> str:
    """Fixed CSV number formatting: '.' decimal, scientific below 1e-3."""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.6e}"
    return f"{x:.6g}"


def emit(args, header: list[str], rows: list[list]) -> None:
    """Write the rows as CSV to ``--csv`` (CRLF line ends) or to stdout (LF)."""
    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        out, line_end = open(path, "w", newline=""), "\r\n"
    else:
        out, line_end = contextlib.nullcontext(sys.stdout), "\n"
    with out as fh:
        writer = csv.writer(fh, lineterminator=line_end)
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)


def write_trace(path, report: SolveReport) -> None:
    """One JSON object per iteration: the record's fields that the run recorded."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for record in report.trace:
            entry = {k: v for k, v in dataclasses.asdict(record).items() if v is not None}
            fh.write(json.dumps(entry) + "\n")


def plan(args) -> tuple[list[tuple[Problem, np.ndarray]], list[SolverConfig]]:
    """The problems, with their starts, and the config of every solve the flags ask for.

    Tables and studies fix their problem, and with it the default
    tolerance; the mesh study builds one control problem per exponent.
    All are built before any solve, so a bad value fails first.
    """
    if args.runs is not None:
        if args.runs < 1:
            raise ValueError(f"--runs must be >= 1, got {args.runs}")
        args.problem, pairs = "pwquad", TABLE3_CONFIGS
    elif args.table is not None:
        args.problem, pairs = TABLES[args.table]
    else:
        pairs = [(args.ls, args.m)]
    if (args.trace or args.dump_grids) and (args.runs is not None or args.table is not None):
        raise ValueError("--trace and --dump-grids apply to single runs only")
    if args.dump_grids and args.problem != "ocp":
        raise ValueError("--dump-grids requires --problem ocp")
    ls_params = LineSearchParams(
        sigma=args.sigma,
        eta=args.eta,
        beta1=args.beta,
        beta2=args.beta,
        maxfev=args.maxfev,
        stpmin=args.stpmin,
        stpmax=args.stpmax,
        xtol=args.xtol,
        gll_memory=args.gll_mem,
    )
    default_tol = 1e-5 if args.problem == "pwquad" else 1e-9
    configs = [
        SolverConfig(
            cautious=CautiousParams(m=m, c0=args.c0, c1=args.c1, c2=args.c2),
            mode="classical" if args.classic else "cautious",
            linesearch=ls,
            ls=ls_params,
            grad_tol=args.tol if args.tol is not None else default_tol,
            max_iter=args.max_iter,
            oracle_checks=False,  # no output shows an audit
            keep_iterates=args.runs is None and args.table != "t5",
            keep_storage=args.trace is not None,
        )
        for ls, m in pairs
    ]
    if args.problem == "rosenbrock":
        problems = [(Rosenbrock(), np.array([-1.2, 1.0]))]
    elif args.problem == "pwquad":
        pwquad = PiecewiseQuadratic(args.n)
        problems = [(pwquad, pwquad.b.copy())]
    else:
        # a problem holds no per-run state, so each mesh is built (and A + I factored) once
        meshes = args.mesh_list if args.table == "t5" else [args.mesh_j]
        ocps = [OcpControlProblem(OcpGrid(M=2**j, nu=args.nu)) for j in meshes]
        problems = [(ocp, np.zeros(ocp.space.dim)) for ocp in ocps]
    return problems, configs


def reference_solution(problem: Problem) -> tuple[float, np.ndarray]:
    """(f*, x*) for the Q-factor columns.

    Analytic where available; the control problem is solved from zero
    at tolerance 1e-12.
    """
    if isinstance(problem, (Rosenbrock, PiecewiseQuadratic)):
        return problem.f_star, problem.x_star
    assert isinstance(problem, OcpControlProblem)
    config = SolverConfig(
        cautious=CautiousParams(m=10),
        linesearch="armijo",
        grad_tol=1e-12,
        max_iter=500,
        oracle_checks=False,
        keep_iterates=False,
    )
    ref = minimize(problem, problem.space, np.zeros(problem.space.dim), config)
    if ref.status != "converged":
        raise RuntimeError(f"reference solve failed: {ref.status}: {ref.reason}")
    return ref.f_final, ref.x_final


def summary_row(problem_id: str, config: SolverConfig, report: SolveReport,
                rates=None) -> list:
    q = ["", "", "", "", "", ""]
    if rates is not None:
        q = [rates.qf, rates.qf3, rates.qx, rates.qx3, rates.qg, rates.qg3]
    return [
        problem_id, config.linesearch, config.cautious.m, config.mode, report.status,
        report.n_iter, report.n_feval, report.n_pairs_stored, report.n_unit_steps,
        report.alpha_max, report.alpha_min,
        *q,
        report.f_final, report.grad_norm_final,
    ]


def run_table(args) -> int:
    """One summary row per config.

    A single run is a one-row table that may also write ``--trace`` and
    ``--dump-grids``; it exits 1 unless it converged.  The reference
    solution is computed once, when the first converged run needs it.
    """
    [(problem, x0)] = args.problems
    reference = None
    rows = []
    for config in args.configs:
        report = minimize(problem, problem.space, x0, config)
        rates = None
        if report.status == "converged" and report.n_iter >= 1:
            if reference is None:
                reference = reference_solution(problem)
            rates = q_factors(report, *reference, problem.space)
        rows.append(summary_row(args.problem, config, report, rates))
    emit(args, SUMMARY_COLUMNS, rows)
    if args.trace:
        write_trace(args.trace, report)
    if args.dump_grids:
        dump_grids(args, problem, report)
    return 0 if args.table is not None or report.status == "converged" else 1


def dump_grids(args, problem: OcpControlProblem, report: SolveReport) -> None:
    out = Path(args.dump_grids)
    out.mkdir(parents=True, exist_ok=True)
    n = problem.grid.M - 1
    control = report.x_final
    state, _ = problem.solve_state(control)
    np.savetxt(out / "target_state.csv", problem.target_state.reshape(n, n), delimiter=",")
    np.savetxt(out / "state.csv", state.reshape(n, n), delimiter=",")
    np.savetxt(out / "control.csv", control.reshape(n, n), delimiter=",")


def mesh_study(args) -> int:
    """Iteration counts of the control problem across mesh refinements.

    A cell whose run does not converge holds ``!`` and the run's status.
    """
    rows = []
    for config in args.configs:
        row: list = [config.linesearch, config.cautious.m]
        for problem, x0 in args.problems:
            report = minimize(problem, problem.space, x0, config)
            row.append(report.n_iter if report.status == "converged" else f"!{report.status}")
        rows.append(row)
    emit(args, ["ls", "m"] + [f"it_j{j}" for j in args.mesh_list], rows)
    return 0


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller normals from counter-based uniform draws."""
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


def random_start_study(args) -> int:
    """Success rate and mean iteration count over random starting points.

    Each configuration replays the same seeded stream of standard-normal
    starts, so per-config results are directly comparable.
    """
    [(problem, _)] = args.problems
    header = ["ls", "m", "n_runs", "n_converged", "success_rate", "mean_iters"]
    rows = []
    for config in args.configs:
        rng = np.random.Generator(np.random.Philox(args.seed))
        n_ok = 0
        total_iters = 0
        for _ in range(args.runs):
            x0 = standard_normals(rng, problem.space.dim)
            report = minimize(problem, problem.space, x0, config)
            if report.status == "converged":
                n_ok += 1
                total_iters += report.n_iter
        mean = total_iters / n_ok if n_ok else math.nan
        rows.append([config.linesearch, config.cautious.m, args.runs, n_ok, n_ok / args.runs, mean])
    emit(args, header, rows)
    return 0


def load_config_file(path) -> dict:
    """Flat ``key = value`` pairs, one per line; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cautious-lbfgs",
        description="Limited-memory quasi-Newton solver with cautious pair filtering",
    )
    parser.add_argument("--config", help="flat key=value file; flags override it")
    parser.add_argument("--problem", choices=["rosenbrock", "pwquad", "ocp"],
                        default="rosenbrock")
    parser.add_argument("--n", type=int, default=100,
                        help="number of 3-blocks of the piecewise quadratic")
    parser.add_argument("--mesh-j", type=int, default=6, dest="mesh_j",
                        help="grid exponent of the control problem (M = 2^j)")
    parser.add_argument("--nu", type=float, default=1e-3, help="control penalty weight")
    parser.add_argument("--m", type=int, default=2, help="memory size")
    parser.add_argument("--ls", choices=["armijo", "wolfe", "mt", "gll"], default="armijo")
    parser.add_argument("--gll-mem", type=int, default=10, dest="gll_mem")
    parser.add_argument("--tol", type=float, default=None,
                        help="gradient-norm tolerance (default per problem)")
    parser.add_argument("--c0", type=float, default=1e-4)
    parser.add_argument("--c1", type=float, default=1.0)
    parser.add_argument("--c2", type=float, default=None,
                        help="default 1/(2m+3)")
    parser.add_argument("--classic", action="store_true",
                        help="classical L-BFGS/BB: the same iteration at filter level 0")
    parser.add_argument("--sigma", type=float, default=1e-4, help="sufficient-decrease slope")
    parser.add_argument("--eta", type=float, default=0.9)
    parser.add_argument("--beta", type=float, default=0.5,
                        help="backtracking contraction factor")
    parser.add_argument("--maxfev", type=int, default=20)
    parser.add_argument("--stpmax", type=float, default=1000.0)
    parser.add_argument("--stpmin", type=float, default=0.0)
    parser.add_argument("--xtol", type=float, default=1e-7)
    parser.add_argument("--max-iter", type=int, default=50_000, dest="max_iter")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=None,
                        help="run the random-start study with this many starts per config")
    parser.add_argument("--csv", default=None, help="summary CSV path (default stdout)")
    parser.add_argument("--trace", default=None, help="JSONL trace path")
    parser.add_argument("--table", choices=["t2", "t3", "t4", "t5"], default=None)
    parser.add_argument("--mesh-list", type=int, nargs="+", default=[4, 5, 6, 7],
                        dest="mesh_list", help="grid exponents of the mesh study")
    parser.add_argument("--dump-grids", default=None, dest="dump_grids",
                        help="directory for target/state/control grid CSV dumps")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        file_values = load_config_file(args.config)
        defaults = vars(parser.parse_args([]))
        unknown = set(file_values) - set(defaults)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        # each file value is parsed as its own flag, so it gets the flag's
        # type and choices; switches (bool defaults) take a truthy word and
        # list-valued keys whitespace-separated items
        from_file = argparse.Namespace(**defaults)
        for key, value in file_values.items():
            if isinstance(defaults[key], bool):
                parsed = value.lower() in ("1", "true", "yes", "on")
            else:
                items = value.split() if isinstance(defaults[key], list) else [value]
                parsed = getattr(parser.parse_args([f"--{key.replace('_', '-')}", *items]), key)
            setattr(from_file, key, parsed)
        # explicit flags override the file
        args = parser.parse_args(argv, namespace=from_file)
    try:
        args.problems, args.configs = plan(args)
    except ValueError as err:
        parser.error(str(err))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.runs is not None:
        return random_start_study(args)
    if args.table == "t5":
        return mesh_study(args)
    return run_table(args)


if __name__ == "__main__":
    sys.exit(main())
