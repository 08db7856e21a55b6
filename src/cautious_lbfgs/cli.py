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
from .solver import LINE_SEARCHES, SolveReport, SolverConfig, minimize

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
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
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


def write_jsonl(path, records) -> None:
    """One JSON object per dataclass record: its fields that are not None."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for record in records:
            entry = {k: v for k, v in dataclasses.asdict(record).items() if v is not None}
            fh.write(json.dumps(entry) + "\n")


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller normals from counter-based uniform draws."""
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


def plan(args) -> tuple[list[tuple[Problem, np.ndarray]], list[SolverConfig]]:
    """The problems, with their starts, and the config of every solve the flags ask for.

    Tables and studies fix their problem, and with it the default
    tolerance; the mesh study builds one control problem per exponent,
    and the random-start study draws its ``--runs`` starts once, from one
    ``Philox(--seed)`` stream, so that every config solves from the same
    points.  All are built, and the output paths checked, before any solve.
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
    default_tol = 1e-5 if args.problem == "pwquad" else SolverConfig.grad_tol
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
        if args.runs is None:
            problems = [(pwquad, pwquad.b.copy())]
        else:
            rng = np.random.Generator(np.random.Philox(args.seed))
            problems = [(pwquad, standard_normals(rng, pwquad.space.dim)) for _ in range(args.runs)]
    else:
        # a problem holds no per-run state, so each mesh is built once
        meshes = args.mesh_list if args.table == "t5" else [args.mesh_j]
        ocps = [OcpControlProblem(OcpGrid(M=2**j, nu=args.nu)) for j in meshes]
        problems = [(ocp, np.zeros(ocp.space.dim)) for ocp in ocps]
    for flag, path, want_dir in (("--csv", args.csv, False), ("--trace", args.trace, False),
                                 ("--dump-grids", args.dump_grids, True)):
        if path and Path(path).exists() and Path(path).is_dir() != want_dir:
            raise ValueError(f"{flag} {path} {'is not' if want_dir else 'is'} a directory")
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


def run(args) -> int:
    """Solve every config from every (problem, start) of ``args.problems``; one CSV row per config.

    A table row is the summary of its one solve; its q-factor columns
    need the reference solution, computed once, when the first converged
    run needs it.  If that solve fails, the rows keep those columns
    empty, the failure goes to stderr, and the exit code is 1.  A single
    run is a one-row table that may also write ``--trace`` and
    ``--dump-grids``; it exits 1 unless it converged.  A mesh-study cell
    is a run's iteration count, or ``!`` and its status where it did not
    converge; a study row is the success rate and mean iteration count
    over the starts.  Reports are consumed as they are made, so a study
    keeps none of them.
    """
    study, mesh = args.runs is not None, args.table == "t5"
    if study:
        header = ["ls", "m", "n_runs", "n_converged", "success_rate", "mean_iters"]
    elif mesh:
        header = ["ls", "m"] + [f"it_j{j}" for j in args.mesh_list]
    else:
        header = SUMMARY_COLUMNS
    reference = failure = None
    rows = []
    for config in args.configs:
        reports = (minimize(problem, problem.space, x0, config) for problem, x0 in args.problems)
        row: list = [config.linesearch, config.cautious.m]
        if study:
            iters = [r.n_iter for r in reports if r.status == "converged"]
            n_ok = len(iters)
            row += [args.runs, n_ok, n_ok / args.runs, sum(iters) / n_ok if n_ok else math.nan]
        elif mesh:
            row += [r.n_iter if r.status == "converged" else f"!{r.status}" for r in reports]
        else:
            [(problem, _)], [report] = args.problems, reports
            q = [""] * 6
            if report.status == "converged" and report.n_iter >= 1 and failure is None:
                if reference is None:
                    try:
                        reference = reference_solution(problem)
                    except RuntimeError as err:
                        failure = str(err)
                if reference is not None:
                    rates = q_factors(report, *reference, problem.space)
                    q = [rates.qf, rates.qf3, rates.qx, rates.qx3, rates.qg, rates.qg3]
            row = [args.problem, *row, config.mode, report.status,
                   report.n_iter, report.n_feval, report.n_pairs_stored, report.n_unit_steps,
                   report.alpha_max, report.alpha_min, *q, report.f_final, report.grad_norm_final]
        rows.append(row)
    emit(args, header, rows)
    if args.trace:
        write_jsonl(args.trace, report.trace)
    if args.dump_grids:
        dump_grids(args, problem, report)
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    single = not study and args.table is None
    return 1 if single and report.status != "converged" else 0


def dump_grids(args, problem: OcpControlProblem, report: SolveReport) -> None:
    out = Path(args.dump_grids)
    out.mkdir(parents=True, exist_ok=True)
    n = problem.grid.M - 1
    control = report.x_final
    state = problem.solve_state(control)
    np.savetxt(out / "target_state.csv", problem.target_state.reshape(n, n), delimiter=",")
    np.savetxt(out / "state.csv", state.reshape(n, n), delimiter=",")
    np.savetxt(out / "control.csv", control.reshape(n, n), delimiter=",")


def build_parser() -> argparse.ArgumentParser:
    """The flags; a flag the library has a default or choices for takes them from it."""
    ls = LineSearchParams
    parser = argparse.ArgumentParser(
        prog="cautious-lbfgs",
        description="Limited-memory quasi-Newton solver with cautious pair filtering; "
        "an argument @FILE stands for the arguments written in FILE",
        fromfile_prefix_chars="@",
    )
    # an argument file holds flags as typed: '#' starts a comment, and
    # whitespace separates arguments
    parser.convert_arg_line_to_args = lambda line: line.split("#", 1)[0].split()
    parser.add_argument("--problem", choices=["rosenbrock", "pwquad", "ocp"],
                        default="rosenbrock")
    parser.add_argument("--n", type=int, default=100,
                        help="number of 3-blocks of the piecewise quadratic")
    parser.add_argument("--mesh-j", type=int, default=6, dest="mesh_j",
                        help="grid exponent of the control problem (M = 2^j)")
    parser.add_argument("--nu", type=float, default=OcpGrid.nu, help="control penalty weight")
    parser.add_argument("--m", type=int, default=2, help="memory size")
    parser.add_argument("--ls", choices=LINE_SEARCHES, default="armijo")
    parser.add_argument("--gll-mem", type=int, default=ls.gll_memory, dest="gll_mem")
    parser.add_argument("--tol", type=float, default=None,
                        help="gradient-norm tolerance (default per problem)")
    parser.add_argument("--c0", type=float, default=CautiousParams.c0)
    parser.add_argument("--c1", type=float, default=CautiousParams.c1)
    parser.add_argument("--c2", type=float, default=None,
                        help="default 1/(2m+3)")
    parser.add_argument("--classic", action="store_true",
                        help="classical L-BFGS/BB: the same iteration at filter level 0")
    parser.add_argument("--sigma", type=float, default=ls.sigma, help="sufficient-decrease slope")
    parser.add_argument("--eta", type=float, default=ls.eta)
    parser.add_argument("--beta", type=float, default=ls.beta1,
                        help="backtracking contraction factor")
    parser.add_argument("--maxfev", type=int, default=ls.maxfev)
    parser.add_argument("--stpmax", type=float, default=ls.stpmax)
    parser.add_argument("--stpmin", type=float, default=ls.stpmin)
    parser.add_argument("--xtol", type=float, default=ls.xtol)
    parser.add_argument("--max-iter", type=int, default=SolverConfig.max_iter, dest="max_iter")
    parser.add_argument("--seed", type=int, default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--runs", type=int, default=None,
                      help="run the random-start study with this many starts per config")
    mode.add_argument("--table", choices=TABLES, default=None)
    parser.add_argument("--csv", default=None, help="summary CSV path (default stdout)")
    parser.add_argument("--trace", default=None, help="JSONL trace path")
    parser.add_argument("--mesh-list", type=int, nargs="+", default=[4, 5, 6, 7],
                        dest="mesh_list", help="grid exponents of the mesh study")
    parser.add_argument("--dump-grids", default=None, dest="dump_grids",
                        help="directory for target/state/control grid CSV dumps")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.problems, args.configs = plan(args)
    except ValueError as err:
        parser.error(str(err))
    return args


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
