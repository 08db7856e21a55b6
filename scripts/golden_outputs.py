#!/usr/bin/env python3
"""Byte-identity pin: write the 28 reference outputs into OUTDIR.

The files are the benchmark tables t2/t3/t4 in both modes, the t5 mesh
study, a 20-start random-start study, JSONL traces with their summary
CSVs for four single solves in both modes, the stdout of one single
solve and of one table, and the norm audits of two solves, one
``BoundReport`` per line.  ``tests/data/`` holds these files, and
Tier-1 (``test_cli.py::TestDeterminism``) compares a fresh
:func:`write_all` against them byte for byte:

    PYTHONPATH=src python3 scripts/golden_outputs.py OUTDIR
"""

import contextlib
import sys
from pathlib import Path

import numpy as np

from cautious_lbfgs import (
    CautiousParams,
    PiecewiseQuadratic,
    Rosenbrock,
    SolverConfig,
    minimize,
)
from cautious_lbfgs.cli import main, write_jsonl

TRACES = [
    ("rosenbrock", "armijo", 2),
    ("rosenbrock", "mt", 3),
    ("rosenbrock", "gll", 0),
    ("pwquad", "wolfe", 5),
]
STDOUT = {
    "stdout_single.csv": ["--problem", "rosenbrock", "--ls", "armijo", "--m", "2"],
    "stdout_t2.csv": ["--table", "t2"],
}


def runs(out: Path):
    """(argv, files written, file that captures stdout or None) for each invocation."""
    for classic in (False, True):
        mode = ["--classic"] if classic else []
        suffix = "_classic" if classic else ""
        for table in ("t2", "t3", "t4"):
            path = out / f"{table}{suffix}.csv"
            yield ["--table", table, *mode, "--csv", str(path)], [path], None
        for problem, ls, m in TRACES:
            stem = out / f"trace_{problem}_{ls}_m{m}{suffix}"
            csv, jsonl = stem.with_suffix(".csv"), stem.with_suffix(".jsonl")
            yield ([*mode, "--problem", problem, "--ls", ls, "--m", str(m),
                    "--csv", str(csv), "--trace", str(jsonl)], [csv, jsonl], None)
    path = out / "t5.csv"
    yield ["--table", "t5", "--csv", str(path)], [path], None
    path = out / "runs20_seed0.csv"
    yield ["--runs", "20", "--seed", "0", "--csv", str(path)], [path], None
    for name, argv in STDOUT.items():
        yield argv, [out / name], out / name


def audits():
    """(file name, problem, start, config) of each audited solve; no CLI output shows an audit."""
    pwquad = PiecewiseQuadratic(100)
    yield ("audits_rosenbrock_armijo_m2.jsonl", Rosenbrock(), np.array([-1.2, 1.0]),
           SolverConfig(cautious=CautiousParams(m=2), linesearch="armijo", oracle_checks=True))
    yield ("audits_pwquad_wolfe_m5.jsonl", pwquad, pwquad.b.copy(),
           SolverConfig(cautious=CautiousParams(m=5), linesearch="wolfe", grad_tol=1e-5,
                        oracle_checks=True))


def write_all(out: Path) -> list[Path]:
    """Write every pinned output under ``out`` and return the paths written."""
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for argv, files, capture in runs(out):
        # exit code 1 marks a run that did not converge; its output is pinned too
        if capture is None:
            main(argv)
        else:
            with open(capture, "w") as fh, contextlib.redirect_stdout(fh):
                main(argv)
        written += files
    for name, problem, x0, config in audits():
        report = minimize(problem, problem.space, x0, config)
        write_jsonl(out / name, report.audits)
        written.append(out / name)
    return written


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    written = write_all(Path(sys.argv[1]))
    missing = [str(p) for p in written if not p.is_file()]
    if missing:
        sys.exit(f"not written: {missing}")
    print(f"wrote {len(written)} files under {sys.argv[1]}")
