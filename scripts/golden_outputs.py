#!/usr/bin/env python3
"""Byte-identity pin: write the 22 reference CLI outputs into OUTDIR.

The files are the benchmark tables t2/t3/t4 in both modes, the t5 mesh
study, a 20-start random-start study, JSONL traces with their summary
CSVs for three single solves in both modes, and the stdout of one single
solve and of one table.  Two trees agree on every output when ``diff -r``
of their OUTDIRs is empty:

    PYTHONPATH=src python3 scripts/golden_outputs.py OUTDIR
"""

import contextlib
import sys
from pathlib import Path

from cautious_lbfgs.cli import main

TRACES = [
    ("rosenbrock", "armijo", 2),
    ("rosenbrock", "mt", 3),
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    out = Path(sys.argv[1])
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
    missing = [str(p) for p in written if not p.is_file()]
    if missing:
        sys.exit(f"not written: {missing}")
    print(f"wrote {len(written)} files under {out}")
