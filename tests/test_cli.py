import csv
import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cautious_lbfgs import cli
from cautious_lbfgs.cli import (
    SUMMARY_COLUMNS,
    format_value,
    main,
    parse_args,
    standard_normals,
)

DATA = Path(__file__).parent / "data"
GOLDEN_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_outputs.py"


def golden_outputs():
    """The script that writes the pinned outputs, loaded as a module."""
    spec = importlib.util.spec_from_file_location("golden_outputs", GOLDEN_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFormatting:
    def test_format_value(self):
        assert format_value(0.0) == "0"
        assert format_value(42) == "42"
        assert format_value(True) == "1"
        assert format_value(np.True_) == "1"
        assert format_value(np.False_) == "0"
        assert format_value(0.0009765625) == "9.765625e-04"
        assert format_value(0.5) == "0.5"
        assert format_value(float("nan")) == "nan"
        assert format_value(math.copysign(math.nan, -1.0)) == "nan"
        assert format_value(-0.0) == "0"
        assert format_value("converged") == "converged"


class TestSingleRuns:
    def test_rosenbrock_row(self, tmp_path):
        out = tmp_path / "row.csv"
        code = main(["--problem", "rosenbrock", "--m", "2", "--ls", "armijo",
                     "--tol", "1e-9", "--csv", str(out)])
        assert code == 0
        header, row = read_csv(out)
        assert header == SUMMARY_COLUMNS
        record = dict(zip(header, row))
        assert record["status"] == "converged"
        assert 30 <= int(record["n_iter"]) <= 60
        assert float(record["qf"]) > 0.99

    def test_pwquad_row(self, tmp_path):
        out = tmp_path / "row.csv"
        code = main(["--problem", "pwquad", "--n", "100", "--m", "0", "--ls", "wolfe",
                     "--tol", "1e-5", "--csv", str(out)])
        assert code == 0
        record = dict(zip(*read_csv(out)))
        assert 6 <= int(record["n_iter"]) <= 15

    def test_ocp_row_all_unit_steps(self, tmp_path):
        out = tmp_path / "row.csv"
        code = main(["--problem", "ocp", "--mesh-j", "4", "--m", "10", "--ls", "armijo",
                     "--tol", "1e-9", "--csv", str(out)])
        assert code == 0
        record = dict(zip(*read_csv(out)))
        assert 6 <= int(record["n_iter"]) <= 10
        assert record["n_unit_steps"] == record["n_iter"]

    def test_failure_exit_code(self, tmp_path):
        out = tmp_path / "row.csv"
        code = main(["--problem", "rosenbrock", "--m", "2", "--max-iter", "3",
                     "--csv", str(out)])
        assert code == 1
        record = dict(zip(*read_csv(out)))
        assert record["status"] == "max_iter"

    def test_failed_reference_leaves_q_columns_empty(self, tmp_path, monkeypatch, capsys):
        solve = cli.minimize

        def failing_reference(problem, space, x0, config):
            report = solve(problem, space, x0, config)
            if config.grad_tol == 1e-12:  # the reference solve behind the q-factors
                report = dataclasses.replace(report, status="linesearch_failure", reason="forced")
            return report

        monkeypatch.setattr(cli, "minimize", failing_reference)
        out = tmp_path / "row.csv"
        code = main(["--problem", "ocp", "--mesh-j", "3", "--m", "5", "--csv", str(out)])
        assert code == 1
        record = dict(zip(*read_csv(out)))
        assert record["status"] == "converged"
        assert [record[c] for c in ("qf", "qf3", "qx", "qx3", "qg", "qg3")] == [""] * 6
        assert capsys.readouterr().err == "reference solve failed: linesearch_failure: forced\n"

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["--problem", "nosuch"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--ls", "mt", "--stpmax", "0.5"], ["--sigma", "2"], ["--beta", "1.5"],
        ["--tol", "0"], ["--max-iter", "0"], ["--m", "-1"], ["--c0", "0"], ["--gll-mem", "0"],
        ["--dump-grids", "grids"], ["--table", "t2", "--tol", "0"], ["--runs", "2", "--c0", "2"],
        ["--problem", "pwquad", "--n", "0"], ["--problem", "ocp", "--mesh-j", "0"],
        ["--table", "t5", "--mesh-list", "4", "0"], ["--problem", "ocp", "--nu", "-1"],
        ["--runs", "0"], ["--table", "t2", "--trace", "t.jsonl"], ["--runs", "2", "--dump-grids", "g"],
        ["--oracle-checks", "on"], ["--problem", "ocp", "--nu", "inf"],
        ["--ls", "mt", "--xtol", "nan"], ["--xtol", "-1"],
        ["--runs", "2", "--table", "t2"],
    ])
    def test_bad_parameter_is_usage_error_before_any_solve(self, tmp_path, monkeypatch, flags):
        # relative --trace and --dump-grids paths land in tmp_path, which must stay empty
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "row.csv"
        with pytest.raises(SystemExit) as err:
            main(flags + ["--csv", str(out)])
        assert err.value.code == 2
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_rate_guard_warns_once(self, tmp_path):
        with pytest.warns(UserWarning) as caught:
            main(["--m", "2", "--c2", "0.5", "--csv", str(tmp_path / "row.csv")])
        assert len([w for w in caught if "linear-rate" in str(w.message)]) == 1

    def test_trace_jsonl(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        main(["--problem", "rosenbrock", "--m", "2", "--trace", str(trace),
              "--csv", str(tmp_path / "row.csv")])
        lines = trace.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) >= 30
        # the writer leaves out what a run did not record; a traced run keeps storage
        for record in records:
            assert "storage" in record
            assert None not in record.values()
        first = records[0]
        assert set(first) >= {"k", "f", "grad_norm", "omega", "gamma", "n_active",
                              "n_stored", "alpha", "pair_stored", "n_feval_ls", "storage"}
        assert first["k"] == 0
        # snapshots show the storage after the iteration's bookkeeping
        stored = first["storage"]
        assert stored and stored[0]["index"] == 0
        assert set(stored[0]) == {"index", "sy", "ss", "yy", "quality"}

    def test_grid_dumps(self, tmp_path):
        out_dir = tmp_path / "grids"
        main(["--problem", "ocp", "--mesh-j", "4", "--m", "10",
              "--csv", str(tmp_path / "row.csv"), "--dump-grids", str(out_dir)])
        for name in ("target_state.csv", "state.csv", "control.csv"):
            grid = np.loadtxt(out_dir / name, delimiter=",")
            assert grid.shape == (15, 15)


class TestTables:
    def test_classical_row_matches_cautious(self, tmp_path):
        a, b = tmp_path / "cautious.csv", tmp_path / "classic.csv"
        base = ["--problem", "rosenbrock", "--m", "2", "--ls", "armijo"]
        main(base + ["--csv", str(a)])
        main(base + ["--classic", "--csv", str(b)])
        row_a = dict(zip(*read_csv(a)))
        row_b = dict(zip(*read_csv(b)))
        assert row_a.pop("mode") == "cautious"
        assert row_b.pop("mode") == "classical"
        assert row_a == row_b

    def test_gll_run(self, tmp_path):
        out = tmp_path / "gll.csv"
        code = main(["--problem", "rosenbrock", "--m", "0", "--ls", "gll",
                     "--gll-mem", "10", "--csv", str(out)])
        assert code == 0
        record = dict(zip(*read_csv(out)))
        assert int(record["n_iter"]) <= 200

    def test_table3_shape_and_agreement(self, tmp_path):
        out = tmp_path / "t3.csv"
        assert main(["--table", "t3", "--csv", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == SUMMARY_COLUMNS
        assert len(rows) == 1 + 6
        records = [dict(zip(rows[0], r)) for r in rows[1:]]
        assert all(r["status"] == "converged" for r in records)
        by_key = {(r["ls"], r["m"]): r for r in records}
        # zero and large memory agree per line search
        for ls in ("armijo", "wolfe"):
            assert by_key[(ls, "0")]["n_iter"] == by_key[(ls, "10")]["n_iter"]

    def test_table5_mesh_study(self, tmp_path):
        out = tmp_path / "t5.csv"
        assert main(["--table", "t5", "--mesh-list", "4", "5", "--csv", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["ls", "m", "it_j4", "it_j5"]
        assert len(rows) == 1 + 6
        for row in rows[1:]:
            assert abs(int(row[2]) - int(row[3])) <= 1

    def test_single_mesh_column(self, tmp_path):
        out = tmp_path / "t5.csv"
        assert main(["--table", "t5", "--mesh-list", "4", "--csv", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["ls", "m", "it_j4"]

    def test_mesh_cell_of_unconverged_run(self, tmp_path):
        out = tmp_path / "t5.csv"
        assert main(["--table", "t5", "--mesh-list", "4", "--max-iter", "2",
                     "--csv", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 6
        assert all(row[2] == "!max_iter" for row in rows[1:])


class TestRandomStartStudy:
    def test_small_study(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(["--runs", "5", "--seed", "3", "--n", "10", "--csv", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["ls", "m", "n_runs", "n_converged", "success_rate", "mean_iters"]
        assert len(rows) == 1 + 6
        for row in rows[1:]:
            assert row[2] == "5"
            assert row[4] == "1"

    def test_study_without_converged_run(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(["--runs", "2", "--max-iter", "1", "--csv", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 6
        for row in rows[1:]:
            assert row[2:] == ["2", "0", "0", "nan"]

    def test_starts_are_one_seeded_stream(self):
        args = parse_args(["--runs", "3", "--seed", "5", "--n", "4"])
        rng = np.random.Generator(np.random.Philox(5))
        assert len(args.problems) == 3
        for _, x0 in args.problems:
            assert np.array_equal(x0, standard_normals(rng, 12))

    def test_normals_are_deterministic_and_standardized(self):
        rng1 = np.random.Generator(np.random.Philox(42))
        rng2 = np.random.Generator(np.random.Philox(42))
        a = standard_normals(rng1, 501)
        b = standard_normals(rng2, 501)
        assert np.array_equal(a, b)
        big = standard_normals(np.random.Generator(np.random.Philox(7)), 200_000)
        assert abs(big.mean()) < 0.01
        assert abs(big.std() - 1.0) < 0.01


class TestDeterminism:
    def test_outputs_match_pinned_bytes(self, tmp_path):
        # tests/data holds exactly the files scripts/golden_outputs.py writes
        written = golden_outputs().write_all(tmp_path)
        assert {p.name for p in written} == {p.name for p in DATA.iterdir()}
        # every differing name at once, so that a regeneration shows the whole set
        differing = sorted(p.name for p in written if p.read_bytes() != (DATA / p.name).read_bytes())
        assert differing == []

    def test_byte_identical_reruns(self, tmp_path):
        args = ["--problem", "rosenbrock", "--m", "1", "--ls", "mt"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--csv", str(a)])
        main(args + ["--csv", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_study_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["--runs", "3", "--seed", "11", "--n", "5", "--csv", str(a)])
        main(["--runs", "3", "--seed", "11", "--n", "5", "--csv", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    """An argument @FILE reads the flags written in FILE as if typed in its place."""

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("--problem pwquad --m 5\n--tol 1e-4\n--ls wolfe\n")
        args = parse_args([f"@{cfg}", "--m", "0"])
        assert (args.problem, args.m, args.tol, args.ls) == ("pwquad", 0, 1e-4, "wolfe")

    def test_file_values_take_flag_types(self, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("--classic\n--mesh-list 4 5\n--max-iter 7\n")
        args = parse_args([f"@{cfg}"])
        assert args.classic is True
        assert args.mesh_list == [4, 5]
        assert args.max_iter == 7

    def test_file_run_prints_pinned_table(self, tmp_path, capsys):
        cfg = tmp_path / "t2.args"
        cfg.write_text("--table t2\n")
        assert main([f"@{cfg}"]) == 0
        assert capsys.readouterr().out.encode() == (DATA / "stdout_t2.csv").read_bytes()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("# a t3 run\n\n--table t3  # pwquad\n   \n# --classic\n")
        args = parse_args([f"@{cfg}"])
        assert (args.table, args.classic) == ("t3", False)

    def test_abbreviation_as_on_the_command_line(self, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("--gll 3\n")
        assert parse_args([f"@{cfg}"]).gll_mem == 3

    @pytest.mark.parametrize("text", [
        "--nonsense 1\n", "--oracle-checks on\n", "--ls exact\n", "just a line\n", None,
    ], ids=["unknown-flag", "no-such-setting", "bad-choice", "not-a-flag", "missing-file"])
    def test_bad_file_is_usage_error(self, tmp_path, text):
        cfg = tmp_path / "run.args"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as err:
            parse_args([f"@{cfg}"])
        assert err.value.code == 2
