import json
import math
import os
import re
import subprocess
import sys

import pytest

from bethe3 import cli
from bethe3.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, EXIT_VERIFY, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCritical:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(["critical", "--n2", "1..6"], capsys)
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n2"] for r in rows] == [1, 2, 3, 4, 5, 6]
        cs = [float(r["C"]) for r in rows]
        assert cs[0] == -6.0
        assert cs[1] == pytest.approx(-4.163, abs=5e-4)
        assert all(a < b for a, b in zip(cs, cs[1:]))
        assert all(-6.0 <= c < -4.0 for c in cs)

    def test_single_n(self, capsys):
        code, out, _ = run_cli(["critical", "--n2", "2", "--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n2,C,u0"
        assert len(lines) == 2


class TestTrace:
    def test_branch_flip_and_monotone(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--label", "0,0", "--c-range", "-2..0.5", "--step", "0.25"], capsys
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        cs = [float(r["c"]) for r in rows]
        assert cs == sorted(cs)
        flips = sum(1 for a, b in zip(rows, rows[1:]) if a["branch"] != b["branch"])
        assert flips == 1
        for r in rows:
            if float(r["c"]) < 0:
                assert r["branch"] == "complex"
            elif float(r["c"]) > 0:
                assert r["branch"] == "real"

    def test_observables_flag(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--label", "2,2", "--c-range", "-1..0", "--step", "0.5",
             "--observables"], capsys
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all("norm" in r and "V" in r for r in rows)
        at_zero = [r for r in rows if float(r["c"]) == 0.0][0]
        assert float(at_zero["V"]) == 0.0

    def test_csv_format_digits(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--label", "1,1", "--c-range", "-1..0", "--step", "1",
             "--format", "csv"], capsys
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("n1,n2,np,c,branch")
        # every float field carries 17 significant digits
        for tok in lines[1].split(",")[3:4]:
            assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2}", tok)

    def test_json_digits(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--label", "1,1", "--c-range", "0..0.1", "--step", "0.1"], capsys
        )
        rows = [json.loads(line) for line in out.strip().splitlines()]
        val = rows[-1]["E"]
        assert isinstance(val, str)
        mantissa = val.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 15

    def test_deterministic(self, capsys):
        args = ["spectrum", "--labels", "0,0", "1,1", "--c", "-2.5", "--observables"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2


class TestSpectrum:
    def test_sorted_levels(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--labels", "0,0", "1,1", "2,2", "3,3", "--c", "0"], capsys
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        es = [float(r["E"]) for r in rows]
        assert es == sorted(es)
        assert es[0] == pytest.approx(0.0, abs=1e-12)
        assert es[1] == pytest.approx(8 * math.pi ** 2, rel=1e-12)

    def test_partner_flag(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--label", "0,1", "--c", "-1", "--partners"], capsys
        )
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert {(r["n1"], r["n2"]) for r in rows} == {(0, 1), (1, 0)}

    def test_solver_failure_exit(self, capsys):
        # exactly at the critical point the solve must fail and exit 2
        code, out, _ = run_cli(["spectrum", "--label", "1,1", "--c", "-6"], capsys)
        assert code == EXIT_SOLVER
        assert "error" in out


class TestDensity:
    def test_csv_schema_and_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            ["density", "--label", "0,0", "--c", "-9", "--resolution", "12",
             "--format", "csv", "--out", str(out_file)], capsys
        )
        assert code == EXIT_OK
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "r12,r23,r31,density"
        assert len(lines) == 1 + 12 * 13 // 2
        r12, r23, r31, dens = (float(t) for t in lines[1].split(","))
        assert r12 + r23 + r31 == pytest.approx(1.0, abs=1e-12)
        assert dens >= 0.0

    @pytest.mark.parametrize("args", [
        ["density", "--label", "0,0", "--c", "-5", "--resolution", "8"],
        ["spectrum", "--labels", "0,0", "1,2", "--c", "-5", "--observables"],
    ])
    def test_arithmetic_error_exit(self, args, monkeypatch, capsys):
        # an ArithmeticError inside an observable exits 2 with an error record
        def divide_by_zero(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "density_grid", divide_by_zero)
        monkeypatch.setattr(cli, "norm_squared", divide_by_zero)
        code, out, _ = run_cli(args, capsys)
        assert code == EXIT_SOLVER
        assert json.loads(out.strip().splitlines()[-1])["error"].startswith("ZeroDivisionError")


class TestCsvErrors:
    """In csv mode every failure goes to stderr; stdout stays one clean table."""

    def test_spectrum_label_failure(self, capsys):
        code, out, err = run_cli(
            ["spectrum", "--labels", "1,1", "2,2", "--c", "-6", "--format", "csv"], capsys
        )
        assert code == EXIT_SOLVER
        assert "error: label (1,1): ValueError" in err
        lines = out.strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("2,2,")

    def test_trace_label_failure(self, monkeypatch, capsys):
        real_trace = cli.trace_root

        def failing_trace(label, *args, **kwargs):
            if label.n1 == 0:
                raise RuntimeError("march failed")
            return real_trace(label, *args, **kwargs)

        monkeypatch.setattr(cli, "trace_root", failing_trace)
        code, out, err = run_cli(
            ["trace", "--labels", "0,0", "2,2", "--c-range", "0..0.5", "--step", "0.5",
             "--format", "csv"], capsys
        )
        assert code == EXIT_SOLVER
        assert "error: label (0,0): RuntimeError: march failed" in err
        rows = out.strip().splitlines()[1:]
        assert rows and all(row.startswith("2,2,") for row in rows)

    def test_command_error(self, monkeypatch, capsys):
        def divide_by_zero(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "density_grid", divide_by_zero)
        code, out, err = run_cli(
            ["density", "--label", "0,0", "--c", "-5", "--resolution", "8", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_SOLVER
        assert out == "r12,r23,r31,density\n"
        assert err.startswith("error: ZeroDivisionError")


class TestVerify:
    def test_core_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "core"], capsys)
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows and all(r["passed"] for r in rows)

    def test_unknown_suite_fails_usage(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "nope"], capsys)
        assert code == EXIT_SOLVER or code == EXIT_USAGE


class TestUsage:
    def test_bad_label(self, capsys):
        code, _, err = run_cli(["trace", "--label", "banana", "--c-range", "0..1"], capsys)
        assert code == EXIT_USAGE

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(["trace", "--label", "1,1", "--c-range", "2..1"], capsys)
        assert code == EXIT_USAGE

    def test_missing_command(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("args", [
        ["density", "--label", "2,3", "--c", "nan"],
        ["spectrum", "--label", "0,0", "--c", "inf"],
        ["trace", "--label", "0,0", "--c-range", "-inf..1"],
        ["trace", "--label", "0,0", "--c-range", "0..nan"],
        ["trace", "--label", "0,0", "--c-range", "0..1", "--step", "inf"],
        ["trace", "--label", "0,0", "--c-range", "0..1", "--step", "nan"],
    ])
    def test_non_finite_values(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_USAGE
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("args, message", [
        (["density", "--label", "0,2", "--c", "-9", "--resolution", "4"], "--resolution must be >= 8"),
        (["density", "--labels", "0,2", "1,1", "--c", "-9"], "density takes one label, got 2"),
    ])
    def test_density_arguments(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_USAGE
        assert out == "" and message in err

    def test_negative_range_spelled_plainly(self, capsys):
        code, _, _ = run_cli(
            ["trace", "--label", "1,1", "--c-range", "-0.5..0", "--step", "0.5"], capsys
        )
        assert code == EXIT_OK


class TestTolEnv:
    def test_env_override(self, capsys, monkeypatch):
        from bethe3.tolerances import residual_tolerance

        monkeypatch.setenv("BETHE3_TOL", "1e-9")
        assert residual_tolerance() == 1e-9
        code, _, _ = run_cli(
            ["trace", "--label", "1,1", "--c-range", "0..0.1", "--step", "0.1"], capsys
        )
        assert code == EXIT_OK
        monkeypatch.setenv("BETHE3_TOL", "-1")
        with pytest.raises(ValueError):
            residual_tolerance()


def test_import_leaves_scipy_out():
    import bethe3

    src = os.path.dirname(os.path.dirname(bethe3.__file__))
    probe = "import sys, bethe3.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"


def test_closed_pipe_exits_quietly():
    # a resolution-64 grid is larger than the pipe buffer, so the writer is
    # still writing when the reader closes the pipe after one line
    import bethe3

    src = os.path.dirname(os.path.dirname(bethe3.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bethe3.cli", "density", "--label", "0,2", "--c", "-9",
         "--resolution", "64"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline().startswith(b'{"r12":')
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert "Traceback" not in err
