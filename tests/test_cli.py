import errno
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bethe3 import cli, observables
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

    def test_range_ending_at_C_keeps_its_end(self, capsys):
        # c = -6 is C(1,1): the requested end is a sample, the threshold root
        code, out, _ = run_cli(["trace", "--label", "1,1", "--c-range", "-6..-5.9"], capsys)
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert float(rows[0]["c"]) == -6.0 and float(rows[-1]["c"]) == -5.9
        assert float(rows[0]["delta1"]) == 0.0 and float(rows[0]["delta2"]) == 0.0

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
        # the trimer's eta reaches the subnormal floor before c = -1000: the
        # solve fails and exits 2
        code, out, _ = run_cli(["spectrum", "--label", "0,0", "--c", "-1000"], capsys)
        assert code == EXIT_SOLVER
        assert "error" in out
        rec = json.loads(out)
        assert (rec["n1"], rec["n2"], float(rec["c"])) == (0, 0, -1000.0)

    def test_threshold_state_observables_error_record(self, capsys):
        # at C(1,1) = -6 the state is the threshold root, all momenta 0, whose
        # ansatz vanishes: the observables give an error record, not a traceback
        code, out, err = run_cli(
            ["spectrum", "--label", "1,1", "--c", "-6", "--observables"], capsys)
        assert code == EXIT_SOLVER
        rec = json.loads(out)
        assert (rec["n1"], rec["n2"], float(rec["c"])) == (1, 1, -6.0)
        assert rec["error"].startswith("DegenerateMomentaError")
        assert "Traceback" not in err


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

        monkeypatch.setattr(observables, "density_grid", divide_by_zero)
        monkeypatch.setattr(observables, "norm_squared", divide_by_zero)
        code, out, _ = run_cli(args, capsys)
        assert code == EXIT_SOLVER
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["error"].startswith("ZeroDivisionError")
        assert rec["n1"] in (0, 1) and float(rec["c"]) == -5.0


class TestObservablesFailure:
    """A state whose observables fail gets an error record naming its label
    and c; the other levels and samples still print, and the exit code is 2."""

    def test_spectrum_keeps_other_levels(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--labels", "0,0", "2,2", "--c", "-100", "--observables"], capsys
        )
        assert code == EXIT_SOLVER
        failed, level = [json.loads(line) for line in out.strip().splitlines()]
        assert (failed["n1"], failed["n2"], float(failed["c"])) == (0, 0, -100.0)
        assert failed["error"].startswith("ZeroDivisionError: two-body pole")
        assert failed["error"].endswith("for (0,0)")
        assert (level["n1"], level["n2"]) == (2, 2) and float(level["norm"]) > 0.0

    def test_trace_csv_keeps_other_samples(self, capsys):
        code, out, err = run_cli(
            ["trace", "--label", "0,0", "--c-range", "-40..-36", "--step", "2",
             "--observables", "--format", "csv"], capsys
        )
        assert code == EXIT_SOLVER
        assert err.startswith("error: label (0,0) at c=-40.0: ZeroDivisionError")
        rows = out.strip().splitlines()[1:]
        assert [float(row.split(",")[3]) for row in rows] == [-38.0, -36.0]


class TestCsvErrors:
    """In csv mode every failure goes to stderr; stdout stays one clean table."""

    def test_spectrum_label_failure(self, capsys):
        code, out, err = run_cli(
            ["spectrum", "--labels", "0,0", "2,2", "--c", "-1000", "--format", "csv"], capsys
        )
        assert code == EXIT_SOLVER
        assert "error: label (0,0) at c=-1000.0: ConstraintViolationError" in err
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

        monkeypatch.setattr(observables, "density_grid", divide_by_zero)
        code, out, err = run_cli(
            ["density", "--label", "0,0", "--c", "-5", "--resolution", "8", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_SOLVER
        assert out == "r12,r23,r31,density\n"
        assert err.startswith("error: label (0,0) at c=-5.0: ZeroDivisionError")


class TestVerify:
    def test_core_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "core"], capsys)
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows and all(r["passed"] for r in rows)

    def test_all_suite_names_pinned(self):
        # `bethe3 verify --suite all` prints these checks in this order
        from bethe3.verify import run_suite

        results = run_suite("all")
        assert [r.name for r in results] == [
            "np-rule", "delta-roundtrip", "partner-energy", "critical-11", "critical-12",
            "momentum-conservation", "equal-label-deltas", "residual-at-root",
            "alpha-dimer-11", "alpha-trimer-00", "delta-large-positive",
            "delta-large-negative", "boundary-conditions", "prefactor-00", "prefactor-11",
            "simplex-vs-quadrature", "norm-positive", "v-sign", "trimer-vertex-max",
        ]
        assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_unknown_suite_fails_usage(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "nope"], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("usage error: unknown suite 'nope'")

    def test_unknown_suite_writes_no_csv_header(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "nope", "--format", "csv"], capsys)
        assert code == EXIT_USAGE and out == ""

    def test_uncaught_solver_error_is_one_error_record(self, monkeypatch, capsys):
        # main's last-resort handler: a command that raises is exit 2, no traceback
        import bethe3.verify

        def fail(name):
            raise RuntimeError("suite broke")

        monkeypatch.setattr(bethe3.verify, "run_suite", fail)
        code, out, err = run_cli(["verify"], capsys)
        assert code == EXIT_SOLVER and err == ""
        assert out == '{"error":"RuntimeError: suite broke"}\n'
        code, out, err = run_cli(["verify", "--format", "csv"], capsys)
        assert code == EXIT_SOLVER and out == ""
        assert err == "error: RuntimeError: suite broke\n"


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
        ["spectrum", "--label", "0,0", "--c", "-inf"],
    ])
    def test_non_finite_values(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_USAGE
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("args, message", [
        (["trace", "--label", "1,1", "--c-range", "abc"], "bad range 'abc', expected 'lo..hi'"),
        (["critical", "--n2", "abc"], "bad n2 range 'abc', expected 'lo..hi' or 'n'"),
        (["critical", "--n2", "3..1"], "bad n2 range '3..1'"),
        (["critical", "--n2", "0"], "bad n2 range '0'"),
    ])
    def test_bad_range_text(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_USAGE
        assert out == "" and err == f"usage error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (["density", "--label", "0,2", "--c", "-9", "--resolution", "4"], "--resolution must be >= 8"),
        (["density", "--labels", "0,2", "1,1", "--c", "-9"], "density takes one label, got 2"),
        (["density", "--label", "0,2", "--c", "-9", "--resolution", "10000000"],
         "--resolution must be >= 8 and at most 1413"),
        (["density", "--label", "0,2", "--c", "-9", "--resolution", "1414"],
         "--resolution must be >= 8 and at most 1413"),
    ])
    def test_density_arguments(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_USAGE
        assert out == "" and message in err

    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_unwritable_out(self, out, tmp_path, capsys):
        # a missing directory, and a directory in place of the file
        code, stdout, err = run_cli(
            ["critical", "--n2", "1", "--out", str(tmp_path / out)], capsys
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert err.startswith("usage error: cannot open --out") and err.count("\n") == 1

    def test_write_error_exits_64(self, tmp_path, monkeypatch, capsys):
        # a full disk: one stderr line naming the error, exit 64, and stdout
        # moved to devnull (here the fd of a file standing in for it)
        class FullStream:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as stand_in:
            monkeypatch.setattr(sys, "stdout", FullStream(stand_in.fileno()))
            code = main(["critical", "--n2", "1..3"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == "output error: cannot write: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("to_file", [True, False])
    def test_dev_full_exits_64(self, to_file):
        import bethe3

        src = os.path.dirname(os.path.dirname(bethe3.__file__))
        argv = [sys.executable, "-m", "bethe3.cli", "critical", "--n2", "1..3"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                argv + ["--out", "/dev/full"] if to_file else argv,
                stdout=subprocess.DEVNULL if to_file else full, stderr=subprocess.PIPE,
                text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
            )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "output error: cannot write: [Errno 28] No space left on device\n"

    def test_negative_range_spelled_plainly(self, capsys):
        code, _, _ = run_cli(
            ["trace", "--label", "1,1", "--c-range", "-0.5..0", "--step", "0.5"], capsys
        )
        assert code == EXIT_OK

    def test_negative_coupling_in_exponent_form(self, capsys):
        code, out, _ = run_cli(["spectrum", "--label", "2,3", "--c", "-1e1"], capsys)
        assert code == EXIT_OK
        assert float(json.loads(out)["c"]) == -10.0

    def test_tiny_step_refused_at_once(self, capsys):
        code, out, _ = run_cli(
            ["trace", "--label", "0,0", "--c-range", "0..1", "--step", "1e-300"], capsys
        )
        assert code == EXIT_SOLVER
        assert "more than 1000000 samples" in json.loads(out)["error"]

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        lines = [ln for ln in section.splitlines() if ln.startswith("bethe3 ")]
        assert len(lines) >= 6
        for line in lines:
            assert callable(cli.parse_args(shlex.split(line)[1:]).run), line


def fresh_python(probe: str) -> str:
    """stdout of `probe` run by a fresh interpreter that imports this bethe3."""
    import bethe3

    src = os.path.dirname(os.path.dirname(bethe3.__file__))
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.strip()


def run_in_fresh_python(argvs, modules=("numpy",)) -> str:
    """Exit codes of `main` for each argv in one fresh interpreter, and
    whether each of `modules` was loaded afterwards."""
    return fresh_python(
        "import contextlib, io, sys, bethe3, bethe3.cli\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(bethe3.cli.main(argv))\n"
        f"print(*codes, *(m in sys.modules for m in {modules!r}))"
    )


@pytest.mark.parametrize("value", ["inf", "abc"])
def test_tolerance_environment_variable_ignored(value, monkeypatch):
    # the residual tolerance is a constant: BETHE3_TOL=inf once accepted an
    # unconverged E = -1815.16, and a non-number ended in a traceback
    monkeypatch.setenv("BETHE3_TOL", value)
    out = fresh_python(
        "import sys, bethe3.cli\n"
        "sys.exit(bethe3.cli.main(['spectrum', '--labels', '0,0', '--c', '-5']))"
    )
    assert json.loads(out)["E"] == "-5.3389640504005406e+01"


def test_import_leaves_scipy_out():
    assert fresh_python("import sys, bethe3.cli; print('scipy' in sys.modules)") == "False"


def test_value_types_leave_dataclasses_out():
    # the value types are named tuples: neither import nor the solver
    # commands pay for loading dataclasses and inspect
    argvs = [
        ["critical", "--n2", "1..3"],
        ["spectrum", "--labels", "0,0", "1,2", "--c", "-5", "--observables"],
        ["trace", "--label", "1,2", "--c-range", "-2..1", "--step", "0.5", "--observables"],
    ]
    assert run_in_fresh_python([], ("dataclasses", "inspect")) == "False False"
    assert run_in_fresh_python(argvs, ("dataclasses", "inspect")) == "0 0 0 False False"


def test_solver_commands_leave_numpy_out():
    argvs = [
        ["critical", "--n2", "1..3"],
        ["spectrum", "--labels", "0,0", "1,1", "--c", "-5", "--partners", "--observables"],
        ["trace", "--label", "0,0", "--c-range", "-2..1", "--step", "0.5", "--observables"],
    ]
    # numpy takes longer to import than the interpreter takes to start
    assert run_in_fresh_python([]) == "False"
    assert run_in_fresh_python(argvs) == "0 0 0 False"


LAZY_MODULES = ("bethe3.observables", "bethe3.wavefunction", "bethe3.verify")

# bethe3.__all__: the solver's names and those imported on first access
EXPORTS = [
    "BoundsViolationError", "Branch", "BranchCoords", "ClassificationError", "ComplexCoords",
    "ConstraintViolationError", "CriticalPoint", "DegenerateMomentaError", "Momenta",
    "NoConvergenceError", "QuantumLabel", "RealCoords", "ResidualFloorError", "ResidualPoint",
    "SpectrumResult", "StateSolution", "TernaryGrid", "Trajectory", "amplitudes",
    "branch_switch", "build_state", "critical_point", "deltas_from_k", "density_grid",
    "dimer_prefactor", "find_critical", "jump_residual", "k_from_alpha_gamma", "k_from_deltas",
    "newton_solve", "norm_squared", "np_from_label", "partner_state", "periodicity_residual",
    "potential_expectation", "psi", "psi_ordered", "residual_complex", "residual_real",
    "simplex_integral_exponents", "solve_state", "spectrum", "theta", "trace_root",
]


def test_solver_commands_leave_observables_out():
    # import bethe3 and the solver commands never compile wavefunction,
    # observables or verify
    argvs = [
        ["critical", "--n2", "1..3"],
        ["trace", "--label", "1,2", "--c-range", "-2..1", "--step", "0.5"],
        ["spectrum", "--labels", "0,0", "1,1", "--c", "-5", "--partners"],
    ]
    assert run_in_fresh_python([], LAZY_MODULES) == "False False False"
    assert run_in_fresh_python(argvs, LAZY_MODULES) == "0 0 0 False False False"


def test_lazy_names_resolve_to_submodule_objects():
    # __all__ is what `import *` takes, and each name resolves on first access
    probe = ("import bethe3\n"
             "from bethe3 import density_grid\n"
             "ok = [bethe3.psi is bethe3.wavefunction.psi,\n"
             "      density_grid is bethe3.observables.density_grid,\n"
             "      bethe3.observables.norm_squared is bethe3.norm_squared,\n"
             "      set(bethe3.__all__) | {'observables', 'wavefunction'} <= set(dir(bethe3))]\n"
             "namespace = {}\n"
             "exec('from bethe3 import *', namespace)\n"
             "print(*ok, sorted(k for k in namespace if k != '__builtins__'))")
    assert fresh_python(probe) == f"True True True True {EXPORTS}"
    import bethe3

    with pytest.raises(AttributeError, match="no attribute 'nowhere'"):
        bethe3.nowhere


@pytest.mark.parametrize("argv", [
    ["density", "--label", "0,2", "--c", "-9", "--resolution", "8"],
    ["verify", "--suite", "core"],
])
def test_array_commands_load_numpy_on_demand(argv):
    assert run_in_fresh_python([argv]) == "0 True"


def test_failing_density_leaves_numpy_out():
    # the norm fails past the depth limit before the grid imports numpy
    probe = ("import sys, bethe3\n"
             "st = bethe3.solve_state(bethe3.QuantumLabel(0, 0), -40.0)\n"
             "try:\n"
             "    bethe3.density_grid(st, 12)\n"
             "except ZeroDivisionError:\n"
             "    print('numpy' in sys.modules)")
    assert fresh_python(probe) == "False"
    assert run_in_fresh_python([["density", "--label", "0,0", "--c", "-40"]]) == f"{EXIT_SOLVER} False"


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
