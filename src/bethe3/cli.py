"""Command-line front end: trace, spectrum, critical, density, verify.

Machine-readable output only (json-lines or csv), deterministic for given
arguments.  Numeric fields are serialized with 17 significant digits.  Exit
codes: 0 success (also when the reader closes the output pipe early), 2 solver
failure, 3 verification failure, 64 usage error or unwritable output.

Roots are solved to the fixed residual tolerance 1e-12.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .continuation import find_critical, solve_state, spectrum, trace_root
from .model import QuantumLabel
from .tolerances import BASE_STEP, MAX_GRID_POINTS

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64

_SOLVER_ERRORS = (ValueError, RuntimeError, ArithmeticError)  # exit 2, never a traceback


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; the CLI contract is 64
        raise UsageError(message)


def _parse_label(text: str) -> QuantumLabel:
    try:
        n1, n2 = (int(part) for part in text.split(","))
        return QuantumLabel(n1, n2)
    except Exception as exc:
        raise UsageError(f"bad label {text!r}, expected 'n1,n2'") from exc


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split("..")
        lo_f, hi_f = float(lo), float(hi)
    except Exception as exc:
        raise UsageError(f"bad range {text!r}, expected 'lo..hi'") from exc
    if not (math.isfinite(lo_f) and math.isfinite(hi_f)):
        raise UsageError(f"range {text!r} must be finite")
    if not lo_f < hi_f:
        raise UsageError(f"empty range {text!r}")
    return lo_f, hi_f


def _parse_int_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except Exception:
        try:
            lo_i = hi_i = int(text)
        except Exception as exc:
            raise UsageError(f"bad n2 range {text!r}, expected 'lo..hi' or 'n'") from exc
    if lo_i > hi_i or lo_i < 1:
        raise UsageError(f"bad n2 range {text!r}")
    return lo_i, hi_i


def _checked(convert, test, message: str):
    """An argparse type: convert the text, then raise UsageError(message)
    unless test(value) holds."""
    def parse(text: str):
        value = convert(text)
        if not test(value):
            raise UsageError(message.format(value))
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


def _fmt_num(x) -> str:
    if isinstance(x, float):
        return format(x, ".16e")
    return str(x)


class _Writer:
    """Streams records as json-lines or csv with a fixed column set."""

    def __init__(self, stream, fmt: str, columns: list[str]):
        self.stream = stream
        self.fmt = fmt
        self.columns = columns
        if fmt == "csv":
            self.stream.write(",".join(columns) + "\n")

    def write(self, record: dict) -> None:
        if self.fmt == "csv":
            row = [_fmt_num(record.get(col, "")) for col in self.columns]
            self.stream.write(",".join(row) + "\n")
        else:
            encoded = {
                k: (_fmt_num(v) if isinstance(v, float) else v) for k, v in record.items()
            }
            self.stream.write(json.dumps(encoded, separators=(",", ":")) + "\n")


def _report_error(stream, fmt: str, message: str, label: QuantumLabel | None = None,
                  c: float | None = None) -> None:
    """An error record in json-lines; a csv table has no column for it, so
    there it goes to stderr."""
    if fmt == "csv":
        where = "" if label is None else f"label {label}{'' if c is None else f' at c={c}'}: "
        print(f"error: {where}{message}", file=sys.stderr)
    else:
        rec = {} if label is None else {"n1": label.n1, "n2": label.n2}
        if c is not None:
            rec["c"] = c
        _Writer(stream, fmt, []).write({**rec, "error": message})


def _state_record(state, with_observables: bool) -> dict:
    coords = state.coords
    rec = {
        "n1": state.label.n1,
        "n2": state.label.n2,
        "np": state.label.np,
        "c": state.c,
        "branch": state.branch.value,
    }
    if state.branch.value == "real":
        rec.update(delta1=coords.delta1, delta2=coords.delta2, alpha="", gamma="")
    else:
        rec.update(delta1="", delta2="", alpha=coords.alpha, gamma=coords.gamma)
    k = state.momenta
    rec.update(
        p=coords.p,
        k1_re=k[0].real, k1_im=k[0].imag,
        k2_re=k[1].real, k2_im=k[1].imag,
        k3_re=k[2].real, k3_im=k[2].imag,
        E=state.energy,
    )
    if with_observables:
        from .observables import norm_squared, potential_expectation

        n = norm_squared(state)
        rec.update(norm=n, V=potential_expectation(state, norm=n))
    return rec


_STATE_COLUMNS = [
    "n1", "n2", "np", "c", "branch", "delta1", "delta2", "alpha", "gamma", "p",
    "k1_re", "k1_im", "k2_re", "k2_im", "k3_re", "k3_im", "E",
]


def _state_writer(ns, stream) -> _Writer:
    return _Writer(stream, ns.format, _STATE_COLUMNS + (["norm", "V"] if ns.observables else []))


def _write_states(writer, ns, stream, states) -> bool:
    """Write one record per state; a state whose observables fail gets an
    error record naming its label and c instead, and the rest still print.
    Returns whether every state was written."""
    failed = 0
    for st in states:
        try:
            writer.write(_state_record(st, ns.observables))
        except (ValueError, ArithmeticError) as exc:  # what norm_squared and <V> raise
            _report_error(stream, ns.format, f"{type(exc).__name__}: {exc}", st.label, st.c)
            failed += 1
    return failed == 0


def _trace(ns, stream) -> int:
    writer = _state_writer(ns, stream)
    status = EXIT_OK
    for label in ns.labels:
        try:
            traj = trace_root(label, ns.c_range[0], ns.c_range[1], step=ns.step)
        except Exception as exc:
            _report_error(stream, ns.format, f"{type(exc).__name__}: {exc}", label)
            status = EXIT_SOLVER
            continue
        if not _write_states(writer, ns, stream, traj.samples):
            status = EXIT_SOLVER
    return status


def _spectrum(ns, stream) -> int:
    writer = _state_writer(ns, stream)
    result = spectrum(ns.labels, ns.c, include_partners=ns.partners)
    ok = _write_states(writer, ns, stream, result.states)
    for label, msg in result.failures.items():
        _report_error(stream, ns.format, msg, label, ns.c)
    return EXIT_SOLVER if result.failures or not ok else EXIT_OK


def _critical(ns, stream) -> int:
    writer = _Writer(stream, ns.format, ["n2", "C", "u0"])
    lo, hi = ns.n2
    for n2 in range(lo, hi + 1):
        crit = find_critical(QuantumLabel(1, n2))
        writer.write({"n2": n2, "C": crit.C, "u0": crit.u0})
    return EXIT_OK


def _density(ns, stream) -> int:
    from .observables import density_grid

    writer = _Writer(stream, ns.format, ["r12", "r23", "r31", "density"])
    label = ns.labels[0]
    try:
        grid = density_grid(solve_state(label, ns.c), ns.resolution)
    except _SOLVER_ERRORS as exc:
        _report_error(stream, ns.format, f"{type(exc).__name__}: {exc}", label, ns.c)
        return EXIT_SOLVER
    points = zip(grid.r12.tolist(), grid.r23.tolist(), grid.r31.tolist(), grid.density.tolist())
    for r12, r23, r31, density in points:
        writer.write({"r12": r12, "r23": r23, "r31": r31, "density": density})
    return EXIT_OK


def _verify(ns, stream) -> int:
    from .verify import run_suite

    try:
        results = run_suite(ns.suite)
    except KeyError as exc:  # before the csv header: a usage error writes no output
        raise UsageError(exc.args[0]) from exc
    writer = _Writer(stream, ns.format, ["check", "passed", "detail"])
    failed = 0
    for res in results:
        writer.write({"check": res.name, "passed": res.passed, "detail": res.detail})
        failed += 0 if res.passed else 1
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="bethe3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, labels=False, single_c=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=["json-lines", "csv"], default="json-lines")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if labels:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--label", type=_parse_label, nargs=1, dest="labels",
                               metavar="N1,N2", help="one label 'n1,n2'")
            group.add_argument("--labels", type=_parse_label, nargs="+", metavar="N1,N2",
                               help="labels 'n1,n2' ...")
        if single_c:
            p.add_argument("--c", required=True,
                           type=_checked(float, math.isfinite, "--c must be finite, got {}"))
        return p

    p = command("trace", _trace, "follow labels over a coupling range", labels=True)
    p.add_argument("--c-range", type=_parse_range, required=True, help="'lo..hi'")
    p.add_argument("--step", default=BASE_STEP, type=_checked(
        float, lambda h: 0 < h < math.inf, "--step must be positive and finite, got {}"))
    p.add_argument("--observables", action="store_true", help="include norm and <V>")

    p = command("spectrum", _spectrum, "sorted level table at fixed c", labels=True, single_c=True)
    p.add_argument("--observables", action="store_true")
    p.add_argument("--partners", action="store_true", help="include degenerate partners")

    p = command("critical", _critical, "critical couplings C(1,n2)")
    p.add_argument("--n2", type=_parse_int_range, required=True, help="'lo..hi' or single n")

    p = command("density", _density, "ternary density grid for one state", labels=True,
                single_c=True)
    top = (math.isqrt(8 * MAX_GRID_POINTS + 1) - 1) // 2   # largest n with n(n+1)/2 points allowed
    p.add_argument("--resolution", default=64, type=_checked(
        int, lambda n: 8 <= n <= top,
        f"--resolution must be >= 8 and at most {top} ({MAX_GRID_POINTS} grid points), got {{}}"))

    p = command("verify", _verify, "run invariant suites")
    p.add_argument("--suite", type=str, default="all")
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join '--c -1e3' into '--c=-1e3' (and so every '--option -value' but
    '-h') so argparse does not mistake a value with a leading dash for an
    option; it only takes the forms '-5' and '-.5' as numbers."""
    out: list[str] = []
    for tok in argv:
        after_option = out and out[-1].startswith("--") and "=" not in out[-1]
        if after_option and tok.startswith("-") and not tok.startswith("--") and tok != "-h":
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace of argv, every value checked as it is parsed (the type=
    functions raise UsageError); `run` is the subcommand's command function."""
    ns = build_parser().parse_args(_normalize_argv(argv))
    if ns.command == "density" and len(ns.labels) != 1:
        raise UsageError(f"density takes one label, got {len(ns.labels)}")
    return ns


def _open_out(path: str | None):
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot open --out {path!r}: {exc.strerror}") from exc


def main(argv: list[str] | None = None) -> int:
    """Parse argv and call its command function with the output stream;
    returns the process exit status."""
    try:
        ns = parse_args(sys.argv[1:] if argv is None else argv)
        with _open_out(ns.out) as stream:
            try:
                status = ns.run(ns, stream)
            except _SOLVER_ERRORS as exc:
                _report_error(stream, ns.format, f"{type(exc).__name__}: {exc}")
                status = EXIT_SOLVER
            stream.flush()  # a write error surfaces here, not at interpreter exit
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # writing or closing the output; devnull keeps stdout from failing at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader closed the pipe early, as `| head` does
            return EXIT_OK
        print(f"output error: cannot write: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
