"""Command-line front end: trace, spectrum, critical, density, verify.

Machine-readable output only (json-lines or csv), deterministic for given
arguments.  Each command produces plain records; one writer applies the
format (numeric fields with 17 significant digits), puts failure records in
the json-lines stream or, in csv, on stderr, and sets the exit code: 0 success
(also when the reader closes the output pipe early), 2 solver failure, 3
verification failure, 64 usage error or unwritable output.  Arguments are
checked before --out is opened, so a usage error leaves that file untouched.

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


def _parse_int_range(text: str) -> range:
    """The n2 values of 'lo..hi' or of 'n', both ends included."""
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
    return range(lo_i, hi_i + 1)


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


def _failure(error, label: QuantumLabel | None = None, c: float | None = None) -> dict:
    """The record of a failure: n1, n2 and c where known, and the error (an
    exception, named with its type, or a message)."""
    rec = {} if label is None else {"n1": label.n1, "n2": label.n2}
    if c is not None:
        rec["c"] = c
    rec["error"] = error if isinstance(error, str) else f"{type(error).__name__}: {error}"
    return rec


def _write(stream, fmt: str, columns: list[str], records) -> int:
    """Write records as json-lines or as csv under the header `columns`
    (none if empty).  A csv table has no column for an error record, so
    there it goes to stderr.  Returns the exit status: EXIT_SOLVER after an
    error record, else EXIT_VERIFY after a failed check, else EXIT_OK."""
    csv = fmt == "csv"
    if csv and columns:
        stream.write(",".join(columns) + "\n")
    status = EXIT_OK
    for rec in records:
        if "error" in rec:
            status = EXIT_SOLVER
            if csv:
                where = ""
                if "n1" in rec:
                    where = f"label ({rec['n1']},{rec['n2']})"
                    where += f" at c={rec['c']}: " if "c" in rec else ": "
                print(f"error: {where}{rec['error']}", file=sys.stderr)
                continue
        elif rec.get("passed") is False:
            status = status or EXIT_VERIFY
        rec = {k: format(v, ".16e") if isinstance(v, float) else v for k, v in rec.items()}
        if csv:
            stream.write(",".join(str(rec.get(col, "")) for col in columns) + "\n")
        else:
            stream.write(json.dumps(rec, separators=(",", ":")) + "\n")
    return status


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


def _states(states, with_observables: bool):
    """One record per state; a state whose observables fail gets a failure
    record naming its label and c instead, and the rest still follow."""
    for st in states:
        try:
            yield _state_record(st, with_observables)
        except (ValueError, ArithmeticError) as exc:  # what norm_squared and <V> raise
            yield _failure(exc, st.label, st.c)


def _trace(ns):
    for label in ns.labels:
        try:
            traj = trace_root(label, ns.c_range[0], ns.c_range[1], step=ns.step)
        except Exception as exc:
            yield _failure(exc, label)
            continue
        yield from _states(traj.samples, ns.observables)


def _spectrum(ns):
    result = spectrum(ns.labels, ns.c, include_partners=ns.partners)
    yield from _states(result.states, ns.observables)
    for label, msg in result.failures.items():
        yield _failure(msg, label, ns.c)


def _critical(ns):
    for n2 in ns.n2:
        crit = find_critical(QuantumLabel(1, n2))
        yield {"n2": n2, "C": crit.C, "u0": crit.u0}


def _density(ns):
    from .observables import density_points

    label = ns.labels[0]
    try:  # the norm and the grid's factors are built here, before the first row
        points = density_points(solve_state(label, ns.c), ns.resolution)
    except _SOLVER_ERRORS as exc:
        yield _failure(exc, label, ns.c)
        return
    for r12, r23, r31, density in points:
        yield {"r12": r12, "r23": r23, "r31": r31, "density": density}


def _verify(ns) -> list[dict]:
    # a list, not a generator: a suite that raises does so before the csv header
    from .verify import run_suite

    return [{"check": r.name, "passed": r.passed, "detail": r.detail} for r in run_suite(ns.suite)]


def _suite_name(name: str) -> str:
    from .verify import check_suite_name

    try:
        return check_suite_name(name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="bethe3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, columns, labels=False, single_c=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, columns=columns)
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

    p = command("trace", _trace, "follow labels over a coupling range", _STATE_COLUMNS,
                labels=True)
    p.add_argument("--c-range", type=_parse_range, required=True, help="'lo..hi'")
    p.add_argument("--step", default=BASE_STEP, type=_checked(
        float, lambda h: 0 < h < math.inf, "--step must be positive and finite, got {}"))
    p.add_argument("--observables", action="store_true", help="include norm and <V>")

    p = command("spectrum", _spectrum, "sorted level table at fixed c", _STATE_COLUMNS,
                labels=True, single_c=True)
    p.add_argument("--observables", action="store_true")
    p.add_argument("--partners", action="store_true", help="include degenerate partners")

    p = command("critical", _critical, "critical couplings C(1,n2)", ["n2", "C", "u0"])
    p.add_argument("--n2", type=_parse_int_range, required=True, help="'lo..hi' or single n")

    p = command("density", _density, "ternary density grid for one state",
                ["r12", "r23", "r31", "density"], labels=True, single_c=True)
    top = (math.isqrt(8 * MAX_GRID_POINTS + 1) - 1) // 2   # largest n with n(n+1)/2 points allowed
    p.add_argument("--resolution", default=64, type=_checked(
        int, lambda n: 8 <= n <= top,
        f"--resolution must be >= 8 and at most {top} ({MAX_GRID_POINTS} grid points), got {{}}"))

    p = command("verify", _verify, "run invariant suites", ["check", "passed", "detail"])
    p.add_argument("--suite", type=_suite_name, default="all")
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
    functions raise UsageError, so a usage error comes before --out is
    opened); `run` is the subcommand's command function and `columns` its
    csv columns."""
    ns = build_parser().parse_args(_normalize_argv(argv))
    if ns.command == "density" and len(ns.labels) != 1:
        raise UsageError(f"density takes one label, got {len(ns.labels)}")
    if getattr(ns, "observables", False):  # trace and spectrum
        ns.columns = ns.columns + ["norm", "V"]
    return ns


def _open_out(path: str | None):
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot open --out {path!r}: {exc.strerror}") from exc


def main(argv: list[str] | None = None) -> int:
    """Parse argv and write the records of its command function to the
    output; returns the process exit status."""
    try:
        ns = parse_args(sys.argv[1:] if argv is None else argv)
        with _open_out(ns.out) as stream:
            try:
                status = _write(stream, ns.format, ns.columns, ns.run(ns))
            except _SOLVER_ERRORS as exc:
                status = _write(stream, ns.format, [], [_failure(exc)])
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
