"""Command-line front end: trace, spectrum, critical, density, verify.

Machine-readable output only (json-lines or csv), deterministic for a given
config.  Numeric fields are serialized with 17 significant digits.  Exit
codes: 0 success (also when the reader closes the output pipe early), 2 solver
failure, 3 verification failure, 64 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .continuation import find_critical, spectrum, trace_root
from .model import QuantumLabel
from .observables import density_grid, norm_squared, potential_expectation
from .tolerances import BASE_STEP, residual_tolerance
from .verify import run_suite

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; the CLI contract is 64
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    labels: list[QuantumLabel] = field(default_factory=list)
    c: float | None = None
    c_range: tuple[float, float] | None = None
    step: float = BASE_STEP
    n2_range: tuple[int, int] | None = None
    resolution: int = 64
    fmt: str = "json-lines"
    out: str | None = None
    suite: str = "all"
    observables: bool = False
    partners: bool = False
    tol: float | None = None


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


def _report_error(stream, fmt: str, message: str, label: QuantumLabel | None = None) -> None:
    """An error record in json-lines; a csv table has no column for it, so
    there it goes to stderr."""
    if fmt == "csv":
        where = "" if label is None else f"label {label}: "
        print(f"error: {where}{message}", file=sys.stderr)
    else:
        rec = {} if label is None else {"n1": label.n1, "n2": label.n2}
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
    k = state.momenta.as_tuple()
    rec.update(
        p=coords.p,
        k1_re=k[0].real, k1_im=k[0].imag,
        k2_re=k[1].real, k2_im=k[1].imag,
        k3_re=k[2].real, k3_im=k[2].imag,
        E=state.energy,
    )
    if with_observables:
        n = norm_squared(state)
        rec.update(norm=n, V=potential_expectation(state, norm=n))
    return rec


_STATE_COLUMNS = [
    "n1", "n2", "np", "c", "branch", "delta1", "delta2", "alpha", "gamma", "p",
    "k1_re", "k1_im", "k2_re", "k2_im", "k3_re", "k3_im", "E",
]


def run(config: RunConfig) -> int:
    """Execute a parsed config; returns the process exit status."""
    stream = open(config.out, "w") if config.out else sys.stdout
    try:
        return _dispatch(config, stream)
    except (ValueError, RuntimeError, ArithmeticError) as exc:  # exit 2, never a traceback
        _report_error(stream, config.fmt, f"{type(exc).__name__}: {exc}")
        return EXIT_SOLVER
    finally:
        if config.out:
            stream.close()


def _dispatch(config: RunConfig, stream) -> int:
    cols = list(_STATE_COLUMNS)
    if config.observables:
        cols += ["norm", "V"]
    if config.command == "trace":
        writer = _Writer(stream, config.fmt, cols)
        status = EXIT_OK
        for label in config.labels:
            try:
                traj = trace_root(
                    label, config.c_range[0], config.c_range[1],
                    step=config.step, tol=config.tol,
                )
            except Exception as exc:
                _report_error(stream, config.fmt, f"{type(exc).__name__}: {exc}", label)
                status = EXIT_SOLVER
                continue
            for st in traj.samples:
                writer.write(_state_record(st, config.observables))
        return status

    if config.command == "spectrum":
        writer = _Writer(stream, config.fmt, cols)
        result = spectrum(
            config.labels, config.c, include_partners=config.partners, tol=config.tol
        )
        for st in result.states:
            writer.write(_state_record(st, config.observables))
        for label, msg in result.failures.items():
            _report_error(stream, config.fmt, msg, label)
        return EXIT_SOLVER if result.failures else EXIT_OK

    if config.command == "critical":
        writer = _Writer(stream, config.fmt, ["n2", "C", "u0"])
        lo, hi = config.n2_range
        for n2 in range(lo, hi + 1):
            crit = find_critical(QuantumLabel(1, n2))
            writer.write({"n2": n2, "C": crit.C, "u0": crit.u0})
        return EXIT_OK

    if config.command == "density":
        writer = _Writer(stream, config.fmt, ["r12", "r23", "r31", "density"])
        from .continuation import solve_state

        label = config.labels[0]
        state = solve_state(label, config.c, tol=config.tol)
        grid = density_grid(state, config.resolution)
        for i in range(len(grid)):
            writer.write(
                {
                    "r12": float(grid.r12[i]),
                    "r23": float(grid.r23[i]),
                    "r31": float(grid.r31[i]),
                    "density": float(grid.density[i]),
                }
            )
        return EXIT_OK

    if config.command == "verify":
        writer = _Writer(stream, config.fmt, ["check", "passed", "detail"])
        try:
            results = run_suite(config.suite)
        except KeyError as exc:
            raise UsageError(str(exc)) from exc
        failed = 0
        for res in results:
            writer.write({"check": res.name, "passed": res.passed, "detail": res.detail})
            failed += 0 if res.passed else 1
        return EXIT_VERIFY if failed else EXIT_OK

    raise UsageError(f"unknown command {config.command!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="bethe3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, labels=False, single_c=False):
        p.add_argument("--format", choices=["json-lines", "csv"], default="json-lines")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if labels:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--label", type=str, help="one label 'n1,n2'")
            group.add_argument("--labels", type=str, nargs="+", help="labels 'n1,n2' ...")
        if single_c:
            p.add_argument("--c", type=float, required=True)

    p = sub.add_parser("trace", help="follow labels over a coupling range")
    common(p, labels=True)
    p.add_argument("--c-range", type=str, required=True, help="'lo..hi'")
    p.add_argument("--step", type=float, default=BASE_STEP)
    p.add_argument("--observables", action="store_true", help="include norm and <V>")

    p = sub.add_parser("spectrum", help="sorted level table at fixed c")
    common(p, labels=True, single_c=True)
    p.add_argument("--observables", action="store_true")
    p.add_argument("--partners", action="store_true", help="include degenerate partners")

    p = sub.add_parser("critical", help="critical couplings C(1,n2)")
    common(p)
    p.add_argument("--n2", type=str, required=True, help="'lo..hi' or single n")

    p = sub.add_parser("density", help="ternary density grid for one state")
    common(p, labels=True, single_c=True)
    p.add_argument("--resolution", type=int, default=64)

    p = sub.add_parser("verify", help="run invariant suites")
    common(p)
    p.add_argument("--suite", type=str, default="all")
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join '--c-range -10..2' into '--c-range=-10..2' so argparse does not
    mistake the leading-dash value for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--c-range" and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def config_from_args(argv: list[str]) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(_normalize_argv(argv))
    labels = []
    if getattr(ns, "label", None):
        labels = [_parse_label(ns.label)]
    elif getattr(ns, "labels", None):
        labels = [_parse_label(t) for t in ns.labels]
    cfg = RunConfig(
        command=ns.command,
        labels=labels,
        c=getattr(ns, "c", None),
        c_range=_parse_range(ns.c_range) if getattr(ns, "c_range", None) else None,
        step=getattr(ns, "step", BASE_STEP),
        n2_range=_parse_int_range(ns.n2) if getattr(ns, "n2", None) else None,
        resolution=getattr(ns, "resolution", 64),
        fmt=ns.format,
        out=ns.out,
        suite=getattr(ns, "suite", "all"),
        observables=getattr(ns, "observables", False),
        partners=getattr(ns, "partners", False),
        tol=residual_tolerance() if os.environ.get("BETHE3_TOL") else None,
    )
    if cfg.c is not None and not math.isfinite(cfg.c):
        raise UsageError(f"--c must be finite, got {cfg.c}")
    if cfg.command == "trace" and not 0 < cfg.step < math.inf:
        raise UsageError(f"--step must be positive and finite, got {cfg.step}")
    if cfg.command == "density":
        if len(cfg.labels) != 1:
            raise UsageError(f"density takes one label, got {len(cfg.labels)}")
        if cfg.resolution < 8:
            raise UsageError(f"--resolution must be >= 8, got {cfg.resolution}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = config_from_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # the reader closed the pipe early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
