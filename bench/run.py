#!/usr/bin/env python3
"""bethe3 benchmark: one closed-loop client running one workload per process.

    python3 bench/run.py --workload trace_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports bethe3 from the checkout's
`src/` and from nowhere else.  Each op is issued after the previous one
returns; every output is checked (see checks.py) outside the timed region.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer metrics of a separate traced run (see tracing.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads, metrics and known failures are
described in bench/README.md.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"    # CLI output files and span dumps

# one BLAS thread, the library's default tolerance, and the checkout's source
# for this process and every child
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                  PYTHONPATH=str(SRC))
os.environ.pop("BETHE3_TOL", None)
sys.path.insert(0, str(SRC))

import workloads as W  # noqa: E402  (this directory is sys.path[0])

SETUP_SAMPLES = 5        # set-ups per run (this process plus fresh probes); median reported
IMPORT_SAMPLES = 3       # fresh `import bethe3.cli` processes per traced run
CHILD_TIMEOUT_S = 120
MIN_BEYOND = 10          # samples a tail percentile needs beyond it
K_REF_S = 1.5e-3         # slowness() kernel time on the reference machine, uncontended
PROBE_EVERY_S = 0.1      # op time between two slowness() measurements
MIN_ROUNDS = 3           # rounds per timed run, even when --seconds runs out first
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ok_frac": "ratio", "peak_rss_mb": "MB"}


class OpFailed(Exception):
    """An op that returned normally but reports a failure (spectrum failures)."""


class CliRun:
    def __init__(self, name: str, code: int, stdout: str | None):
        self.name, self.code, self._stdout = name, code, stdout

    @property
    def out_file(self) -> Path | None:
        return WORK / f"{self.name}.out" if "{out}" in W.CLI_COMMANDS[self.name] else None

    def stdout(self) -> str:
        if self._stdout is None:
            return (WORK / f"{self.name}.stdout").read_text()
        return self._stdout

    def records(self) -> list[dict]:
        from checks import parse_cli_output

        src = self.out_file
        text = src.read_text() if src is not None and src.exists() else self.stdout()
        return parse_cli_output(text, csv="csv" in W.CLI_COMMANDS[self.name])

    def bytes_out(self) -> int:
        src = self.out_file
        return len(self.stdout().encode()) + (src.stat().st_size if src and src.exists() else 0)


class Bench:
    """One workload after set-up: the library and the prepared inputs."""

    def __init__(self, workload: str, seed: int):
        import bethe3

        if not Path(bethe3.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"bench: bethe3 imported from {bethe3.__file__}, not {SRC}")
        self.lib = bethe3
        self.workload, self.seed = workload, seed
        self.inprocess_cli = False
        self.cli_rss_kb = 0
        self.states = {}
        if workload == "observables":
            for label in W.OBS_LABELS:
                traj = bethe3.continuation.trace_root(
                    bethe3.QuantumLabel(*label), min(W.OBS_DEEP[label]), 0.0, W.OBS_TRACE_STEP)
                self.states.update({(label, s.c): s for s in traj.samples})
        WORK.mkdir(parents=True, exist_ok=True)

    def rounds(self):
        return W.rounds(self.workload, self.seed)

    def execute(self, op):
        """Run one op through the library's public functions, looked up at call time."""
        kind, lib = op[0], self.lib
        if kind == "trace":
            return lib.continuation.trace_root(lib.QuantumLabel(*op[1]), op[2], op[3], W.TRACE_STEP)
        if kind == "spectrum":
            res = lib.continuation.spectrum([lib.QuantumLabel(*op[1])], op[2], include_partners=True)
            if res.failures:
                raise OpFailed("; ".join(res.failures.values()))
            return res
        if kind == "cli":
            return self.run_cli(op[1])
        state = self.states[(op[1], op[2])]
        if kind == "norm":
            n = lib.observables.norm_squared(state)
            return n, lib.observables.potential_expectation(state, norm=n)
        return lib.observables.density_grid(state, op[3])

    def run_cli(self, name: str) -> CliRun:
        argv = [a.replace("{out}", str(WORK / f"{name}.out")) for a in W.CLI_COMMANDS[name]]
        (WORK / f"{name}.out").unlink(missing_ok=True)
        if self.inprocess_cli:
            import bethe3.cli

            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                try:
                    code = bethe3.cli.main(argv)
                except Exception:  # what the process would exit with on a traceback
                    code = 1
            return CliRun(name, code, buf.getvalue())
        with open(WORK / f"{name}.stdout", "wb") as so, open(WORK / f"{name}.stderr", "wb") as se:
            proc = subprocess.Popen([sys.executable, "-m", "bethe3.cli", *argv],
                                    stdout=so, stderr=se, cwd=WORK)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)   # wait4: the child's own peak RSS
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.cli_rss_kb = max(self.cli_rss_kb, usage.ru_maxrss)
        return CliRun(name, proc.returncode, None)

    def check(self, gate, op, out) -> None:
        kind = op[0]
        if kind == "trace":
            gate.trace(op, out)
        elif kind == "spectrum":
            gate.spectrum(op, out)
        elif kind == "cli":
            gate.cli(op[1], out.records())
        else:
            gate.observable(op, out, self.states[(op[1], op[2])])

    def check_states(self, gate) -> None:
        """Invariants and reference roots of the observables set-up states."""
        from checks import key

        for label, c, _ in W.observables_states(self.seed):
            s = self.states[(label, c)]
            where = f"state {label} c={c}"
            gate.state(s, where, wavefunction=True)
            ref = gate.ref["observables"].get(key(label, c), {})
            gate.root(s, ref.get("root"), where)

    def run_op(self, gate, op, tracer=None):
        """Time one op; returns (seconds, error or None, output)."""
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.execute(op)
            else:
                with tracer:
                    out = self.execute(op)
            err = OpFailed(f"exit {out.code}") if isinstance(out, CliRun) and out.code else None
        except Exception as exc:
            out, err = None, exc
        dt = perf_counter() - t0
        if err is None:
            self.check(gate, op, out)
        return dt, err, out


def child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT, check=True)


def quantile(xs: list[float], pct: float) -> float:
    """Linear interpolation between order statistics (statistics' 'inclusive')."""
    xs = sorted(xs)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def slowness() -> float:
    """How much slower than the reference machine this process runs right now.

    Times a fixed kernel shaped like the library's hot path (scalar math plus
    small numpy calls, no bethe3 code), best of 3, over K_REF_S.  The machine
    is shared: other tenants slow it by up to 60% for seconds to minutes, and
    the kernel slows with the ops (measured in README)."""
    import numpy as np

    jac = np.array([[2.0, 0.3], [0.1, 1.5]])
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        for i in range(1, 150):
            x = np.atleast_1d(np.asarray([i * 1e-3, 2.0], dtype=float)).copy()
            math.atan2(x[0], 3.0) + math.log(i) + float(np.max(np.abs(np.linalg.solve(jac, -x))))
        best = min(best, perf_counter() - t0)
    return best / K_REF_S


def timed_run(bench: Bench, gate, seconds: float) -> dict:
    """Whole rounds until `seconds` of op time, and at least MIN_ROUNDS.  Each
    op time is divided by the machine slowness measured before and after its
    segment of ops."""
    samples = []        # [seconds, succeeded, slowness]
    segment, spent = [], 0.0
    before = slowness()
    busy = 0.0
    for n, ops in enumerate(bench.rounds(), 1):
        for op in ops:
            dt, err, _ = bench.run_op(gate, op)
            samples.append([dt, err is None, None])
            segment.append(samples[-1])
            spent += dt
            busy += dt
            if spent >= PROBE_EVERY_S:
                after = slowness()
                for sample in segment:
                    sample[2] = 0.5 * (before + after)
                before, segment, spent = after, [], 0.0
        if busy >= seconds and n >= MIN_ROUNDS:
            break
    after = slowness()
    for sample in segment:
        sample[2] = 0.5 * (before + after)
    if bench.workload == "observables":
        bench.check_states(gate)
    setups = [bench.setup_s] + [
        [float(x) for x in child([sys.executable, str(HERE / "run.py"), "--workload",
                                  bench.workload, "--seed", str(bench.seed),
                                  "--setup-probe"]).stdout.split()[-2:]]
        for _ in range(SETUP_SAMPLES - 1)]
    attempted, ok = len(samples), [x for x in samples if x[1]]
    if not ok:
        gate.fail(bench.workload, "no op succeeded; latencies below are of failed ops")
    lat = [x[0] / x[2] for x in ok or samples]
    pct = W.TAIL_PERCENTILE[bench.workload]
    tail_s = quantile(lat, pct)
    beyond = sum(x > tail_s for x in lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + bench.cli_rss_kb
    values = {
        "setup_s": statistics.median(raw / slow for raw, slow in setups),
        "ops_per_s": len(ok) / sum(x[0] / x[2] for x in samples),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "ok_frac": len(ok) / attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    raw = [x[0] for x in ok or samples]
    slow = [x[2] for x in samples]
    print(f"# {bench.workload} seed={bench.seed}: {attempted} ops attempted, "
          f"{attempted - len(ok)} failed (failed_frac {1 - len(ok) / attempted:.4f}), "
          f"{busy:.2f} s of op time")
    print(f"# slowness over the run: min {min(slow):.3f} median {statistics.median(slow):.3f} "
          f"max {max(slow):.3f}; uncalibrated: {len(ok) / busy:.6g} ops/s, "
          f"p50 {1e3 * statistics.median(raw):.6g} ms, p{pct:g} {1e3 * quantile(raw, pct):.6g} ms")
    print(f"# setup_s: median of {len(setups)} set-ups, uncalibrated "
          f"{[round(s[0], 4) for s in setups]}, slowness {[round(s[1], 3) for s in setups]}")
    print(f"# op_p50_ms: p50 of {len(lat)} {'successful' if ok else 'failed'} ops; "
          f"op_tail_ms: p{pct:g} of the same, "
          f"{beyond} beyond it" + (f" (fewer than {MIN_BEYOND})" if beyond < MIN_BEYOND else ""))
    return {"attempted": attempted, "failed": attempted - len(ok),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def failure_type(err: Exception) -> str:
    for t in (ZeroDivisionError, OverflowError, ValueError):
        if isinstance(err, t):
            return t.__name__
    return "other"


def import_times() -> tuple[float, float]:
    """Fresh-process `import bethe3.cli` time, and scipy.optimize's cumulative
    share of it from `-X importtime` (0 once scipy is not imported)."""
    probe = "import time; t = time.perf_counter(); import bethe3.cli; print(time.perf_counter() - t)"
    plain = [float(child([sys.executable, "-c", probe]).stdout) for _ in range(IMPORT_SAMPLES)]
    err = child([sys.executable, "-X", "importtime", "-c", "import bethe3.cli"]).stderr
    scipy_us = 0
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            scipy_us = int(parts[1])
    return statistics.median(plain), scipy_us / 1e6


def traced_run(bench: Bench, gate, seconds: float) -> dict:
    """Alternate an untraced and a traced pass over the first round until
    `seconds` have passed.  Per-layer metrics are means per traced pass; times
    are divided by the slowness measured around their pass."""
    from tracing import PER_LAYER, Tracer

    tracer = Tracer()
    ops = next(bench.rounds())
    bench.inprocess_cli = True   # spans need cli.main in this process
    plain = traced = 0.0
    attempted = failed = 0
    passes = []
    start = perf_counter()
    slow = slowness()
    while not passes or perf_counter() - start < seconds:
        spent = 0.0
        for op in ops:
            dt, err, _ = bench.run_op(gate, op)
            spent += dt
            failed += err is not None
        before, slow = slow, slowness()
        plain += spent / (0.5 * (before + slow))
        tracer.reset()
        extra, spent = Counter(), 0.0
        for op in ops:
            dt, err, out = bench.run_op(gate, op, tracer)
            spent += dt
            failed += err is not None
            if err is not None and op[0] in ("norm", "density"):
                extra[f"observables.failed.{failure_type(err)}"] += 1
            if op[0] == "cli":
                extra["cli.exit_nonzero"] += err is not None
                extra["cli.bytes_out"] += out.bytes_out() if out is not None else 0
        before, slow = slow, slowness()
        factor = 0.5 * (before + slow)
        traced += spent / factor
        metrics = {**tracer.pass_metrics(), **extra}
        passes.append({k: v / factor if PER_LAYER[k] == "s" else v for k, v in metrics.items()})
        attempted += 2 * len(ops)
    tracer.dump(WORK / f"spans_{bench.workload}_{bench.seed}.jsonl")
    values = {name: statistics.fmean(p.get(name, 0) for p in passes) for name in PER_LAYER}
    import_s, scipy_s = import_times()
    slow = slowness()
    values["cli.import_s"], values["cli.import_scipy_s"] = import_s / slow, scipy_s / slow
    values["trace.pass_ops"] = len(ops)
    values["trace.overhead_frac"] = traced / plain - 1.0
    values["trace.absent_names"] = len(tracer.absent)
    print(f"# {bench.workload} seed={bench.seed}: {len(passes)} traced passes of {len(ops)} ops; "
          f"tracing overhead {100 * values['trace.overhead_frac']:.1f}% of untraced op time")
    if tracer.absent:
        print(f"# absent layers (wrapped names not found): {', '.join(tracer.absent)}")
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "bethe3" / "__init__.py").is_file():
        print(f"bench: no bethe3 sources under {SRC}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    bench = Bench(args.workload, args.seed)
    bench.setup_s = [perf_counter() - t0, slowness()]
    if args.setup_probe:
        print(*bench.setup_s)
        return 0

    from checks import Gate

    gate = Gate.load()
    bench.run_op(gate, next(bench.rounds())[0])   # warm-up: lazy imports, caches, page cache
    run = traced_run if args.trace else timed_run
    result = run(bench, gate, args.seconds)
    for msg in gate.errors[:20]:
        print(f"bench: MISMATCH {msg}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(f"# correctness: {gate.compared} reference comparisons, {len(gate.errors)} mismatches")
    print(json.dumps({"correct": not gate.errors, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
