"""The library calls that bench/run.py and bench/checks.py make, each once on
small states, with the fields they read: a change that breaks the benchmark's
harness fails here, not only when the benchmark runs."""
import importlib.util
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import bethe3
import bethe3.cli
from test_cli import fresh_python

# the attributes bench/run.py and bench/checks.py look up on the package
BENCH_LOOKUPS = (
    "continuation.trace_root", "continuation.spectrum", "observables.norm_squared",
    "observables.potential_expectation", "observables.density_grid", "jump_residual",
    "periodicity_residual", "partner_state", "residual_real", "residual_complex",
)
# the modules bench/tracing.py imports by name to wrap their functions
BENCH_MODULES = ("equations", "continuation", "cli", "verify", "observables", "asymptotics",
                 "wavefunction")


def test_benchmark_call_surface():
    lib = bethe3
    # bench/run.py: the ops, through the module attributes it looks up
    traj = lib.continuation.trace_root(lib.QuantumLabel(2, 1), -8.0, 1.0, 0.5)
    res = lib.continuation.spectrum([lib.QuantumLabel(1, 2)], -8.0, include_partners=True)
    assert not res.failures and len(res.states) == 2
    failed = lib.continuation.spectrum([lib.QuantumLabel(0, 0)], -800.0, include_partners=True)
    assert failed.failures and all(isinstance(m, str) for m in failed.failures.values())
    assert "; ".join(failed.failures.values())
    state = traj.samples[0]
    n = lib.observables.norm_squared(state)
    v = lib.observables.potential_expectation(state, norm=n)
    assert n > 0.0 and v < 0.0
    grid = lib.observables.density_grid(state, 8)
    d = grid.density
    assert d.size == 36 and np.all(np.isfinite(d)) and d.min() >= 0.0
    assert math.isfinite(float((d * grid.r12).sum()) + float((d * grid.r23).sum()) + d.max())
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert lib.cli.main(["critical", "--n2", "1..2"]) == 0
    assert [json.loads(line)["n2"] for line in buf.getvalue().splitlines()] == [1, 2]

    # bench/checks.py: the gate's reads of every returned state
    branches = set()
    for s in traj.samples + res.states:
        m, co = s.momenta, s.coords
        assert abs(m.total - s.label.p) < 1e-10 and abs(s.energy - m.energy()) < 1e-9
        branches.add(s.branch.value)
        if s.branch.value == "real":
            r = lib.residual_real(co.delta1, co.delta2, s.c, s.label).residual
        else:
            canon = s if s.label.canonical() == s.label else lib.partner_state(s)
            r = lib.residual_complex(canon.coords.alpha, canon.coords.gamma, s.c,
                                     canon.label).residual
        assert max(abs(r[0]), abs(r[1])) < 1e-9, (s.label, s.c)
        worst = max(lib.jump_residual(s, 0.3, 0.7), lib.jump_residual(s, 0.8, 0.2),
                    lib.periodicity_residual(s, 0.25, 0.6))
        assert worst < 1e-9, (s.label, s.c)
    assert branches == {"real", "complex"}


def test_benchmark_lookups_after_bare_import():
    # this process has imported every submodule already, so only a fresh
    # interpreter sees whether a lazy name resolves from a bare import
    probe = ("import sys, bethe3\n"
             "for path in " + repr(BENCH_LOOKUPS) + ":\n"
             "    fn = bethe3\n"
             "    for part in path.split('.'):\n"
             "        fn = getattr(fn, part)\n"
             "    print(path, fn is getattr(sys.modules[fn.__module__], fn.__name__))")
    assert fresh_python(probe).splitlines() == [f"{path} True" for path in BENCH_LOOKUPS]


def test_traced_modules_import_by_name():
    probe = ("import importlib\n"
             "for name in " + repr(BENCH_MODULES) + ":\n"
             "    print(importlib.import_module('bethe3.' + name).__name__)")
    assert fresh_python(probe).splitlines() == [f"bethe3.{name}" for name in BENCH_MODULES]


# the WRAPS entries known to name nothing: residuals that moved or were
# deleted, the functions bethe3.cli no longer imports at module level, and
# density_grid, which verify no longer calls (it reads density_points);
# a traced run reports them as trace.absent_names
KNOWN_ABSENT = {
    ("bethe3.equations", "residual_equal_delta"), ("bethe3.equations", "pair_residual_beta"),
    ("bethe3.equations", "trimer_residual_eta"), ("bethe3.equations", "residual_complex"),
    ("bethe3.cli", "norm_squared"), ("bethe3.cli", "potential_expectation"),
    ("bethe3.cli", "density_grid"), ("bethe3.cli", "run_suite"),
    ("bethe3.verify", "density_grid"),
}


def test_traced_names_resolve():
    # bench/tracing.py wraps library functions by (module, attribute): a
    # renamed function would leave its metrics at 0 without failing a run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    absent = {(mod, attr) for mod, attr, _, _ in tracing.WRAPS
              if not hasattr(importlib.import_module(mod), attr)}
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
