"""Layer spans and counters for the traced run, recorded from outside the library.

Each public function is wrapped under the name its calling module looks it
up by (`continuation` calls `eq.newton_solve`, so the wrapper replaces
`bethe3.equations.newton_solve`; `observables` imported `amplitudes`, so
`bethe3.observables.amplitudes` is replaced as well as the wavefunction
module's own).  Wrappers are installed around each traced op only and
removed after it, so checks and untraced ops run the original code.

A span is (name, start, end, parent index), kept in memory.  Residual
evaluations cost about a microsecond each, so they are counted with a
plain integer and never timed.  A wrapped name that no longer exists is
listed as absent; its metrics read 0.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

RESIDUALS = ("residual_real_thetasum", "residual_equal_delta", "family1_residual_beta",
             "family0_residual_beta", "family0_residual_eta", "pair_residual_beta",
             "trimer_residual_eta", "residual_real", "residual_complex")

# (module, attribute, span or counter name, kind); kind "count" is untimed
WRAPS = [("bethe3.equations", "newton_solve", "equations.newton", "newton")]
WRAPS += [("bethe3.equations", r, "equations.residual", "count") for r in RESIDUALS]
for _mod in ("bethe3.continuation", "bethe3.cli", "bethe3.verify"):
    WRAPS += [(_mod, "trace_root", "continuation.trace_root", "states"),
              (_mod, "find_critical", "continuation.find_critical", "span")]
for _mod in ("bethe3.continuation", "bethe3.verify"):
    WRAPS.append((_mod, "solve_state", "continuation.solve_state", "states"))
for _mod in ("bethe3.continuation", "bethe3.cli"):
    WRAPS.append((_mod, "spectrum", "continuation.spectrum", "span"))
for _mod in ("bethe3.observables", "bethe3.cli", "bethe3.verify"):
    WRAPS += [(_mod, "norm_squared", "observables.norm_squared", "span"),
              (_mod, "potential_expectation", "observables.potential_expectation", "span"),
              (_mod, "density_grid", "observables.density_grid", "grid")]
WRAPS += [
    ("bethe3.continuation", "branch_switch", "continuation.branch_switch", "count"),
    ("bethe3.continuation", "build_state", "model.build_state", "span"),
    ("bethe3.continuation", "partner_state", "model.partner_state", "count"),
    ("bethe3.asymptotics", "delta_small_c", "asymptotics.delta_small_c", "count"),
    ("bethe3.observables", "amplitudes", "wavefunction.amplitudes", "span"),
    ("bethe3.wavefunction", "amplitudes", "wavefunction.amplitudes", "span"),
    ("bethe3.observables", "psi_ordered", "wavefunction.psi_ordered", "points"),
    ("bethe3.observables", "simplex_integral_exponents", "observables.simplex_integral", "span"),
    ("bethe3.cli", "run_suite", "verify.run_suite", "span"),
    ("bethe3.cli", "main", "cli.main", "span"),
]

# per-pass metrics: name -> unit
PER_LAYER = {
    "equations.newton.calls": "count", "equations.newton.iters": "count",
    "equations.newton.iters_per_solve": "ratio", "equations.newton.failed": "count",
    "equations.newton.self_s": "s", "equations.residual.calls": "count",
    "equations.residual.per_iter": "ratio",
    "continuation.trace_root.s": "s", "continuation.solve_state.s": "s",
    "continuation.spectrum.s": "s", "continuation.self_s": "s",
    "continuation.find_critical.calls": "count", "continuation.find_critical.s": "s",
    "continuation.branch_switch.calls": "count", "continuation.states": "count",
    "continuation.solves_per_state": "ratio",
    "model.build_state.calls": "count", "model.build_state.s": "s",
    "model.partner_state.calls": "count",
    "asymptotics.delta_small_c.calls": "count",
    "wavefunction.amplitudes.calls": "count", "wavefunction.amplitudes.s": "s",
    "wavefunction.psi_ordered.calls": "count", "wavefunction.psi_ordered.points": "count",
    "wavefunction.psi_ordered.s": "s",
    "observables.norm_squared.calls": "count", "observables.norm_squared.s": "s",
    "observables.potential_expectation.calls": "count",
    "observables.potential_expectation.s": "s",
    "observables.density_grid.calls": "count", "observables.density_grid.s": "s",
    "observables.simplex_integral.calls": "count", "observables.simplex_integral.s": "s",
    "observables.grid_points": "count",
    "observables.failed.ZeroDivisionError": "count", "observables.failed.OverflowError": "count",
    "observables.failed.ValueError": "count", "observables.failed.other": "count",
    "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.main.s": "s", "cli.self_s": "s",
    "cli.bytes_out": "B", "cli.exit_nonzero": "count",
    "trace.pass_ops": "count", "trace.overhead_frac": "ratio", "trace.absent_names": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._wrappers = {}
        for mod_name, attr, name, kind in WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._wrappers[(mod, attr)] = (fn, self._wrap(fn, name, kind))

    # -- installation ------------------------------------------------------------

    def __enter__(self):
        for (mod, attr), (_, wrapper) in self._wrappers.items():
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for (mod, attr), (fn, _) in self._wrappers.items():
            setattr(mod, attr, fn)
        return False

    def _wrap(self, fn, name, kind):
        counts = self.counts
        if kind == "count":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self.stack

        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            before = counts["equations.residual"]
            t0 = perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                if kind == "newton":
                    counts["equations.residual.in_newton"] += counts["equations.residual"] - before
                    if not ok:
                        counts["equations.newton.failed"] += 1
            if kind == "newton":
                counts["equations.newton.iters"] += getattr(out, "iterations", 0)
            elif kind == "states":
                counts["continuation.states"] += len(getattr(out, "samples", [out]))
            elif kind == "points":
                counts["wavefunction.psi_ordered.points"] += getattr(out, "size", 1)
            elif kind == "grid":
                counts["observables.grid_points"] += len(out)
            return out

        return spanned

    # -- results ------------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def aggregate(self) -> dict:
        """calls, total and self seconds per span name, and per layer self seconds."""
        calls, total, child = Counter(), defaultdict(float), defaultdict(float)
        for name, t0, t1, parent in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_s, layer_self = defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            own = t1 - t0 - child[i]
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
        return {"calls": calls, "total": total, "self": self_s, "layer_self": layer_self}

    def pass_metrics(self) -> dict:
        a = self.aggregate()
        c = self.counts
        calls, total = a["calls"], a["total"]
        newton = calls["equations.newton"]
        iters = c["equations.newton.iters"]
        m = {
            "equations.newton.calls": newton,
            "equations.newton.iters": iters,
            "equations.newton.iters_per_solve": iters / newton if newton else 0.0,
            "equations.newton.failed": c["equations.newton.failed"],
            "equations.newton.self_s": a["self"]["equations.newton"],
            "equations.residual.calls": c["equations.residual"],
            "equations.residual.per_iter":
                c["equations.residual.in_newton"] / iters if iters else 0.0,
            "continuation.self_s": a["layer_self"]["continuation"],
            "continuation.states": c["continuation.states"],
            "continuation.solves_per_state":
                newton / c["continuation.states"] if c["continuation.states"] else 0.0,
            "wavefunction.psi_ordered.points": c["wavefunction.psi_ordered.points"],
            "observables.grid_points": c["observables.grid_points"],
            "cli.main.s": total["cli.main"],
            "cli.self_s": a["self"]["cli.main"],
        }
        for name in ("continuation.trace_root", "continuation.solve_state", "continuation.spectrum"):
            m[f"{name}.s"] = total[name]
        for name in ("continuation.find_critical", "model.build_state", "wavefunction.amplitudes",
                     "wavefunction.psi_ordered", "observables.norm_squared",
                     "observables.potential_expectation", "observables.density_grid",
                     "observables.simplex_integral"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = total[name]
        for name in ("continuation.branch_switch", "model.partner_state",
                     "asymptotics.delta_small_c"):
            m[f"{name}.calls"] = c[name]
        return m

    def dump(self, path) -> None:
        """Write the spans of the last pass as json lines."""
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent}) + "\n")
