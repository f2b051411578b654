#!/usr/bin/env python3
"""Write bench/reference.json: this commit's outputs for every input a workload can draw.

    python3 bench/make_reference.py

Regenerate it only in a change whose purpose is to change these outputs;
the benchmark compares every run against it (see checks.py).  Takes under
a minute.
"""
from __future__ import annotations

import json
import sys

import run  # first: sets the environment and sys.path
import workloads as W
from checks import REFERENCE, cli_digest, grid_digest, key, root_record


def main() -> int:
    bench = run.Bench("observables", 0)     # solves every observables state
    lib = bench.lib
    ref = {"trace": {}, "spectrum": {}, "observables": {}, "cli": {}}

    edge = W.TRACE_EDGE + W.TRACE_JITTER
    for label in W.LABELS:
        traj = lib.continuation.trace_root(lib.QuantumLabel(*label), -edge, edge, W.TRACE_STEP)
        ref["trace"][f"{label[0]},{label[1]}"] = {
            f"{round(s.c):d}": root_record(s) for s in traj.samples if abs(s.c - round(s.c)) < 1e-12}

    for label in W.SPECTRUM_LABELS:
        for band in W.SPECTRUM_BANDS.values():
            for c in band:
                res = lib.continuation.spectrum([lib.QuantumLabel(*label)], c, include_partners=True)
                if res.failures:
                    raise SystemExit(f"spectrum {label} c={c} failed: {res.failures}")
                for s in res.states:
                    ref["spectrum"][key((s.label.n1, s.label.n2), c)] = root_record(s)

    obs = lib.observables
    for label in W.OBS_LABELS:
        for c in W.OBS_SHALLOW + W.OBS_DEEP[label]:
            s = bench.states[(label, c)]
            entry = {"root": root_record(s)}
            try:
                entry["norm"] = obs.norm_squared(s)
                entry["V"] = obs.potential_expectation(s, norm=entry["norm"])
                if c in W.OBS_SHALLOW:
                    entry["grid64"] = grid_digest(obs.density_grid(s, 64))
                    entry["grid256"] = grid_digest(obs.density_grid(s, 256))
            except (ArithmeticError, ValueError) as exc:
                entry = {"root": entry["root"], "error": type(exc).__name__}
            ref["observables"][key(label, c)] = entry

    for name in W.CLI_COMMANDS:
        out = bench.run_cli(name)
        ref["cli"][name] = {"exit": out.code}
        if out.code == 0:
            ref["cli"][name].update(cli_digest(out.records()))

    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}: {sum(len(v) for v in ref.values())} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
