"""Workload schedules: the seed picks couplings inside fixed bands and the op order.

Pure standard library on purpose: nothing here may import numpy or bethe3,
so that `import bethe3` is timed from a cold interpreter in every set-up probe.

A schedule is an endless sequence of rounds.  Every round of a workload holds
the same multiset of op kinds, labels and bands; the seed only moves the
couplings inside their bands and shuffles the order.  So rounds, and runs
with different seeds, do the same amount of work.

An op is a tuple whose first field names its kind:

    ("trace", label, c_min, c_max)      one trace_root call, step TRACE_STEP
    ("spectrum", label, c)              one spectrum([label], c, include_partners=True)
    ("norm", label, c)                  norm_squared + potential_expectation on a set-up state
    ("density", label, c, resolution)   one density_grid on a set-up state
    ("cli", name)                       one `python -m bethe3.cli` process (CLI_COMMANDS[name])

Labels are (n1, n2) tuples.
"""
from __future__ import annotations

import random

AT_ZERO = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 0)]   # complex below c = 0
WINDOW = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (3, 1)]    # fold at C(1, n2)
REAL = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]      # real for all c
LABELS = AT_ZERO + WINDOW + REAL

# trace_sweep: every label once per round, over a window across both folds
# whose ends move by up to half a unit
TRACE_STEP = 0.05
TRACE_EDGE = 12.0
TRACE_JITTER = 0.5

# spectrum_deep: two labels per critical class (one of them a partner where
# the class has one), each at every band once per round.  Each band is a
# fixed set of couplings, all stored in the reference.
SPECTRUM_LABELS = [(0, 0), (5, 0), (1, 1), (2, 1), (2, 3), (3, 5)]
SPECTRUM_BANDS = {
    "-12": [-14.0, -13.0, -12.0, -11.0, -10.0],
    "-40": [-42.0, -41.0, -40.0, -39.0, -38.0],
    "+40": [38.0, 39.0, 40.0, 41.0, 42.0],
    "+1000": [960.0, 980.0, 1000.0, 1020.0, 1040.0],
}

# observables: states come from one trace per label on an integer grid.  The
# shallow band is usable by every label; the deep bands sit below the
# documented depth limit (trimer about -36, dimer about -75), except for the
# real label (2, 3), which has no limit.
OBS_LABELS = [(0, 0), (1, 2), (0, 2), (2, 3), (2, 1)]
OBS_SHALLOW = [float(c) for c in range(-30, 0, 2)]
OBS_DEEP = {
    (0, 0): [float(c) for c in range(-50, -39)],
    (1, 2): [float(c) for c in range(-90, -79)],
    (0, 2): [float(c) for c in range(-90, -79)],
    (2, 3): [float(c) for c in range(-90, -79)],
    (2, 1): [float(c) for c in range(-90, -79)],
}
OBS_TRACE_STEP = 1.0
OBS_PER_LABEL = 8       # shallow states per label
OBS_DEEP_PER_LABEL = 2  # deep states per label
OBS_GRID64 = 2          # shallow states per label that also get a resolution-64 grid
OBS_GRID256 = 1         # ... and a resolution-256 grid
OBS_CYCLES = 10         # shuffled cycles over all state ops per round

# cli_mix: the README commands plus the two that crash at the seed commit.
# "{out}" is replaced by a file in the benchmark's work directory.
CLI_COMMANDS = {
    "critical": ["critical", "--n2", "1..6"],
    "trace_obs": ["trace", "--label", "0,0", "--c-range", "-10..2", "--step", "0.05", "--observables"],
    "trace_csv": ["trace", "--labels", "1,1", "1,2", "--c-range", "-8..1", "--format", "csv",
                  "--out", "{out}"],
    "spectrum": ["spectrum", "--labels", "0,0", "1,1", "2,2", "3,3", "--c", "-5", "--partners"],
    "density_csv": ["density", "--label", "0,2", "--c", "-9", "--resolution", "64", "--format",
                    "csv", "--out", "{out}"],
    "verify": ["verify", "--suite", "all"],
    "density_deep": ["density", "--label", "0,0", "--c", "-40"],
    "spectrum_deep_obs": ["spectrum", "--labels", "0,0", "1,2", "--c", "-100", "--observables"],
}

# the tail percentile per workload: the highest of 99/90/75 that keeps at
# least ten successful samples beyond it in a run at the seed commit
TAIL_PERCENTILE = {"trace_sweep": 90.0, "spectrum_deep": 90.0, "observables": 99.0, "cli_mix": 75.0}


def observables_states(seed: int) -> list[tuple[tuple[int, int], float, str]]:
    """(label, c, role) of the set-up states; role is shallow/grid64/grid256/deep."""
    rng = random.Random(seed)
    states = []
    for label in OBS_LABELS:
        shallow = rng.sample(OBS_SHALLOW, OBS_PER_LABEL)
        for i, c in enumerate(shallow):
            role = "grid256" if i < OBS_GRID256 else "grid64" if i < OBS_GRID64 else "shallow"
            states.append((label, c, role))
        states += [(label, c, "deep") for c in rng.sample(OBS_DEEP[label], OBS_DEEP_PER_LABEL)]
    return states


def _trace_sweep(rng: random.Random, seed: int) -> list:
    ops = []
    for label in rng.sample(LABELS, len(LABELS)):
        c_min = round(-TRACE_EDGE + rng.uniform(-TRACE_JITTER, TRACE_JITTER), 2)
        c_max = round(TRACE_EDGE + rng.uniform(-TRACE_JITTER, TRACE_JITTER), 2)
        ops.append(("trace", label, c_min, c_max))
    return ops


def _spectrum_deep(rng: random.Random, seed: int) -> list:
    ops = [("spectrum", label, rng.choice(band))
           for label in SPECTRUM_LABELS for band in SPECTRUM_BANDS.values()]
    rng.shuffle(ops)
    return ops


def _observables(rng: random.Random, seed: int) -> list:
    states = observables_states(seed)
    cycle = [("norm", label, c) for label, c, _ in states]
    cycle += [("density", label, c, 64) for label, c, role in states if role in ("grid64", "grid256")]
    cycle += [("density", label, c, 256) for label, c, role in states if role == "grid256"]
    ops = []
    for _ in range(OBS_CYCLES):
        ops += rng.sample(cycle, len(cycle))
    return ops


def _cli_mix(rng: random.Random, seed: int) -> list:
    return [("cli", name) for name in rng.sample(list(CLI_COMMANDS), len(CLI_COMMANDS))]


ROUNDS = {"trace_sweep": _trace_sweep, "spectrum_deep": _spectrum_deep,
          "observables": _observables, "cli_mix": _cli_mix}
WORKLOADS = tuple(ROUNDS)


def rounds(workload: str, seed: int):
    """The endless round sequence of a workload for a seed."""
    rng = random.Random(seed)
    while True:
        yield ROUNDS[workload](rng, seed)
