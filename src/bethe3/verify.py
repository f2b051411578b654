"""Invariant suites behind `bethe3 verify`: deterministic, seeded, fast.

Each suite is a generator that yields its checks as CheckResult(name,
passed, detail), so a `suite_*` called directly returns a generator;
run_suite lists them.  These mirror the package test suite's core identities
so a deployed build can self-check without pytest.  They run without numpy:
the seeded draws come from random.Random, the density check reads
observables.density_points (the route of `bethe3 density`), and the
simplex quadrature of bethe3.oracles integrates x1 exactly and (x2, x3) on
Gauss-Legendre nodes found by Newton's method, in pure Python.
"""
from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from . import asymptotics as asym
from . import equations as eq
from .continuation import find_critical, solve_state, trace_root
from .model import (
    TWO_PI,
    QuantumLabel,
    deltas_from_k,
    k_from_deltas,
    partner_state,
)
from .observables import (
    density_points,
    norm_squared,
    potential_expectation,
    simplex_integral_exponents,
)
from .tolerances import IDENTITY_TOL, RESIDUAL_TOL
from .wavefunction import dimer_prefactor, jump_residual, periodicity_residual

SEED = 20260809


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def suite_core() -> Iterator[CheckResult]:
    rng = random.Random(SEED)
    cases = {(0, 0): 0, (0, 1): 1, (1, 0): -1, (1, 1): 0, (2, 7): -1, (5, 1): -1, (3, 1): 1}
    ok = all(QuantumLabel(a, b).np == v for (a, b), v in cases.items())
    yield _check("np-rule", ok, f"{len(cases)} labels")

    worst = 0.0
    for _ in range(1000):
        k1, k2, k3 = sorted([rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(-30, 30)])
        p, d1, d2 = deltas_from_k(k_from_deltas(k1 + k2 + k3, k2 - k1, k3 - k2))
        m = k_from_deltas(p, d1, d2)
        worst = max(worst, abs(m.k1.real - k1), abs(m.k2.real - k2), abs(m.k3.real - k3))
    yield _check("delta-roundtrip", worst < 1e-13, f"max defect {worst:.2e}")

    st = solve_state(QuantumLabel(1, 2), -2.0)
    pt = partner_state(st)
    yield _check(
        "partner-energy",
        abs(pt.energy - st.energy) < 1e-12 and abs(pt.momenta.total + st.momenta.total) < 1e-10,
        f"dE={abs(pt.energy - st.energy):.2e}",
    )


def suite_roots() -> Iterator[CheckResult]:
    from .oracles import log_form_residual

    c11 = find_critical(QuantumLabel(1, 1))
    c12 = find_critical(QuantumLabel(1, 2))
    yield _check("critical-11", c11.C == -6.0, f"C={c11.C}")
    yield _check("critical-12", abs(c12.C + 4.163) < 5e-4, f"C={c12.C:.6f}")

    traj = trace_root(QuantumLabel(2, 2), -30.0, 30.0, step=0.25)
    drift = max(abs(s.momenta.total - TWO_PI * s.label.np) for s in traj.samples)
    yield _check("momentum-conservation", drift < IDENTITY_TOL, f"max drift {drift:.2e}")

    eq_defect = 0.0
    for s in traj.samples:
        eq_defect = max(eq_defect, abs(s.coords.delta1 - s.coords.delta2))
    yield _check("equal-label-deltas", eq_defect < 1e-12, f"max {eq_defect:.2e}")

    st = solve_state(QuantumLabel(1, 3), -2.5)
    r = max(map(abs, eq.residual_real(st.coords.delta1, st.coords.delta2, st.c, st.label).residual))
    log_r = log_form_residual(traj)
    # a real state's coords are the solver's unknowns, so its residual is the
    # one the corrector drove below RESIDUAL_TOL
    yield _check("residual-at-root", r < RESIDUAL_TOL and log_r < 1e-9,
                 f"|r|={r:.2e}, log form along (2,2) {log_r:.2e}")


def suite_asymptotics() -> Iterator[CheckResult]:
    st = solve_state(QuantumLabel(1, 1), -40.0)
    target = asym.dimer(st.label, -40.0).alpha
    yield _check("alpha-dimer-11", abs(st.coords.alpha - target) < 1e-6,
                 f"alpha={st.coords.alpha!r} vs {target!r}")
    st = solve_state(QuantumLabel(0, 0), -30.0)
    a = asym.trimer(st.label, -30.0).alpha
    yield _check("alpha-trimer-00", abs(st.coords.alpha - a) < 1e-6, f"alpha={st.coords.alpha!r}")
    for c, side in ((200.0, "positive"), (-200.0, "negative")):
        st = solve_state(QuantumLabel(2, 2), c)
        d = asym.delta_large_c(st.label, c).delta1
        rel = abs(st.coords.delta1 - d) / d
        yield _check(f"delta-large-{side}", rel < 5e-3, f"rel={rel:.2e}")


def suite_wavefunction() -> Iterator[CheckResult]:
    rng = random.Random(SEED + 1)
    states = [
        solve_state(QuantumLabel(2, 2), -3.0),
        solve_state(QuantumLabel(1, 2), 1.5),
        solve_state(QuantumLabel(0, 0), -9.0),
        solve_state(QuantumLabel(1, 2), -7.0),
    ]
    worst = 0.0
    for st in states:
        for _ in range(20):
            a, b = sorted([rng.random(), rng.random()])
            worst = max(worst, jump_residual(st, a, b), periodicity_residual(st, a, b))
    yield _check("boundary-conditions", worst < 1e-9, f"max residual {worst:.2e}")

    st = solve_state(QuantumLabel(0, 0), -40.0)
    pref = dimer_prefactor(st)
    yield _check("prefactor-00", abs(pref - 3.0) < 0.03, f"{pref!r}")
    st = solve_state(QuantumLabel(1, 1), -40.0)
    pref = dimer_prefactor(st)
    yield _check("prefactor-11", abs(pref) > 100.0, f"{pref:.3e}")


def simplex_triples() -> list[tuple[complex, complex, complex]]:
    """The 60 seeded exponent triples (a1, a2, -a1 - a2) of simplex-vs-quadrature."""
    rng = random.Random(SEED + 2)
    triples = []
    for _ in range(60):
        a1 = complex(rng.uniform(-12, 12), rng.uniform(-2, 2))
        a2 = complex(rng.uniform(-12, 12), rng.uniform(-2, 2))
        triples.append((a1, a2, -a1 - a2))
    return triples


def suite_observables() -> Iterator[CheckResult]:
    from .oracles import quad_simplex_exp

    worst = 0.0
    for a1, a2, a3 in simplex_triples():
        got = simplex_integral_exponents(a1, a2, a3)
        # 24 nodes per axis suffice for these bounded exponents, at a quarter
        # of the cost of 48: they err by at most 2.9e-15 here against 40 digits
        # (48 nodes: 1.5e-15; 12 nodes: 1.6e-7, which fails the check)
        ref = quad_simplex_exp(a1, a2, a3, n=24)
        worst = max(worst, abs(got - ref) / max(1e-30, abs(ref)))
    yield _check("simplex-vs-quadrature", worst < 1e-8, f"max rel {worst:.2e}")

    st = solve_state(QuantumLabel(2, 2), -3.0)
    n = norm_squared(st)
    v = potential_expectation(st, norm=n)
    yield _check("norm-positive", n > 0, f"norm={n:.6e}")
    yield _check("v-sign", v < 0, f"<V>={v:.6e}")

    st = solve_state(QuantumLabel(0, 0), -9.0)
    points = list(density_points(st, 32))
    vmax = max(p[3] for p in points)
    # a vertex of the lattice is a point where some r equals 1.0 exactly
    vertex_max = max(p[3] for p in points if 1.0 in p[:3])
    yield _check("trimer-vertex-max", vertex_max == vmax, f"max={vmax:.3e}")


SUITES = {
    "core": suite_core,
    "roots": suite_roots,
    "asymptotics": suite_asymptotics,
    "wavefunction": suite_wavefunction,
    "observables": suite_observables,
}


def check_suite_name(name: str) -> str:
    """`name` if it names a suite or is 'all'; KeyError otherwise."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return name


def run_suite(name: str) -> list[CheckResult]:
    """The checks of suite `name`, or of every suite in order for 'all';
    KeyError for any other name, before a suite runs."""
    check_suite_name(name)
    return [res for key, suite in SUITES.items() if name in ("all", key) for res in suite()]
