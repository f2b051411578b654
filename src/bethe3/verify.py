"""Invariant suites behind `bethe3 verify`: deterministic, seeded, fast.

Each check returns (name, passed, detail).  These mirror the package test
suite's core identities so a deployed build can self-check without pytest.
"""
from __future__ import annotations

from typing import NamedTuple

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
    density_grid,
    norm_squared,
    potential_expectation,
    simplex_integral_exponents,
)
from .wavefunction import dimer_prefactor, jump_residual, periodicity_residual

SEED = 20260809


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def suite_core() -> list[CheckResult]:
    import numpy as np

    rng = np.random.default_rng(SEED)
    out = []
    cases = {(0, 0): 0, (0, 1): 1, (1, 0): -1, (1, 1): 0, (2, 7): -1, (5, 1): -1, (3, 1): 1}
    ok = all(QuantumLabel(a, b).np == v for (a, b), v in cases.items())
    out.append(_check("np-rule", ok, f"{len(cases)} labels"))

    worst = 0.0
    for _ in range(1000):
        k = np.sort(rng.uniform(-30, 30, 3))
        p, d1, d2 = deltas_from_k(k_from_deltas(k.sum(), k[1] - k[0], k[2] - k[1]))
        m = k_from_deltas(p, d1, d2)
        worst = max(worst, max(abs(m.k1.real - k[0]), abs(m.k2.real - k[1]), abs(m.k3.real - k[2])))
    out.append(_check("delta-roundtrip", worst < 1e-13, f"max defect {worst:.2e}"))

    st = solve_state(QuantumLabel(1, 2), -2.0)
    pt = partner_state(st)
    out.append(
        _check(
            "partner-energy",
            abs(pt.energy - st.energy) < 1e-12 and abs(pt.momenta.total + st.momenta.total) < 1e-10,
            f"dE={abs(pt.energy - st.energy):.2e}",
        )
    )
    return out


def suite_roots() -> list[CheckResult]:
    out = []
    c11 = find_critical(QuantumLabel(1, 1))
    c12 = find_critical(QuantumLabel(1, 2))
    out.append(_check("critical-11", c11.C == -6.0, f"C={c11.C}"))
    out.append(_check("critical-12", abs(c12.C + 4.163) < 5e-4, f"C={c12.C:.6f}"))

    traj = trace_root(QuantumLabel(2, 2), -30.0, 30.0, step=0.25)
    drift = max(abs(s.momenta.total - TWO_PI * s.label.np) for s in traj.samples)
    out.append(_check("momentum-conservation", drift < 1e-10, f"max drift {drift:.2e}"))

    eq_defect = 0.0
    for s in traj.samples:
        eq_defect = max(eq_defect, abs(s.coords.delta1 - s.coords.delta2))
    out.append(_check("equal-label-deltas", eq_defect < 1e-12, f"max {eq_defect:.2e}"))

    st = solve_state(QuantumLabel(1, 3), -2.5)
    r = max(map(abs, eq.residual_real(st.coords.delta1, st.coords.delta2, st.c, st.label).residual))
    log_r = log_form_residual(traj)
    out.append(_check("residual-at-root", r < 1e-11 and log_r < 1e-9,
                      f"|r|={r:.2e}, log form along (2,2) {log_r:.2e}"))
    return out


def log_form_residual(traj) -> float:
    """Largest log-form residual (residual_real with refs) over a real-branch
    trajectory, each arg z_j continued sample by sample outward from c = 0."""
    samples = traj.samples
    i0 = traj.couplings().index(0.0)
    worst = 0.0
    for side in (samples[i0::-1], samples[i0:]):
        refs = (None, None)
        for s in side:
            point = eq.residual_real(s.coords.delta1, s.coords.delta2, s.c, s.label, refs=refs)
            refs = point.args
            worst = max(worst, abs(point.residual[0]), abs(point.residual[1]))
    return worst


def suite_asymptotics() -> list[CheckResult]:
    out = []
    st = solve_state(QuantumLabel(1, 1), -40.0)
    target = asym.alpha_dimer(-40.0, 1, 1)
    out.append(
        _check(
            "alpha-dimer-11",
            abs(st.coords.alpha - target) < 1e-6,
            f"alpha={st.coords.alpha!r} vs {target!r}",
        )
    )
    st = solve_state(QuantumLabel(0, 0), -30.0)
    a, _ = asym.alpha_trimer(QuantumLabel(0, 0), -30.0)
    out.append(
        _check("alpha-trimer-00", abs(st.coords.alpha - a) < 1e-6, f"alpha={st.coords.alpha!r}")
    )
    st = solve_state(QuantumLabel(2, 2), 200.0)
    d = asym.delta_large_c(2, 200.0)
    rel = abs(st.coords.delta1 - d) / d
    out.append(_check("delta-large-positive", rel < 5e-3, f"rel={rel:.2e}"))
    st = solve_state(QuantumLabel(2, 2), -200.0)
    d = asym.delta_large_c(2, -200.0)
    rel = abs(st.coords.delta1 - d) / d
    out.append(_check("delta-large-negative", rel < 5e-3, f"rel={rel:.2e}"))
    return out


def suite_wavefunction() -> list[CheckResult]:
    import numpy as np

    rng = np.random.default_rng(SEED + 1)
    out = []
    states = [
        solve_state(QuantumLabel(2, 2), -3.0),
        solve_state(QuantumLabel(1, 2), 1.5),
        solve_state(QuantumLabel(0, 0), -9.0),
        solve_state(QuantumLabel(1, 2), -7.0),
    ]
    worst = 0.0
    for st in states:
        for _ in range(20):
            a, b = np.sort(rng.uniform(0.0, 1.0, 2))
            worst = max(worst, jump_residual(st, a, b), periodicity_residual(st, a, b))
    out.append(_check("boundary-conditions", worst < 1e-9, f"max residual {worst:.2e}"))

    st = solve_state(QuantumLabel(0, 0), -40.0)
    pref = dimer_prefactor(st)
    out.append(_check("prefactor-00", abs(pref - 3.0) < 0.03, f"{pref!r}"))
    st = solve_state(QuantumLabel(1, 1), -40.0)
    pref = dimer_prefactor(st)
    out.append(_check("prefactor-11", abs(pref) > 100.0, f"{pref:.3e}"))
    return out


def suite_observables() -> list[CheckResult]:
    import numpy as np
    from .oracles import quad_simplex_exp

    rng = np.random.default_rng(SEED + 2)
    out = []
    worst = 0.0
    for _ in range(60):
        a = rng.uniform(-12, 12, 2) + 1j * rng.uniform(-2, 2, 2)
        got = simplex_integral_exponents(a[0], a[1], -a[0] - a[1])
        ref = quad_simplex_exp(a[0], a[1], -a[0] - a[1])
        worst = max(worst, abs(got - ref) / max(1e-30, abs(ref)))
    out.append(_check("simplex-vs-quadrature", worst < 1e-8, f"max rel {worst:.2e}"))

    st = solve_state(QuantumLabel(2, 2), -3.0)
    n = norm_squared(st)
    v = potential_expectation(st, norm=n)
    out.append(_check("norm-positive", n > 0, f"norm={n:.6e}"))
    out.append(_check("v-sign", v < 0, f"<V>={v:.6e}"))

    st = solve_state(QuantumLabel(0, 0), -9.0)
    grid = density_grid(st, 32)
    vmax = grid.density.max()
    out.append(
        _check(
            "trimer-vertex-max",
            grid.density[grid.vertex_mask()].max() == vmax,
            f"max={vmax:.3e}",
        )
    )
    return out


SUITES = {
    "core": suite_core,
    "roots": suite_roots,
    "asymptotics": suite_asymptotics,
    "wavefunction": suite_wavefunction,
    "observables": suite_observables,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
