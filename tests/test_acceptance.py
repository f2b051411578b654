"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the PASS lines
inline).  Shared trajectories are traced once per session.
"""
import math

import numpy as np
import pytest

import bethe3.asymptotics as asym
from bethe3 import (
    Branch,
    QuantumLabel,
    density_grid,
    dimer_prefactor,
    find_critical,
    jump_residual,
    norm_squared,
    partner_state,
    periodicity_residual,
    potential_expectation,
    solve_state,
    trace_root,
)
from bethe3.observables import simplex_integral_exponents

from conftest import quad_norm, quad_potential, quad_simplex_exp, solved
from test_observables import random_keys

TWO_PI = 2 * math.pi

TRACE_LABELS = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


@pytest.fixture(scope="module")
def traces():
    return {
        lab: trace_root(QuantumLabel(*lab), -10.0, 1.0, step=0.25)
        for lab in TRACE_LABELS
    }


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_critical_couplings():
    c11 = find_critical(QuantumLabel(1, 1)).C
    c12 = find_critical(QuantumLabel(1, 2)).C
    series = [find_critical(QuantumLabel(1, n2)).C for n2 in range(2, 9)]
    ok = (
        abs(c11 + 6.0) < 1e-8
        and abs(c12 + 4.163) < 5e-4
        and all(a < b for a, b in zip(series, series[1:]))
        and all(-6.0 < v < -4.0 for v in series)
    )
    report(1, ok, f"C(1,1)={c11}, C(1,2)={c12:.6f}, C increasing in ({series[0]:.4f}..{series[-1]:.4f})")


def test_criterion_2_reference_values(traces):
    worst = 0.0
    np_ok = True
    for (n1, n2), traj in traces.items():
        st = traj.sample_at(0.0)
        worst = max(
            worst,
            abs(st.coords.delta1 - TWO_PI * n1),
            abs(st.coords.delta2 - TWO_PI * n2),
        )
        expected_np = {0: 0, 1: -1, 2: 1}[(n1 - n2) % 3]
        np_ok = np_ok and st.label.np == expected_np
    report(2, worst < 1e-12 and np_ok, f"max |delta_j(0) - 2 pi n_j| = {worst:.2e}, np rule ok={np_ok}")


def test_criterion_3_asymptotic_agreement():
    st = solved(1, 1, -40.0)
    d11 = abs(st.coords.alpha - (20.0 + 3 * (-40.0) * math.exp(-20.0)))
    st = solved(0, 0, -30.0)
    d00 = abs(st.coords.alpha - (30.0 + 180.0 * math.exp(-30.0)))
    rel_p = abs(solved(2, 2, 200.0).coords.delta1 / asym.delta_large_c(2, 200.0) - 1.0)
    rel_m = abs(solved(2, 2, -200.0).coords.delta1 / asym.delta_large_c(2, -200.0) - 1.0)
    slope_ok = True
    h = 1e-3
    details = []
    for (n1, n2) in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        for c in (h, -h):
            st = solve_state(QuantumLabel(n1, n2), c)
            slope = (st.coords.delta1 - TWO_PI * n1) / c
            rel = abs(slope / asym.small_c_slope(n1, n2) - 1.0)
            details.append(rel)
            slope_ok = slope_ok and rel < 0.02
    ok = d11 < 1e-6 and d00 < 1e-6 and rel_p < 5e-3 and rel_m < 5e-3 and slope_ok
    report(
        3,
        ok,
        f"|d alpha(1,1)|={d11:.1e}, |d alpha(0,0)|={d00:.1e}, "
        f"delta(+-200) rel=({rel_p:.1e},{rel_m:.1e}), max slope rel={max(details):.3f}",
    )


def test_criterion_4_boundary_conditions():
    states = [
        solved(2, 2, -3.0), solved(1, 2, -2.0), solved(1, 1, 2.0),
        solved(0, 2, 1.0), solved(2, 3, -30.0),
        solved(0, 0, -9.0), solved(1, 1, -8.0), solved(0, 2, -9.0),
        solved(1, 2, -7.0), solved(0, 1, -12.0),
    ]
    branches = {s.branch for s in states}
    rng = np.random.default_rng(424242)
    worst = 0.0
    for st in states:
        for _ in range(50):
            a, b = np.sort(rng.uniform(0.0, 1.0, 2))
            worst = max(
                worst,
                jump_residual(st, a, b),
                jump_residual(st, b, a),
                periodicity_residual(st, a, b),
            )
    ok = worst < 1e-9 and branches == {Branch.REAL_K, Branch.COMPLEX_K}
    report(4, ok, f"10 states x 50 probes, max residual = {worst:.2e}")


def test_criterion_5_conservation_and_symmetry(traces):
    drift = 0.0
    for traj in traces.values():
        p = TWO_PI * traj.label.np
        drift = max(drift, max(abs(s.momenta.total - p) for s in traj.samples))
    degen = 0.0
    cs = [c for c in np.linspace(-8.0, 1.0, 20)]
    for c in cs:
        a = solve_state(QuantumLabel(1, 2), c)
        b = partner_state(a)
        b2 = solve_state(QuantumLabel(2, 1), c)
        degen = max(degen, abs(a.energy - b.energy), abs(a.energy - b2.energy))
    equal = 0.0
    for lab in ((1, 1), (2, 2), (3, 3), (0, 0)):
        traj = traces[lab]
        for s in traj.samples:
            if s.branch is Branch.REAL_K:
                equal = max(equal, abs(s.coords.delta1 - s.coords.delta2))
            else:
                equal = max(equal, abs(s.coords.gamma))
    ok = drift < 1e-10 and degen < 1e-10 and equal < 1e-12
    report(5, ok, f"momentum drift {drift:.1e}, degeneracy split {degen:.1e}, diagonal defect {equal:.1e}")


def test_criterion_6_energy_continuity_at_folds():
    details = []
    ok = True
    for lab in ((1, 1), (1, 2)):
        C = find_critical(QuantumLabel(*lab)).C
        ks = []
        for eps in (1e-3, 1e-4):
            e_lo = solve_state(QuantumLabel(*lab), C - eps).energy
            e_hi = solve_state(QuantumLabel(*lab), C + eps).energy
            ks.append(abs(e_hi - e_lo) / eps)
        ratio = ks[0] / ks[1]
        ok = ok and np.isfinite(ks).all() and 0.1 < ratio < 10.0
        details.append(f"{lab}: K(1e-3)={ks[0]:.3f}, K(1e-4)={ks[1]:.3f}")
    report(6, ok, "; ".join(details))


def test_criterion_7_appendix_oracles():
    rng = np.random.default_rng(777)
    keys = (
        random_keys(rng, 10, "all_zero")
        + random_keys(rng, 95, "one_zero")
        + random_keys(rng, 95, "none_zero")
    )
    worst_simplex = 0.0
    for a1, a2, a3 in keys:
        got = simplex_integral_exponents(a1, a2, a3)
        ref = quad_simplex_exp(a1, a2, a3)
        worst_simplex = max(worst_simplex, abs(got - ref) / max(abs(ref), 1e-30))

    test_states = [
        solved(2, 2, -3.0), solved(1, 2, -2.0), solved(0, 0, -9.0),
        solved(1, 2, -7.0), solved(0, 2, -9.0), solved(1, 1, 2.0),
    ]
    worst_norm = worst_v = 0.0
    sign_ok = True
    for st in test_states:
        n = norm_squared(st)
        ref_n = quad_norm(st)
        worst_norm = max(worst_norm, abs(n - ref_n) / ref_n)
        v = potential_expectation(st, norm=n)
        ref_v = quad_potential(st, norm=ref_n)
        worst_v = max(worst_v, abs(v - ref_v) / abs(ref_v))
        sign_ok = sign_ok and (v * st.c > 0)
    v_zero = potential_expectation(solve_state(QuantumLabel(2, 2), 0.0))
    v8 = potential_expectation(solved(2, 2, -8.0))
    v50 = potential_expectation(solved(2, 2, -50.0))
    ok = (
        worst_simplex < 1e-8
        and worst_norm < 1e-4
        and worst_v < 1e-4
        and v_zero == 0.0
        and sign_ok
        and v50 > v8
    )
    report(
        7,
        ok,
        f"simplex rel {worst_simplex:.1e}; norm rel {worst_norm:.1e}; <V> rel {worst_v:.1e}; "
        f"<V>(0)={v_zero}; <V>(-50)={v50:.2f} > <V>(-8)={v8:.2f}",
    )


def test_criterion_8_structure():
    grid = density_grid(solved(0, 0, -9.0), 32)
    vertex_max_ok = grid.density[grid.vertex_mask()].max() == grid.density.max()
    grid = density_grid(solved(0, 2, -9.0), 32)
    edge_ok = grid.density[grid.edge_mask()].mean() > grid.density[grid.interior_mask()].mean()
    pref00 = dimer_prefactor(solved(0, 0, -40.0))
    pref11 = dimer_prefactor(solved(1, 1, -40.0))
    ok = vertex_max_ok and edge_ok and abs(pref00 - 3.0) < 0.03 and abs(pref11) > 100.0
    report(
        8,
        ok,
        f"(0,0) vertex max={vertex_max_ok}, (0,2) edge>interior={edge_ok}, "
        f"prefactor(0,0)={pref00:.6f}, |prefactor(1,1)|={abs(pref11):.2e}",
    )


def test_criterion_9_energy_level_shapes(traces):
    mono_ok = True
    for lab in ((0, 0), (1, 1)):
        es = [s.energy for s in traces[lab].samples if -10.0 <= s.c <= 0.0]
        mono_ok = mono_ok and all(a < b for a, b in zip(es, es[1:]))
    e00 = traces[(0, 0)].sample_at(-10.0).energy
    shape_ok = abs(e00 / (-2.0 * 100.0) - 1.0) < 0.10
    limits = {}
    for lab in ((2, 2), (3, 3)):
        for sgn in (1.0, -1.0):
            e_far = solve_state(QuantumLabel(*lab), sgn * 200.0).energy
            e_near = solve_state(QuantumLabel(*lab), sgn * 190.0).energy
            limits[(lab, sgn)] = (e_near, e_far)
    flat_ok = all(
        abs(far - near) / abs(far) < 0.01 for (near, far) in limits.values()
    )
    distinct_ok = (
        abs(limits[((2, 2), -1.0)][1] - limits[((3, 3), -1.0)][1]) > 1.0
        and abs(limits[((2, 2), 1.0)][1] - limits[((3, 3), 1.0)][1]) > 1.0
    )
    ok = mono_ok and shape_ok and flat_ok and distinct_ok
    report(
        9,
        ok,
        f"monotone={mono_ok}, E(0,0,-10)={e00:.2f} vs -2c^2=-200, "
        f"flat over last 10 units={flat_ok}, distinct limits={distinct_ok}",
    )
