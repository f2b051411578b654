import math
import os
import re
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest

import bethe3.continuation
import bethe3.equations as eq
from bethe3 import (
    BoundsViolationError,
    Branch,
    ComplexCoords,
    RealCoords,
    QuantumLabel,
    CriticalPoint,
    critical_point,
    partner_state,
    solve_state,
    spectrum,
    trace_root,
)
from bethe3.continuation import (
    RESIDUAL_TOL, branch_switch, complex_chart, find_critical, fold_coefficients,
    residual_complex, u0_equation,
)
from bethe3.model import build_state, partner_coords
from bethe3.oracles import log_form_residual
from bethe3.asymptotics import delta_small_c, dimer, small_c_slope, trimer

from conftest import sample_at

TWO_PI = 2 * math.pi


def branch_changes(traj):
    """Number of branch changes between consecutive samples of a trajectory."""
    return sum(1 for a, b in zip(traj.samples, traj.samples[1:]) if a.branch is not b.branch)


class TestCriticalClass:
    def test_classification(self):
        assert critical_point(QuantumLabel(2, 3)) is None
        assert critical_point(QuantumLabel(1, 5)) == find_critical(QuantumLabel(1, 5))
        assert critical_point(QuantumLabel(0, 2)) == CriticalPoint(C=0.0, u0=0.0)

    def test_partner_labels_classified_canonically(self):
        assert critical_point(QuantumLabel(5, 1)) == find_critical(QuantumLabel(1, 5))
        assert critical_point(QuantumLabel(3, 0)) == CriticalPoint(C=0.0, u0=0.0)


class TestFindCritical:
    def test_exact_11(self):
        crit = find_critical(QuantumLabel(1, 1))
        assert crit.C == -6.0 and crit.u0 == 0.0

    def test_lowest_critical_value(self):
        crit = find_critical(QuantumLabel(1, 2))
        assert crit.C == pytest.approx(-4.163, abs=5e-4)
        assert u0_equation(crit.u0, 2) == pytest.approx(0.0, abs=1e-11)

    def test_increasing_towards_minus_four(self):
        values = [find_critical(QuantumLabel(1, n2)).C for n2 in range(1, 9)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(-6.0 <= v < -4.0 for v in values)
        assert values[-1] > -4.02

    def test_matches_brentq_oracle(self):
        from scipy.optimize import brentq

        for n2 in range(2, 41):
            lo = -TWO_PI * n2 - 10.0
            u0 = brentq(u0_equation, lo, 0.0, args=(n2,), xtol=1e-14, rtol=8.9e-16)
            crit = find_critical(QuantumLabel(1, n2))
            assert crit.C == pytest.approx(-4.0 - 2.0 / (1.0 + u0 * u0), abs=1e-14)
            assert crit.u0 == pytest.approx(u0, rel=1e-14)

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            find_critical(QuantumLabel(2, 3))

    @pytest.mark.parametrize("n2", [2, 5])
    def test_bisection_fallback(self, n2, monkeypatch):
        # a thousandfold u0_equation has the same root, but every Newton step
        # of the fixed slope overshoots out of the bracket, so each step bisects
        calls = []

        def steep(u, n):
            calls.append(u)
            return 1e3 * u0_equation(u, n)

        ref = find_critical(QuantumLabel(1, n2))
        monkeypatch.setattr(bethe3.continuation, "u0_equation", steep)
        got = find_critical(QuantumLabel(1, n2))
        assert len(calls) > 40
        assert got.u0 == pytest.approx(ref.u0, rel=1e-14)
        assert got.C == pytest.approx(ref.C, rel=1e-15)


class TestBranchSwitch:
    def test_11_square_root_model(self):
        eps = 1e-4
        seed = branch_switch(QuantumLabel(1, 1), -6.0 - eps)
        assert seed.alpha == pytest.approx(math.sqrt(6 * eps), rel=1e-12)
        st = solve_state(QuantumLabel(1, 1), -6.0 - eps)
        assert st.coords.alpha == pytest.approx(math.sqrt(6 * eps), rel=2e-3)

    def test_00_square_root_model(self):
        eps = 1e-4
        seed = branch_switch(QuantumLabel(0, 0), -eps)
        assert seed.alpha == pytest.approx(math.sqrt(3 * eps), rel=1e-12)
        st = solve_state(QuantumLabel(0, 0), -eps)
        assert st.coords.alpha == pytest.approx(math.sqrt(3 * eps), rel=2e-3)

    def test_02_square_root_model(self):
        eps = 1e-4
        seed = branch_switch(QuantumLabel(0, 2), -eps)
        assert seed.alpha == pytest.approx(math.sqrt(eps), rel=1e-12)
        st = solve_state(QuantumLabel(0, 2), -eps)
        assert st.coords.alpha == pytest.approx(math.sqrt(eps), rel=2e-3)

    @pytest.mark.parametrize("n2", [0, 1, 2, 5])
    def test_small_c_series_above_zero(self, n2):
        label = QuantumLabel(0, n2)
        for c in (1e-12, 1e-6, 1e-3, 0.02, 0.05):
            model = branch_switch(label, c)
            assert model.branch is Branch.REAL_K
            for got, ref in zip(model, delta_small_c(label, c)):
                assert got == pytest.approx(ref, rel=1e-14), (n2, c)

    def test_11_square_root_model_above_C(self):
        for gap in (1e-12, 1e-6, 1e-3, 0.1, 0.5):
            c = -6.0 + gap
            model = branch_switch(QuantumLabel(1, 1), c)
            assert model.delta1 == model.delta2
            assert model.delta1 == pytest.approx(math.sqrt(6 * (c + 6)), rel=1e-14)

    @pytest.mark.parametrize("n2", [2, 3, 9, 40])
    def test_fold_relation_above_C(self, n2):
        label = QuantumLabel(1, n2)
        crit = find_critical(label)
        kc, _ = fold_coefficients(crit.u0)
        for gap in (1e-12, 1e-6, 1e-3, 0.05):
            c = crit.C + gap
            model = branch_switch(label, c, crit)
            assert model.branch is Branch.REAL_K and model.delta1 > 0.0
            assert crit.C + kc * (model.delta1 / c) ** 2 == pytest.approx(c, rel=1e-14)

    def test_seed_converges_quickly_below_C(self):
        crit = find_critical(QuantumLabel(1, 2))
        c = crit.C - 1e-3
        seed = branch_switch(QuantumLabel(1, 2), c, crit)
        res = eq.newton_solve(
            lambda x, *_: eq.family1_residual_beta(x[0], x[1], c, 2),
            lambda x, *_: eq.family1_jacobian_beta(x[0], x[1], c),
            [seed.alpha + c / 2.0, seed.gamma],
        )
        assert res.iterations <= 10
        assert -c / 2.0 + res.root[0] == pytest.approx(seed.alpha, rel=5e-3)

    @pytest.mark.parametrize("lab", [(2, 1), (1, 0)])
    @pytest.mark.parametrize("gap", [1e-3, -1e-3])
    def test_partner_model_in_own_frame(self, lab, gap):
        # a partner label's model is its canonical partner's, mapped by
        # partner_coords as solve_state maps the root, so build_state takes it
        label = QuantumLabel(*lab)
        c = critical_point(label).C + gap
        model = branch_switch(label, c)
        # repr is exact for floats, names the coords type and tells -0.0 from 0.0
        assert repr(model) == repr(partner_coords(branch_switch(label.partner(), c)))
        assert build_state(label, c, model).coords == model
        st = solve_state(label, c)
        assert model.branch is st.branch and model.p == st.coords.p
        assert st.coords == pytest.approx(model, rel=5e-3)


class TestTraceRoot:
    def test_22_real_throughout_with_asymptotes(self, solve_cached):
        traj = trace_root(QuantumLabel(2, 2), -40.0, 40.0, step=0.5)
        assert branch_changes(traj) == 0
        assert all(s.branch is Branch.REAL_K for s in traj.samples)
        st = solve_cached(2, 2, -1000.0)
        assert st.coords.delta1 == pytest.approx(TWO_PI * 1.006, rel=1e-4)
        st = solve_cached(2, 2, 1000.0)
        assert st.coords.delta1 == pytest.approx(3 * TWO_PI * 0.994, rel=1e-4)

    def test_11_branch_structure(self):
        traj = trace_root(QuantumLabel(1, 1), -40.0, 1.0, step=0.5)
        assert traj.critical.C == -6.0
        assert branch_changes(traj) == 1
        for s in traj.samples:
            if s.branch is Branch.COMPLEX_K:
                assert s.c < -6.0
                assert s.coords.gamma == 0.0
            else:
                assert s.c > -6.0
        st = sample_at(traj, -40.0)
        target = 20.0 + 3 * (-40.0) * math.exp(-20.0)
        assert abs(st.coords.alpha - target) < 1e-6

    def test_00_branch_structure(self):
        traj = trace_root(QuantumLabel(0, 0), -40.0, 1.0, step=0.5)
        assert branch_changes(traj) == 1
        st = sample_at(traj, -40.0)
        eta = st.coords.alpha - 40.0
        assert eta == pytest.approx(-6 * (-40.0) * math.exp(-40.0), rel=1e-6, abs=1e-12)

    def test_samples_monotone_and_conserving(self):
        traj = trace_root(QuantumLabel(1, 2), -9.0, 1.0, step=0.25)
        cs = traj.couplings()
        assert np.all(np.diff(cs) > 0)
        p = TWO_PI * traj.label.np
        assert max(abs(s.momenta.total - p) for s in traj.samples) < 1e-10

    def test_integer_ends_give_float_couplings(self):
        # the ends are off the 0.7 grid, so they are samples of their own
        traj = trace_root(QuantumLabel(2, 3), -1, 2, 0.7)
        assert [s.c for s in traj.samples] == [-1.0, -0.7, 0.0, 0.7, 1.4, 2.0]
        assert all(type(s.c) is float for s in traj.samples)
        assert all(type(s.c) is float for s in trace_root(QuantumLabel(1, 1), -8, -4, 1).samples)

    def test_energy_nondecreasing_in_c(self):
        # Hellmann-Feynman: dE/dc = 2 <sum delta(x_i - x_j)> >= 0 on every branch
        for n1 in range(5):
            for n2 in range(5):
                samples = trace_root(QuantumLabel(n1, n2), -20.0, 20.0, 0.1).samples
                for a, b in zip(samples, samples[1:]):
                    slack = 1e-12 * max(abs(a.energy), abs(b.energy))
                    assert b.energy >= a.energy - slack, ((n1, n2), a.c, b.c)

    def test_validation_rejects_disorder_and_a_second_branch_change(self):
        traj = trace_root(QuantumLabel(1, 2), -6.0, -3.0, step=0.5)
        assert branch_changes(traj) == 1
        s = traj.samples
        swapped = traj._replace(samples=[s[1], s[0]] + s[2:])
        with pytest.raises(BoundsViolationError, match="not strictly monotone in c"):
            bethe3.continuation._validate_trajectory(swapped)
        back = solve_state(QuantumLabel(0, 0), -2.5)  # complex after the real samples
        with pytest.raises(BoundsViolationError, match="branch tag changed more than once"):
            bethe3.continuation._validate_trajectory(traj._replace(samples=s + [back]))

    def test_real_branch_delta_bounds(self):
        for label in (QuantumLabel(1, 2), QuantumLabel(2, 3)):
            traj = trace_root(label, -3.9, 3.0, step=0.3)
            for s in traj.samples:
                if s.branch is not Branch.REAL_K or s.c == 0.0:
                    continue
                for d, n in ((s.coords.delta1, label.n1), (s.coords.delta2, label.n2)):
                    if s.c > 0:
                        assert TWO_PI * n - math.pi - 1e-9 <= d <= TWO_PI * (n + 1) + 1e-9
                    else:
                        assert TWO_PI * (n - 1) - 1e-9 < d <= TWO_PI * n + math.pi + 1e-9

    def test_small_c_slope_matches_series(self):
        h = 1e-3
        for (n1, n2) in [(1, 1), (1, 2), (2, 3)]:
            st = solve_state(QuantumLabel(n1, n2), h)
            slope = (st.coords.delta1 - TWO_PI * n1) / h
            assert slope == pytest.approx(small_c_slope(n1, n2), rel=2e-2)

    @pytest.mark.parametrize("lab", [(0, 0), (1, 1), (2, 2), (3, 3)])
    def test_diagonal_equality_and_gamma_zero(self, lab):
        # n1 = n2 is solved in the same charts as every other label; the exact
        # symmetry of its equations keeps delta1 == delta2 and gamma == 0 bit for bit
        traj = trace_root(QuantumLabel(*lab), -12.0, 12.0, step=0.05)
        for s in traj.samples:
            if s.branch is Branch.REAL_K:
                assert s.coords.delta1 == s.coords.delta2, s.c
            else:
                assert s.coords.gamma == 0.0, s.c

    def test_2d_solver_agrees_with_scalar_on_diagonal(self):
        # spec invariant: the coupled system's root has delta1 = delta2
        for c in (1.0, -2.0, 5.0):
            st = solve_state(QuantumLabel(2, 2), c)
            res = eq.newton_solve(
                lambda x, *_: eq.residual_real_thetasum(x[0], x[1], c, 2, 2),
                lambda x, *_: eq.jacobian_real_thetasum(x[0], x[1], c),
                [st.coords.delta1 + 0.05, st.coords.delta2 - 0.03],
                tol=1e-13,
            )
            assert abs(res.root[0] - res.root[1]) < 1e-12
            assert res.root[0] == pytest.approx(st.coords.delta1, abs=1e-11)

    def test_sample_at_off_the_grid_raises(self):
        traj = trace_root(QuantumLabel(2, 3), -1.0, 1.0, step=0.5)
        assert sample_at(traj, 0.5).c == 0.5
        with pytest.raises(KeyError, match="no sample at c=0.25"):
            sample_at(traj, 0.25)

    def test_partner_trace_is_mirror(self):
        traj = trace_root(QuantumLabel(2, 1), -2.0, 1.0, step=0.5)
        base = trace_root(QuantumLabel(1, 2), -2.0, 1.0, step=0.5)
        assert traj.label == QuantumLabel(2, 1)
        for s, b in zip(traj.samples, base.samples):
            assert s.energy == pytest.approx(b.energy, abs=1e-11)
            assert s.coords.p == -b.coords.p
            assert s.coords.delta1 == b.coords.delta2

    def test_log_form_agrees_along_real_trajectories(self):
        # the theta-sum roots meet the independent log form, each argument
        # continued outward from the c = 0 root, down to the fold and out to |c| = 40
        for (lab, c_min) in [((1, 2), -4.16), ((1, 3), -4.07), ((2, 3), -40.0), ((3, 5), -40.0)]:
            traj = trace_root(QuantumLabel(*lab), c_min, 40.0, step=0.25)
            assert log_form_residual(traj) < 1e-9, lab

    def test_log_form_sees_a_root_on_the_wrong_branch(self):
        traj = trace_root(QuantumLabel(2, 3), -4.0, 4.0, step=0.5)
        wrong = [s._replace(coords=s.coords._replace(delta1=s.coords.delta1 + TWO_PI))
                 if s.c == 2.0 else s for s in traj.samples]
        assert log_form_residual(traj._replace(samples=wrong)) > 1.0


class TestGammaBounds:
    def test_family1_wide_bound_everywhere(self):
        # the gamma equation confines 3*(argU + argV) = 3*gamma + 2*pi*(n2-1)
        # to (-3*pi, 3*pi) for right-half-plane factors
        for n2 in (2, 3):
            for c_off in (1e-3, 1.0, 5.0, 20.0):
                crit = find_critical(QuantumLabel(1, n2))
                st = solve_state(QuantumLabel(1, n2), crit.C - c_off)
                g = st.coords.gamma
                assert -math.pi < g + TWO_PI * (n2 - 1) / 3.0 < math.pi

    def test_family1_narrow_bound_asymptotically(self):
        # the principal-branch window holds in the deep regime
        for n2 in (2, 3, 4):
            st = solve_state(QuantumLabel(1, n2), -30.0)
            g = st.coords.gamma
            assert -(4 * n2 - 1) * math.pi / 6.0 < g < -(4 * n2 - 7) * math.pi / 6.0

    def test_family1_narrow_bound_fails_at_critical(self):
        # gamma(C) = -C*u0/3 sits outside the narrow window for (1,2),
        # by the critical-point relations themselves
        crit = find_critical(QuantumLabel(1, 2))
        g_at_c = -crit.C * crit.u0 / 3.0
        assert not (-(4 * 2 - 1) * math.pi / 6.0 < g_at_c < -(4 * 2 - 7) * math.pi / 6.0)
        st = solve_state(QuantumLabel(1, 2), crit.C - 1e-4)
        assert st.coords.gamma == pytest.approx(g_at_c, rel=1e-2)

    def test_family0_wide_bound(self):
        for n2 in (1, 2, 3):
            for c in (-0.5, -5.0, -20.0):
                st = solve_state(QuantumLabel(0, n2), c)
                g = st.coords.gamma
                assert -math.pi < g + TWO_PI * n2 / 3.0 < math.pi

    def test_sign_constraints_at_roots(self):
        st = solve_state(QuantumLabel(1, 2), -25.0)
        a = st.coords.alpha
        assert (-(-25.0) - 2 * a) > 0 and (-(-25.0) + 2 * a) > 0
        st = solve_state(QuantumLabel(0, 2), -25.0)
        assert 2 * st.coords.alpha + (-25.0) >= 0

    def test_trimer_sheet_rejects_positive_gamma(self):
        # family 0 takes the principal arg(-3*gamma + i(alpha + c)), which is
        # off its cut only while gamma <= 0
        sheet = bethe3.continuation._trimer_sheet
        lab, c = QuantumLabel(0, 2), -5.0
        st = solve_state(lab, c)
        assert st.coords.gamma < 0.0
        sheet(lab, c, st.coords)
        sheet(lab, c, st.coords._replace(gamma=0.0))
        with pytest.raises(BoundsViolationError, match="gamma"):
            sheet(lab, c, st.coords._replace(gamma=1e-12))

    @pytest.mark.parametrize("c, deltas", [
        (2.0, (TWO_PI - math.pi - 0.1, TWO_PI * 2)),   # c > 0: delta1 below 2*pi*n1 - pi
        (-2.0, (TWO_PI, TWO_PI * 2 + math.pi + 0.1)),  # c < 0: delta2 above 2*pi*n2 + pi
        (0.0, (TWO_PI + 1e-6, TWO_PI * 2)),            # c = 0: delta_j = 2*pi*n_j exactly
    ])
    def test_real_sheet_rejects_a_delta_outside_its_window(self, c, deltas):
        lab = QuantumLabel(1, 2)
        with pytest.raises(BoundsViolationError, match="delta bound broken"):
            bethe3.continuation._real_sheet(lab, c, RealCoords(*deltas, lab.p))

    @pytest.mark.parametrize("alpha", [0.0, 2.5 + 1e-9])
    def test_dimer_sheet_rejects_alpha_outside_its_window(self, alpha):
        # 0 < alpha <= -c/2 on the (1, n2) sheet
        lab, c = QuantumLabel(1, 2), -5.0
        with pytest.raises(BoundsViolationError, match=r"\(1,n2\) sheet broken"):
            bethe3.continuation._dimer_sheet(lab, c, ComplexCoords(alpha, -2.0, lab.p))


def _chart_residual(label, st):
    """inf-norm residual of a canonical label's state in the chart it solves in."""
    chart = bethe3.continuation.REAL if st.branch is Branch.REAL_K else complex_chart(label)
    chart.sheet(label, st.c, st.coords)
    return max(abs(v) for v in chart.residual(_unknowns(chart, st), label, st.c))


def _unknowns(chart, st):
    """A state's coordinates as its chart's unknowns x."""
    return (st.coords[0] + chart.shift * st.c, st.coords[1])


class TestThreshold:
    """At the threshold C the square-root model is the root: within 1e-13 of C
    it meets RESIDUAL_TOL on both sides, and at C it is the threshold root."""

    LABELS = [(1, 1), (1, 2), (1, 3), (1, 5), (1, 9), (1, 40), (0, 0), (0, 1), (0, 3)]

    @pytest.mark.parametrize("lab", LABELS)
    def test_model_meets_tolerance_next_to_C(self, lab):
        label = QuantumLabel(*lab)
        crit = critical_point(label)
        for gap in (1e-13, 3e-14, -3e-14, -1e-13):
            c = crit.C + gap
            st = build_state(label, c, branch_switch(label, c, crit))
            assert st.branch is (Branch.REAL_K if gap > 0 else Branch.COMPLEX_K)
            assert _chart_residual(label, st) < RESIDUAL_TOL, (lab, gap)

    @pytest.mark.parametrize("lab", LABELS)
    def test_solve_state_at_C(self, lab):
        label = QuantumLabel(*lab)
        crit = critical_point(label)
        st = solve_state(label, crit.C)
        assert st.branch is Branch.REAL_K and st.coords.delta1 == 0.0
        if lab[0] == 1:
            assert st.coords.delta2 == pytest.approx(crit.C * crit.u0, rel=1e-15)
        else:
            assert st.coords.delta2 == TWO_PI * lab[1]
        assert _chart_residual(label, st) < 1e-14
        for gap in (9e-14, -9e-14):  # still within 1e-13: no corrector solve
            near = solve_state(label, crit.C + gap)
            assert _chart_residual(label, near) < RESIDUAL_TOL, (lab, gap)
        # E is continuous with the march on both sides
        for gap in (1e-9, -1e-9):
            assert abs(solve_state(label, crit.C + gap).energy - st.energy) < 2e-8, (lab, gap)

    @pytest.mark.parametrize("lab, below, above", [
        ((1, 1), 0.0, 0.1), ((1, 2), 5e-7, 5e-7), ((2, 1), 0.0, 0.0), ((0, 2), 1e-7, 0.0)])
    def test_trace_keeps_ends_next_to_C(self, lab, below, above):
        # requested ends within FOLD_MIN_SPAN of C (or at C) are samples too
        label = QuantumLabel(*lab)
        C = critical_point(label).C
        traj = trace_root(label, C - below, C + above)
        cs = traj.couplings()
        assert cs[0] == C - below and cs[-1] == C + above
        for s in traj.samples:
            canon = s if label.canonical() == label else partner_state(s)
            assert _chart_residual(label.canonical(), canon) < RESIDUAL_TOL, (lab, s.c)

    def test_diagonal_threshold_root_has_all_gaps_zero(self):
        st = solve_state(QuantumLabel(1, 1), -6.0)
        assert st.momenta == (0j, 0j, 0j) and st.energy == 0.0
        partner = solve_state(QuantumLabel(2, 1), find_critical(QuantumLabel(1, 2)).C)
        assert partner.label == QuantumLabel(2, 1) and partner.coords.delta2 == 0.0


class TestNegativeOnlyRange:
    def test_trace_crossing_C_without_zero(self):
        traj = trace_root(QuantumLabel(1, 2), -6.0, -3.0, step=0.25)
        assert branch_changes(traj) == 1
        assert traj.couplings()[0] == -6.0
        assert traj.couplings()[-1] == -3.0


class TestSpectrum:
    def test_reference_levels(self):
        labels = [QuantumLabel(n, n) for n in range(4)]
        result = spectrum(labels, 0.0)
        expected = [0.0, 8 * math.pi ** 2, 32 * math.pi ** 2, 72 * math.pi ** 2]
        assert not result.failures
        got = [s.energy for s in result.states]
        assert got == pytest.approx(expected, rel=1e-13)

    def test_deep_attractive_split(self):
        labels = [QuantumLabel(n, n) for n in range(4)]
        result = spectrum(labels, -35.0)
        by_label = {s.label: s.energy for s in result.states}
        assert by_label[QuantumLabel(0, 0)] < -2000
        assert by_label[QuantumLabel(1, 1)] < -500
        # the top two stay finite, approaching 2*(2*pi*(n-1))^2 from above
        assert 8 * math.pi ** 2 < by_label[QuantumLabel(2, 2)] < 16 * math.pi ** 2
        assert 32 * math.pi ** 2 < by_label[QuantumLabel(3, 3)] < 64 * math.pi ** 2
        assert result.states[0].label == QuantumLabel(0, 0)

    def test_degeneracy_property(self):
        for c in (-3.0, 1.5):
            e1 = solve_state(QuantumLabel(0, 1), c).energy
            e2 = solve_state(QuantumLabel(1, 0), c).energy
            assert e1 == pytest.approx(e2, abs=1e-10)

    def test_partner_inclusion(self):
        result = spectrum([QuantumLabel(1, 2)], -1.0, include_partners=True)
        assert len(result.states) == 2
        assert {s.label for s in result.states} == {QuantumLabel(1, 2), QuantumLabel(2, 1)}

    def test_repeated_labels_solved_once(self):
        a, b = QuantumLabel(1, 2), QuantumLabel(2, 1)
        result = spectrum([a, b, a], -5.0, include_partners=True)
        assert sorted((s.label.n1, s.label.n2) for s in result.states) == [(1, 2), (2, 1)]
        assert len(spectrum([a, a], -5.0).states) == 1

    def test_repeated_labels_and_partners_solve_each_label_once(self, monkeypatch):
        # a label is skipped once solved, added as a partner, or failed
        solve, calls = bethe3.continuation.solve_state, []

        def counting(label, c):
            calls.append(label)
            if label == QuantumLabel(5, 5):
                raise ValueError("stub failure")
            return solve(label, c)

        monkeypatch.setattr(bethe3.continuation, "solve_state", counting)
        L = QuantumLabel
        labels = [L(1, 2), L(2, 1), L(1, 2), L(2, 2), L(5, 5), L(2, 2), L(0, 1), L(3, 4),
                  L(5, 5), L(4, 3), L(0, 1), L(1, 0)]
        result = spectrum(labels, -5.0, include_partners=True)
        assert calls == [L(1, 2), L(2, 2), L(5, 5), L(0, 1), L(3, 4)]
        assert sorted(s.label for s in result.states) == sorted(
            [L(1, 2), L(2, 1), L(2, 2), L(0, 1), L(1, 0), L(3, 4), L(4, 3)])
        assert list(result.failures) == [L(5, 5)]
        calls.clear()
        result = spectrum(labels, -5.0)
        assert calls == [L(1, 2), L(2, 1), L(2, 2), L(5, 5), L(0, 1), L(3, 4), L(4, 3), L(1, 0)]
        assert [s.energy for s in result.states] == sorted(solve(lab, -5.0).energy for lab in set(calls)
                                                            if lab != L(5, 5))

    def test_per_label_failure_collection(self):
        # the trimer's eta reaches the subnormal floor before c = -1000; that
        # label fails but the batch still returns the others
        result = spectrum([QuantumLabel(0, 0), QuantumLabel(2, 2)], -1000.0)
        assert QuantumLabel(0, 0) in result.failures
        assert len(result.states) == 1
        assert result.states[0].label == QuantumLabel(2, 2)


class TestRandomizedSweep:
    def test_solve_anywhere(self):
        # catch-all: random labels and couplings across every class; every
        # accepted root must meet the residual, conservation, and sheet rules
        # |c| <= 12 keeps the public (alpha, gamma) residual reconstruction
        # well-conditioned (eta, beta >> eps*alpha); deeper states are solved
        # in the shifted unknowns and checked separately below
        rng = np.random.default_rng(2718)
        for _ in range(25):
            n1 = int(rng.integers(0, 4))
            n2 = int(rng.integers(0, 5))
            c = float(rng.uniform(-12.0, 8.0))
            label = QuantumLabel(n1, n2)
            lab = label.canonical()
            if lab.n1 == 1 and abs(c - find_critical(lab).C) < 1e-3:
                continue
            st = solve_state(label, c)
            assert abs(st.momenta.total - TWO_PI * label.np) < 1e-10
            if st.branch is Branch.REAL_K:
                r = eq.residual_real_thetasum(
                    st.coords.delta1, st.coords.delta2, c, lab.n1, lab.n2
                )
                if label != lab:  # partner stores swapped gaps
                    r = eq.residual_real_thetasum(
                        st.coords.delta2, st.coords.delta1, c, lab.n1, lab.n2
                    )
            else:  # in the label's own frame, partners included
                r = residual_complex(st.coords.alpha, st.coords.gamma, c, label).residual
            assert max(abs(r[0]), abs(r[1])) < 1e-10, (label, c)

    def test_deep_public_residual_within_conditioning(self):
        # at c = -20 the trimer eta ~ 1e-7, so the alpha-subtraction loses
        # ~eps*|c|/eta ~ 1e-8; the reconstructed residual stays inside that
        for (lab, c, bound) in [((0, 1), -20.0, 1e-6), ((1, 2), -20.0, 1e-6)]:
            st = solve_state(QuantumLabel(*lab), c)
            r = residual_complex(st.coords.alpha, st.coords.gamma, c, QuantumLabel(*lab)).residual
            assert max(abs(r[0]), abs(r[1])) < bound


class TestSolveState:
    def test_exact_reference(self):
        st = solve_state(QuantumLabel(2, 3), 0.0)
        assert st.coords.delta1 == TWO_PI * 2
        assert st.coords.delta2 == TWO_PI * 3

    def test_near_critical_both_sides(self):
        crit = find_critical(QuantumLabel(1, 2))
        above = solve_state(QuantumLabel(1, 2), crit.C + 1e-6)
        below = solve_state(QuantumLabel(1, 2), crit.C - 1e-6)
        assert above.branch is Branch.REAL_K
        assert below.branch is Branch.COMPLEX_K
        assert above.coords.delta1 < 0.02
        assert below.coords.alpha < 0.01
        assert above.energy == pytest.approx(below.energy, abs=1e-3)

    def test_residuals_at_accepted_roots(self):
        for (lab, c) in [((1, 3), -2.0), ((0, 2), -9.0), ((1, 2), -20.0)]:
            st = solve_state(QuantumLabel(*lab), c)
            if st.branch is Branch.REAL_K:
                r = eq.residual_real_thetasum(
                    st.coords.delta1, st.coords.delta2, c, *lab
                )
            else:
                r = residual_complex(
                    st.coords.alpha, st.coords.gamma, c, QuantumLabel(*lab)
                ).residual
            assert max(abs(r[0]), abs(r[1])) < 1e-10

    @pytest.mark.parametrize("lab, c", [
        ((0, 0), -700.0), ((1, 1), -1000.0), ((1, 2), -1000.0), ((0, 2), -1000.0),
        ((0, 1), -400.0), ((0, 1), -700.0),
    ])
    def test_deep_attractive_states(self, lab, c):
        # beta/eta (and gamma for (0,1)) fall to 1e-150..1e-300 here: the
        # predictor compares signs where a product would underflow, and
        # family 0 forms eta^2 + 9*gamma^2 through hypot
        label = QuantumLabel(*lab)
        st = solve_state(label, c)
        ref = (trimer if lab in ((0, 0), (0, 1)) else dimer)(label, c).alpha
        assert st.branch is Branch.COMPLEX_K
        assert st.coords.alpha == pytest.approx(ref, rel=1e-12)
        assert abs(st.momenta.total - TWO_PI * label.np) < 1e-10

    @pytest.mark.parametrize("lab, c", [
        ((0, 0), -800.0), ((1, 2), -1500.0), ((1, 0), -800.0), ((2, 1), -1500.0),
    ])
    def test_subnormal_floor_error_names_label_and_c(self, lab, c):
        # beta/eta reach the subnormal floor (~1e-308) on the way to c; the
        # contract is a state or a typed error naming label, c and last good c
        try:
            st = solve_state(QuantumLabel(*lab), c)
        except (eq.ConstraintViolationError, eq.NoConvergenceError) as exc:
            assert re.search(rf"label \({lab[0]},{lab[1]}\) at c=-\d.*last good c=-\d", str(exc))
        else:
            assert st.c == c


def _values(st):
    co = st.coords
    pair = (co.delta1, co.delta2) if st.branch is Branch.REAL_K else (co.alpha, co.gamma)
    return (*pair, st.energy)


class TestStepControl:
    """The adaptive march against a fine-grid trace, its solve counts, and the
    floors it reports at once instead of retrying smaller steps."""

    @pytest.mark.parametrize("lab", [(0, 0), (0, 1), (1, 1), (1, 2), (0, 5), (2, 3), (3, 5)])
    def test_matches_fine_grid_trace(self, lab):
        # the 0.05 output grid bounds every step of the trace, so its samples
        # are reached by small steps all the way out from c = 0
        label = QuantumLabel(*lab)
        traj = trace_root(label, -40.0, 1000.0, step=0.05)
        for c in (-40.0, -12.0, 40.0, 1000.0):
            st, ref = solve_state(label, c), sample_at(traj, c)
            assert st.branch is ref.branch
            for a, b in zip(_values(st), _values(ref)):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (lab, c)

    def test_solve_counts(self, newton_counter):
        # the fixed schedule BASE_STEP*max(1, |c|/divisor) took 1586, 679 and
        # 2196 solves for these
        for lab, c, fixed, cut in [((2, 3), 1e4, 1586, 5), ((1, 2), -40.0, 679, 3),
                                   ((0, 1), -700.0, 2196, 5)]:
            newton_counter.calls = 0
            solve_state(QuantumLabel(*lab), c)
            assert newton_counter.calls <= fixed / cut, (lab, c, newton_counter.calls)

    @pytest.mark.parametrize("lab, solves, iterations", [
        ((2, 3), 480, 914), ((1, 2), 527, 1072), ((0, 1), 528, 758), ((2, 2), 480, 826),
        ((0, 0), 527, 682), ((1, 1), 525, 623), ((3, 3), 480, 482), ((0, 2), 528, 644),
        ((5, 0), 528, 642), ((2, 1), 527, 650)])
    def test_trace_corrector_work(self, lab, solves, iterations, newton_counter):
        # the corrector's work over one trace_sweep benchmark op, pinned so that
        # a change to the code around the solves leaves the march's steps and
        # Newton iterations as they are; with (0,2) on FAMILY0_BETA and the
        # partners (5,0) and (2,1) every chart and both frames are pinned
        trace_root(QuantumLabel(*lab), -12.0, 12.0, 0.05)
        assert newton_counter.calls == solves
        assert newton_counter.iterations <= iterations

    @staticmethod
    def _fail_from(monkeypatch, first, last):
        """Make corrector calls first..last (1-based) raise NoConvergenceError."""
        solve, calls = eq.newton_solve, []

        def failing(*args):
            calls.append(args)
            if first <= len(calls) <= last:
                raise eq.NoConvergenceError("injected failure", args[2], None, 0)
            return solve(*args)

        monkeypatch.setattr(eq, "newton_solve", failing)
        return calls

    def test_corrector_failure_retried_with_a_smaller_step(self, monkeypatch):
        label = QuantumLabel(2, 3)
        ref = solve_state(label, 40.0)
        calls = self._fail_from(monkeypatch, 5, 5)
        st = solve_state(label, 40.0)
        assert len(calls) > 5
        for a, b in zip(_values(st), _values(ref)):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_corrector_failing_every_retry_raises(self, monkeypatch):
        # the retries shrink the step by STEP_GROWTH**2 until it falls below MIN_STEP
        calls = self._fail_from(monkeypatch, 5, math.inf)
        with pytest.raises(eq.NoConvergenceError) as err:
            solve_state(QuantumLabel(2, 3), 40.0)
        found = re.fullmatch(r"real-branch corrector failed for label \(2,3\) at c=(\S+) "
                             r"\(last good c=(\S+)\): injected failure", str(err.value))
        assert found, str(err.value)
        c_fail, c_good = float(found[1]), float(found[2])
        assert 0.0 < c_good < c_fail < c_good + 1e-7
        assert len(calls) > 6

    def test_residual_looked_up_by_module_attribute(self, newton_counter, monkeypatch):
        # the benchmark counts residual evaluations by replacing this name in
        # bethe3.equations, so the charts must look it up at call time
        calls = []
        residual = eq.residual_real_thetasum

        def counting(*args):
            calls.append(args)
            return residual(*args)

        monkeypatch.setattr(eq, "residual_real_thetasum", counting)
        trace_root(QuantumLabel(2, 3), -1.0, 1.0, 0.25)
        assert len(calls) > newton_counter.calls > 0

    @pytest.mark.parametrize("lab", [(0, 2), (0, 5), (5, 0)])
    @pytest.mark.parametrize("c", [-12.0, -40.0, -1000.0])
    def test_beta_predicted_without_sign_flip(self, lab, c, newton_counter):
        # beta falls from ~0.37 to ~0 near c = -2.5 with O(1) slope; a secant
        # across that drop would predict a negative beta and fail its guard
        solve_state(QuantumLabel(*lab), c)
        assert newton_counter.failures == 0

    @pytest.mark.parametrize("lab, c", [((1, 2), -9.0), ((2, 3), 40.0)])
    def test_residual_floor_raised_at_once(self, lab, c, newton_counter, monkeypatch):
        # below the attainable residual the first stalled solve ends the march
        monkeypatch.setattr(bethe3.continuation, "RESIDUAL_TOL", 1e-15)
        with pytest.raises(eq.ResidualFloorError) as err:
            solve_state(QuantumLabel(*lab), c)
        assert re.search(rf"label \({lab[0]},{lab[1]}\) at c=.*last good c=.*"
                         r"floor \|r\|=\d\.\d+e-1\d reached above tol=1\.0e-15", str(err.value))
        assert newton_counter.failures == 1

    @pytest.mark.parametrize("lab, c", [((0, 0), -800.0), ((1, 2), -1500.0)])
    def test_subnormal_floor_raised_at_once(self, lab, c, newton_counter):
        with pytest.raises(eq.ConstraintViolationError, match="below the smallest normal double"):
            solve_state(QuantumLabel(*lab), c)
        assert newton_counter.failures == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        label = QuantumLabel(1, 2)
        with pytest.raises(ValueError, match=f"^c must be finite, got {bad}$"):
            solve_state(label, bad)
        with pytest.raises(ValueError, match=f"^c must be finite, got {bad}$"):
            spectrum([label, QuantumLabel(2, 2)], bad)
        with pytest.raises(ValueError, match=f"^c_min must be finite, got {bad}$"):
            trace_root(label, bad, 1.0)
        with pytest.raises(ValueError, match=f"^c_max must be finite, got {bad}$"):
            trace_root(label, -1.0, bad)
        with pytest.raises(ValueError, match=f"^step must be finite, got {bad}$"):
            trace_root(label, -1.0, 1.0, step=bad)

    @pytest.mark.parametrize("bad", [(1, 2), "1,2", 1, None, [0, 0]])
    def test_non_label_rejected(self, bad, newton_counter):
        # a typed error naming the value, not an AttributeError from inside
        message = f"^label must be a QuantumLabel, got {re.escape(repr(bad))}$"
        with pytest.raises(TypeError, match=message):
            solve_state(bad, -3.0)
        with pytest.raises(TypeError, match=message):
            trace_root(bad, -1.0, 1.0, 0.5)
        with pytest.raises(TypeError, match=message):
            critical_point(bad)
        # a bare label is not iterated as a list of its two components
        with pytest.raises(TypeError, match=r"single label QuantumLabel\(n1=1, n2=2\)"):
            spectrum(QuantumLabel(1, 2), -3.0)
        # every entry is checked before any solve: collected as a failure,
        # (1, 2) hid the equal label after it, and [0, 0] is unhashable
        for labels, i in [([bad, QuantumLabel(1, 2)], 0), ([QuantumLabel(2, 2), bad], 1)]:
            with pytest.raises(TypeError, match=f"^labels\\[{i}\\] must be a QuantumLabel, got "
                                                f"{re.escape(repr(bad))}$"):
                spectrum(labels, -3.0)
        assert newton_counter.calls == 0

    @pytest.mark.parametrize("c_min, c_max, step, message", [
        (-1.0, 1.0, 0.0, "step must be positive"), (-1.0, 1.0, -0.05, "step must be positive"),
        (1.0, -1.0, 0.05, r"empty range \[1\.0, -1\.0\]")])
    def test_bad_grid_raised_before_any_solve(self, c_min, c_max, step, message, newton_counter):
        with pytest.raises(ValueError, match=message):
            trace_root(QuantumLabel(1, 2), c_min, c_max, step)
        assert newton_counter.calls == 0

    def test_grid_cap_raised_before_any_solve(self, newton_counter):
        with pytest.raises(ValueError, match="more than 1000000 samples"):
            trace_root(QuantumLabel(0, 0), 0.0, 1.0, step=1e-300)
        assert newton_counter.calls == 0


class TestGrid:
    """A decimal step's points are the doubles nearest the decimal grid,
    which for |c| <= 1000 are the points round(k * step, 12) always gave."""

    STEPS = [0.001, 0.002, 0.005, 0.01, 0.02, 0.025, 0.03, 0.05, 0.07, 0.1, 0.125, 0.15, 0.2,
             0.25, 0.3, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 1 / 3]

    @pytest.mark.parametrize("step", STEPS)
    def test_points_match_rounded_multiples(self, step):
        for c_min, c_max in [(-1000.0, -995.3), (-12.3, 12.2), (0.0, 7.77), (-3.3, 0.0),
                             (333.3, 345.6), (994.1, 1000.0)]:
            k_lo, k_hi = math.ceil(c_min / step - 1e-9), math.floor(c_max / step + 1e-9)
            want = {round(k * step, 12) for k in range(k_lo, k_hi + 1)} | {c_min, c_max}
            if c_min <= 0.0 <= c_max:
                want.add(0.0)
            assert bethe3.continuation._grid(None, c_min, c_max, step) == sorted(want)

    def test_far_point_is_exact(self):
        # round(-99999 * 0.1, 12) is -9999.900000000001, an ulp off
        assert -9999.9 in bethe3.continuation._grid(None, -10000.0, -9999.0, 0.1)

    @pytest.mark.parametrize("step", [1e-13, 2.5e-14, 3e-15])
    def test_exponent_step_is_decimal(self, step):
        # repr(step) has an exponent ('2.5e-14'): the points are still the
        # doubles nearest the decimal multiples, not round(k * step, 12)
        dec = Decimal(repr(step))
        k_hi = math.floor(1e-12 / step + 1e-9)
        want = {float(k * dec) for k in range(-k_hi, k_hi + 1)} | {-1e-12, 1e-12}
        assert bethe3.continuation._grid(None, -1e-12, 1e-12, step) == sorted(want)

    def test_step_below_rounding_digits(self):
        # round(k * 1e-13, 12) merged every point of this range into two
        traj = trace_root(QuantumLabel(2, 3), 1.0, 1.0 + 1e-12, 1e-13)
        cs = traj.couplings()
        assert len(cs) == 11 and cs == sorted(set(cs))
        assert cs[0] == 1.0 and cs[-1] == 1.0 + 1e-12


class TestLargeLabelsNextToC:
    """(1, n2) labels with C(1, n2) within 1e-5 of -4: the square-root model
    holds only far inside its 0.1 window, so the march drops it after the
    first model guess that is rejected for its predictor error."""

    @pytest.mark.parametrize("n2", [300, 400, 700, 3000])
    @pytest.mark.parametrize("c", [-5.0, -50.0])
    def test_solve_counts(self, n2, c, newton_counter):
        # with the model kept for the whole window, (1,400) at -5 took 1.08M
        # solves, and (1,700) and (1,3000) hit the residual floor on the way
        label = QuantumLabel(1, n2)
        st = solve_state(label, c)
        assert st.branch is Branch.COMPLEX_K and st.c == c
        if c == -5.0:  # at -50 the public alpha no longer holds beta's digits
            assert _chart_residual(label, st) < RESIDUAL_TOL
        assert newton_counter.calls <= 70, (n2, c, newton_counter.calls)

    def test_trace_solve_count(self, newton_counter):
        # 743,604 solves with the model kept for the whole window
        traj = trace_root(QuantumLabel(1, 400), -6.0, 1.0, 0.05)
        assert branch_changes(traj) == 1
        assert newton_counter.calls <= 400, newton_counter.calls

    def test_first_complex_solve_error_names_label_and_c(self):
        # (1,5000) stops at the residual floor in the first complex solve,
        # which starts from the model next to C
        C = find_critical(QuantumLabel(1, 5000)).C
        with pytest.raises(eq.ResidualFloorError) as err:
            solve_state(QuantumLabel(1, 5000), -50.0)
        assert re.fullmatch(rf"complex-branch corrector failed for label \(1,5000\) at c=-\S+ "
                            rf"\(last good c={re.escape(str(C))}\): residual floor .*",
                            str(err.value)), str(err.value)


class TestPartnerFrame:
    """A partner label marches its canonical partner's chart and builds each
    sample once in its own frame: bit-identical to partner_state applied to
    the canonical result, without calling it."""

    @staticmethod
    def _no_partner_state(monkeypatch):
        def forbidden(state):
            raise AssertionError("partner_state called by the march")

        monkeypatch.setattr(bethe3.continuation, "partner_state", forbidden)

    @pytest.mark.parametrize("lab", [(5, 0), (2, 1), (3, 1)])
    def test_trace_equals_mapped_canonical_trace(self, lab, monkeypatch):
        label = QuantumLabel(*lab)
        ref = [partner_state(s) for s in trace_root(label.canonical(), -12.0, 12.0, 0.05).samples]
        self._no_partner_state(monkeypatch)
        got = trace_root(label, -12.0, 12.0, 0.05).samples
        assert all(s.label == label for s in got)
        # repr is exact for floats and tells -0.0 from 0.0
        assert repr(got) == repr(ref)

    @pytest.mark.parametrize("lab", [(5, 0), (2, 1), (3, 1)])
    def test_states_equal_mapped_canonical_states(self, lab, monkeypatch):
        label = QuantumLabel(*lab)
        cs = [critical_point(label).C, 0.0, -40.0, 40.0]
        ref = [partner_state(solve_state(label.canonical(), c)) for c in cs]
        self._no_partner_state(monkeypatch)
        assert repr([solve_state(label, c) for c in cs]) == repr(ref)


class TestTracePredictor:
    """The cubic predictor on equally spaced trace grids, and the march that
    calls the square-root model branch_switch only next to the threshold."""

    # the 21 labels of the trace_sweep benchmark: complex below c = 0, a fold
    # at C(1, n2), and real for all c
    SWEEP = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 0),
             (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (3, 1),
             (2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)]

    @pytest.mark.parametrize("lab", [(2, 3), (0, 2)])
    def test_about_one_iteration_per_solve(self, lab, newton_counter, monkeypatch):
        # the secant took 1.88 Newton iterations per solve on these grids
        calls, events = [], []
        switch, solve = bethe3.continuation.branch_switch, eq.newton_solve

        def counting(*args):
            calls.append(args)
            events.append(None)
            return switch(*args)

        def solving(*args):
            res = solve(*args)
            events.append(res.iterations)
            return res

        monkeypatch.setattr(bethe3.continuation, "branch_switch", counting)
        monkeypatch.setattr(eq, "newton_solve", solving)
        traj = trace_root(QuantumLabel(*lab), -12.0, 12.0, 0.05)
        assert newton_counter.iterations <= 1.3 * newton_counter.calls, newton_counter
        # outside the model window (a solve not right after a branch_switch
        # call) the cubic and the secant predict: 1.00 iterations per solve
        # for (2,3), 1.17 for (0,2)
        outside = [it for prev, it in zip([0] + events, events)
                   if it is not None and prev is not None]
        assert sum(outside) <= 1.2 * len(outside), (sum(outside), len(outside))
        complex_samples = sum(s.branch is Branch.COMPLEX_K for s in traj.samples)
        # without the seed window the predictor calls it on every complex step
        assert len(calls) <= 0.2 * complex_samples, (len(calls), complex_samples)

    def test_trace_leaves_asymptotics_unloaded(self):
        # the march takes its threshold model from branch_switch; the printed
        # expansions in bethe3.asymptotics stay oracles that it never imports
        probe = ("import sys, bethe3\n"
                 "bethe3.trace_root(bethe3.QuantumLabel(0, 2), -1, 1, 0.05)\n"
                 "print('bethe3.asymptotics' in sys.modules)")
        src = os.path.dirname(os.path.dirname(bethe3.__file__))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "False"

    def test_integer_samples_equal_solve_state(self):
        # the trace takes the cubic, solve_state's adaptive march the secant
        for lab in self.SWEEP:
            label = QuantumLabel(*lab)
            traj = trace_root(label, -12.0, 12.0, 0.05)
            for c in range(-12, 13):
                if lab == (1, 1) and c == -6:
                    continue  # the critical point itself is not sampled
                st, ref = solve_state(label, float(c)), sample_at(traj, float(c))
                assert st.branch is ref.branch
                for a, b in zip(_values(st), _values(ref)):
                    assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (lab, c)

    @pytest.mark.parametrize("lab, c_min, c_max, step", [
        ((1, 1), -6.5, -5.5, 0.001), ((1, 2), -7.0, -3.0, 0.02)])
    def test_near_fold_small_steps(self, lab, c_min, c_max, step):
        # a quartic predictor failed the first of these; the grid runs through
        # the geometric fold refinement on both sides of C
        label = QuantumLabel(*lab)
        traj = trace_root(label, c_min, c_max, step)
        assert branch_changes(traj) == 1
        cont = bethe3.continuation
        for s in traj.samples:
            chart = cont.FAMILY1 if s.branch is Branch.COMPLEX_K else cont.REAL
            r = chart.residual(_unknowns(chart, s), label, s.c)
            assert max(abs(v) for v in r) < cont.RESIDUAL_TOL, (lab, s.c, r)
