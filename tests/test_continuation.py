import math
import re

import numpy as np
import pytest

import bethe3.continuation
import bethe3.equations as eq
from bethe3 import (
    BoundsViolationError,
    Branch,
    QuantumLabel,
    CriticalPoint,
    branch_switch,
    critical_point,
    find_critical,
    partner_state,
    solve_state,
    spectrum,
    trace_root,
)
from bethe3.continuation import u0_equation
from bethe3.verify import log_form_residual
from bethe3.asymptotics import alpha_dimer, alpha_trimer, small_c_slope

TWO_PI = 2 * math.pi


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

    def test_seed_converges_quickly_below_C(self):
        crit = find_critical(QuantumLabel(1, 2))
        c = crit.C - 1e-3
        seed = branch_switch(QuantumLabel(1, 2), c, crit)
        res = eq.newton_solve(
            lambda x: eq.family1_residual_beta(x[0], x[1], c, 2),
            lambda x: eq.family1_jacobian_beta(x[0], x[1], c),
            [seed.alpha + c / 2.0, seed.gamma],
            guard=lambda x: c / 2.0 < x[0] < 0.0,
        )
        assert res.iterations <= 10
        assert -c / 2.0 + res.root[0] == pytest.approx(seed.alpha, rel=5e-3)


class TestTraceRoot:
    def test_22_real_throughout_with_asymptotes(self, solve_cached):
        traj = trace_root(QuantumLabel(2, 2), -40.0, 40.0, step=0.5)
        assert traj.branch_changes() == 0
        assert all(s.branch is Branch.REAL_K for s in traj.samples)
        st = solve_cached(2, 2, -1000.0)
        assert st.coords.delta1 == pytest.approx(TWO_PI * 1.006, rel=1e-4)
        st = solve_cached(2, 2, 1000.0)
        assert st.coords.delta1 == pytest.approx(3 * TWO_PI * 0.994, rel=1e-4)

    def test_11_branch_structure(self):
        traj = trace_root(QuantumLabel(1, 1), -40.0, 1.0, step=0.5)
        assert traj.critical.C == -6.0
        assert traj.branch_changes() == 1
        for s in traj.samples:
            if s.branch is Branch.COMPLEX_K:
                assert s.c < -6.0
                assert s.coords.gamma == 0.0
            else:
                assert s.c > -6.0
        st = traj.sample_at(-40.0)
        target = 20.0 + 3 * (-40.0) * math.exp(-20.0)
        assert abs(st.coords.alpha - target) < 1e-6

    def test_00_branch_structure(self):
        traj = trace_root(QuantumLabel(0, 0), -40.0, 1.0, step=0.5)
        assert traj.branch_changes() == 1
        st = traj.sample_at(-40.0)
        eta = st.coords.alpha - 40.0
        assert eta == pytest.approx(-6 * (-40.0) * math.exp(-40.0), rel=1e-6, abs=1e-12)

    def test_samples_monotone_and_conserving(self):
        traj = trace_root(QuantumLabel(1, 2), -9.0, 1.0, step=0.25)
        cs = traj.couplings()
        assert np.all(np.diff(cs) > 0)
        p = TWO_PI * traj.label.np
        assert max(abs(s.momenta.total - p) for s in traj.samples) < 1e-10

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

    def test_diagonal_equality_and_gamma_zero(self):
        traj = trace_root(QuantumLabel(2, 2), -10.0, 2.0, step=0.5)
        for s in traj.samples:
            assert s.coords.delta1 == s.coords.delta2
        traj = trace_root(QuantumLabel(1, 1), -12.0, 0.0, step=0.5)
        for s in traj.samples:
            if s.branch is Branch.COMPLEX_K:
                assert s.coords.gamma == 0.0

    def test_2d_solver_agrees_with_scalar_on_diagonal(self):
        # spec invariant: the coupled system's root has delta1 = delta2
        for c in (1.0, -2.0, 5.0):
            st = solve_state(QuantumLabel(2, 2), c)
            res = eq.newton_solve(
                lambda x: eq.residual_real_thetasum(x[0], x[1], c, 2, 2),
                lambda x: eq.jacobian_real_thetasum(x[0], x[1], c),
                [st.coords.delta1 + 0.05, st.coords.delta2 - 0.03],
                tol=1e-13,
            )
            assert abs(res.root[0] - res.root[1]) < 1e-12
            assert res.root[0] == pytest.approx(st.coords.delta1, abs=1e-11)

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


class TestNegativeOnlyRange:
    def test_trace_crossing_C_without_zero(self):
        traj = trace_root(QuantumLabel(1, 2), -6.0, -3.0, step=0.25)
        assert traj.branch_changes() == 1
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

    def test_per_label_failure_collection(self):
        # asking for a state exactly at its critical point fails but the
        # batch still returns the others
        result = spectrum([QuantumLabel(1, 1), QuantumLabel(2, 2)], -6.0)
        assert QuantumLabel(1, 1) in result.failures
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
            else:
                g = st.coords.gamma if label == lab else -st.coords.gamma
                r = eq.residual_complex(st.coords.alpha, g, c, lab).residual
            assert max(abs(r[0]), abs(r[1])) < 1e-10, (label, c)

    def test_deep_public_residual_within_conditioning(self):
        # at c = -20 the trimer eta ~ 1e-7, so the alpha-subtraction loses
        # ~eps*|c|/eta ~ 1e-8; the reconstructed residual stays inside that
        for (lab, c, bound) in [((0, 1), -20.0, 1e-6), ((1, 2), -20.0, 1e-6)]:
            st = solve_state(QuantumLabel(*lab), c)
            r = eq.residual_complex(st.coords.alpha, st.coords.gamma, c, QuantumLabel(*lab)).residual
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
                r = eq.residual_complex(
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
        ref = alpha_trimer(label, c)[0] if lab in ((0, 0), (0, 1)) else alpha_dimer(c, *lab)
        assert st.branch is Branch.COMPLEX_K
        assert st.coords.alpha == pytest.approx(ref, rel=1e-12)
        assert abs(st.momenta.total - TWO_PI * label.np) < 1e-10

    @pytest.mark.parametrize("lab, c", [((0, 0), -800.0), ((1, 2), -1500.0)])
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
            st, ref = solve_state(label, c), traj.sample_at(c)
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

    def test_grid_cap_raised_before_any_solve(self, newton_counter):
        with pytest.raises(ValueError, match="more than 1000000 samples"):
            trace_root(QuantumLabel(0, 0), 0.0, 1.0, step=1e-300)
        assert newton_counter.calls == 0
