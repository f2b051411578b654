import cmath
import math

import numpy as np
import pytest

from bethe3 import (
    Branch,
    ComplexCoords,
    Momenta,
    QuantumLabel,
    RealCoords,
    amplitudes,
    build_state,
    dimer_prefactor,
    jump_residual,
    partner_state,
    periodicity_residual,
    psi,
    psi_ordered,
    solve_state,
)
from bethe3.wavefunction import ClassificationError, DegenerateMomentaError

TWO_PI = 2 * math.pi


def representative_states():
    return [
        solve_state(QuantumLabel(2, 2), -3.0),
        solve_state(QuantumLabel(1, 2), -2.0),
        solve_state(QuantumLabel(1, 1), 2.0),
        solve_state(QuantumLabel(0, 2), 1.0),
        solve_state(QuantumLabel(2, 3), -30.0),
        solve_state(QuantumLabel(0, 0), -9.0),
        solve_state(QuantumLabel(1, 1), -8.0),
        solve_state(QuantumLabel(0, 2), -9.0),
        solve_state(QuantumLabel(1, 2), -7.0),
        solve_state(QuantumLabel(0, 1), -12.0),
    ]


class TestAmplitudes:
    def test_free_case_all_ones(self):
        st = solve_state(QuantumLabel(1, 2), 0.0)
        a = amplitudes(st.momenta, 0.0)
        for _, val in a.items():
            assert val == pytest.approx(1.0 + 0j, abs=1e-14)

    def test_impenetrable_limit(self):
        m = Momenta(-TWO_PI, 0.0, TWO_PI)
        a = amplitudes(m, 1e14)
        assert a[(1, 0, 2)] == pytest.approx(-1.0, abs=1e-12)

    def test_unimodular_for_real_momenta(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = np.sort(rng.uniform(-20, 20, 3))
            if min(k[1] - k[0], k[2] - k[1]) < 1e-6:
                continue
            a = amplitudes(Momenta(*[complex(v) for v in k]), rng.uniform(-5, 5))
            for _, val in a.items():
                assert abs(abs(val) - 1.0) < 1e-12

    def test_degenerate_momenta_error(self):
        with pytest.raises(DegenerateMomentaError):
            amplitudes(Momenta(0.0, 0.0, TWO_PI), -2.0)


class TestPsi:
    def test_free_ground_state_constant(self):
        st = solve_state(QuantumLabel(0, 0), 0.0)
        for pt in [(0.1, 0.7, 0.3), (0.0, 0.0, 0.0), (0.9, 0.2, 0.5)]:
            assert psi(pt, st) == pytest.approx(6.0 + 0j, abs=1e-13)

    def test_total_symmetry(self):
        st = solve_state(QuantumLabel(1, 2), -2.0)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(0, 1, 3)
            base = psi(tuple(x), st)
            for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                assert psi(tuple(x[list(perm)]), st) == pytest.approx(base, rel=1e-12)

    def test_explicit_form_00_and_11(self):
        # psi = sum e^{alpha r} + (2a-c)/(2a+c) sum e^{-alpha r} up to a constant
        rng = np.random.default_rng(13)
        for (lab, c) in [((0, 0), -9.0), ((1, 1), -8.0)]:
            st = solve_state(QuantumLabel(*lab), c)
            alpha = st.coords.alpha
            pref = (2 * alpha - c) / (2 * alpha + c)
            ratios = []
            for _ in range(20):
                x = np.sort(rng.uniform(0, 1, 3))
                r12, r23 = x[1] - x[0], x[2] - x[1]
                r31 = 1 + x[0] - x[2]
                explicit = sum(math.exp(alpha * r) for r in (r12, r23, r31)) + pref * sum(
                    math.exp(-alpha * r) for r in (r12, r23, r31)
                )
                ratios.append(psi_ordered(st, *x) / explicit)
            ratios = np.array(ratios)
            assert np.max(np.abs(ratios - ratios[0])) < 1e-9 * abs(ratios[0])

    def test_center_of_mass_phase(self):
        # shifting all coordinates by s multiplies psi by e^{i p s}
        st = solve_state(QuantumLabel(0, 1), -5.0)
        p = st.coords.p
        x = np.array([0.12, 0.35, 0.77])
        base = psi(tuple(x), st)
        for s in (0.11, 0.4, 0.83):
            shifted = psi(tuple((x + s) % 1.0), st)
            assert shifted == pytest.approx(base * cmath.exp(1j * p * s), rel=1e-10)
        st0 = solve_state(QuantumLabel(1, 1), -8.0)
        base = abs(psi(tuple(x), st0))
        for s in (0.2, 0.6):
            assert abs(psi(tuple((x + s) % 1.0), st0)) == pytest.approx(base, rel=1e-10)


class TestBoundaryConditions:
    def test_solved_states_satisfy_jump_and_periodicity(self):
        rng = np.random.default_rng(17)
        for st in representative_states():
            worst = 0.0
            for _ in range(20):
                a, b = np.sort(rng.uniform(0, 1, 2))
                worst = max(worst, jump_residual(st, a, b), jump_residual(st, b, a))
                worst = max(worst, periodicity_residual(st, a, b))
            assert worst < 1e-9, f"{st.label} at c={st.c}: {worst}"

    def test_free_case_trivial(self):
        st = solve_state(QuantumLabel(0, 0), 0.0)
        assert jump_residual(st, 0.3, 0.8) == pytest.approx(0.0, abs=1e-14)
        assert periodicity_residual(st, 0.3, 0.8) == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_state_sensitivity(self):
        st = solve_state(QuantumLabel(2, 2), -3.0)
        defects = []
        for eps in (1e-6, 2e-6, 4e-6):
            coords = RealCoords(st.coords.delta1 + eps, st.coords.delta2 + eps, 0.0)
            bad = build_state(st.label, st.c, coords)
            defects.append(periodicity_residual(bad, 0.3, 0.7))
        assert defects[0] > 1e-8  # visible defect
        assert defects[1] / defects[0] == pytest.approx(2.0, rel=0.3)
        assert defects[2] / defects[1] == pytest.approx(2.0, rel=0.3)


class TestRealityAndFiniteness:
    def test_diagonal_real_branch_states_are_real_up_to_phase(self):
        rng = np.random.default_rng(21)
        for (n, c) in [(1, 2.0), (2, -3.0), (3, 1.0)]:
            st = solve_state(QuantumLabel(n, n), c)
            values = np.array([psi(p, st) for p in rng.uniform(0, 1, (50, 3))])
            # rotate by the phase of the largest value; the imaginary parts left must vanish
            ref = values[np.argmax(np.abs(values))]
            assert np.max(np.abs((values / (ref / abs(ref))).imag)) < 1e-9

    def test_complex_branch_values_bounded(self):
        st = solve_state(QuantumLabel(0, 2), -9.0)
        alpha = st.coords.alpha
        bound = 6.0 * max(abs(v) for _, v in amplitudes(st.momenta, st.c).items())
        bound *= math.exp(alpha)
        rng = np.random.default_rng(29)
        for _ in range(200):
            val = psi(tuple(rng.uniform(0, 1, 3)), st)
            assert np.isfinite(val.real) and np.isfinite(val.imag)
            assert abs(val) <= bound


class TestDimerTrimer:
    def test_real_branch_rejected(self):
        st = solve_state(QuantumLabel(2, 2), -3.0)
        with pytest.raises(ClassificationError):
            dimer_prefactor(st)

    def test_prefactor_limits(self):
        st = solve_state(QuantumLabel(0, 0), -40.0)
        assert dimer_prefactor(st) == pytest.approx(3.0, rel=1e-2)
        st = solve_state(QuantumLabel(1, 1), -40.0)
        assert abs(dimer_prefactor(st)) > 100.0

    def test_trimer_dominates_deep_00(self):
        st = solve_state(QuantumLabel(0, 0), -9.0)
        grid_x = (0.0, 1.0, 1.0)  # vertex: all three together
        mid = (0.0, 1.0 / 3.0, 2.0 / 3.0)
        assert abs(psi_ordered(st, *grid_x)) > 50 * abs(psi_ordered(st, *mid))


class TestPartnerWavefunction:
    def test_partner_is_conjugate(self):
        st = solve_state(QuantumLabel(0, 1), -5.0)
        pt = partner_state(st)
        rng = np.random.default_rng(31)
        # relative densities match after conjugation at mirrored coordinates
        for _ in range(10):
            x = np.sort(rng.uniform(0, 1, 3))
            v = psi_ordered(st, *x)
            w = psi_ordered(pt, *(1.0 - x[::-1]))
            assert abs(w) == pytest.approx(abs(v), rel=1e-9)
