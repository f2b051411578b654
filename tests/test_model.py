import math

import numpy as np
import pytest

from bethe3 import (
    ComplexCoords,
    Momenta,
    QuantumLabel,
    RealCoords,
    build_state,
    deltas_from_k,
    k_from_alpha_gamma,
    k_from_deltas,
    np_from_label,
    partner_state,
    solve_state,
)

TWO_PI = 2 * math.pi


class TestNpRule:
    def test_reference_cases(self):
        assert np_from_label(0, 0) == 0
        assert np_from_label(0, 1) == 1
        assert np_from_label(1, 0) == -1

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n1, n2 = rng.integers(0, 12, 2)
            a, b = np_from_label(n1, n2), np_from_label(n2, n1)
            if (n1 - n2) % 3 == 0:
                assert a == b == 0
            else:
                assert a == -b != 0

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            QuantumLabel(-1, 2)


class TestDeltaConversions:
    def test_symmetric_case(self):
        m = k_from_deltas(0.0, TWO_PI, TWO_PI)
        assert m.as_tuple() == (-TWO_PI, 0.0, TWO_PI)

    def test_equal_momenta(self):
        m = k_from_deltas(TWO_PI, 0.0, 0.0)
        for k in m.as_tuple():
            assert k == pytest.approx(TWO_PI / 3, abs=1e-15)

    def test_direct_arithmetic(self):
        m = k_from_deltas(TWO_PI, TWO_PI, 2 * TWO_PI)
        assert m.k1.real == pytest.approx(-TWO_PI, abs=1e-12)
        assert m.k2.real == pytest.approx(0.0, abs=1e-12)
        assert m.k3.real == pytest.approx(2 * TWO_PI, abs=1e-12)
        assert m.total.real == pytest.approx(TWO_PI, abs=1e-12)
        # and the round trip reproduces the inputs
        p, d1, d2 = deltas_from_k(m)
        assert (p, d1, d2) == pytest.approx((TWO_PI, TWO_PI, 2 * TWO_PI), abs=1e-13)

    def test_inverse_examples(self):
        assert deltas_from_k(Momenta(-TWO_PI, 0, TWO_PI)) == pytest.approx((0.0, TWO_PI, TWO_PI))
        assert deltas_from_k(Momenta(0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_roundtrip_property(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            k = np.sort(rng.uniform(-50, 50, 3))
            p, d1, d2 = k.sum(), k[1] - k[0], k[2] - k[1]
            m = k_from_deltas(p, d1, d2)
            p2, e1, e2 = deltas_from_k(m)
            worst = max(worst, abs(p2 - p), abs(e1 - d1), abs(e2 - d2))
        assert worst < 1e-13

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            deltas_from_k(Momenta(1.0, 0.5, 2.0))
        with pytest.raises(ValueError):
            deltas_from_k(Momenta(1j, -1j, 0))

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            k_from_deltas(0.0, -1.0, 2.0)


class TestAlphaGamma:
    def test_origin(self):
        m = k_from_alpha_gamma(0.0, 0.0, 0.0)
        assert m.as_tuple() == (0, 0, 0)

    def test_bound_pair_at_rest(self):
        m = k_from_alpha_gamma(0.0, 1.0, 0.0)
        assert m.k1 == 1j and m.k2 == -1j and m.k3 == 0

    def test_moving_case(self):
        p = TWO_PI
        m = k_from_alpha_gamma(p, 2.0, -1.0)
        assert m.k1 == pytest.approx(complex(p / 3 - 1, 2), abs=1e-14)
        assert m.k2 == pytest.approx(complex(p / 3 - 1, -2), abs=1e-14)
        assert m.k3 == pytest.approx(complex(p / 3 + 2, 0), abs=1e-14)
        assert m.total == pytest.approx(p, abs=1e-12)
        coords = ComplexCoords(2.0, -1.0, p)
        assert m.energy() == pytest.approx(coords.energy(), rel=1e-13)

    def test_conjugate_invariant(self):
        m = k_from_alpha_gamma(0.0, 0.7, 0.3)
        assert m.k1 == m.k2.conjugate()
        assert m.k3.imag == 0.0


class TestEnergy:
    def test_free_ground_state(self):
        st = solve_state(QuantumLabel(0, 0), 0.0)
        assert st.energy == 0.0

    def test_reference_11(self):
        st = solve_state(QuantumLabel(1, 1), 0.0)
        assert st.energy == pytest.approx(8 * math.pi ** 2, rel=1e-14)
        assert st.momenta.as_tuple() == (-TWO_PI, 0.0, TWO_PI)

    def test_complex_branch(self):
        coords = ComplexCoords(alpha=3.0, gamma=0.0, p=0.0)
        st = build_state(QuantumLabel(0, 0), -7.0, coords)
        assert st.energy == pytest.approx(-18.0, rel=1e-14)

    def test_triple_agreement_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d1, d2 = rng.uniform(0, 20, 2)
            rc = RealCoords(d1, d2, 0.0)
            assert rc.energy() == pytest.approx(rc.momenta().energy(), rel=1e-12)
            a, g = rng.uniform(0.1, 10), rng.uniform(-5, 5)
            cc = ComplexCoords(a, g, TWO_PI)
            assert cc.energy() == pytest.approx(cc.momenta().energy(), rel=1e-12)
            assert cc.momenta().energy_imag_defect() < 1e-10 * max(1, abs(cc.energy()))
            # third route: the delta-form evaluated with the complex gaps
            delta1 = -2j * a
            delta2 = 1j * a - 3 * g
            e_delta = (TWO_PI ** 2 + 2 * (delta1 ** 2 + delta2 ** 2 + delta1 * delta2)) / 3
            assert abs(e_delta.imag) < 1e-10 * max(1, abs(e_delta.real))
            assert e_delta.real == pytest.approx(cc.energy(), rel=1e-12)


class TestPartner:
    def test_swap_and_momentum_flip(self):
        st = solve_state(QuantumLabel(0, 1), 0.0)
        pt = partner_state(st)
        assert pt.label == QuantumLabel(1, 0)
        assert st.coords.p == pytest.approx(TWO_PI)
        assert pt.coords.p == pytest.approx(-TWO_PI)
        assert pt.energy == pytest.approx(st.energy, abs=1e-12)

    def test_diagonal_self_partner(self):
        st = solve_state(QuantumLabel(1, 1), 0.0)
        pt = partner_state(st)
        assert pt.label == st.label
        assert pt.momenta.as_tuple() == st.momenta.as_tuple()

    def test_complex_branch_partner(self):
        coords = ComplexCoords(alpha=1.5, gamma=-0.8, p=TWO_PI)
        st = build_state(QuantumLabel(0, 1), -5.0, coords)
        pt = partner_state(st)
        assert pt.coords.alpha == st.coords.alpha
        assert pt.coords.gamma == -st.coords.gamma
        assert pt.coords.p == -st.coords.p
        assert pt.energy == pytest.approx(st.energy, abs=1e-12)
        # negated momenta, re-canonicalized: conjugate pair still Im>0 first
        assert pt.momenta.k1.imag > 0

    def test_momentum_sum_invariant(self):
        for (n1, n2) in [(0, 0), (0, 2), (1, 1), (2, 3)]:
            st = solve_state(QuantumLabel(n1, n2), 0.0)
            p = TWO_PI * st.label.np
            assert abs(st.momenta.total - p) < 1e-10
