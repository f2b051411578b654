import math

import numpy as np
import pytest

from bethe3 import (
    Branch,
    ComplexCoords,
    Momenta,
    QuantumLabel,
    RealCoords,
    partner_state,
    psi,
    solve_state,
)
from bethe3.model import build_state, deltas_from_k, k_from_deltas, np_from_label

TWO_PI = 2 * math.pi


def momenta(coords):
    """The momenta build_state makes from coords, at a label of the same p (0 or 2*pi)."""
    label = QuantumLabel(0, 0) if coords.p == 0.0 else QuantumLabel(0, 1)
    return build_state(label, -1.0, coords).momenta


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
        # and components that are not integers: a float label once died in
        # np_from_label with a bare KeyError, and True printed as (True,2)
        for n1, n2 in ((-1, 2), (-1, 0), (0, -1), (1.5, 2), (2, 1.0), (True, 2)):
            with pytest.raises(ValueError, match=rf"\({n1}, {n2}\)"):
                QuantumLabel(n1, n2)
        label = QuantumLabel(np.int64(1), 2)
        assert label == QuantumLabel(1, 2) and type(label.n1) is int and str(label) == "(1,2)"


class TestValueTypes:
    """Labels, coordinates and states are immutable, hashable named tuples."""

    def test_labels_as_keys_and_members(self):
        # spectrum's de-duplication and its failures dict rely on this
        labels = [QuantumLabel(1, 2), QuantumLabel(1, 2), QuantumLabel(2, 1)]
        assert len(set(labels)) == 2
        table = {QuantumLabel(1, 2): "a", QuantumLabel(2, 1): "b"}
        assert table[QuantumLabel(1, 2)] == "a" and QuantumLabel(2, 1) in table
        assert str(QuantumLabel(1, 2)) == "(1,2)"

    def test_coordinates_coerced_to_float(self):
        rc = RealCoords(np.float64(1.0), 2, 0)
        assert all(type(v) is float for v in (rc.delta1, rc.delta2, rc.p))
        cc = ComplexCoords(alpha=np.float64(3.0), gamma=0, p=np.int64(0))
        assert all(type(v) is float for v in (cc.alpha, cc.gamma, cc.p))
        assert rc.branch is RealCoords.branch is Branch.REAL_K
        assert cc.branch is ComplexCoords.branch is Branch.COMPLEX_K

    def test_states_immutable(self):
        st = solve_state(QuantumLabel(1, 2), -1.0)
        for obj, field in ((st, "c"), (st.coords, "delta1"), (st.label, "n1"),
                           (st.momenta, "k1")):
            with pytest.raises(AttributeError):
                setattr(obj, field, 0.0)
        with pytest.raises(AttributeError):
            st.coords.extra = 0.0


class TestDeltaConversions:
    def test_symmetric_case(self):
        m = k_from_deltas(0.0, TWO_PI, TWO_PI)
        assert m == (-TWO_PI, 0.0, TWO_PI)

    def test_equal_momenta(self):
        m = k_from_deltas(TWO_PI, 0.0, 0.0)
        for k in m:
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
        m = momenta(ComplexCoords(0.0, 0.0, 0.0))
        assert m == (0, 0, 0)

    def test_bound_pair_at_rest(self):
        m = momenta(ComplexCoords(1.0, 0.0, 0.0))
        assert m.k1 == 1j and m.k2 == -1j and m.k3 == 0

    def test_moving_case(self):
        p = TWO_PI
        m = momenta(ComplexCoords(2.0, -1.0, p))
        assert m.k1 == pytest.approx(complex(p / 3 - 1, 2), abs=1e-14)
        assert m.k2 == pytest.approx(complex(p / 3 - 1, -2), abs=1e-14)
        assert m.k3 == pytest.approx(complex(p / 3 + 2, 0), abs=1e-14)
        assert m.total == pytest.approx(p, abs=1e-12)
        coords = ComplexCoords(2.0, -1.0, p)
        assert m.energy() == pytest.approx(coords.energy(), rel=1e-13)

    def test_conjugate_invariant(self):
        m = momenta(ComplexCoords(0.7, 0.3, 0.0))
        assert m.k1 == m.k2.conjugate()
        assert m.k3.imag == 0.0


class TestEnergy:
    def test_free_ground_state(self):
        st = solve_state(QuantumLabel(0, 0), 0.0)
        assert st.energy == 0.0

    def test_reference_11(self):
        st = solve_state(QuantumLabel(1, 1), 0.0)
        assert st.energy == pytest.approx(8 * math.pi ** 2, rel=1e-14)
        assert st.momenta == (-TWO_PI, 0.0, TWO_PI)

    def test_complex_branch(self):
        coords = ComplexCoords(alpha=3.0, gamma=0.0, p=0.0)
        st = build_state(QuantumLabel(0, 0), -7.0, coords)
        assert st.energy == pytest.approx(-18.0, rel=1e-14)

    def test_triple_agreement_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d1, d2 = rng.uniform(0, 20, 2)
            rc = RealCoords(d1, d2, 0.0)
            assert rc.energy() == pytest.approx(momenta(rc).energy(), rel=1e-12)
            a, g = rng.uniform(0.1, 10), rng.uniform(-5, 5)
            cc = ComplexCoords(a, g, TWO_PI)
            assert cc.energy() == pytest.approx(momenta(cc).energy(), rel=1e-12)
            assert abs(sum(k ** 2 for k in momenta(cc)).imag) < 1e-10 * max(1, abs(cc.energy()))
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
        assert pt.momenta == st.momenta

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


class TestBuildStateChecks:
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling(self, c):
        with pytest.raises(ValueError, match="coupling must be finite"):
            build_state(QuantumLabel(0, 0), c, RealCoords(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("coords, message", [
        (RealCoords(1.0, 1.0, TWO_PI), "momentum sum"),
        (RealCoords(1e200, 1e200, 0.0), "energy formulas disagree"),
    ])
    def test_identity_checks(self, coords, message):
        # label (0,0) has p = 0; the second overflows sum(k^2) and the coordinate
        # energy to inf, whose difference is nan
        with pytest.raises(ValueError, match=message):
            build_state(QuantumLabel(0, 0), -1.0, coords)

    @pytest.mark.parametrize("coords", [(0.5, 0.5, 0.0), Momenta(0j, 0j, 0j)])
    def test_other_coordinate_types(self, coords):
        with pytest.raises(TypeError, match="RealCoords or ComplexCoords"):
            build_state(QuantumLabel(0, 0), -1.0, coords)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("make", [
    lambda v: build_state(QuantumLabel(0, 0), -1.0, RealCoords(*v)),
    lambda v: build_state(QuantumLabel(0, 0), -1.0, ComplexCoords(*v)),
    lambda v: k_from_deltas(v[2], v[0], v[1]),
    # the momenta route of the removed k_from_alpha_gamma, kept under its id
    lambda v: momenta(ComplexCoords(*v)),
    lambda v: psi(v, solve_state(QuantumLabel(1, 2), -2.0)),
], ids=["build_state-real", "build_state-complex", "k_from_deltas", "k_from_alpha_gamma", "psi"])
def test_non_finite_components_raise(make, slot, bad):
    # (0.5, 0.25, 0.0) is accepted: coordinates of label (0,0), or a point
    values = [0.5, 0.25, 0.0]
    make(values)
    values[slot] = bad
    with pytest.raises(ValueError):
        make(values)
