import math

import pytest

import bethe3.asymptotics as asym
from bethe3 import QuantumLabel, solve_state
from bethe3.model import partner_coords
from bethe3.observables import simplex_integral_exponents

TWO_PI = 2 * math.pi
L11, L22 = QuantumLabel(1, 1), QuantumLabel(2, 2)


class TestDeltaLargeC:
    def test_paper_values(self):
        assert asym.delta_large_c(L22, 1000.0).delta1 == pytest.approx(3 * TWO_PI * 0.994, rel=1e-12)
        assert asym.delta_large_c(L22, -1000.0).delta1 == pytest.approx(TWO_PI * 1.006, rel=1e-12)

    def test_solver_agreement_at_200(self, solve_cached):
        st = solve_cached(2, 2, 200.0)
        assert st.coords.delta1 == pytest.approx(asym.delta_large_c(L22, 200.0).delta1, rel=5e-3)
        st = solve_cached(2, 2, -200.0)
        assert st.coords.delta1 == pytest.approx(asym.delta_large_c(L22, -200.0).delta1, rel=5e-3)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            asym.delta_large_c(L22, 5.0)
        with pytest.raises(ValueError):
            asym.delta_large_c(L11, -100.0)
        with pytest.raises(ValueError, match=r"got \(3,1\)"):
            asym.delta_large_c(QuantumLabel(3, 1), -100.0)


class TestDimer:
    def test_gamma_family1(self):
        got = asym.dimer(QuantumLabel(1, 2), -40.0).gamma
        assert got == pytest.approx(-(TWO_PI / 3) * 1.2, rel=1e-12)

    def test_gamma_family0(self):
        got = asym.dimer(QuantumLabel(0, 3), -40.0).gamma
        assert got == pytest.approx(-math.pi * 1.2, rel=1e-12)

    def test_alpha_11_exponential_correction(self, solve_cached):
        # |alpha(-40) - (-c/2 + 3c e^{c/2})| below 1e-12 (second order is ~6e-14)
        st = solve_cached(1, 1, -40.0)
        assert abs(st.coords.alpha - asym.dimer(L11, -40.0).alpha) < 1e-12

    def test_correction_ratio_tends_to_one(self, solve_cached):
        # (alpha + c/2) / (3 c e^{c/2}) -> 1
        for c, tol in ((-30.0, 0.02), (-40.0, 0.02)):
            st = solve_cached(1, 1, c)
            ratio = (st.coords.alpha + c / 2.0) / (3.0 * c * math.exp(c / 2.0))
            assert ratio == pytest.approx(1.0, abs=tol)

    def test_beta_sign_flip_between_families(self, solve_cached):
        b1 = solve_cached(1, 2, -30.0).coords.alpha - 15.0
        b0 = solve_cached(0, 2, -30.0).coords.alpha - 15.0
        assert b1 < 0 < b0
        assert b1 == pytest.approx(asym.beta_dimer(QuantumLabel(1, 2), -30.0), rel=0.2)
        assert b0 == pytest.approx(asym.beta_dimer(QuantumLabel(0, 2), -30.0), rel=0.2)

    def test_gamma_vs_solver(self, solve_cached):
        st = solve_cached(1, 2, -40.0)
        assert st.coords.gamma == pytest.approx(asym.dimer(st.label, -40.0).gamma, rel=0.04)
        st = solve_cached(0, 2, -40.0)
        assert st.coords.gamma == pytest.approx(asym.dimer(st.label, -40.0).gamma, rel=0.04)
        st = solve_cached(0, 3, -40.0)
        assert asym.dimer(st.label, -40.0).gamma == pytest.approx(-math.pi * 1.2, rel=1e-12)
        assert st.coords.gamma == pytest.approx(-math.pi * 1.2, rel=0.04)

    def test_label_checks(self):
        for lab in ((0, 0), (0, 1), (1, 0), (2, 2), (3, 2)):
            with pytest.raises(ValueError, match="no dimer branch"):
                asym.dimer(QuantumLabel(*lab), -30.0)
        with pytest.raises(ValueError, match="no dimer branch"):
            asym.beta_dimer(QuantumLabel(2, 5), -30.0)


class TestTrimer:
    def test_00_eta(self, solve_cached):
        st = solve_cached(0, 0, -30.0)
        a, g, _ = asym.trimer(st.label, -30.0)
        assert g == 0.0
        assert st.coords.alpha == pytest.approx(a, abs=1e-12)

    def test_01_gamma_vanishes(self, solve_cached):
        st = solve_cached(0, 1, -20.0)
        assert abs(st.coords.gamma) < 1e-6

    def test_01_eta_gamma_relations(self, solve_cached):
        # eta = 3 c e^c and gamma = sqrt(3) c e^c, so eta/gamma -> tan(pi/3);
        # both negative, and eta^2 + 9 gamma^2 = 36 c^2 e^{2c} e^{-2 eta}
        c = -20.0
        st = solve_cached(0, 1, c)
        eta = st.coords.alpha + c
        gamma = st.coords.gamma
        assert eta < 0 and gamma < 0
        assert eta / gamma == pytest.approx(math.tan(math.pi / 3), rel=5e-2)
        lhs = eta * eta + 9.0 * gamma * gamma
        rhs = 36.0 * c * c * math.exp(2 * c) * math.exp(-2 * eta)
        assert lhs == pytest.approx(rhs, rel=5e-2)
        a, g, _ = asym.trimer(st.label, c)
        assert st.coords.alpha == pytest.approx(a, abs=1e-7)
        assert gamma == pytest.approx(g, rel=1e-4)

    def test_01_ratio_at_minus_30(self, solve_cached):
        st = solve_cached(0, 1, -30.0)
        eta = st.coords.alpha + (-30.0)
        assert eta / st.coords.gamma == pytest.approx(math.sqrt(3.0), rel=5e-2)

    def test_label_checks(self):
        for lab in ((0, 2), (1, 1), (1, 2), (2, 0)):
            with pytest.raises(ValueError, match="no trimer branch"):
                asym.trimer(QuantumLabel(*lab), -30.0)
            with pytest.raises(ValueError, match="no trimer branch"):
                asym.eta_trimer(QuantumLabel(*lab), -30.0)


class TestSmallC:
    def test_reference(self):
        assert asym.delta_small_c(L11, 0.0) == (TWO_PI, TWO_PI, 0.0)

    def test_zero_family_series(self):
        d1, d2, _ = asym.delta_small_c(QuantumLabel(0, 2), 0.01)
        assert d1 == pytest.approx(0.2, rel=1e-12)
        assert d2 == pytest.approx(2 * TWO_PI - 0.1 + 3 * 0.04 / (8 * math.pi), rel=1e-12)

    def test_solver_agreement(self):
        for (n1, n2) in [(1, 1), (1, 2), (2, 3)]:
            for c in (0.01, -0.01):
                st = solve_state(QuantumLabel(n1, n2), c)
                d1, d2, _ = asym.delta_small_c(QuantumLabel(n1, n2), c)
                assert st.coords.delta1 == pytest.approx(d1, abs=1e-4)
                assert st.coords.delta2 == pytest.approx(d2, abs=1e-4)
        st = solve_state(QuantumLabel(0, 2), 0.01)
        d1, d2, _ = asym.delta_small_c(QuantumLabel(0, 2), 0.01)
        assert st.coords.delta1 == pytest.approx(d1, abs=2e-4)
        assert st.coords.delta2 == pytest.approx(d2, abs=2e-4)

    def test_regime_guards(self):
        with pytest.raises(ValueError):
            asym.delta_small_c(L11, 0.2)
        with pytest.raises(ValueError):
            asym.delta_small_c(QuantumLabel(0, 2), -0.01)


class TestRegimeAgreementSweep:
    """Every oracle agrees with the traced root in its stated regime."""

    def test_alpha_formulas_at_30(self, solve_cached):
        for lab in ((1, 1), (1, 2), (0, 2)):
            st = solve_cached(*lab, -30.0)
            assert st.coords.alpha == pytest.approx(asym.dimer(st.label, -30.0).alpha, rel=5e-3)
        st = solve_cached(0, 0, -30.0)
        assert st.coords.alpha == pytest.approx(asym.trimer(st.label, -30.0).alpha, rel=5e-3)


class TestPartnerFrame:
    """A partner label (n1 > n2) gets its canonical partner's answer mapped by
    partner_coords, the map solve_state uses: equal to it exactly, and to the
    solved state within the tolerances of the canonical tests above."""

    @staticmethod
    def _mapped(oracle, label, c):
        # repr is exact for floats, names the coords type and tells -0.0 from 0.0
        got = oracle(label, c)
        assert repr(got) == repr(partner_coords(oracle(label.partner(), c))), (label, c)
        return got

    @pytest.mark.parametrize("lab", [(1, 0), (2, 1), (5, 1), (2, 0), (5, 0)])
    @pytest.mark.parametrize("c", [-30.0, -40.0])
    def test_deep_states(self, lab, c, solve_cached):
        label = QuantumLabel(*lab)
        st = solve_cached(*lab, c)
        if lab == (1, 0):
            got = self._mapped(asym.trimer, label, c)
            assert asym.eta_trimer(label, c) == asym.eta_trimer(label.partner(), c)
            assert st.coords.alpha == pytest.approx(got.alpha, abs=1e-7)
            assert st.coords.gamma == pytest.approx(got.gamma, rel=1e-4)
        else:
            got = self._mapped(asym.dimer, label, c)
            assert asym.beta_dimer(label, c) == asym.beta_dimer(label.partner(), c)
            assert st.coords.alpha == pytest.approx(got.alpha, rel=5e-3)
            if c == -40.0:
                assert st.coords.gamma == pytest.approx(got.gamma, rel=0.04)
        assert got.p == st.coords.p

    @pytest.mark.parametrize("lab, tol", [((2, 0), 2e-4), ((3, 1), 1e-4), ((5, 2), 1e-4)])
    def test_small_c(self, lab, tol):
        label = QuantumLabel(*lab)
        got = self._mapped(asym.delta_small_c, label, 0.01)
        st = solve_state(label, 0.01)
        assert st.coords == pytest.approx(got, abs=tol)

    @pytest.mark.parametrize("lab", [(3, 2), (5, 3)])
    @pytest.mark.parametrize("c", [200.0, -200.0])
    def test_large_c(self, lab, c):
        label = QuantumLabel(*lab)
        got = self._mapped(asym.delta_large_c, label, c)
        st = solve_state(label, c)
        assert st.coords == pytest.approx(got, rel=5e-3)


NAN, INF = math.nan, math.inf
L01, L02, L12 = QuantumLabel(0, 1), QuantumLabel(0, 2), QuantumLabel(1, 2)


@pytest.mark.parametrize("call, match", [
    (lambda: asym.delta_large_c(L22, NAN), "got nan"),
    (lambda: asym.beta_dimer(L12, NAN), "got nan"),
    (lambda: asym.dimer(L11, NAN).alpha, "got nan"),
    (lambda: asym.dimer(L02, NAN).alpha, "got nan"),
    (lambda: asym.dimer(L12, NAN).gamma, "got nan"),
    (lambda: asym.eta_trimer(QuantumLabel(0, 0), NAN), "got nan"),
    (lambda: asym.trimer(L01, NAN).alpha, "got nan"),
    (lambda: asym.delta_small_c(L11, NAN), "got nan"),
    (lambda: asym.delta_large_c(L22, INF), "got inf"),
    (lambda: asym.delta_large_c(L22, -INF), "got -inf"),
    (lambda: asym.beta_dimer(L12, -INF), "got -inf"),
    (lambda: asym.dimer(L11, -INF).alpha, "got -inf"),
    (lambda: asym.dimer(L02, -INF).alpha, "got -inf"),
    (lambda: asym.dimer(L12, -INF).gamma, "got -inf"),
    (lambda: asym.eta_trimer(QuantumLabel(0, 0), -INF), "got -inf"),
    (lambda: asym.trimer(L01, -INF).alpha, "got -inf"),
    (lambda: asym.delta_small_c(L11, INF), "got inf"),
    (lambda: simplex_integral_exponents(NAN, 1.0, -1.0), r"finite, got \(nan"),
    (lambda: simplex_integral_exponents(1.0, complex(-1.0, NAN), 0.0), "finite"),
    (lambda: simplex_integral_exponents(INF, 1.0, -1.0), r"finite, got \(inf"),
], ids=["delta_large_c", "beta_dimer", "alpha_dimer-11", "alpha_dimer-02", "gamma_dimer",
        "eta_trimer", "alpha_trimer", "delta_small_c", "delta_large_c-inf",
        "delta_large_c-minus-inf", "beta_dimer-minus-inf", "alpha_dimer-11-minus-inf",
        "alpha_dimer-02-minus-inf", "gamma_dimer-minus-inf", "eta_trimer-minus-inf",
        "alpha_trimer-minus-inf", "delta_small_c-inf", "simplex-nan", "simplex-nan-imag",
        "simplex-inf"])
def test_non_finite_input_raises(call, match):
    # a nan or an infinite c fails every regime guard, as an out-of-regime c
    # does, instead of passing through to a nan result or a finite limit; the
    # simplex integral names the exponents (ids name the value checked: the
    # alpha or gamma of a dimer or trimer)
    with pytest.raises(ValueError, match=match):
        call()
