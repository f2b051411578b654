import math

import pytest

import bethe3.asymptotics as asym
from bethe3 import QuantumLabel, solve_state
from bethe3.observables import simplex_integral_exponents

TWO_PI = 2 * math.pi


class TestDeltaLargeC:
    def test_paper_values(self):
        assert asym.delta_large_c(2, 1000.0) == pytest.approx(3 * TWO_PI * 0.994, rel=1e-12)
        assert asym.delta_large_c(2, -1000.0) == pytest.approx(TWO_PI * 1.006, rel=1e-12)

    def test_solver_agreement_at_200(self, solve_cached):
        st = solve_cached(2, 2, 200.0)
        assert st.coords.delta1 == pytest.approx(asym.delta_large_c(2, 200.0), rel=5e-3)
        st = solve_cached(2, 2, -200.0)
        assert st.coords.delta1 == pytest.approx(asym.delta_large_c(2, -200.0), rel=5e-3)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            asym.delta_large_c(2, 5.0)
        with pytest.raises(ValueError):
            asym.delta_large_c(1, -100.0)


class TestDimer:
    def test_gamma_family1(self):
        got = asym.gamma_dimer(2, -40.0, family=1)
        assert got == pytest.approx(-(TWO_PI / 3) * 1.2, rel=1e-12)

    def test_gamma_family0(self):
        got = asym.gamma_dimer(3, -40.0, family=0)
        assert got == pytest.approx(-math.pi * 1.2, rel=1e-12)

    def test_alpha_11_exponential_correction(self, solve_cached):
        # |alpha(-40) - (-c/2 + 3c e^{c/2})| below 1e-12 (second order is ~6e-14)
        st = solve_cached(1, 1, -40.0)
        assert abs(st.coords.alpha - asym.alpha_dimer(-40.0, 1, 1)) < 1e-12

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
        assert b1 == pytest.approx(asym.beta_dimer(-30.0, 1), rel=0.2)
        assert b0 == pytest.approx(asym.beta_dimer(-30.0, 0), rel=0.2)

    def test_gamma_vs_solver(self, solve_cached):
        st = solve_cached(1, 2, -40.0)
        assert st.coords.gamma == pytest.approx(asym.gamma_dimer(2, -40.0, 1), rel=0.04)
        st = solve_cached(0, 2, -40.0)
        assert st.coords.gamma == pytest.approx(asym.gamma_dimer(2, -40.0, 0), rel=0.04)
        st = solve_cached(0, 3, -40.0)
        assert asym.gamma_dimer(3, -40.0, 0) == pytest.approx(-math.pi * 1.2, rel=1e-12)
        assert st.coords.gamma == pytest.approx(-math.pi * 1.2, rel=0.04)


class TestTrimer:
    def test_00_eta(self, solve_cached):
        st = solve_cached(0, 0, -30.0)
        a, g = asym.alpha_trimer(QuantumLabel(0, 0), -30.0)
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
        a, g = asym.alpha_trimer(QuantumLabel(0, 1), c)
        assert st.coords.alpha == pytest.approx(a, abs=1e-7)
        assert gamma == pytest.approx(g, rel=1e-4)

    def test_01_ratio_at_minus_30(self, solve_cached):
        st = solve_cached(0, 1, -30.0)
        eta = st.coords.alpha + (-30.0)
        assert eta / st.coords.gamma == pytest.approx(math.sqrt(3.0), rel=5e-2)


class TestSmallC:
    def test_reference(self):
        assert asym.delta_small_c(QuantumLabel(1, 1), 0.0) == (TWO_PI, TWO_PI)

    def test_zero_family_series(self):
        d1, d2 = asym.delta_small_c(QuantumLabel(0, 2), 0.01)
        assert d1 == pytest.approx(0.2, rel=1e-12)
        assert d2 == pytest.approx(2 * TWO_PI - 0.1 + 3 * 0.04 / (8 * math.pi), rel=1e-12)

    def test_solver_agreement(self):
        for (n1, n2) in [(1, 1), (1, 2), (2, 3)]:
            for c in (0.01, -0.01):
                st = solve_state(QuantumLabel(n1, n2), c)
                d1, d2 = asym.delta_small_c(QuantumLabel(n1, n2), c)
                assert st.coords.delta1 == pytest.approx(d1, abs=1e-4)
                assert st.coords.delta2 == pytest.approx(d2, abs=1e-4)
        st = solve_state(QuantumLabel(0, 2), 0.01)
        d1, d2 = asym.delta_small_c(QuantumLabel(0, 2), 0.01)
        assert st.coords.delta1 == pytest.approx(d1, abs=2e-4)
        assert st.coords.delta2 == pytest.approx(d2, abs=2e-4)

    def test_regime_guards(self):
        with pytest.raises(ValueError):
            asym.delta_small_c(QuantumLabel(1, 1), 0.2)
        with pytest.raises(ValueError):
            asym.delta_small_c(QuantumLabel(0, 2), -0.01)


class TestRegimeAgreementSweep:
    """Every oracle agrees with the traced root in its stated regime."""

    def test_alpha_formulas_at_30(self, solve_cached):
        st = solve_cached(1, 1, -30.0)
        assert st.coords.alpha == pytest.approx(asym.alpha_dimer(-30.0, 1, 1), rel=5e-3)
        st = solve_cached(1, 2, -30.0)
        assert st.coords.alpha == pytest.approx(asym.alpha_dimer(-30.0, 1, 2), rel=5e-3)
        st = solve_cached(0, 2, -30.0)
        assert st.coords.alpha == pytest.approx(asym.alpha_dimer(-30.0, 0, 2), rel=5e-3)
        st = solve_cached(0, 0, -30.0)
        a, _ = asym.alpha_trimer(QuantumLabel(0, 0), -30.0)
        assert st.coords.alpha == pytest.approx(a, rel=5e-3)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call, match", [
    (lambda: asym.delta_large_c(2, NAN), "got nan"),
    (lambda: asym.beta_dimer(NAN, 1), "got nan"),
    (lambda: asym.alpha_dimer(NAN, 1, 1), "got nan"),
    (lambda: asym.alpha_dimer(NAN, 0, 2), "got nan"),
    (lambda: asym.gamma_dimer(2, NAN, 1), "got nan"),
    (lambda: asym.eta_trimer(NAN, 0), "got nan"),
    (lambda: asym.alpha_trimer(QuantumLabel(0, 1), NAN), "got nan"),
    (lambda: asym.delta_small_c(QuantumLabel(1, 1), NAN), "got nan"),
    (lambda: asym.delta_large_c(2, INF), "got inf"),
    (lambda: asym.delta_large_c(2, -INF), "got -inf"),
    (lambda: asym.beta_dimer(-INF, 1), "got -inf"),
    (lambda: asym.alpha_dimer(-INF, 1, 1), "got -inf"),
    (lambda: asym.alpha_dimer(-INF, 0, 2), "got -inf"),
    (lambda: asym.gamma_dimer(2, -INF, 1), "got -inf"),
    (lambda: asym.eta_trimer(-INF, 0), "got -inf"),
    (lambda: asym.alpha_trimer(QuantumLabel(0, 1), -INF), "got -inf"),
    (lambda: asym.delta_small_c(QuantumLabel(1, 1), INF), "got inf"),
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
    # simplex integral names the exponents
    with pytest.raises(ValueError, match=match):
        call()
