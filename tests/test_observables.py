import math

import numpy as np
import pytest

from bethe3 import (
    QuantumLabel,
    density_grid,
    norm_squared,
    partner_state,
    potential_expectation,
    simplex_integral_exponents,
    solve_state,
)
from bethe3.observables import _pair_sum

from conftest import quad_norm, quad_potential, quad_simplex_exp, solved

TWO_PI = 2 * math.pi


def random_keys(rng, n, case):
    """n exponent triples summing to zero: all zero, one zero or none zero."""
    keys = []
    while len(keys) < n:
        if case == "all_zero":
            keys.append((0.0, 0.0, 0.0))
        elif case == "one_zero":
            a = rng.uniform(-15, 15) + 1j * rng.uniform(-2, 2)
            slot = rng.integers(0, 3)
            trio = [0.0 + 0j] * 3
            rest = [(-a), a]
            j = 0
            for m in range(3):
                if m != slot:
                    trio[m] = rest[j]
                    j += 1
            keys.append(tuple(trio))
        else:
            a = rng.uniform(-15, 15, 2) + 1j * rng.uniform(-2, 2, 2)
            trio = (a[0], a[1], -a[0] - a[1])
            if min(abs(t) for t in trio) < 1e-3:
                continue
            keys.append(trio)
    return keys


class TestSimplexIntegral:
    def test_volume(self):
        assert simplex_integral_exponents(0.0, 0.0, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_pair_case_example(self):
        got = simplex_integral_exponents(TWO_PI, -TWO_PI, 0.0)
        ref = quad_simplex_exp(TWO_PI, -TWO_PI, 0.0)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_oracle_agreement_all_cases(self):
        # 200 random keys spanning the three degeneracy cases
        rng = np.random.default_rng(101)
        keys = (
            random_keys(rng, 10, "all_zero")
            + random_keys(rng, 95, "one_zero")
            + random_keys(rng, 95, "none_zero")
        )
        worst = 0.0
        for a1, a2, a3 in keys:
            got = simplex_integral_exponents(a1, a2, a3)
            ref = quad_simplex_exp(a1, a2, a3)
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-30))
        assert worst < 1e-8

    def test_near_degenerate_routing(self):
        # inside the 1e-6 window the nearest limiting form is used; the
        # mis-specification error is O(window) but cancellation-free
        for eps in (1e-7, 1e-8):
            got = simplex_integral_exponents(eps, 3.0, -3.0 - eps)
            ref = quad_simplex_exp(eps, 3.0, -3.0 - eps)
            assert abs(got - ref) < 1e-6
        # the routed triple takes the exact a1 = 0 form
        assert simplex_integral_exponents(1e-7, 3.0, -3.0 - 1e-7) == \
            simplex_integral_exponents(0.0, 3.0 + 1e-7, -3.0 - 1e-7)

    def test_sum_validation(self):
        with pytest.raises(ValueError):
            simplex_integral_exponents(1.0, 2.0, 3.0)


class TestNorm:
    def test_free_ground_state(self):
        st = solve_state(QuantumLabel(0, 0), 0.0)
        assert norm_squared(st) == pytest.approx(36.0, rel=1e-13)

    def test_quadrature_oracle_on_solved_states(self):
        cases = [(2, 2, -3.0), (1, 2, -2.0), (0, 0, -9.0), (1, 2, -7.0), (0, 2, -9.0), (1, 1, 2.0)]
        for n1, n2, c in cases:
            st = solved(n1, n2, c)
            closed = norm_squared(st)
            ref = quad_norm(st)
            assert closed == pytest.approx(ref, rel=1e-4), (n1, n2, c)

    def test_partner_equal_norm(self):
        st = solved(0, 1, -5.0)
        pt = partner_state(st)
        assert norm_squared(pt) == pytest.approx(norm_squared(st), rel=1e-9)


class TestPotential:
    def test_zero_coupling_exact(self):
        st = solve_state(QuantumLabel(2, 3), 0.0)
        assert potential_expectation(st) == 0.0

    def test_sign_matches_coupling(self):
        for (n1, n2, c) in [(2, 2, -3.0), (2, 2, 4.0), (0, 0, -5.0), (1, 2, -7.0)]:
            st = solved(n1, n2, c)
            v = potential_expectation(st)
            assert v * c > 0

    def test_quadrature_oracle(self):
        st = solved(2, 2, -2.0)
        assert potential_expectation(st) == pytest.approx(quad_potential(st), rel=1e-4)
        st = solved(1, 2, -7.0)
        assert potential_expectation(st) == pytest.approx(quad_potential(st), rel=1e-4)

    def test_quadrature_oracle_trimer_with_momentum(self):
        # the (0,1) state carries p = 2*pi and a near-degenerate pair deep down
        st = solved(0, 1, -12.0)
        n = norm_squared(st)
        assert n == pytest.approx(quad_norm(st), rel=1e-4)
        assert potential_expectation(st, norm=n) == pytest.approx(
            quad_potential(st, norm=quad_norm(st)), rel=1e-4
        )

    def test_deep_state_failure_is_loud(self):
        # once eta drops below the double-precision resolution of alpha the
        # saturated momenta sit exactly on the two-body pole; the failure
        # must be an explicit error, never a silent wrong number
        st = solved(0, 0, -250.0)
        with pytest.raises((ZeroDivisionError, OverflowError)):
            norm_squared(st)

    def test_returns_toward_zero_deep_attractive(self):
        # the (n,n) real family's potential dips and returns toward zero
        v8 = potential_expectation(solved(2, 2, -8.0))
        v50 = potential_expectation(solved(2, 2, -50.0))
        assert v8 < 0 and v50 < 0
        assert v50 > v8

    def test_partner_equal_potential(self):
        st = solved(0, 1, -5.0)
        pt = partner_state(st)
        assert potential_expectation(pt) == pytest.approx(potential_expectation(st), rel=1e-9)

    def test_finiteness_weak_form(self):
        # E, <V>, and the norm are finite with norm > 0 for every solved state
        for (n1, n2, c) in [(0, 0, -9.0), (1, 2, -7.0), (2, 2, -3.0), (0, 1, -12.0)]:
            st = solved(n1, n2, c)
            n = norm_squared(st)
            v = potential_expectation(st, norm=n)
            assert n > 0 and math.isfinite(n) and math.isfinite(v) and math.isfinite(st.energy)


class TestDensityGrid:
    def test_trimer_vertex_maxima(self):
        st = solved(0, 0, -9.0)
        grid = density_grid(st, 24)
        vmax = grid.density.max()
        assert grid.density[grid.vertex_mask()].max() == pytest.approx(vmax, rel=1e-12)

    def test_dimer_edge_density(self):
        st = solved(0, 2, -9.0)
        grid = density_grid(st, 24)
        edge_mean = grid.density[grid.edge_mask()].mean()
        interior_mean = grid.density[grid.interior_mask()].mean()
        assert edge_mean > interior_mean

    def test_repulsive_interference_without_concentration(self):
        # plane-wave interference: structured, but no exponential vertex or
        # edge concentration (contrast with the bound states)
        st = solved(3, 3, 1.0)
        grid = density_grid(st, 24)
        contrast = grid.density.max() / grid.density.mean()
        assert 1.5 < contrast < 15.0
        edge_ratio = grid.density[grid.edge_mask()].mean() / grid.density[grid.interior_mask()].mean()
        assert 0.2 < edge_ratio < 5.0
        trimer = density_grid(solved(0, 0, -9.0), 24)
        assert trimer.density.max() / trimer.density.mean() > 3.0 * contrast

    def test_values_match_direct_evaluation(self):
        from bethe3 import norm_squared, psi_ordered

        st = solved(2, 2, -3.0)
        grid = density_grid(st, 16)
        n = norm_squared(st)
        for i in (0, 5, 40, len(grid) - 1):
            x2 = grid.r12[i]
            x3 = grid.r12[i] + grid.r23[i]
            expect = abs(psi_ordered(st, 0.0, x2, x3)) ** 2 / n
            assert grid.density[i] == pytest.approx(expect, rel=1e-12)

    def test_normalization_scale(self):
        # norm = 6 * int r31 * |psi(0, r12, r12+r23)|^2 dr12 dr23 (the
        # center-of-mass direction contributes only a phase), so the
        # r31-weighted lattice sum of density approximates 1/6; the lattice
        # Riemann sum carries O(1/R) boundary error
        st = solved(2, 2, -3.0)
        grid = density_grid(st, 60)
        cell = 1.0 / (60 - 1) ** 2
        total = (grid.r31 * grid.density).sum() * cell
        assert total == pytest.approx(1.0 / 6.0, rel=0.2)

    def test_partner_grid_mirrored(self):
        st = solved(0, 2, -9.0)
        pt = partner_state(st)
        g = density_grid(st, 16)
        gp = density_grid(pt, 16)
        # the partner's density at (r12, r23) is the state's at (r23, r12)
        mirrored = np.empty_like(gp.density)
        mirrored[np.lexsort((gp.r23, gp.r12))] = gp.density[np.lexsort((gp.r12, gp.r23))]
        assert np.max(np.abs(mirrored - g.density)) < 1e-9

    def test_geometry(self):
        st = solved(2, 2, -3.0)
        grid = density_grid(st, 12)
        assert len(grid) == 12 * 13 // 2
        ii, jj = zip(*[(i, j) for i in range(12) for j in range(12 - i)])  # row-major lattice
        assert list(grid.r12) == [i / 11 for i in ii] and list(grid.r23) == [j / 11 for j in jj]
        np.testing.assert_allclose(grid.r12 + grid.r23 + grid.r31, 1.0, atol=1e-12)
        assert np.all(grid.density >= 0)
        with pytest.raises(ValueError):
            density_grid(st, 4)

    @pytest.mark.parametrize("resolution", [1414, 10**7])
    def test_oversized_grid_refused_before_allocation(self, resolution):
        # n(n+1)/2 lattice points above MAX_GRID_POINTS (10**6) is a ValueError,
        # not a MemoryError from building the lattice
        with pytest.raises(ValueError, match="1000000"):
            density_grid(solved(2, 2, -3.0), resolution)


class TestPairSumInternals:
    def test_norm_imag_defect_guard(self):
        st = solved(1, 2, -2.0)
        total = _pair_sum(st, simplex_integral_exponents)
        assert abs(total.imag) < 1e-9 * abs(total.real)
