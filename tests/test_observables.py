import math

import numpy as np
import pytest

from bethe3 import (
    QuantumLabel,
    density_grid,
    find_critical,
    norm_squared,
    partner_state,
    potential_expectation,
    simplex_integral_exponents,
    solve_state,
)
import bethe3.observables as obs
from bethe3.model import Momenta
from bethe3.observables import _entry, _sums, _symmetric_table
from bethe3.verify import simplex_triples
from bethe3.wavefunction import PERMUTATIONS, DegenerateMomentaError, amplitudes

from conftest import (
    coincidence_term,
    gaudin_norm,
    gl_nodes,
    pair_terms,
    quad_norm,
    quad_potential,
    quad_simplex_exp,
    simplex_rule,
    solved,
)

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
        # a small a1 or a3 puts a node next to the double node at 0, which the
        # series of e_2 resolves: no window and no lost digits
        for eps in (1e-7, 1e-8, 1e-12):
            for trio in ((eps, 3.0, -3.0 - eps), (-3.0 - eps, 3.0, eps)):
                ref = quad_simplex_exp(*trio)
                assert abs(simplex_integral_exponents(*trio) - ref) <= 1e-13 * abs(ref), trio
        # inside the 1e-6 window of a2 the two middle nodes merge into e_2'(i a3);
        # the error is O(window) but cancellation-free
        for eps in (1e-7, 1e-8):
            got = simplex_integral_exponents(3.0, eps, -3.0 - eps)
            ref = quad_simplex_exp(3.0, eps, -3.0 - eps)
            assert abs(got - ref) < 1e-6

    def test_verify_rule_matches_default_rule(self):
        # `bethe3 verify` reads its seeded triples with 24 nodes per axis
        for trio in simplex_triples():
            ref = quad_simplex_exp(*trio, n=48)
            assert abs(quad_simplex_exp(*trio, n=24) - ref) <= 1e-13 * abs(ref), trio

    def test_sum_validation(self):
        with pytest.raises(ValueError):
            simplex_integral_exponents(1.0, 2.0, 3.0)

    def test_quadrature_rule_built_once_and_read_only(self):
        # every quad_simplex_exp call shares one cached rule, so no caller may write to it
        assert simplex_rule(48) is simplex_rule(48)
        for arr in (*simplex_rule(48), *gl_nodes(48)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


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

    @pytest.mark.parametrize("n1, n2", [
        (0, 0), (0, 1), (0, 2), (0, 5), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 5), (2, 1), (5, 0),
    ])
    def test_gaudin_determinant_oracle(self, n1, n2):
        # complex states stay at c >= -12: deeper, the stored alpha has lost
        # eta/beta and the determinant itself drifts (3e-10 for (0,1) at -20)
        for c in (-12, -9, -7, -5, -3, -2, -1, -0.5, 0.3, 1, 3, 8, 40, 1000):
            st = solved(n1, n2, c)
            assert norm_squared(st) == pytest.approx(gaudin_norm(st), rel=1e-12), (n1, n2, c)


class TestSumChecks:
    """The raises of norm_squared and potential_expectation on sums that no
    solved state produces, fed in through obs._sums (norm, coincidence,
    and the two sums of term magnitudes)."""

    @pytest.mark.parametrize("norm, message", [
        (-1.0 + 0j, "norm must be positive"),
        (0j, "norm must be positive"),
        (1.0 + 1e-3j, "norm imaginary defect"),
    ])
    def test_norm(self, norm, message, monkeypatch):
        monkeypatch.setattr(obs, "_sums", lambda m, c: (norm, 1.0 + 0j, 0.0, 1.0))
        with pytest.raises(ValueError, match=message):
            norm_squared(solved(2, 2, -3.0))

    def test_coincidence_imaginary_defect(self, monkeypatch):
        monkeypatch.setattr(obs, "_sums", lambda m, c: (1.0 + 0j, 1.0 + 1e-3j, 1.0, 1.0))
        with pytest.raises(ValueError, match="coincidence integral imaginary defect"):
            potential_expectation(solved(2, 2, -3.0), norm=6.0)


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

    def test_pole_and_degenerate_errors_name_the_state(self):
        # norm, <V> (with and without a norm) and the grid name the label
        deep, threshold = solved(0, 0, -40.0), solved(1, 1, -6.0)
        calls = [norm_squared, potential_expectation, lambda st: potential_expectation(st, norm=1.0),
                 lambda st: density_grid(st, 8)]
        for call in calls:
            with pytest.raises(ZeroDivisionError, match=r"^two-body pole: .* at c=-40\.0 for \(0,0\)$"):
                call(deep)
            with pytest.raises(DegenerateMomentaError, match=r"^coinciding momenta .* for \(1,1\)$"):
                call(threshold)

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

    @pytest.mark.parametrize("norm", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_invalid_norm_rejected(self, norm):
        # a negative norm would flip the sign of <V> silently (+90.59 for -18.30 here)
        with pytest.raises(ValueError, match="norm must be finite and positive"):
            potential_expectation(solved(2, 2, -3.0), norm=norm)

    def test_cancelled_coincidence_sum_raises(self):
        # 1e-3 from C(1,1) = -6 the coincidence terms exceed their sum ~8e7-fold
        st = solve_state(QuantumLabel(1, 1), -6.001)
        with pytest.raises(ValueError, match=r"coincidence sum of .* at c=-6\.001 cancels"):
            potential_expectation(st, norm=1.0)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect, ROADMAP item 1: <V> is <c sum delta>, half the potential energy of "
        "H = -sum d^2 + 2c sum delta; the 12c prefactor waits for the benchmark PR, since "
        "bench/reference.json and the trace_obs digest pin today's value"))
    @pytest.mark.parametrize("n1, n2, c", [(0, 0, -2.0), (1, 2, -8.0), (2, 2, 3.0), (0, 2, 0.5)])
    def test_hellmann_feynman(self, n1, n2, c):
        # <V> = <2c sum delta> = c dE/dc; today's value is half of it (+-5e-10)
        label, h = QuantumLabel(n1, n2), 1e-5
        de_dc = (solve_state(label, c + h).energy - solve_state(label, c - h).energy) / (2 * h)
        assert potential_expectation(solved(n1, n2, c)) == pytest.approx(c * de_dc, rel=1e-6)

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

    @pytest.mark.parametrize("resolution", [8.5, 8.0, "8", None])
    def test_non_integer_resolution_refused(self, resolution):
        # 8.5 would place points off the simplex (r12 up to 1.067, r31 down to -0.067)
        with pytest.raises(ValueError, match="integer"):
            density_grid(solved(2, 2, -3.0), resolution)

    def test_numpy_integer_resolution(self):
        st = solved(2, 2, -3.0)
        got, ref = density_grid(st, np.int64(12)), density_grid(st, 12)
        assert len(got) == len(ref) and np.array_equal(got.density, ref.density)

    @pytest.mark.parametrize("resolution", [1414, 10**7])
    def test_oversized_grid_refused_before_allocation(self, resolution):
        # n(n+1)/2 lattice points above MAX_GRID_POINTS (10**6) is a ValueError,
        # not a MemoryError from building the lattice
        with pytest.raises(ValueError, match="1000000"):
            density_grid(solved(2, 2, -3.0), resolution)


class TestPairSumInternals:
    def test_norm_imag_defect_guard(self):
        st = solved(1, 2, -2.0)
        total = _sums(st.momenta, st.c)[0]
        assert abs(total.imag) < 1e-9 * abs(total.real)

    def test_exponent_sum_checked_once_per_state(self):
        # every pair's exponents sum to sum(k) - conj(sum(k)), here 2e-6j
        k1, k2, k3 = solved(2, 3, -3.0).momenta
        _sums.cache_clear()
        with pytest.raises(ValueError, match="exponents must sum to zero"):
            _sums(Momenta(k1, k2, k3 + 1e-6j), -3.0)


def near_fold_12():
    """(1,2) at 4e-6 below C(1,2): the 36 O(1) norm terms cancel to ~1e-5."""
    return solved(1, 2, find_critical(QuantumLabel(1, 2)).C - 4e-6)


class TestExponentTable:
    """The grouped sums of observables against the direct 36-term loop."""

    @pytest.mark.parametrize("n1, n2, c", [
        (2, 2, -3.0), (2, 2, 3.0), (2, 3, -3.0), (2, 3, 3.0), (0, 0, -9.0), (0, 1, -12.0),
        (0, 2, -9.0), (1, 2, -7.0), (0, 0, 0.0), (2, 3, 0.0),
        # zero exponents, which take the e_2' route
        (1, 1, -5.0), (0, 0, -0.5), (2, 3, 1e-7),
    ])
    def test_matches_direct_pair_sums(self, n1, n2, c):
        st = solved(n1, n2, c)
        for s in (st, partner_state(st)):
            norm, coincidence = _sums(s.momenta, s.c)[:2]
            for got, term in ((norm, simplex_integral_exponents), (coincidence, coincidence_term)):
                ref = sum(pair_terms(s, term))
                assert abs(got - ref) <= 1e-13 * abs(ref), (n1, n2, c, s.label)

    @pytest.mark.parametrize("n1, n2, c", [
        (2, 3, -3.0), (0, 2, -9.0), (1, 2, -7.0), (1, 1, -5.0), (0, 0, -9.0),
        (2, 3, 0.0), (2, 3, 3.0), (2, 2, 0.0), (2, 2, 3.0),
    ])
    def test_conjugate_entries_equal_direct_entries(self, n1, n2, c):
        # every entry, whether conjugated, negated or the shared zero, equals
        # the entry evaluated directly at its d_ij = k_i - conj(k_j)
        st = solved(n1, n2, c)
        for s in (st, partner_state(st)):
            k = s.momenta
            columns = _symmetric_table(k)
            assert [len(col) for col in columns] == [9] * 5
            for i in range(3):
                for j in range(3):
                    ref = _entry(k[i] - k[j].conjugate())
                    for name, col, piece in zip(("mag", "z", "e2", "e2_neg", "de2"), columns, ref):
                        assert col[3 * i + j] == piece, (s.label, i, j, name)

    @pytest.mark.parametrize("n1, n2, c, evaluations", [
        (2, 3, -3.0, 3), (2, 2, 3.0, 3), (1, 1, -5.0, 3), (0, 0, -9.0, 2), (1, 2, -7.0, 2),
    ])
    def test_distinct_exponents_evaluated_once(self, n1, n2, c, evaluations, monkeypatch):
        # real momenta: d_12, d_13, d_23 (the three d_ii are zero); a conjugate
        # pair with k_3 real: d_11 and d_13 (d_22 = -d_11, d_32 = -d_13)
        calls = []

        def counting(z):
            calls.append(z)
            return expm1_pair(z)

        expm1_pair = obs._expm1_pair
        monkeypatch.setattr(obs, "_expm1_pair", counting)
        _symmetric_table(solved(n1, n2, c).momenta)
        assert len(calls) == evaluations

    def test_near_fold_within_rounding_of_term_scale(self):
        # the sums cancel here, so the bound is the size of the terms, not of the sum
        st = near_fold_12()
        norm, coincidence = _sums(st.momenta, st.c)[:2]
        for got, term in ((norm, simplex_integral_exponents), (coincidence, coincidence_term)):
            terms = pair_terms(st, term)
            assert abs(got - sum(terms)) <= 1e-14 * sum(map(abs, terms))


class TestSumsMemo:
    """_sums keeps the last state's sums, so norm_squared and then
    potential_expectation on one state evaluate it once."""

    def test_one_amplitudes_call_per_state(self, monkeypatch):
        calls = []

        def counting(m, c):
            calls.append(c)
            return amplitudes(m, c)

        monkeypatch.setattr(obs, "amplitudes", counting)
        _sums.cache_clear()
        st = solved(1, 2, -7.0)
        potential_expectation(st, norm=norm_squared(st))
        assert len(calls) == 1
        _sums.cache_clear()

    def test_alternating_states_read_their_own_values(self):
        # one coupling, so only the momenta tell the memo's states apart
        a, b = solved(2, 3, -3.0), solved(0, 1, -3.0)
        states = (a, b, partner_state(a), a, partner_state(a), b)
        memo = [(norm_squared(s), potential_expectation(s)) for s in states]
        for s, got in zip(states, memo):
            _sums.cache_clear()
            assert got == (norm_squared(s), potential_expectation(s)), s.label

    def test_given_norm_is_bit_identical(self):
        for st in (solved(2, 2, -3.0), solved(0, 0, -9.0), solved(1, 2, -7.0)):
            _sums.cache_clear()
            v = potential_expectation(st)
            assert potential_expectation(st, norm=norm_squared(st)) == v


def mp_observables(mpmath, state):
    """Norm and <V> of the state's double momenta from the 36-term sums at 50
    digits.  Each simplex integral is the divided difference of exp at the
    partial exponent sums, read off the exponential of a bidiagonal matrix,
    so no closed form, series or routing of observables is reused."""
    with mpmath.workdps(50):
        c = mpmath.mpf(state.c)
        k = [mpmath.mpc(kj.real, kj.imag) for kj in state.momenta]

        def phase(j, l):
            return (c - 1j * (k[j] - k[l])) / (c + 1j * (k[j] - k[l]))

        e21, e31, e32 = phase(1, 0), phase(2, 0), phase(2, 1)
        a = {(0, 1, 2): mpmath.mpc(1), (1, 0, 2): -e21, (0, 2, 1): -e32,
             (2, 1, 0): -e21 * e31 * e32, (2, 0, 1): e31 * e32, (1, 2, 0): e21 * e31}

        def divided_difference(*nodes):
            m = mpmath.zeros(len(nodes))
            for i, x in enumerate(nodes):
                m[i, i] = x
                if i + 1 < len(nodes):
                    m[i, i + 1] = 1
            return mpmath.expm(m)[0, len(nodes) - 1]

        norm = coincidence = mpmath.mpc(0)
        for p in PERMUTATIONS:
            for q in PERMUTATIONS:
                z1, z2, z3 = (1j * (k[p[m]] - mpmath.conj(k[q[m]])) for m in range(3))
                w = a[p] * mpmath.conj(a[q])
                norm += w * divided_difference(z1 + z2 + z3, z2 + z3, z3, 0)
                coincidence += w * divided_difference(z1 + z2 + z3, z3, 0)
        norm = 6 * norm.real
        return float(norm), float(6 * c * coincidence.real / norm)


class TestMpmathOracle:
    @pytest.mark.parametrize("n1, n2, c", [(2, 2, -3.0), (2, 3, 3.0), (0, 0, -9.0), (1, 2, -7.0)])
    def test_shallow_states_to_rounding(self, n1, n2, c):
        mpmath = pytest.importorskip("mpmath")
        st = solved(n1, n2, c)
        norm, v = mp_observables(mpmath, st)
        assert norm_squared(st) == pytest.approx(norm, rel=1e-14)
        assert potential_expectation(st) == pytest.approx(v, rel=1e-14)

    def test_digits_kept_near_fold(self):
        # the double sums keep about 8 of 16 digits here (5e-9 relative for
        # both the norm and <V>); 7 are asserted
        mpmath = pytest.importorskip("mpmath")
        st = near_fold_12()
        norm, v = mp_observables(mpmath, st)
        assert norm < 1e-4
        assert norm_squared(st) == pytest.approx(norm, rel=1e-7)
        assert potential_expectation(st) == pytest.approx(v, rel=1e-7)

    @pytest.mark.parametrize("n1, n2, c", [(0, 0, 1e-9), (0, 1, -1e-9), (0, 2, 1e-9)])
    def test_near_zero_coupling(self, n1, n2, c):
        # momenta ~3e-5 apart put nodes ~3e-5 from the double node at 0, so
        # e_2 must stay accurate where e^z - 1 - z cancels
        mpmath = pytest.importorskip("mpmath")
        st = solved(n1, n2, c)
        norm, v = mp_observables(mpmath, st)
        assert norm_squared(st) == pytest.approx(norm, rel=1e-11)
        assert potential_expectation(st) == pytest.approx(v, rel=1e-11)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2)])
    def test_near_fold_raises_or_keeps_six_digits(self, n1, n2):
        # 10^-k from the fold, k = 2..12, the O(1) terms cancel ever deeper:
        # each call returns 6 correct digits or raises, never a wrong value
        mpmath = pytest.importorskip("mpmath")
        label = QuantumLabel(n1, n2)
        crit = find_critical(label).C
        raised = 0
        for k in range(2, 13):
            for c in (crit - 10.0 ** -k, crit + 10.0 ** -k):
                st = solve_state(label, c)
                try:
                    n = norm_squared(st)
                    v = potential_expectation(st, norm=n)
                except ValueError as exc:
                    assert f"{label} at c={c} cancels" in str(exc)
                    raised += 1
                    continue
                ref_n, ref_v = mp_observables(mpmath, st)
                assert n == pytest.approx(ref_n, rel=1e-6), c
                assert v == pytest.approx(ref_v, rel=1e-6), c
        assert raised > 0
