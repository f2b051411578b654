import cmath
import math

import numpy as np
import pytest

import bethe3.continuation as cont
import bethe3.equations as eq
from bethe3 import QuantumLabel, RealCoords, solve_state
from bethe3.asymptotics import delta_large_c, small_c_slope
from bethe3.continuation import find_critical
from bethe3.oracles import continued_arg, log_form_real
from bethe3.tolerances import NEWTON_MAX_ITER

TWO_PI = 2 * math.pi


def theta(dk: float, c: float) -> float:
    """Two-body phase shift branch in (-2*pi, 0] for ordered momenta (dk >= 0).

    Continuous in c for fixed dk > 0: 0 at c -> +inf, -pi at c = 0, -2*pi at
    c -> -inf.  The doubly-degenerate point dk = c = 0 returns -pi (reference
    state convention).
    """
    if dk == 0.0 and c == 0.0:
        return -math.pi
    return -2.0 * math.atan2(dk, c)


def dtheta(dk: float, c: float) -> float:
    """d(theta)/d(dk) = -2c/(c^2 + dk^2)."""
    return -2.0 * c / (c * c + dk * dk)


class TestTheta:
    def test_limits(self):
        dk = TWO_PI
        assert theta(dk, 1e12) == pytest.approx(0.0, abs=2e-11)
        assert theta(dk, 0.0) == pytest.approx(-math.pi, abs=1e-15)
        assert theta(dk, -1e12) == pytest.approx(-TWO_PI, abs=2e-11)

    def test_range_and_continuity_across_zero(self):
        for dk in (0.5, 3.0, 20.0):
            prev = None
            for c in np.linspace(-5, 5, 401):
                t = theta(dk, c)
                assert -TWO_PI < t <= 0.0
                if prev is not None:
                    assert abs(t - prev) < 0.2
                prev = t

    def test_degenerate_convention(self):
        assert theta(0.0, 0.0) == -math.pi


class TestTrackedLog:
    """oracles.continued_arg: the imaginary part of the log continued along a path."""

    def test_fresh_unit(self):
        assert continued_arg(1.0 + 0j) == 0.0

    def test_full_circle_accumulates(self):
        arg = None
        for j in range(9):
            arg = continued_arg(cmath.exp(1j * TWO_PI * j / 8.0), arg)
        assert arg == pytest.approx(TWO_PI, abs=1e-12)

    def test_cut_avoiding_path_is_principal(self):
        arg = None
        for phi in np.linspace(-0.45 * math.pi, 0.45 * math.pi, 40):
            z = cmath.exp(1j * phi) * (1.0 + 0.3 * phi)
            arg = continued_arg(z, arg)
            assert arg == pytest.approx(cmath.phase(z), abs=1e-14)

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="continued argument of zero"):
            continued_arg(0j)


class TestResidualReal:
    def test_reference_root(self):
        point = eq.residual_real(TWO_PI, TWO_PI, 0.0, QuantumLabel(1, 1))
        assert point.residual == pytest.approx((0.0, 0.0), abs=1e-13)

    def test_asymptotic_root_large_negative_c(self):
        # oracle: the first-order expansion; agreement O(c^-2)
        d = delta_large_c(QuantumLabel(2, 2), -1000.0).delta1
        r1, r2 = eq.residual_real_thetasum(d, d, -1000.0, 2, 2)
        assert abs(r1) < 7e-4 and abs(r2) < 7e-4
        d = delta_large_c(QuantumLabel(2, 2), -4000.0).delta1
        r1, _ = eq.residual_real_thetasum(d, d, -4000.0, 2, 2)
        assert abs(r1) < 7e-4 / 15  # shrinks like c^-2

    def test_thetasum_is_exactly_the_theta_composition(self):
        # the residual and Jacobian inline theta and dtheta; pin them bit for
        # bit to the compositions, degenerate points (c = 0, a gap of 0, and
        # d1 = d2 = c = 0 with its theta = -pi convention) included
        rng = np.random.default_rng(17)
        d1s, d2s = rng.uniform(0.0, 40.0, (2, 200))
        cs = rng.uniform(-50.0, 50.0, 200)
        cs[:10], d1s[10:15], d2s[15:20] = 0.0, 0.0, 0.0
        points = [(float(d1), float(d2), float(c)) for d1, d2, c in zip(d1s, d2s, cs)]
        points += [(0.0, 0.0, -3.0), (0.0, 2.5, 0.0), (2.5, 0.0, -0.0), (0.0, 0.0, 0.0),
                   (0.0, 0.0, -0.0)]
        for d1, d2, c in points:
            n1, n2 = (int(v) for v in rng.integers(0, 6, 2))
            t1, t2, t3 = theta(d1, c), theta(d2, c), theta(d1 + d2, c)
            expected = (d1 - TWO_PI * (n1 + 1) - 2.0 * t1 - t3 + t2,
                        d2 - TWO_PI * (n2 + 1) - 2.0 * t2 - t3 + t1)
            assert eq.residual_real_thetasum(d1, d2, c, n1, n2) == expected, (d1, d2, c)
            if c == 0.0 and (d1 == 0.0 or d2 == 0.0):
                continue  # dtheta divides by c^2 + dk^2 = 0
            p1, p2, p3 = dtheta(d1, c), dtheta(d2, c), dtheta(d1 + d2, c)
            expected = ((1.0 - 2.0 * p1 - p3, p2 - p3), (p1 - p3, 1.0 - 2.0 * p2 - p3))
            assert eq.jacobian_real_thetasum(d1, d2, c) == expected, (d1, d2, c)

    def test_thetasum_equals_tracked_log_along_paths(self):
        # walk from the c=0 reference root to random valid points; the
        # log form with continued arguments must agree with the theta-sum,
        # and log_form_real raises unless |log|z_j|| < IMAG_TOL = 1e-10
        rng = np.random.default_rng(23)
        for _ in range(100):
            n1, n2 = rng.integers(1, 4, 2)
            label = QuantumLabel(int(n1), int(n2))
            d = np.array([TWO_PI * n1, TWO_PI * n2])
            c_t = rng.uniform(-8.0, 8.0)
            d_t = d + rng.uniform(-0.45 * TWO_PI, 0.45 * TWO_PI, 2)
            refs = (None, None)
            for frac in np.linspace(0.0, 1.0, 60):
                dd = d + (d_t - d) * frac
                cc = c_t * frac
                r, refs = log_form_real(dd[0], dd[1], cc, label.n1, label.n2, refs)
            direct = eq.residual_real_thetasum(d_t[0], d_t[1], c_t, label.n1, label.n2)
            assert r[0] == pytest.approx(direct[0], abs=1e-12)
            assert r[1] == pytest.approx(direct[1], abs=1e-12)


def equal_delta(d: float, c: float, n0: int) -> float:
    """Scalar residual of the common delta when n1 = n2 = n0, the oracle for
    the diagonal of the coupled real chart (each of its rows reduces to it)."""
    return d - theta(d, c) - theta(2.0 * d, c) - TWO_PI * (n0 + 1)


class TestResidualEqualDelta:
    """The real chart on the diagonal n1 = n2 against the scalar equal-delta equation."""

    def test_critical_11(self):
        assert equal_delta(0.0, -6.0, 1) == pytest.approx(0.0, abs=1e-14)
        r = cont.REAL.residual((0.0, 0.0), QuantumLabel(1, 1), -6.0)
        assert r == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_reference_values(self):
        for n0 in (0, 1, 2, 3):
            d = TWO_PI * n0
            assert equal_delta(d, 0.0, n0) == pytest.approx(0.0, abs=1e-13)
            r = cont.REAL.residual((d, d), QuantumLabel(n0, n0), 0.0)
            assert r == pytest.approx((0.0, 0.0), abs=1e-13)

    def test_matches_2d_solver(self):
        # independent route: handwritten bisection on the scalar equation
        lo, hi = 2 * TWO_PI, 3 * TWO_PI
        flo = equal_delta(lo, 1.0, 2)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = equal_delta(mid, 1.0, 2)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        d_bisect = 0.5 * (lo + hi)
        chart = cont.REAL
        res = eq.newton_solve(chart.residual, chart.jacobian, [2 * TWO_PI + 0.5, 2 * TWO_PI + 0.5],
                              args=(QuantumLabel(2, 2), 1.0))
        assert res.root[0] == pytest.approx(d_bisect, abs=1e-10)
        assert res.root[1] == pytest.approx(d_bisect, abs=1e-10)


class TestResidualComplex:
    def test_gamma_zero_exact_for_11(self):
        st = solve_state(QuantumLabel(1, 1), -8.0)
        point = cont.residual_complex(st.coords.alpha, 0.0, -8.0, QuantumLabel(1, 1))
        assert point.residual[0] == pytest.approx(0.0, abs=1e-11)
        assert point.residual[1] == 0.0

    def test_alpha_to_zero_limit_matches_critical_relation(self):
        # at alpha -> 0 the root's gamma^2 tends to c^2(6+c)/(-9(4+c))
        crit = find_critical(QuantumLabel(1, 2))
        c = crit.C - 1e-7
        st = solve_state(QuantumLabel(1, 2), c)
        g2_limit = c * c * (6.0 + c) / (-9.0 * (4.0 + c))
        assert st.coords.gamma ** 2 == pytest.approx(g2_limit, rel=1e-3)

    def test_root_satisfies_both_equations(self):
        st = solve_state(QuantumLabel(1, 3), -9.0)
        point = cont.residual_complex(st.coords.alpha, st.coords.gamma, -9.0, QuantumLabel(1, 3))
        assert max(abs(point.residual[0]), abs(point.residual[1])) < 1e-10

    def test_constraint_violations_raise(self):
        with pytest.raises(eq.ConstraintViolationError):
            cont.residual_complex(10.0, 0.0, -8.0, QuantumLabel(1, 1))  # alpha > -c/2
        with pytest.raises(eq.ConstraintViolationError):
            cont.residual_complex(1.0, 0.0, -8.0, QuantumLabel(0, 0))  # 2a+c < 0
        with pytest.raises(eq.ConstraintViolationError):
            cont.residual_complex(1.0, 0.0, -8.0, QuantumLabel(2, 2))  # no branch

    def test_domain_checks_raise(self):
        for c in (0.0, 3.0):
            with pytest.raises(eq.ConstraintViolationError, match="requires c < 0"):
                cont.residual_complex(1.0, 0.0, c, QuantumLabel(1, 2))
        for alpha in (0.0, -1.0):
            with pytest.raises(eq.ConstraintViolationError, match="alpha must be > 0"):
                cont.residual_complex(alpha, 0.0, -8.0, QuantumLabel(0, 2))

    @pytest.mark.parametrize("label", [(0, 0), (0, 1)])
    def test_eta_gamma_zero_raises_typed(self, label):
        # alpha + c = gamma = 0, where log|alpha + c + 3i*gamma| diverges: a
        # sheet error, not the bare "math domain error" of log(0)
        c = -8.0
        with pytest.raises(eq.ConstraintViolationError, match="alpha \\+ c = gamma = 0"):
            cont.residual_complex(-c, 0.0, c, QuantumLabel(*label))

    def test_real_negative_gap_raises(self):
        for gaps in ((-1e-300, 5.0), (5.0, -0.5), (math.nan, 5.0)):
            with pytest.raises(eq.ConstraintViolationError, match="gaps must be >= 0"):
                eq.residual_real(*gaps, 1.0, QuantumLabel(2, 3))

    @pytest.mark.parametrize("lab", [(2, 1), (1, 0), (3, 0), (5, 1)])
    def test_partner_reads_its_own_frame(self, lab):
        # a partner's gamma is mapped to the canonical frame first; read in
        # the canonical frame it was off by whole turns (-4 pi for (2,1))
        st = solve_state(QuantumLabel(*lab), -8.0)
        point = cont.residual_complex(st.coords.alpha, st.coords.gamma, -8.0, QuantumLabel(*lab))
        assert max(abs(point.residual[0]), abs(point.residual[1])) <= 1e-10

    def test_complex_chart_per_family(self):
        charts = {(1, 1): cont.FAMILY1, (1, 4): cont.FAMILY1, (4, 1): cont.FAMILY1,
                  (0, 0): cont.FAMILY0_ETA, (0, 1): cont.FAMILY0_ETA, (1, 0): cont.FAMILY0_ETA,
                  (0, 2): cont.FAMILY0_BETA, (5, 0): cont.FAMILY0_BETA,
                  (2, 2): None, (3, 2): None}
        for lab, chart in charts.items():
            assert cont.complex_chart(QuantumLabel(*lab)) is chart, lab

    def test_n1zero_family_root(self):
        st = solve_state(QuantumLabel(0, 2), -9.0)
        point = cont.residual_complex(st.coords.alpha, st.coords.gamma, -9.0, QuantumLabel(0, 2))
        assert max(abs(point.residual[0]), abs(point.residual[1])) < 1e-10


def gamma_squared_from_alpha(alpha: float, c: float) -> float:
    """Closed-form gamma^2(alpha, c) from the n1 = 1 family alpha equation.

    At alpha = 0 this reduces to c^2*(6+c)/(-9*(4+c)), the critical-point
    relation.  Uses an odd-part series below |alpha| = 1e-3 to avoid the 0/0
    cancellation at alpha -> 0.
    """
    if c >= 0:
        raise ValueError(f"requires c < 0, got {c}")
    if alpha < 0:
        raise ValueError(f"requires alpha >= 0, got {alpha}")
    if alpha < 1e-3:
        # num ~ -(f'(0) + f'''(0) a^2/6), den ~ 9(h'(0) + h'''(0) a^2/6)
        a2 = alpha * alpha
        fp = c ** 3 * (c + 6.0)
        fppp = c ** 4 + 18.0 * c ** 3 + 78.0 * c * c + 72.0 * c
        hp = c * (c + 4.0)
        hppp = c * c + 12.0 * c + 24.0
        den = hp + hppp * a2 / 6.0
        if abs(den) < 1e-13 * max(1.0, abs(hp)):
            raise ZeroDivisionError(f"gamma^2 pole at alpha={alpha}, c={c}")
        return -(fp + fppp * a2 / 6.0) / (9.0 * den)
    ea = math.exp(alpha)
    f_m = (c - 2 * alpha) ** 2 * (c - alpha) ** 2 / ea
    f_p = (c + 2 * alpha) ** 2 * (c + alpha) ** 2 * ea
    h_m = (c - 2 * alpha) ** 2 / ea
    h_p = (c + 2 * alpha) ** 2 * ea
    den = 9.0 * (h_p - h_m)
    if abs(den) < 1e-13 * max(1.0, abs(h_p) + abs(h_m)):
        raise ZeroDivisionError(f"gamma^2 pole at alpha={alpha}, c={c}")
    return (f_m - f_p) / den


class TestGammaSquared:
    def test_alpha_zero_values(self):
        c = -4.5
        assert gamma_squared_from_alpha(0.0, c) == pytest.approx(
            c * c * (6 + c) / (-9 * (4 + c)), rel=1e-13
        )
        assert gamma_squared_from_alpha(0.0, -4.5) == pytest.approx(6.75, rel=1e-12)
        assert gamma_squared_from_alpha(0.0, -6.0) == pytest.approx(0.0, abs=1e-12)

    def test_series_joins_direct_form(self):
        for c in (-5.0, -9.0, -30.0):
            below = gamma_squared_from_alpha(9.9e-4, c)
            above = gamma_squared_from_alpha(1.01e-3, c)
            assert below == pytest.approx(above, rel=1e-6)

    def test_consistent_with_solved_branch(self):
        for c in (-6.0, -9.0, -14.0):
            st = solve_state(QuantumLabel(1, 3), c)
            g2 = gamma_squared_from_alpha(st.coords.alpha, c)
            assert st.coords.gamma ** 2 == pytest.approx(g2, abs=1e-10, rel=1e-10)


class TestNewton:
    # the one-unknown cases carry a decoupled second unknown: residual x[1],
    # Jacobian row (0, 1), starting at its root 0
    def test_linear_single_step(self):
        res = eq.newton_solve(lambda x, *_: (x[0] - 2.5, x[1]),
                              lambda x, *_: ((1.0, 0.0), (0.0, 1.0)), [2.8, 0.0])
        assert res.iterations <= 2
        assert res.root[0] == pytest.approx(2.5, abs=1e-12)

    def test_matches_independent_solver(self):
        from scipy.optimize import fsolve

        fun = lambda x, *_: np.array(eq.residual_real_thetasum(x[0], x[1], -2.0, 1, 2))
        jac = lambda x, *_: eq.jacobian_real_thetasum(x[0], x[1], -2.0)
        mine = eq.newton_solve(fun, jac, [TWO_PI, 2 * TWO_PI])
        ref = fsolve(fun, [TWO_PI, 2 * TWO_PI], xtol=1e-13)
        assert mine.root == pytest.approx(ref, abs=1e-10)

    def test_no_convergence_raises(self):
        with pytest.raises(eq.NoConvergenceError):
            eq.newton_solve(lambda x, *_: (x[0] ** 2 + 1.0, x[1]),
                            lambda x, *_: ((2.0 * x[0], 0.0), (0.0, 1.0)), [0.5, 0.0])

    def test_guard_blocks_boundary(self):
        # root at -1 lies off the residual's sheet x0 > 0; the solve probes past
        # 0 but never crosses it, and ends blocked at the edge
        visited = []

        def fun(x, *_):
            visited.append(x[0])
            return (x[0] + 1.0, x[1]) if x[0] > 0.0 else off_sheet(x)

        with pytest.raises(eq.ConstraintViolationError, match="blocked by sign constraints"):
            eq.newton_solve(fun, lambda x, *_: ((1.0, 0.0), (0.0, 1.0)), [0.5, 0.0])
        assert min(visited) <= 0.0

    def test_contraction_of_first_iteration(self):
        # x^2 = 2 from 1.5: |r0| = 0.25, one Newton step lands at 1.5 - 0.25/3
        res = eq.newton_solve(lambda x, *_: (x[0] ** 2 - 2.0, x[1]),
                              lambda x, *_: ((2.0 * x[0], 0.0), (0.0, 1.0)), [1.5, 0.0])
        x1 = 1.5 - 0.25 / 3.0
        assert res.contraction == pytest.approx((x1 * x1 - 2.0) / 0.25, rel=1e-12)
        linear = eq.newton_solve(lambda x, *_: (x[0] - 2.5, x[1]),
                                 lambda x, *_: ((1.0, 0.0), (0.0, 1.0)), [2.8, 0.0])
        assert linear.contraction == 0.0

    def test_residual_floor_named(self):
        # |r| >= 3e-13 everywhere: the stall is reported with the floor and tol,
        # long before max_iter
        fun = lambda x, *_: (x[0] - 1.0 + 3e-13 * math.copysign(1.0, x[0] - 1.0), x[1])
        with pytest.raises(eq.ResidualFloorError, match=r"floor \|r\|=6\.000e-13 .*tol=1\.0e-13") as err:
            eq.newton_solve(fun, lambda x, *_: ((1.0, 0.0), (0.0, 1.0)), [1.5, 0.0], tol=1e-13)
        assert err.value.iterations < 10

    def test_singular_jacobian_two_unknowns(self):
        # proportional rows: the scaled Cramer determinant is exactly 0
        with pytest.raises(eq.NoConvergenceError, match="singular Jacobian"):
            eq.newton_solve(lambda x, *_: (x[0] + 2.0 * x[1] - 1.0, 2.0 * x[0] + 4.0 * x[1] + 3.0),
                            lambda x, *_: ((1.0, 2.0), (2.0, 4.0)), [0.5, 0.5])

    def test_residual_floor_two_unknowns(self):
        # |r_j| >= 3e-13 in both rows: the stall is a floor, reported early
        def fun(x, *_):
            return (x[0] - 1.0 + 3e-13 * math.copysign(1.0, x[0] - 1.0),
                    x[1] + 2.0 + 3e-13 * math.copysign(1.0, x[1] + 2.0))

        with pytest.raises(eq.ResidualFloorError, match=r"tol=1\.0e-13") as err:
            eq.newton_solve(fun, lambda x, *_: ((1.0, 0.0), (0.0, 1.0)), [1.5, -2.5], tol=1e-13)
        assert err.value.iterations < 10

    def test_guard_blocks_every_halving_two_unknowns(self):
        # the guess sits on the edge of the residual's sheet x0 >= 0.5 and the
        # Newton step points off it, so every halved step leaves the sheet
        def fun(x, *_):
            return (x[0] + 1.0, x[1] - 3.0) if x[0] >= 0.5 else off_sheet(x)

        with pytest.raises(eq.ConstraintViolationError, match="blocked by sign constraints"):
            eq.newton_solve(fun, lambda x, *_: ((1.0, 0.0), (0.0, 1.0)), [0.5, 0.5])

    def test_guess_off_the_guard_raises(self):
        # the residual's own error propagates from an off-sheet guess
        def fun(x, *_):
            return (x[0] - 1.0, x[1]) if x[0] >= 0.0 else off_sheet(x)

        with pytest.raises(eq.ConstraintViolationError, match=r"off the sheet at \(-0\.5, 0\.0\)"):
            eq.newton_solve(fun, lambda x, *_: ((1.0, 0.0), (0.0, 1.0)), [-0.5, 0.0])

    def test_no_convergence_at_max_iterations(self):
        # a Jacobian 10x too large: every full step cuts |r| by only 0.9, so
        # the residual keeps falling (no stall) and ends near 0.9**100 = 2.7e-5
        with pytest.raises(eq.NoConvergenceError,
                           match=rf"no convergence after {NEWTON_MAX_ITER} iterations") as err:
            eq.newton_solve(lambda x, *_: (x[0] - 1.0, x[1]),
                            lambda x, *_: ((10.0, 0.0), (0.0, 10.0)), [2.0, 1.0])
        assert type(err.value) is eq.NoConvergenceError
        assert err.value.iterations == NEWTON_MAX_ITER
        assert max(abs(v) for v in err.value.residual) == pytest.approx(0.9 ** 100, rel=1e-9)

    def test_scaled_tiny_unknown(self):
        # root at 1e-9 with a log-singular residual on the sheet x0 > 0: the
        # full first step crosses zero, and the halved one must not
        def fun(x, *_):
            return (math.log(x[0] / 1e-9), x[1]) if x[0] > 0.0 else off_sheet(x)

        res = eq.newton_solve(fun, lambda x, *_: ((1.0 / x[0], 0.0), (0.0, 1.0)), [3e-9, 0.0])
        assert res.root[0] == pytest.approx(1e-9, rel=1e-9)


def off_sheet(x):
    """What a residual does off its sheet."""
    raise eq.ConstraintViolationError(f"off the sheet at {x}")


# every corrector chart with a label it serves and the sign of its shifted unknown
CHARTS = [
    (cont.REAL, (2, 2), 1.0), (cont.REAL, (1, 3), 1.0),
    (cont.FAMILY1, (1, 1), -1.0), (cont.FAMILY1, (1, 3), -1.0), (cont.FAMILY0_ETA, (0, 0), 1.0),
    (cont.FAMILY0_ETA, (0, 1), 1.0), (cont.FAMILY0_BETA, (0, 3), 1.0),
]


def fd_jacobian(residual, x):
    """Central-difference rows d(residual)/dx at x.

    The probe for unknown j is 6e-6*|x_j| (6e-6 where x_j = 0), so
    exponentially small unknowns keep their sign; 6e-6 ~ eps**(1/3) balances
    truncation against rounding.
    """
    cols = []
    for j, xj in enumerate(x):
        h = 6e-6 * abs(xj) or 6e-6
        up, down = list(x), list(x)
        up[j], down[j] = xj + h, xj - h
        cols.append([(a - b) / (2.0 * h) for a, b in zip(residual(up), residual(down))])
    return tuple(tuple(col[i] for col in cols) for i in range(len(x)))


@pytest.mark.parametrize("c", [-5.0, -40.0, -200.0, -1000.0])
@pytest.mark.parametrize("chart, label, sign", CHARTS)
def test_closed_form_jacobian_matches_fd_oracle(chart, label, sign, c):
    # shifted unknowns are sampled directly (alpha rounds beta to 0 by c = -200)
    # and compared in scaled space, column j times |x_j| relative to the row
    # maximum: a raw FD probe cannot move an O(1) residual at beta ~ 1e-200
    every_chart = {v for v in vars(cont).values() if isinstance(v, cont.Chart)}
    assert every_chart == {row[0] for row in CHARTS}
    lab = QuantumLabel(*label)
    if chart.coords is RealCoords:
        points = [(0.7, 5.0), (6.5, 13.0)]
    else:
        points = [(sign * v, g) for v in (1e-200, 1e-30, 1e-3, 0.9) for g in (-1.7, 1e-3, 0.0)]
    for x in points:
        exact = chart.jacobian(x, lab, c)
        approx = fd_jacobian(lambda y: chart.residual(y, lab, c), x)
        for row, fd_row in zip(exact, approx):
            scaled = [v * abs(xj) for v, xj in zip(row, x)]
            fd_scaled = [v * abs(xj) for v, xj in zip(fd_row, x)]
            worst = max(abs(a - b) for a, b in zip(scaled, fd_scaled))
            assert worst <= 1e-5 * max(abs(v) for v in scaled), (x, row, fd_row)


# each chart's sheet edges in its unknowns x, from the model's conditions (gaps
# >= 0; 0 < alpha < -c/2 for n1 = 1; 2*alpha + c > 0 for n1 = 0):
# (index of the unknown, edge as a function of c, side of the sheet, edge on it)
SHEET_EDGES = {
    cont.REAL: [(0, lambda c: 0.0, 1.0, True), (1, lambda c: 0.0, 1.0, True)],
    cont.FAMILY1: [(0, lambda c: c / 2.0, 1.0, False), (0, lambda c: 0.0, -1.0, False)],
    cont.FAMILY0_ETA: [(0, lambda c: c / 2.0, 1.0, False)],
    cont.FAMILY0_BETA: [(0, lambda c: 0.0, 1.0, False)],
}


@pytest.mark.parametrize("c", [-5.0, -40.0, -1000.0])
@pytest.mark.parametrize("chart, label, sign", CHARTS)
def test_residual_raises_only_off_the_guard(chart, label, sign, c):
    # the residual is its chart's only guard (newton_solve halves a step whose
    # candidate raises): on both sides of every sheet edge, down to the
    # adjacent double, it is finite on the sheet and raises
    # ConstraintViolationError off it; so does a NaN edge unknown, and on
    # n1 = 0 the point alpha + c = gamma = 0, where its log diverges
    lab = QuantumLabel(*label)

    def check(x, on_sheet):
        if on_sheet:
            assert all(map(math.isfinite, chart.residual(x, lab, c))), x
        else:
            with pytest.raises(eq.ConstraintViolationError):
                chart.residual(x, lab, c)

    others = (5.0,) if chart.coords is RealCoords else (-1.7, 0.0, 5.0)
    for i, edge_of, side, closed in SHEET_EDGES[chart]:
        edge = edge_of(c)
        for v, on_sheet in ((edge - side * 0.01, False), (math.nextafter(edge, -side * math.inf), False),
                            (edge, closed), (math.nextafter(edge, side * math.inf), True),
                            (edge + side * 0.01, True), (math.nan, False)):
            for other in others:
                check((v, other) if i == 0 else (other, v), on_sheet)
    if chart in (cont.FAMILY0_ETA, cont.FAMILY0_BETA):
        pole = (chart.shift - 1.0) * c  # x[0] at alpha + c = 0
        check((pole, 0.0), False)
        for x in ((math.nextafter(pole, -math.inf), 0.0), (math.nextafter(pole, math.inf), 0.0),
                  (pole, math.nextafter(0.0, math.inf))):
            check(x, True)


def ddelta_dc(delta: float, c: float) -> float:
    """Implicit derivative d(delta)/dc on the equal-delta root curve."""
    d2 = delta * delta
    num = 6.0 * delta * (c * c + 2.0 * d2)
    den = c * c * (c * c + 5.0 * d2) + 4.0 * d2 * d2 + 6.0 * c * (2.0 * d2 + c * c)
    return num / den


class TestImplicitDerivative:
    def test_small_c_limit_matches_series(self):
        for n in (1, 2, 3):
            got = ddelta_dc(TWO_PI * n, 0.0)
            assert got == pytest.approx(small_c_slope(n, n), rel=1e-12)

    def test_matches_finite_difference_along_trajectory(self):
        h = 1e-5
        for (n, c) in [(2, -1.5), (2, 2.0), (3, -4.0)]:
            dm = solve_state(QuantumLabel(n, n), c - h).coords.delta1
            dp = solve_state(QuantumLabel(n, n), c + h).coords.delta1
            d0 = solve_state(QuantumLabel(n, n), c).coords.delta1
            fd = (dp - dm) / (2 * h)
            assert ddelta_dc(d0, c) == pytest.approx(fd, rel=1e-5)

    def test_large_c_slope_matches_asymptote(self):
        c = 1000.0
        d = solve_state(QuantumLabel(2, 2), c).coords.delta1
        slope = ddelta_dc(d, c)
        asym = TWO_PI * 3 * 6 / c ** 2  # d/dc of 2*pi*(n+1)(1-6/c)
        assert slope == pytest.approx(asym, rel=2e-2)
        assert slope < 1e-3
