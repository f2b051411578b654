import cmath
import math

import numpy as np
import pytest

import bethe3.continuation as cont
import bethe3.equations as eq
from bethe3 import Branch, QuantumLabel, solve_state
from bethe3.asymptotics import delta_large_c, small_c_slope
from bethe3.continuation import find_critical
from bethe3.oracles import ddelta_dc, fd_jacobian, gamma_squared_from_alpha

TWO_PI = 2 * math.pi


class TestTheta:
    def test_limits(self):
        dk = TWO_PI
        assert eq.theta(dk, 1e12) == pytest.approx(0.0, abs=2e-11)
        assert eq.theta(dk, 0.0) == pytest.approx(-math.pi, abs=1e-15)
        assert eq.theta(dk, -1e12) == pytest.approx(-TWO_PI, abs=2e-11)

    def test_range_and_continuity_across_zero(self):
        for dk in (0.5, 3.0, 20.0):
            prev = None
            for c in np.linspace(-5, 5, 401):
                t = eq.theta(dk, c)
                assert -TWO_PI < t <= 0.0
                if prev is not None:
                    assert abs(t - prev) < 0.2
                prev = t

    def test_degenerate_convention(self):
        assert eq.theta(0.0, 0.0) == -math.pi


class TestTrackedLog:
    """continued_arg: the imaginary part of the log continued along a path."""

    def test_fresh_unit(self):
        assert eq.continued_arg(1.0 + 0j) == 0.0

    def test_full_circle_accumulates(self):
        arg = None
        for j in range(9):
            arg = eq.continued_arg(cmath.exp(1j * TWO_PI * j / 8.0), arg)
        assert arg == pytest.approx(TWO_PI, abs=1e-12)

    def test_cut_avoiding_path_is_principal(self):
        arg = None
        for phi in np.linspace(-0.45 * math.pi, 0.45 * math.pi, 40):
            z = cmath.exp(1j * phi) * (1.0 + 0.3 * phi)
            arg = eq.continued_arg(z, arg)
            assert arg == pytest.approx(cmath.phase(z), abs=1e-14)

    def test_zero_raises(self):
        with pytest.raises(eq.SingularArgumentError):
            eq.continued_arg(0j)


class TestResidualReal:
    def test_reference_root(self):
        point = eq.residual_real(TWO_PI, TWO_PI, 0.0, QuantumLabel(1, 1))
        assert point.residual == pytest.approx((0.0, 0.0), abs=1e-13)

    def test_asymptotic_root_large_negative_c(self):
        # oracle: the first-order expansion; agreement O(c^-2)
        d = delta_large_c(2, -1000.0)
        r1, r2 = eq.residual_real_thetasum(d, d, -1000.0, 2, 2)
        assert abs(r1) < 7e-4 and abs(r2) < 7e-4
        d = delta_large_c(2, -4000.0)
        r1, _ = eq.residual_real_thetasum(d, d, -4000.0, 2, 2)
        assert abs(r1) < 7e-4 / 15  # shrinks like c^-2

    def test_thetasum_equals_tracked_log_along_paths(self):
        # walk from the c=0 reference root to random valid points; the
        # log form with continued arguments must agree with the theta-sum
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
                point = eq.residual_real(dd[0], dd[1], cc, label, refs=refs)
                refs = point.args
            direct = eq.residual_real_thetasum(d_t[0], d_t[1], c_t, label.n1, label.n2)
            assert point.residual[0] == pytest.approx(direct[0], abs=1e-12)
            assert point.residual[1] == pytest.approx(direct[1], abs=1e-12)
            assert point.imag_defect < 1e-10


class TestResidualEqualDelta:
    def test_critical_11(self):
        assert eq.residual_equal_delta(0.0, -6.0, 1) == pytest.approx(0.0, abs=1e-14)

    def test_reference_values(self):
        for n0 in (0, 1, 2, 3):
            assert eq.residual_equal_delta(TWO_PI * n0, 0.0, n0) == pytest.approx(0.0, abs=1e-13)

    def test_matches_2d_solver(self):
        # independent route: handwritten bisection on the scalar equation
        lo, hi = 2 * TWO_PI, 3 * TWO_PI
        flo = eq.residual_equal_delta(lo, 1.0, 2)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = eq.residual_equal_delta(mid, 1.0, 2)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        d_bisect = 0.5 * (lo + hi)
        res = eq.newton_solve(
            lambda x: eq.residual_real_thetasum(x[0], x[1], 1.0, 2, 2),
            lambda x: eq.jacobian_real_thetasum(x[0], x[1], 1.0),
            [2 * TWO_PI + 0.5, 2 * TWO_PI + 0.5],
        )
        assert res.root[0] == pytest.approx(d_bisect, abs=1e-10)
        assert res.root[1] == pytest.approx(d_bisect, abs=1e-10)


class TestResidualComplex:
    def test_gamma_zero_exact_for_11(self):
        st = solve_state(QuantumLabel(1, 1), -8.0)
        point = eq.residual_complex(st.coords.alpha, 0.0, -8.0, QuantumLabel(1, 1))
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
        point = eq.residual_complex(st.coords.alpha, st.coords.gamma, -9.0, QuantumLabel(1, 3))
        assert max(abs(point.residual[0]), abs(point.residual[1])) < 1e-10

    def test_constraint_violations_raise(self):
        with pytest.raises(eq.ConstraintViolationError):
            eq.residual_complex(10.0, 0.0, -8.0, QuantumLabel(1, 1))  # alpha > -c/2
        with pytest.raises(eq.ConstraintViolationError):
            eq.residual_complex(1.0, 0.0, -8.0, QuantumLabel(0, 0))  # 2a+c < 0
        with pytest.raises(eq.ConstraintViolationError):
            eq.residual_complex(1.0, 0.0, -8.0, QuantumLabel(2, 2))  # no branch

    def test_n1zero_family_root(self):
        st = solve_state(QuantumLabel(0, 2), -9.0)
        point = eq.residual_complex(st.coords.alpha, st.coords.gamma, -9.0, QuantumLabel(0, 2))
        assert max(abs(point.residual[0]), abs(point.residual[1])) < 1e-10


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
    def test_linear_single_step(self):
        res = eq.newton_solve(lambda x: (x[0] - 2.5,), lambda x: ((1.0,),), [2.8])
        assert res.iterations <= 2
        assert res.root[0] == pytest.approx(2.5, abs=1e-12)

    def test_matches_independent_solver(self):
        from scipy.optimize import fsolve

        fun = lambda x: np.array(eq.residual_real_thetasum(x[0], x[1], -2.0, 1, 2))
        jac = lambda x: eq.jacobian_real_thetasum(x[0], x[1], -2.0)
        mine = eq.newton_solve(fun, jac, [TWO_PI, 2 * TWO_PI])
        ref = fsolve(fun, [TWO_PI, 2 * TWO_PI], xtol=1e-13)
        assert mine.root == pytest.approx(ref, abs=1e-10)

    def test_no_convergence_raises(self):
        with pytest.raises(eq.NoConvergenceError):
            eq.newton_solve(
                lambda x: (x[0] ** 2 + 1.0,), lambda x: ((2.0 * x[0],),), [0.5], max_iter=20
            )

    def test_guard_blocks_boundary(self):
        # root at -1 is outside the guarded region; the solve must not cross 0
        with pytest.raises((eq.ConstraintViolationError, eq.NoConvergenceError)):
            eq.newton_solve(
                lambda x: (x[0] + 1.0,), lambda x: ((1.0,),), [0.5],
                guard=lambda x: x[0] > 0.0, max_iter=25,
            )

    def test_contraction_of_first_iteration(self):
        # x^2 = 2 from 1.5: |r0| = 0.25, one Newton step lands at 1.5 - 0.25/3
        res = eq.newton_solve(lambda x: (x[0] ** 2 - 2.0,), lambda x: ((2.0 * x[0],),), [1.5])
        x1 = 1.5 - 0.25 / 3.0
        assert res.contraction == pytest.approx((x1 * x1 - 2.0) / 0.25, rel=1e-12)
        assert eq.newton_solve(lambda x: (x[0] - 2.5,), lambda x: ((1.0,),), [2.8]).contraction == 0.0

    def test_residual_floor_named(self):
        # |r| >= 3e-13 everywhere: the stall is reported with the floor and tol,
        # long before max_iter
        fun = lambda x: (x[0] - 1.0 + 3e-13 * math.copysign(1.0, x[0] - 1.0),)
        with pytest.raises(eq.ResidualFloorError, match=r"floor \|r\|=6\.000e-13 .*tol=1\.0e-13") as err:
            eq.newton_solve(fun, lambda x: ((1.0,),), [1.5], tol=1e-13)
        assert err.value.iterations < 10

    def test_scaled_tiny_unknown(self):
        # root at 1e-9 with a log-singular residual: steps must not cross zero
        fun = lambda x: (math.log(x[0] / 1e-9),)
        res = eq.newton_solve(fun, lambda x: ((1.0 / x[0],),), [3e-9], guard=lambda x: x[0] > 0.0)
        assert res.root[0] == pytest.approx(1e-9, rel=1e-9)


# every corrector chart with a label it serves and the sign of its shifted unknown
CHARTS = [
    (cont.REAL_DIAGONAL, (2, 2), 1.0), (cont.REAL_COUPLED, (1, 3), 1.0),
    (cont.FAMILY1, (1, 1), -1.0), (cont.FAMILY1, (1, 3), -1.0), (cont.FAMILY0_ETA, (0, 0), 1.0),
    (cont.FAMILY0_ETA, (0, 1), 1.0), (cont.FAMILY0_BETA, (0, 3), 1.0),
]


@pytest.mark.parametrize("c", [-5.0, -40.0, -200.0, -1000.0])
@pytest.mark.parametrize("chart, label, sign", CHARTS)
def test_closed_form_jacobian_matches_fd_oracle(chart, label, sign, c):
    # shifted unknowns are sampled directly (alpha rounds beta to 0 by c = -200)
    # and compared in scaled space, column j times |x_j| relative to the row
    # maximum: a raw FD probe cannot move an O(1) residual at beta ~ 1e-200
    every_chart = {v for v in vars(cont).values() if isinstance(v, cont.Chart)}
    assert every_chart == {row[0] for row in CHARTS}
    lab = QuantumLabel(*label)
    if chart.branch is Branch.REAL_K:
        points = [(0.7, 5.0), (6.5, 13.0)]
    else:
        points = [(sign * v, g) for v in (1e-200, 1e-30, 1e-3, 0.9) for g in (-1.7, 1e-3, 0.0)]
    for x in points:
        x = x[:len(chart.jacobian(x, c))]
        exact = chart.jacobian(x, c)
        approx = fd_jacobian(lambda y: chart.residual(lab, y, c), x)
        for row, fd_row in zip(exact, approx):
            scaled = [v * abs(xj) for v, xj in zip(row, x)]
            fd_scaled = [v * abs(xj) for v, xj in zip(fd_row, x)]
            worst = max(abs(a - b) for a, b in zip(scaled, fd_scaled))
            assert worst <= 1e-5 * max(abs(v) for v in scaled), (x, row, fd_row)


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
