"""Root continuation over the coupling grid: tracing, critical points, spectra.

Every trajectory starts from the exact non-interacting solution
delta_j(0) = 2*pi*n_j and marches outward with a predictor and the
damped-Newton corrector.  Labels with min(n1,n2) = 1 turn complex at the
critical coupling C(1,n2) in [-6,-4); labels with min = 0 turn complex at
C = 0; labels with both n_j >= 2 stay real for all c (critical_point).
Near the threshold C the predictor is one square-root model per family
(branch_switch), an expansion in t = sqrt(c - C) that is real above C and
continues to the complex branch below it, chosen by one rule on every chart
(_Marcher._predict), and the step is refined geometrically; at C itself the
model is the root.  Elsewhere the predictor is the cubic through the last
four accepted points when they and the next point are equally spaced (the
uniform part of a trace_root grid), else the secant through the last two;
complex unknowns that are small or would flip sign are extrapolated in
log|x| instead, by the cubic where the four points share one sign.
Four Charts (a coordinate type shifted into two unknowns, a residual that is
its own sheet test, a closed-form Jacobian) cover the real branch and the
complex families, and a single march loop runs them all; complex_chart maps
a label to its complex chart for the march and for residual_complex, the
public residual at a label's own (alpha, gamma).  The diagonal labels
n1 = n2 need no chart of their own: the real equations are symmetric under
delta1 <-> delta2 there, and the complex families hold (1,1) and (0,0) as
their gamma = 0 members, so the corrector keeps delta1 == delta2 and
gamma == 0 exactly.
Every residual is single-valued on its sheet (the real branch in its
theta-sum form, family 0 with principal arguments while gamma <= 0), so a
root fixes its own branch: the march is a function of the label and the
targets, with no continued argument carried along.

The step size is adaptive (Allgower & Georg, Introduction to Numerical
Continuation Methods, ch. 6): it starts at BASE_STEP and grows or shrinks
from the Newton contraction and the predictor error of each solve, so the
roots' flattening at large |c| shows up as steps that grow with |c|.  Steps
that overshoot or fail are retried smaller down to MIN_STEP; a residual
floor or the subnormal floor of beta/eta is reported at once (_Marcher.march).
The returned samples are exactly the requested grid; only the internal
steps adapt.

A partner label (n1 > n2) marches its canonical partner's charts and builds
each sample once, in its own frame, through the conjugation map partner_coords.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

from . import equations as eq
from .model import (
    TWO_PI,
    ComplexCoords,
    QuantumLabel,
    RealCoords,
    StateSolution,
    build_state,
    partner_coords,
    partner_state,
)
from .tolerances import (
    BASE_STEP,
    FOLD_ALPHA_SMALL,
    FOLD_MIN_SPAN,
    MAX_GRID_POINTS,
    MIN_STEP,
    RESIDUAL_TOL,
    STEP_CONTRACTION,
    STEP_CORRECTION,
    STEP_GROWTH,
)


class BoundsViolationError(RuntimeError):
    """A trajectory sample broke a branch-sheet bound."""


class CriticalPoint(NamedTuple):
    """Critical coupling record; u0 is the critical delta2/c ratio (0.0 for
    the n1 = 0 family, whose common critical point sits at C = 0)."""

    C: float
    u0: float


def u0_equation(u: float, n2: int) -> float:
    """Transcendental equation fixing u0 = delta2/c at the critical point."""
    return -6.0 * math.atan(u) + 4.0 * u + 2.0 * u / (1.0 + u * u) + TWO_PI * (n2 - 1)


def find_critical(label: QuantumLabel) -> CriticalPoint:
    """Critical coupling C(1, n2) in (-6, -4) for n2 >= 2; exactly -6 for (1,1)."""
    lab = label.canonical()
    if lab.n1 != 1:
        raise ValueError(f"critical coupling is defined for n1 = 1 labels, got {label}")
    n2 = lab.n2
    if n2 == 1:
        return CriticalPoint(C=-6.0, u0=0.0)
    # Newton on the increasing u0_equation, f' = 4(q-1)^2/q^2 with q = 1 + u^2,
    # falling back to bisection whenever a step leaves the bracket f(lo) < 0 < f(hi)
    lo, hi = -TWO_PI * n2 - 10.0, 0.0
    u0 = 0.5 * lo
    for _ in range(200):
        f = u0_equation(u0, n2)
        if f == 0.0:
            break
        if f < 0.0:
            lo = u0
        else:
            hi = u0
        slope = 4.0 * (u0 * u0 / (1.0 + u0 * u0)) ** 2
        u = u0 - f / slope if slope > 0.0 else hi
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
        u0, step = u, u - u0
        if abs(step) <= 4e-16 * abs(u0):
            break
    return CriticalPoint(C=-4.0 - 2.0 / (1.0 + u0 * u0), u0=u0)


def critical_point(label: QuantumLabel) -> CriticalPoint | None:
    """Where the label turns complex: C = 0 for n1 = 0, C(1, n2) for n1 = 1,
    None when both n_j >= 2 (real for all c)."""
    lab = label.canonical()
    if lab.n1 == 0:
        return CriticalPoint(C=0.0, u0=0.0)
    return find_critical(lab) if lab.n1 == 1 else None


def fold_coefficients(u0: float) -> tuple[float, float]:
    """Local fold constants at C(1,n2>=2): c = C + Kc*u1^2, u2 = u0 - u1/2 + Ku*u1^2."""
    if u0 == 0.0:
        raise ValueError("fold coefficients apply to n2 >= 2 (u0 < 0); (1,1) uses c = -6 + delta^2/6")
    q = 1.0 + u0 * u0
    kc = (21.0 + 24.0 * u0 ** 2 + 8.0 * u0 ** 4) / (6.0 * q * q)
    ku = (3.0 + 6.0 * u0 ** 2 + 2.0 * u0 ** 4) / (6.0 * u0 * q)
    return kc, ku


def branch_switch(
    label: QuantumLabel, c: float, critical: CriticalPoint | None = None
) -> RealCoords | ComplexCoords:
    """The square-root model of a canonical label at its threshold C: one
    expansion in t = sqrt(c - C) per family, (0,0) delta1 = delta2 = sqrt(3) t,
    (0,n2) delta1 = 2t, delta2 = 2 pi n2 - delta1/2 + 3 delta1^2/(4 pi n2),
    (1,1) delta1 = delta2 = sqrt(6) t, (1,n2>=2) u1 = -t/sqrt(kc), delta1 = c u1,
    delta2 = c (u0 - u1/2 + ku u1^2).  RealCoords at and above C; below it
    t = -i sqrt(C - c) gives alpha = |Im delta1|/2, gamma = Re((i alpha -
    delta2)/3) = -Re(delta2)/3 for a merging pair, and alpha = |Im delta1|,
    gamma = 0 where all three momenta meet (n1 = n2)."""
    lab = label.canonical()
    p = TWO_PI * lab.np
    crit = critical or critical_point(lab)
    if crit is None:
        raise ValueError(f"label {label} has no complex branch")
    gap = c - crit.C
    t = math.sqrt(gap) if gap >= 0.0 else -1j * math.sqrt(-gap)
    if lab.n1 == lab.n2:
        d1 = d2 = math.sqrt(3.0 if lab.n1 == 0 else 6.0) * t
    elif lab.n1 == 0:
        d1 = 2.0 * t
        d2 = TWO_PI * lab.n2 - 0.5 * d1 + 3.0 * d1 * d1 / (4.0 * math.pi * lab.n2)
    else:
        kc, ku = fold_coefficients(crit.u0)
        u1 = -t / math.sqrt(kc)
        d1, d2 = c * u1, c * (crit.u0 - 0.5 * u1 + ku * u1 * u1)
    if gap >= 0.0:
        return RealCoords(d1, d2, p)
    if lab.n1 == lab.n2:
        return ComplexCoords(abs(d1.imag), 0.0, p)
    return ComplexCoords(0.5 * abs(d1.imag), -d2.real / 3.0, p)


# ---------------------------------------------------------------------------
# Charts: one parameterization per branch and complex family
# ---------------------------------------------------------------------------


class Chart(NamedTuple):
    """The two unknowns x of the real branch or of one complex family, and
    their corrector pieces.

    x = (co[0] + shift*c, co[1]) for coords co, and a root x at c is the
    sample coords(x[0] - shift*c, x[1], p); solving in beta = alpha + c/2 or
    eta = alpha + c keeps their exponentially small values exact deep in the
    attractive regime.  residual and jacobian are pure functions of
    (x, label, c), called by newton_solve with args = (label, c); the
    residual raises ConstraintViolationError off the chart's sheet, and sheet
    runs at every returned sample.  The march unpacks a chart into locals once
    per march; its residual, jacobian and sheet still run at every solve and
    every sample.  Labels with n1 = n2 share these charts.
    The residual and jacobian lambdas look up their eq.* function by module
    attribute at every call, never binding it at import: the benchmark's
    tracer and the tests count residual evaluations by replacing those
    attributes of bethe3.equations.
    """

    coords: type          # RealCoords or ComplexCoords
    residual: Callable    # (x, label, c) -> residuals
    jacobian: Callable    # (x, label, c) -> rows of d(residual)/dx
    sheet: Callable       # (label, c, coords), raises BoundsViolationError off the sheet
    shift: float = 0.0    # x[0] = co[0] + shift*c


def _real_sheet(lab: QuantumLabel, c: float, coords: RealCoords) -> None:
    """The published delta windows, enforced exactly on returned samples:
    delta_j in [2 pi n_j - pi, 2 pi (n_j + 1)] for c > 0, in
    [2 pi (n_j - 1), 2 pi n_j + pi] for c < 0 and at 2 pi n_j for c = 0, each
    widened by 1e-9."""
    slack = 1e-9
    n1, n2 = lab
    if c > 0:
        lo1, hi1 = TWO_PI * n1 - math.pi, TWO_PI * (n1 + 1)
        lo2, hi2 = TWO_PI * n2 - math.pi, TWO_PI * (n2 + 1)
    elif c < 0:
        lo1, hi1 = TWO_PI * (n1 - 1), TWO_PI * n1 + math.pi
        lo2, hi2 = TWO_PI * (n2 - 1), TWO_PI * n2 + math.pi
    else:
        lo1 = hi1 = TWO_PI * n1
        lo2 = hi2 = TWO_PI * n2
    d1, d2 = coords[0], coords[1]
    ok1 = lo1 - slack <= d1 <= hi1 + slack
    if ok1 and lo2 - slack <= d2 <= hi2 + slack:
        return
    d, lo, hi = (d2, lo2, hi2) if ok1 else (d1, lo1, hi1)
    raise BoundsViolationError(f"delta bound broken for {lab} at c={c}: delta={d}, window=({lo}, {hi})")


# the residuals' beta/eta sheet tests are strict; the public alpha view may
# saturate at the sheet edge once |beta| drops below eps*|c|
def _dimer_sheet(lab: QuantumLabel, c: float, coords: ComplexCoords) -> None:
    if not 0.0 < coords.alpha <= -c / 2.0:
        raise BoundsViolationError(f"(1,n2) sheet broken at c={c}: alpha={coords.alpha}")


def _trimer_sheet(lab: QuantumLabel, c: float, coords: ComplexCoords) -> None:
    """2*alpha + c >= 0, and gamma <= 0, which keeps -3*gamma + i(alpha + c)
    off the cut of the principal argument that family 0's residual takes."""
    if not (2.0 * coords.alpha + c >= 0.0 and coords.gamma <= 0.0):
        raise BoundsViolationError(
            f"(0,n2) sheet broken at c={c}: alpha={coords.alpha}, gamma={coords.gamma}")


REAL = Chart(  # every real label in (delta1, delta2), n1 = n2 included
    RealCoords,
    residual=lambda x, lab, c: eq.residual_real_thetasum(x[0], x[1], c, lab.n1, lab.n2),
    jacobian=lambda x, lab, c: eq.jacobian_real_thetasum(x[0], x[1], c),
    sheet=_real_sheet,
)
FAMILY1 = Chart(  # (1, n2) in (beta, gamma); (1,1) keeps gamma = 0
    ComplexCoords,
    residual=lambda x, lab, c: eq.family1_residual_beta(x[0], x[1], c, lab.n2),
    jacobian=lambda x, lab, c: eq.family1_jacobian_beta(x[0], x[1], c),
    sheet=_dimer_sheet, shift=0.5,
)
FAMILY0_ETA = Chart(  # (0,0), (0,1) in (eta, gamma)
    ComplexCoords,
    residual=lambda x, lab, c: eq.family0_residual_eta(x[0], x[1], c, lab.n2),
    jacobian=lambda x, lab, c: eq.family0_jacobian_eta(x[0], x[1], c),
    sheet=_trimer_sheet, shift=1.0,
)
FAMILY0_BETA = Chart(  # (0, n2 >= 2) in (beta, gamma)
    ComplexCoords,
    residual=lambda x, lab, c: eq.family0_residual_beta(x[0], x[1], c, lab.n2),
    jacobian=lambda x, lab, c: eq.family0_jacobian_beta(x[0], x[1], c),
    sheet=_trimer_sheet, shift=0.5,
)


def complex_chart(label: QuantumLabel) -> Chart | None:
    """The chart of a label's complex family, read from its canonical partner:
    FAMILY1 for (1, n2), FAMILY0_ETA for (0,0) and (0,1), FAMILY0_BETA for
    (0, n2 >= 2), None when both n_j >= 2 (real for all c)."""
    lab = label.canonical()
    return (None if lab.n1 > 1 else FAMILY1 if lab.n1 == 1
            else FAMILY0_BETA if lab.n2 >= 2 else FAMILY0_ETA)


def residual_complex(alpha: float, gamma: float, c: float, label: QuantumLabel) -> eq.ResidualPoint:
    """The complex-branch residuals at a label's own (alpha, gamma): its
    complex_chart's residual at x = (alpha + shift*c, gamma), a partner's gamma
    negated into the canonical frame as partner_coords does.  Raises
    ConstraintViolationError for c >= 0, alpha <= 0, no complex branch, or off
    the chart's sheet.  Once beta or eta nears eps*|alpha|, forming it from
    alpha loses accuracy like eps*|c|/eta; the march solves in x itself."""
    if c >= 0:
        raise eq.ConstraintViolationError(f"complex branch requires c < 0, got {c}")
    if alpha <= 0:
        raise eq.ConstraintViolationError(f"alpha must be > 0, got {alpha}")
    chart, lab = complex_chart(label), label.canonical()
    if chart is None:
        raise eq.ConstraintViolationError(f"label {label} has no complex branch (both n_j >= 2)")
    x = (alpha + chart.shift * c, gamma if lab is label else -gamma)
    return eq.ResidualPoint(chart.residual(x, lab, c))


# ---------------------------------------------------------------------------
# Marching engine
# ---------------------------------------------------------------------------


def _name_failure(exc: Exception, coords: type, label: QuantumLabel, c: float, last_good: float):
    """Prefix a corrector error with its branch, the requested label, failing c and last good c."""
    exc.args = (f"{coords.branch.value}-branch corrector failed for label {label} "
                f"at c={c} (last good c={last_good}): {exc}",)


class _Marcher:
    """Marches one label outward on both sides of c = 0 on its canonical partner's charts."""

    def __init__(self, label: QuantumLabel):
        self.label = label
        self.lab = lab = label.canonical()
        self.p = TWO_PI * lab.np
        self.critical = critical_point(lab)

    def _predict(self, chart: Chart, cn: float, use_model: bool, c, x, c1, x1, c2, x2, c3, x3):
        """Guess at cn from the last four accepted points of this march,
        (c, x), (c1, x1), (c2, x2) and (c3, x3), newest first (None where there
        are fewer), and whether the guess is the model's.  One rule on every
        chart: while use_model holds, the model branch_switch where the last
        small unknown x[0] - shift*c (delta1 on REAL, alpha on a complex
        chart) is below FOLD_ALPHA_SMALL or cn is within 0.1 of C; else the
        cubic through all four when they and cn are equally spaced, else the
        secant through the last two."""
        crit, shift = self.critical, chart.shift
        if use_model and crit is not None and (x[0] - shift * c < FOLD_ALPHA_SMALL
                                               or -0.1 < cn - crit.C < 0.1):
            model = branch_switch(self.lab, cn, crit)
            return (model[0] + shift * cn, model[1]), True
        if x1 is None or c1 == c:
            return x, False
        h = cn - c
        frac = h / (c - c1)
        # equal spacing: every gap within 1e-9*|h| of h, the last one via frac
        tol = 1e-9 * abs(h)
        cubic = x3 is not None and -1e-9 <= frac - 1.0 <= 1e-9 and (
            -tol <= c1 - c2 - h <= tol and -tol <= c2 - c3 - h <= tol)
        if cubic:
            lin = (4.0 * (x[0] + x2[0]) - 6.0 * x1[0] - x3[0],
                   4.0 * (x[1] + x2[1]) - 6.0 * x1[1] - x3[1])
        else:
            lin = (x[0] + (x[0] - x1[0]) * frac, x[1] + (x[1] - x1[1]) * frac)
        if chart.coords is RealCoords:
            return lin, False
        # the complex unknowns that decay exponentially deep in the attractive
        # regime (beta or eta, and gamma of (0,1)) are predicted in log|x| while
        # their sign holds, and so is any whose cubic or secant would flip its
        # sign: by the cubic in L = log|x| where the four points are equally
        # spaced and share that sign, exp(4 L - 6 L1 + 4 L2 - L3) formed from
        # neighbour ratios, else by the ratio rule a*(a/b)**frac, the secant in
        # log|x| (signs compared directly: a*b underflows below 1e-154)
        guess = []
        for i, s in enumerate(lin):
            a, b = x[i], x1[i]
            pos = a > 0.0
            if not (a != 0.0 and b != 0.0 and (b > 0.0) == pos
                    and (abs(a) < 1e-2 or (s > 0.0) != pos)):
                guess.append(s)
            elif cubic and x2[i] != 0.0 and x3[i] != 0.0 and (x2[i] > 0.0) == pos == (x3[i] > 0.0):
                r = (a / b) * (x2[i] / b)
                guess.append(a * r * r * r * (x2[i] / x3[i]))
            else:
                guess.append(a * (a / b) ** frac)
        return guess, False

    def march(self, chart: Chart, targets: list[float], c: float, x, fold_c) -> list[StateSolution]:
        """March the accepted point x at c through targets (ascending |c - c0|).

        The step h starts at BASE_STEP and is carried from step to step.  A
        corrector solve reports its Newton contraction kappa = |r1|/|r0| and
        the predictor error delta = max|root - guess| over the two unknowns
        (root[0] and root[1] of every chart); after a secant both
        scale like h^2, so
        f = max(sqrt(kappa / STEP_CONTRACTION), sqrt(delta / STEP_CORRECTION))
        is the factor by which the step overshot its nominal size.  The cubic
        predictor's error scales like h^4; it runs only on equally spaced
        points, where the targets, not f, set the step, and there it turns
        most solves into a single Newton iteration.
        - f <= STEP_GROWTH: the step is accepted and the next h is
          step / max(f, 1/STEP_GROWTH), but not below min(h, BASE_STEP): the
          old fixed BASE_STEP converges wherever the folds leave it room, so
          only a rejection takes h below it.
        - f > STEP_GROWTH: the step is rejected and retried at step / f.
        - The corrector raises NoConvergenceError or ConstraintViolationError:
          the step is retried at step / STEP_GROWTH**2, and the error is raised
          once that falls below MIN_STEP.  A residual floor (ResidualFloorError)
          or a predicted beta/eta below the smallest normal double is raised at
          once, since no step size lowers it.
        The predictor (_predict) sees the last four accepted points of this
        call; near the threshold it takes the square-root model instead, and
        elsewhere a retried step breaks their equal spacing, so the retry and
        every step until three equal ones follow it take the secant.  Once a
        model guess is rejected with a predictor error above STEP_CORRECTION,
        the model is off for the rest of the call: C(1, n2) + 4 falls like
        1/n2^2, so for large n2 the model holds only far inside the 0.1
        window, and its error there does not shrink with the step.  Every
        step is clipped to the next target, and while heading for the fold at
        fold_c (None: no fold ahead) to at most half the remaining distance:
        always on the real branch, while alpha = x[0] - shift*c is small on
        the complex one.
        Errors name the requested label, the failing c and the last good c.

        Once per march the chart's pieces, the partner and real flags and the
        fold limit FOLD_MIN_SPAN/4 are bound to locals, and the last four
        accepted points are kept in locals, not in a history tuple.  Once per
        sample the canonical coords are built with tuple.__new__ (their values
        are floats already), and every check still runs on every sample: the
        chart's sheet, build_state's identities and the corrector's own.
        The hoisting stops there: eq.newton_solve, build_state and the eq.*
        residuals inside the chart lambdas are looked up at call time, since
        the benchmark's tracer and the tests' newton_counter replace them by
        module attribute (bethe3.equations, bethe3.continuation).
        """
        coords, residual, jacobian, sheet, shift = chart
        label, lab, p, real = self.label, self.lab, self.p, coords is RealCoords
        partner, predict, use_model = label is not lab, self._predict, True
        out = []
        c1 = x1 = c2 = x2 = c3 = x3 = None
        h = BASE_STEP
        fold_room, shrunk = FOLD_MIN_SPAN / 4.0, 1.0 / STEP_GROWTH
        for tgt in targets:
            snap = 1e-12 * max(1.0, abs(tgt))
            while c != tgt:
                sign = 1.0 if tgt > c else -1.0
                step = abs(tgt - c)
                if h < step:
                    step = h
                if fold_c is not None and (real or x[0] - shift * c < FOLD_ALPHA_SMALL):
                    # step = min(step, max(room, fold_room)), with no builtin calls
                    room = 0.5 * abs(c - fold_c)
                    if fold_room > room:
                        room = fold_room
                    if room < step:
                        step = room
                cn = c + sign * step
                if sign * (tgt - cn) < snap:
                    cn = tgt
                guess, modelled = predict(chart, cn, use_model, c, x, c1, x1, c2, x2, c3, x3)
                try:
                    res = eq.newton_solve(residual, jacobian, guess, RESIDUAL_TOL, (lab, cn))
                except (eq.NoConvergenceError, eq.ConstraintViolationError) as exc:
                    h = step / STEP_GROWTH ** 2
                    floor = isinstance(exc, eq.ResidualFloorError)
                    if not real and abs(guess[0]) < sys.float_info.min:
                        floor, exc.args = True, (
                            f"predicted beta/eta {guess[0]:.3e} is below the smallest normal "
                            f"double {sys.float_info.min:.3e}: {exc}",)
                    if floor or h < MIN_STEP:
                        _name_failure(exc, coords, label, cn, c)
                        raise
                    continue
                root, _, _, kappa = res
                err, err1 = abs(root[0] - guess[0]), abs(root[1] - guess[1])
                if err1 > err:
                    err = err1
                kappa, over = kappa / STEP_CONTRACTION, err / STEP_CORRECTION
                f = math.sqrt(over if over > kappa else kappa)
                if f > STEP_GROWTH and step / f >= MIN_STEP:
                    h = step / f
                    if modelled and err > STEP_CORRECTION:
                        use_model = False
                    continue
                # h = max(grown, min(h, BASE_STEP)), keeping grown on a tie as max() does
                if h > BASE_STEP:
                    h = BASE_STEP
                grown = step / f if f > shrunk else step * STEP_GROWTH
                if not h > grown:
                    h = grown
                c3, x3, c2, x2, c1, x1 = c2, x2, c1, x1, c, x
                x, c = root, cn
            # x[0] - shift*c, x[1] and p are floats already: no float() round trip
            co = tuple.__new__(coords, (x[0] - shift * c, x[1], p))
            sheet(lab, c, co)
            out.append(build_state(label, c, partner_coords(co) if partner else co))
        return out

    def solve_targets(self, targets: Sequence[float]) -> list[StateSolution]:
        """Solve at every requested c, given strictly ascending (trace_root's
        grid, solve_state's one c); returns the states in that order, put
        together from the marches away from c = 0 without a lookup by c.
        A negative target within 1e-13 of C, where the Jacobian is singular,
        takes the model's state: the threshold root at C itself."""
        label, lab, crit = self.label, self.lab, self.critical
        c_crit = crit.C if crit else -math.inf
        chart = complex_chart(lab)
        at_crit, pos, neg = [], [], []
        for t in targets:
            if t < 0.0 and abs(t - c_crit) < 1e-13:
                coords = branch_switch(lab, t, crit)
                (REAL if type(coords) is RealCoords else chart).sheet(lab, t, coords)
                at_crit.append(build_state(label, t,
                                           coords if label is lab else partner_coords(coords)))
            else:
                (pos if t >= 0.0 else neg).append(t)
        neg.reverse()
        x0 = (TWO_PI * lab.n1, TWO_PI * lab.n2)
        above = self.march(REAL, pos, 0.0, x0, None)
        real_below = self.march(REAL, [t for t in neg if t > c_crit], 0.0, x0, c_crit if crit else None)
        neg_complex = [t for t in neg if t < c_crit]
        complex_below = []
        if neg_complex:
            c = max(c_crit - FOLD_MIN_SPAN, neg_complex[0])
            model = branch_switch(lab, c, crit)
            guess = (model[0] + chart.shift * c, model[1])
            try:
                res = eq.newton_solve(chart.residual, chart.jacobian, guess, RESIDUAL_TOL, (lab, c))
            except (eq.NoConvergenceError, eq.ConstraintViolationError) as exc:
                _name_failure(exc, chart.coords, label, c, c_crit)
                raise
            complex_below = self.march(chart, neg_complex, c, res.root, c_crit)
        # the sides below c = 0 were marched downward
        return complex_below[::-1] + at_crit + real_below[::-1] + above


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


class Trajectory(NamedTuple):
    """A labeled root followed over a c grid (samples ascending in c)."""

    label: QuantumLabel
    samples: list[StateSolution]
    critical: CriticalPoint | None

    def couplings(self) -> list[float]:
        return [s.c for s in self.samples]

    def sample_at(self, c: float) -> StateSolution:
        for s in self.samples:
            if abs(s.c - c) <= 1e-12:
                return s
        raise KeyError(f"no sample at c={c}")

    def branch_changes(self) -> int:
        return sum(
            1 for a, b in zip(self.samples, self.samples[1:]) if a.branch is not b.branch
        )


def _require_finite(**values: float) -> tuple[float, ...]:
    """The values as floats; ValueError for nan and +-inf couplings and
    steps, on which the march would never end."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return tuple(map(float, values.values()))


def _grid(critical: CriticalPoint | None, c_min: float, c_max: float, step: float) -> list[float]:
    if not (step > 0):
        raise ValueError(f"step must be positive, got {step}")
    if c_min > c_max:
        raise ValueError(f"empty range [{c_min}, {c_max}]")
    if (c_max - c_min) / step > MAX_GRID_POINTS:
        raise ValueError(f"step {step} puts more than {MAX_GRID_POINTS} samples "
                         f"on [{c_min}, {c_max}]")
    k_lo = math.ceil(c_min / step - 1e-9)
    k_hi = math.floor(c_max / step + 1e-9)
    whole, dot, frac = repr(step).partition(".")
    if dot and whole.isdigit() and frac.isdigit() and len(frac) <= 12:
        # step is the decimal m / 10**d: each point k*m / 10**d is one
        # correctly rounded division, the double nearest the decimal grid
        m, scale = int(whole + frac), 10 ** len(frac)
        pts = {k * m / scale for k in range(k_lo, k_hi + 1)}
    else:
        pts = {round(k * step, 12) for k in range(k_lo, k_hi + 1)}
    if critical is not None:
        h = step / 2.0
        while h >= FOLD_MIN_SPAN:
            pts.update(t for t in (critical.C - h, critical.C + h) if c_min <= t <= c_max)
            h /= 2.0
        # the grid and its refinement stop FOLD_MIN_SPAN short of C; the
        # requested ends and c = 0 are added after, and solved wherever they lie
        pts = {t for t in pts if abs(t - critical.C) >= FOLD_MIN_SPAN}
    pts.update((c_min, c_max))
    if c_min <= 0.0 <= c_max:
        pts.add(0.0)
    return sorted(pts)


def trace_root(
    label: QuantumLabel,
    c_min: float,
    c_max: float,
    step: float = BASE_STEP,
) -> Trajectory:
    """Trace a labeled root over [c_min, c_max] on a step grid.

    The grid is refined geometrically near the critical coupling so the
    square-root fold is resolved down to FOLD_MIN_SPAN; grid points closer to
    C than that are left out, but c_min, c_max and c = 0 (when in range) are
    always samples, at C itself too.  Non-canonical labels march their
    canonical partner's chart, each sample built in their own frame.  A step
    that puts more than MAX_GRID_POINTS samples on the range raises
    ValueError before any solve.
    """
    c_min, c_max, step = _require_finite(c_min=c_min, c_max=c_max, step=step)
    marcher = _Marcher(label)
    samples = marcher.solve_targets(_grid(marcher.critical, c_min, c_max, step))
    traj = Trajectory(label=label, samples=samples, critical=marcher.critical)
    _validate_trajectory(traj)
    return traj


def _validate_trajectory(traj: Trajectory) -> None:
    """Samples strictly ascending in c, and at most one branch change, in one pass."""
    changes = 0
    for a, b in zip(traj.samples, traj.samples[1:]):
        if b.c <= a.c:
            raise BoundsViolationError("trajectory samples are not strictly monotone in c")
        if a.coords.branch is not b.coords.branch:
            changes += 1
    if changes > 1:
        raise BoundsViolationError("branch tag changed more than once")


def solve_state(label: QuantumLabel, c: float) -> StateSolution:
    """Solve a single labeled state at coupling c (continuation from c = 0)."""
    return _Marcher(label).solve_targets(_require_finite(c=c))[0]


class SpectrumResult(NamedTuple):
    states: list[StateSolution]
    failures: dict[QuantumLabel, str]


def spectrum(
    labels: list[QuantumLabel], c: float, include_partners: bool = False
) -> SpectrumResult:
    """Solve every label at fixed c; states sorted by energy, errors collected
    (a non-finite c raises ValueError up front).  A label whose state is
    already in the result, solved or added as a partner, is skipped."""
    _require_finite(c=c)
    states: list[StateSolution] = []
    failures: dict[QuantumLabel, str] = {}
    done: set[QuantumLabel] = set()  # labels in states, solved or added as partners
    for label in labels:
        if label in failures or label in done:
            continue
        try:
            st = solve_state(label, c)
        except Exception as exc:  # propagate per label without aborting the batch
            failures[label] = f"{type(exc).__name__}: {exc}"
            continue
        states.append(st)
        done.add(st.label)
        if include_partners and not label.is_diagonal:
            partner = partner_state(st)
            states.append(partner)
            done.add(partner.label)
    states.sort(key=lambda s: s.energy)
    return SpectrumResult(states=states, failures=failures)
