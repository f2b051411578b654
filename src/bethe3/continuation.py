"""Root continuation over the coupling grid: tracing, critical points, spectra.

Every trajectory starts from the exact non-interacting solution
delta_j(0) = 2*pi*n_j and marches outward with a secant predictor and the
damped-Newton corrector.  Labels with min(n1,n2) = 1 turn complex at the
critical coupling C(1,n2) in [-6,-4); labels with min = 0 turn complex at
C = 0; labels with both n_j >= 2 stay real for all c (critical_point).  Near
a critical point the square-root local models seed the corrector and the
step is refined geometrically.  Five Charts (unknowns, residual, closed-form
Jacobian, guard) cover the two real branches and the complex families, whose
gamma = 0 members (1,1) and (0,0) need no chart of their own, and a single
march loop runs them all.  Every residual is single-valued on its sheet
(the real branch in its theta-sum form, family 0 with principal arguments
while gamma <= 0), so a root fixes its own branch: the march is a function
of the label and the targets, with no continued argument carried along.

The step size is adaptive (Allgower & Georg, Introduction to Numerical
Continuation Methods, ch. 6): it starts at BASE_STEP and grows or shrinks
from the Newton contraction and the predictor error of each solve, so the
roots' flattening at large |c| shows up as steps that grow with |c|.  Steps
that overshoot or fail are retried smaller down to MIN_STEP; a residual
floor or the subnormal floor of beta/eta is reported at once (_Marcher.march).
The returned samples are exactly the requested grid; only the internal
steps adapt.

Partner labels (n1 > n2) are never re-solved: the canonical trajectory is
traced and mapped through the conjugation symmetry sample by sample.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from . import equations as eq
from .model import (
    TWO_PI,
    Branch,
    ComplexCoords,
    QuantumLabel,
    RealCoords,
    StateSolution,
    build_state,
    partner_state,
)
from .tolerances import (
    BASE_STEP,
    FOLD_ALPHA_SMALL,
    FOLD_MIN_SPAN,
    IDENTITY_TOL,
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


def delta1_fold_model(label: QuantumLabel, c: float, critical: CriticalPoint) -> tuple[float, float]:
    """Real-branch (delta1, delta2) from the local model just above C."""
    lab = label.canonical()
    if lab.n2 == 1:
        d = math.sqrt(max(6.0 * (c + 6.0), 0.0))
        return d, d
    kc, ku = fold_coefficients(critical.u0)
    u1 = -math.sqrt(max(c - critical.C, 0.0) / kc)
    u2 = critical.u0 - 0.5 * u1 + ku * u1 * u1
    return c * u1, c * u2


def branch_switch(
    label: QuantumLabel, c: float, critical: CriticalPoint | None = None
) -> ComplexCoords:
    """Square-root local-model seed (alpha, gamma) for c slightly below C."""
    lab = label.canonical()
    p = TWO_PI * lab.np
    crit = critical or critical_point(lab)
    if crit is None:
        raise ValueError(f"label {label} has no complex branch")
    if c >= crit.C:
        raise ValueError(f"seed requires c < C = {crit.C}, got {c}")
    if lab.n1 == 0:
        if lab.n2 == 0:
            return ComplexCoords(alpha=math.sqrt(-3.0 * c), gamma=0.0, p=p)
        alpha = math.sqrt(-c)
        gamma = -(2.0 / 3.0) * math.pi * lab.n2 + alpha * alpha / (math.pi * lab.n2)
        return ComplexCoords(alpha=alpha, gamma=gamma, p=p)
    if lab.n2 == 1:
        return ComplexCoords(alpha=math.sqrt(6.0 * (-6.0 - c)), gamma=0.0, p=p)
    kc, ku = fold_coefficients(crit.u0)
    alpha = 0.5 * abs(c) * math.sqrt((crit.C - c) / kc)
    gamma = -c * (crit.u0 + ku * (-4.0 * alpha * alpha / (c * c))) / 3.0
    return ComplexCoords(alpha=alpha, gamma=gamma, p=p)


# ---------------------------------------------------------------------------
# Charts: one parameterization per branch and complex family
# ---------------------------------------------------------------------------


class Chart(NamedTuple):
    """Unknowns x of one branch or complex family and their corrector pieces.

    residual and guard take the canonical label first; they are pure
    functions of (label, x, c).  sheet runs at every returned sample.
    """

    branch: Branch
    to_x: Callable        # (coords, c) -> x
    to_coords: Callable   # (x, c, p) -> RealCoords | ComplexCoords
    residual: Callable    # (label, x, c) -> residuals
    jacobian: Callable    # (x, c) -> rows of d(residual)/dx
    guard: Callable       # (label, x, c) -> x on the valid sheet
    sheet: Callable       # (label, c, coords), raises BoundsViolationError off the sheet


def _real_guard(lab, x, c) -> bool:
    """Loose sheet guard for the real-branch Newton; _real_sheet enforces the
    published delta windows exactly on returned samples."""
    return (0.0 <= x[0] < TWO_PI * (lab.n1 + 1) + math.pi
            and 0.0 <= x[1] < TWO_PI * (lab.n2 + 1) + math.pi)


def _real_sheet(lab: QuantumLabel, c: float, coords: RealCoords) -> None:
    """The published delta windows, enforced exactly on returned samples."""
    slack = 1e-9
    for d, n in ((coords.delta1, lab.n1), (coords.delta2, lab.n2)):
        if c > 0:
            lo, hi = TWO_PI * n - math.pi, TWO_PI * (n + 1)
        elif c < 0:
            lo, hi = TWO_PI * (n - 1), TWO_PI * n + math.pi
        else:
            lo = hi = TWO_PI * n
        if not (lo - slack <= d <= hi + slack):
            raise BoundsViolationError(
                f"delta bound broken for {lab} at c={c}: delta={d}, window=({lo}, {hi})"
            )


# the internal beta/eta guards are strict; the public alpha view may
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


def _shifted(frac: float) -> dict:
    """Converters for the complex unknowns (alpha + frac*c, gamma); solving in
    beta = alpha + c/2 or eta = alpha + c keeps their exponentially small
    values exact deep in the attractive regime."""
    return dict(to_x=lambda co, c: (co.alpha + frac * c, co.gamma),
                to_coords=lambda x, c, p: ComplexCoords(x[0] - frac * c, x[1], p))


REAL_DIAGONAL = Chart(  # n1 = n2: one common delta
    Branch.REAL_K,
    to_x=lambda co, c: (co.delta1,),
    to_coords=lambda x, c, p: RealCoords(x[0], x[0], p),
    residual=lambda lab, x, c: (eq.residual_equal_delta(x[0], c, lab.n1),),
    jacobian=lambda x, c: ((eq.jacobian_equal_delta(x[0], c),),),
    guard=lambda lab, x, c: x[0] >= 0.0,
    sheet=_real_sheet,
)
REAL_COUPLED = Chart(
    Branch.REAL_K,
    to_x=lambda co, c: (co.delta1, co.delta2),
    to_coords=lambda x, c, p: RealCoords(x[0], x[1], p),
    residual=lambda lab, x, c: eq.residual_real_thetasum(x[0], x[1], c, lab.n1, lab.n2),
    jacobian=lambda x, c: eq.jacobian_real_thetasum(x[0], x[1], c),
    guard=_real_guard,
    sheet=_real_sheet,
)
FAMILY1 = Chart(  # (1, n2) in (beta, gamma); (1,1) keeps gamma = 0
    Branch.COMPLEX_K, **_shifted(0.5),
    residual=lambda lab, x, c: eq.family1_residual_beta(x[0], x[1], c, lab.n2),
    jacobian=lambda x, c: eq.family1_jacobian_beta(x[0], x[1], c),
    guard=lambda lab, x, c: c / 2.0 < x[0] < 0.0,
    sheet=_dimer_sheet,
)
FAMILY0_ETA = Chart(  # (0,0), (0,1) in (eta, gamma)
    Branch.COMPLEX_K, **_shifted(1.0),
    residual=lambda lab, x, c: eq.family0_residual_eta(x[0], x[1], c, lab.n2),
    jacobian=lambda x, c: eq.family0_jacobian_eta(x[0], x[1], c),
    guard=lambda lab, x, c: -c + 2.0 * x[0] > 0.0 and (x[0] != 0.0 or x[1] != 0.0),
    sheet=_trimer_sheet,
)
FAMILY0_BETA = Chart(  # (0, n2 >= 2) in (beta, gamma)
    Branch.COMPLEX_K, **_shifted(0.5),
    residual=lambda lab, x, c: eq.family0_residual_beta(x[0], x[1], c, lab.n2),
    jacobian=lambda x, c: eq.family0_jacobian_beta(x[0], x[1], c),
    guard=lambda lab, x, c: x[0] > 0.0,
    sheet=_trimer_sheet,
)


# ---------------------------------------------------------------------------
# Marching engine
# ---------------------------------------------------------------------------


class _Marcher:
    """Marches one canonical label outward on both sides of c = 0."""

    def __init__(self, label: QuantumLabel):
        self.lab = label.canonical()
        self.p = TWO_PI * self.lab.np
        self.critical = critical_point(self.lab)

    def _solve(self, chart: Chart, c: float, guess) -> eq.NewtonResult:
        return eq.newton_solve(
            lambda x: chart.residual(self.lab, x, c),
            lambda x: chart.jacobian(x, c),
            guess,
            tol=RESIDUAL_TOL,
            guard=lambda x: chart.guard(self.lab, x, c),
        )

    def _predict(self, chart: Chart, c, x, cprev, xprev, cn):
        """Small-c series or square-root fold model where they apply, else secant."""
        lab, crit = self.lab, self.critical
        if chart.branch is Branch.COMPLEX_K:
            seed = branch_switch(lab, cn, crit)
            if seed.alpha < FOLD_ALPHA_SMALL:
                return chart.to_x(seed, cn)
        elif lab.n1 == 0 and 0.0 < cn <= 0.05:
            from .asymptotics import delta_small_c

            return chart.to_x(RealCoords(*delta_small_c(lab, cn), self.p), cn)
        elif lab.n1 == 1 and cn < 0 and (x[0] < FOLD_ALPHA_SMALL or cn - crit.C < 0.1):
            return chart.to_x(RealCoords(*delta1_fold_model(lab, cn, crit), self.p), cn)
        if xprev is None or cprev == c:
            return x
        frac = (cn - c) / (c - cprev)
        if chart.branch is Branch.REAL_K:
            return [a + (a - b) * frac for a, b in zip(x, xprev)]
        # the complex unknowns that decay exponentially deep in the attractive
        # regime (beta or eta, and gamma of (0,1)) are predicted multiplicatively
        # while their sign holds, and so is any whose secant would flip its sign
        # (signs compared directly: a*b underflows below 1e-154)
        guess = []
        for a, b in zip(x, xprev):
            secant = a + (a - b) * frac
            same_sign = a != 0.0 and b != 0.0 and (a > 0.0) == (b > 0.0)
            if same_sign and (abs(a) < 1e-2 or (secant > 0.0) != (a > 0.0)):
                guess.append(a * (a / b) ** frac)
            else:
                guess.append(secant)
        return guess

    def march(self, chart: Chart, targets: list[float], c: float, x, fold_c) -> list[StateSolution]:
        """March the accepted point x at c through targets (ascending |c - c0|).

        The step h starts at BASE_STEP and is carried from step to step.  A
        corrector solve reports its Newton contraction kappa = |r1|/|r0| and
        the predictor error delta = max|root - guess|; both scale like h^2, so
        f = max(sqrt(kappa / STEP_CONTRACTION), sqrt(delta / STEP_CORRECTION))
        is the factor by which the step overshot its nominal size.
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
        Every step is clipped to the next target, and while heading for the
        fold at fold_c (None: no fold ahead) to at most half the remaining
        distance: always on the real branch, while alpha is small on the
        complex one.  Errors name the label, the failing c and the last good c.
        """
        out = []
        xprev = cprev = None
        h = BASE_STEP
        for tgt in targets:
            while c != tgt:
                sign = 1.0 if tgt > c else -1.0
                step = min(h, abs(tgt - c))
                if fold_c is not None and (
                    chart.branch is Branch.REAL_K
                    or chart.to_coords(x, c, self.p).alpha < FOLD_ALPHA_SMALL
                ):
                    step = min(step, max(0.5 * abs(c - fold_c), FOLD_MIN_SPAN / 4.0))
                cn = c + sign * step
                if sign * (tgt - cn) < 1e-12 * max(1.0, abs(tgt)):
                    cn = tgt
                guess = self._predict(chart, c, x, cprev, xprev, cn)
                try:
                    res = self._solve(chart, cn, guess)
                except (eq.NoConvergenceError, eq.ConstraintViolationError) as exc:
                    h = step / STEP_GROWTH ** 2
                    floor = isinstance(exc, eq.ResidualFloorError)
                    if chart.branch is Branch.COMPLEX_K and abs(guess[0]) < sys.float_info.min:
                        floor, exc.args = True, (
                            f"predicted beta/eta {guess[0]:.3e} is below the smallest normal "
                            f"double {sys.float_info.min:.3e}: {exc}",)
                    if floor or h < MIN_STEP:
                        exc.args = (f"{chart.branch.value}-branch corrector failed for label "
                                    f"{self.lab} at c={cn} (last good c={c}): {exc}",)
                        raise
                    continue
                root = res.root  # one or two unknowns: [0] and [-1] cover them all
                f = math.sqrt(max(res.contraction / STEP_CONTRACTION,
                                  abs(root[0] - guess[0]) / STEP_CORRECTION,
                                  abs(root[-1] - guess[-1]) / STEP_CORRECTION))
                if f > STEP_GROWTH and step / f >= MIN_STEP:
                    h = step / f
                    continue
                h = max(step / f if f > 1.0 / STEP_GROWTH else step * STEP_GROWTH,
                        h if h < BASE_STEP else BASE_STEP)
                xprev, cprev, x, c = x, c, root, cn
            coords = chart.to_coords(x, c, self.p)
            chart.sheet(self.lab, c, coords)
            out.append(build_state(self.lab, c, coords))
        return out

    def solve_targets(self, targets: list[float]) -> list[StateSolution]:
        """Solve at every requested c (any order); returns states in input order."""
        lab = self.lab
        pos = sorted(t for t in targets if t >= 0.0)
        neg = sorted((t for t in targets if t < 0.0), reverse=True)
        c_crit = self.critical.C if self.critical else -math.inf
        if any(abs(t - c_crit) < 1e-13 for t in neg):
            raise ValueError(f"cannot solve exactly at the critical point C={c_crit}")
        real = REAL_DIAGONAL if lab.is_diagonal else REAL_COUPLED
        x0 = real.to_x(RealCoords(TWO_PI * lab.n1, TWO_PI * lab.n2, self.p), 0.0)
        sides = [(pos, None)]
        if neg:
            sides.append(([t for t in neg if t > c_crit], c_crit if self.critical else None))
        states = []
        for side, fold_c in sides:
            states += self.march(real, side, 0.0, x0, fold_c)
        neg_complex = [t for t in neg if t < c_crit]
        if neg_complex:
            chart = FAMILY1 if lab.n1 == 1 else FAMILY0_BETA if lab.n2 >= 2 else FAMILY0_ETA
            c = max(c_crit - FOLD_MIN_SPAN, neg_complex[0])
            x = self._solve(chart, c, chart.to_x(branch_switch(lab, c, self.critical), c)).root
            states += self.march(chart, neg_complex, c, x, c_crit)
        by_c = {st.c: st for st in states}
        return [by_c[float(t)] for t in targets]


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

    def sample_at(self, c: float, atol: float = 1e-12) -> StateSolution:
        for s in self.samples:
            if abs(s.c - c) <= atol:
                return s
        raise KeyError(f"no sample at c={c}")

    def branch_changes(self) -> int:
        return sum(
            1 for a, b in zip(self.samples, self.samples[1:]) if a.branch is not b.branch
        )


def _require_finite(**values: float) -> None:
    """Reject nan and +-inf couplings and steps: the march would never end."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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
    pts = {round(k * step, 12) for k in range(k_lo, k_hi + 1)}
    pts.update((c_min, c_max))
    if c_min <= 0.0 <= c_max:
        pts.add(0.0)
    if critical is None:
        return sorted(pts)
    h = step / 2.0
    while h >= FOLD_MIN_SPAN:
        for side in (critical.C - h, critical.C + h):
            if c_min <= side <= c_max:
                pts.add(side)
        h /= 2.0
    # exclude grid points inside the fold window, but never the exact
    # reference point c = 0 (the free solution is exact there)
    return sorted(t for t in pts if t == 0.0 or abs(t - critical.C) >= FOLD_MIN_SPAN)


def trace_root(
    label: QuantumLabel,
    c_min: float,
    c_max: float,
    step: float = BASE_STEP,
) -> Trajectory:
    """Trace a labeled root over [c_min, c_max] on a step grid.

    The grid is refined geometrically near the critical coupling so the
    square-root fold is resolved down to FOLD_MIN_SPAN.  Non-canonical labels
    are traced through their canonical partner and mapped by symmetry.  A step
    that puts more than MAX_GRID_POINTS samples on the range raises
    ValueError before any solve.
    """
    _require_finite(c_min=c_min, c_max=c_max, step=step)
    lab = label.canonical()
    marcher = _Marcher(lab)
    samples = marcher.solve_targets(_grid(marcher.critical, c_min, c_max, step))
    if lab != label:
        samples = [partner_state(s) for s in samples]
    traj = Trajectory(label=label, samples=samples, critical=marcher.critical)
    _validate_trajectory(traj)
    return traj


def _validate_trajectory(traj: Trajectory) -> None:
    cs = traj.couplings()
    if any(b <= a for a, b in zip(cs, cs[1:])):
        raise BoundsViolationError("trajectory samples are not strictly monotone in c")
    if traj.branch_changes() > 1:
        raise BoundsViolationError("branch tag changed more than once")
    p = TWO_PI * traj.label.np
    for s in traj.samples:
        if abs(s.momenta.total - p) > IDENTITY_TOL:
            raise BoundsViolationError(f"momentum drift at c={s.c}")


def solve_state(label: QuantumLabel, c: float) -> StateSolution:
    """Solve a single labeled state at coupling c (continuation from c = 0)."""
    _require_finite(c=c)
    lab = label.canonical()
    marcher = _Marcher(lab)
    state = marcher.solve_targets([float(c)])[0]
    if lab != label:
        state = partner_state(state)
    return state


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
    for label in labels:
        if label in failures or any(st.label == label for st in states):
            continue
        try:
            st = solve_state(label, c)
        except Exception as exc:  # propagate per label without aborting the batch
            failures[label] = f"{type(exc).__name__}: {exc}"
            continue
        states.append(st)
        if include_partners and not label.is_diagonal:
            states.append(partner_state(st))
    states.sort(key=lambda s: s.energy)
    return SpectrumResult(states=states, failures=failures)
