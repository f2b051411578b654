"""Transcendental systems: residuals, closed-form Jacobians, Newton corrector.

Residual conventions
--------------------
Real branch (k1 <= k2 <= k3, gaps d1, d2 >= 0): with
theta(dk, c) = -2*atan2(dk, c) in (-2*pi, 0], the quantization system reads

    r1 = d1 - 2*pi*(n1+1) - 2*theta(d1,c) - theta(d1+d2,c) + theta(d2,c)
    r2 = d2 - 2*pi*(n2+1) - 2*theta(d2,c) - theta(d1+d2,c) + theta(d1,c)

which is globally continuous in c, so a root fixes its own branch.  It
equals the log form r_j = d_j + arg(z_j) - 2*pi*n_j with arg z_j continued
from the c = 0 root; that form is an independent oracle
(bethe3.oracles.log_form_real), not a corrector path.

Complex branch, family n1 = 1 (valid below C(1, n2), 0 < alpha < -c/2):

    r_alpha = 2*alpha + log[ ((-c-2a)/(-c+2a))^2 * ((-c-a)^2+9g^2)/((-c+a)^2+9g^2) ]
    r_gamma = -3*gamma + 3*arg(-c+a + 3ig) + 3*arg(-c-a + 3ig) - 2*pi*(n2-1)

Family n1 = 0 (valid for c < 0, 2*alpha + c > 0):

    r_alpha = 2*alpha + log[ ((2a+c)/(2a-c))^2 * ((a+c)^2+9g^2)/((a-c)^2+9g^2) ]
    r_gamma = -3*gamma + 3*arg(-3g + i(a-c)) - 3*arg(-3g + i(a+c)) - 2*pi*n2

Both arguments are principal.  The factor -3g + i(a-c) stays in the upper
half plane; -3g + i(a+c) stays in the closed right half plane while
gamma <= 0, which the trimer sheet check enforces on every returned sample,
so it never meets the cut.  Both families hold their gamma = 0 members:
(1,1) and (0,0) are the roots with gamma = 0, where the r_gamma rows vanish
identically.

The family residuals take shifted unknowns (beta = alpha + c/2,
eta = alpha + c), free of the catastrophic cancellation of -c - 2*alpha or
alpha + c deep in the attractive regime; bethe3.continuation picks a label's
family (complex_chart) and reads it at plain (alpha, gamma) (residual_complex).

Every residual the corrector solves has its closed-form Jacobian next to it,
built from d(theta)/d(dk) = -2c/(c^2 + dk^2) and the derivatives of log|z|
and arg z; the test suite checks each against central differences.
newton_solve is a damped Newton for these two-unknown systems.  It
calls residual and jacobian as f(x, label, c), so the march hands it a
Chart's pieces as they are.  Each residual is its own sheet test: it raises
ConstraintViolationError off its sheet (a negative gap; beta outside
(c/2, 0) for n1 = 1; 2*alpha + c <= 0, or alpha + c = gamma = 0, for n1 = 0),
NaN included, and newton_solve reads that at a line-search candidate as the
sheet edge.  It reports the contraction of its first iteration (the march
sizes its steps from it) and raises ResidualFloorError when the residual
stalls above the tolerance.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .model import TWO_PI, QuantumLabel
from .tolerances import (
    NEWTON_MAX_HALVINGS,
    NEWTON_MAX_ITER,
    NEWTON_FLOOR_STEP,
    NEWTON_STALL_ITER,
    RESIDUAL_TOL,
)


class ConstraintViolationError(ValueError):
    """A sign constraint of the current branch would be crossed."""


class NoConvergenceError(RuntimeError):
    """Newton failed to reach tolerance."""

    def __init__(self, message: str, root, residual, iterations: int):
        super().__init__(message)
        self.root = root
        self.residual = residual
        self.iterations = iterations


class ResidualFloorError(NoConvergenceError):
    """Newton stopped lowering the residual above the requested tolerance: the
    attained floor, set by the rounding error of the residual evaluation."""


# ---------------------------------------------------------------------------
# Real branch
# ---------------------------------------------------------------------------


class ResidualPoint(NamedTuple):
    """Residuals of a 2-unknown system at a trial point."""

    residual: tuple[float, float]


def residual_real_thetasum(d1: float, d2: float, c: float, n1: int, n2: int) -> tuple[float, float]:
    """Theta-sum form of the coupled real-branch equations at gaps >= 0 (stateless).

    theta is inlined off c = 0, where it is -2*atan2 with no special case.
    """
    if not (d1 >= 0.0 and d2 >= 0.0):
        raise ConstraintViolationError(f"gaps must be >= 0, got ({d1}, {d2})")
    if c == 0.0:  # theta(dk >= 0, 0) = -pi: -2*atan2(dk, 0) for dk > 0, the convention at 0
        t1 = t2 = t3 = -math.pi
    else:
        t1 = -2.0 * math.atan2(d1, c)
        t2 = -2.0 * math.atan2(d2, c)
        t3 = -2.0 * math.atan2(d1 + d2, c)
    r1 = d1 - TWO_PI * (n1 + 1) - 2.0 * t1 - t3 + t2
    r2 = d2 - TWO_PI * (n2 + 1) - 2.0 * t2 - t3 + t1
    return r1, r2


def jacobian_real_thetasum(d1: float, d2: float, c: float):
    """Rows d(r1, r2)/d(d1, d2) of the theta-sum residual (d(theta)/d(dk) inlined)."""
    m, cc, d3 = -2.0 * c, c * c, d1 + d2
    p1, p2, p3 = m / (cc + d1 * d1), m / (cc + d2 * d2), m / (cc + d3 * d3)
    return ((1.0 - 2.0 * p1 - p3, p2 - p3), (p1 - p3, 1.0 - 2.0 * p2 - p3))


def residual_real(d1: float, d2: float, c: float, label: QuantumLabel) -> ResidualPoint:
    """Coupled theta-sum residuals at gaps (delta1, delta2) >= 0 (else ConstraintViolationError)."""
    return ResidualPoint(residual_real_thetasum(d1, d2, c, label.n1, label.n2))


# ---------------------------------------------------------------------------
# Complex branch: stable internal forms
# ---------------------------------------------------------------------------


def family1_residual_beta(b: float, g: float, c: float, n2: int) -> tuple[float, float]:
    """n1 = 1 family in beta = alpha + c/2 (c/2 < beta < 0), gamma.

    Pieces: -c-2a = -2b, -c+2a = -2c+2b, -c-a = -c/2-b, -c+a = -3c/2+b.
    """
    if not (c / 2.0 < b < 0.0):
        raise ConstraintViolationError(f"beta out of range ({c/2}, 0): {b}")
    xm = -c / 2.0 - b       # -c - alpha > 0
    xp = -1.5 * c + b       # -c + alpha > 0
    ra = (-c + 2.0 * b) + 2.0 * (math.log(-2.0 * b) - math.log(-2.0 * c + 2.0 * b)) \
        + math.log(xm * xm + 9.0 * g * g) - math.log(xp * xp + 9.0 * g * g)
    rg = -3.0 * g + 3.0 * math.atan2(3.0 * g, xp) + 3.0 * math.atan2(3.0 * g, xm) \
        - TWO_PI * (n2 - 1)
    return ra, rg


def family1_jacobian_beta(b: float, g: float, c: float):
    """Rows d(r_alpha, r_gamma)/d(beta, gamma) of family1_residual_beta."""
    xm = -c / 2.0 - b
    xp = -1.5 * c + b
    dm = xm * xm + 9.0 * g * g
    dp = xp * xp + 9.0 * g * g
    cross = 9.0 * g / dm - 9.0 * g / dp
    return (
        (2.0 + 2.0 / b - 2.0 / (b - c) - 2.0 * xm / dm - 2.0 * xp / dp, 2.0 * cross),
        (cross, -3.0 + 9.0 * xp / dp + 9.0 * xm / dm),
    )


def _family0_residual(a2, s2, t2, u, v, g, n2):
    """n1 = 0 family from its pieces a2 = 2a, s2 = 2a+c, t2 = 2a-c, u = a+c, v = a-c.

    log(u^2 + 9g^2) is taken as 2*log(hypot(u, 3g)), which stays finite when u
    and g both fall to ~1e-300 (and at gamma = 0, the (0,0) state); both
    arguments are principal.  It diverges at u = g = 0, which raises, as does s2 <= 0.
    """
    if not s2 > 0.0:
        raise ConstraintViolationError(f"2*alpha + c must stay positive, got {s2}")
    if u == 0.0 and g == 0.0:
        raise ConstraintViolationError("alpha + c = gamma = 0: log|alpha + c + 3i*gamma| diverges")
    ra = a2 + 2.0 * (math.log(s2) - math.log(t2)) \
        + 2.0 * (math.log(math.hypot(u, 3.0 * g)) - math.log(math.hypot(v, 3.0 * g)))
    rg = -3.0 * g + 3.0 * math.atan2(v, -3.0 * g) - 3.0 * math.atan2(u, -3.0 * g) - TWO_PI * n2
    return ra, rg


def _family0_jacobian(s2: float, t2: float, u: float, v: float, g: float):
    """Rows d(r_alpha, r_gamma)/d(alpha, gamma) of _family0_residual; shifting
    alpha by a constant (beta, eta) leaves them unchanged.  Each x/(x^2 + 9g^2)
    is (x/h)/h with h = hypot(x, 3g), so nothing underflows or divides by zero;
    at gamma = 0 the cross terms are exactly 0."""
    hu, hv = math.hypot(u, 3.0 * g), math.hypot(v, 3.0 * g)
    cross = 3.0 * (3.0 * g / hu / hu - 3.0 * g / hv / hv)
    return (
        (2.0 + 4.0 / s2 - 4.0 / t2 + 2.0 * (u / hu / hu - v / hv / hv), 2.0 * cross),
        (cross, -3.0 + 9.0 * (v / hv / hv - u / hu / hu)),
    )


def family0_residual_beta(b: float, g: float, c: float, n2: int) -> tuple[float, float]:
    """n1 = 0 family in beta = alpha + c/2 (> 0), gamma."""
    return _family0_residual(
        -c + 2.0 * b, 2.0 * b, -2.0 * c + 2.0 * b, c / 2.0 + b, -1.5 * c + b, g, n2
    )


def family0_jacobian_beta(b: float, g: float, c: float):
    return _family0_jacobian(2.0 * b, -2.0 * c + 2.0 * b, c / 2.0 + b, -1.5 * c + b, g)


def family0_residual_eta(e: float, g: float, c: float, n2: int) -> tuple[float, float]:
    """n1 = 0 family in eta = alpha + c, gamma (trimer-side parameterization)."""
    return _family0_residual(
        -2.0 * c + 2.0 * e, -c + 2.0 * e, -3.0 * c + 2.0 * e, e, -2.0 * c + e, g, n2
    )


def family0_jacobian_eta(e: float, g: float, c: float):
    return _family0_jacobian(-c + 2.0 * e, -3.0 * c + 2.0 * e, e, -2.0 * c + e, g)


# ---------------------------------------------------------------------------
# Damped Newton corrector
# ---------------------------------------------------------------------------


class NewtonResult(NamedTuple):
    """contraction is |r1|/|r0| over the first iteration (max-norms), the
    observed Newton contraction; 0 when the first iterate (or the guess)
    already meets the tolerance."""

    root: tuple[float, float]
    residual: tuple[float, float]
    iterations: int
    contraction: float = 0.0


def newton_solve(
    residual,
    jacobian,
    guess,
    tol: float = RESIDUAL_TOL,
    args: tuple = (None, None),
) -> NewtonResult:
    """Damped Newton for two unknowns with a closed-form Jacobian.

    residual(x, *args) gives the two residuals at the pair of unknowns x and
    raises ConstraintViolationError off its sheet, jacobian(x, *args) the rows
    of d(residual)/dx.  args is (label, c) for a Chart's pieces, which the
    march passes directly; the default suits callables of (x, *_) that ignore
    it.  Each Cramer step is halved until the residual does not raise, is
    finite and its max-norm does not grow; after NEWTON_MAX_HALVINGS halvings
    the last candidate is taken, or the step is blocked if it is off the sheet.
    Raises NoConvergenceError / ConstraintViolationError (the residual's own
    from a guess off its sheet).  When the max-norm has not decreased for
    NEWTON_STALL_ITER iterations in a row, the error is ResidualFloorError if
    the full Newton step is rounding noise (below NEWTON_FLOOR_STEP relative
    to x), else NoConvergenceError.

    The unknowns and residuals are carried as scalars, the full step is tried
    before any halving, and the |r| of an accepted step opens the next
    iteration, so a solve that converges in one step evaluates the residual
    twice and the Jacobian once, with no other per-iteration work than the
    checks above.
    """
    a0, a1 = args
    x0, x1 = float(guess[0]), float(guess[1])
    x = (x0, x1)
    r0, r1 = r = residual(x, a0, a1)
    e0, e1 = abs(r0), abs(r1)
    best, stalled, contraction = math.inf, 0, 0.0
    for it in range(1, NEWTON_MAX_ITER + 1):
        rmax = e1 if e1 > e0 else e0
        if rmax < tol:
            # tuple.__new__ skips the named tuple's keyword-argument __new__
            return tuple.__new__(NewtonResult, (x, tuple(r), it - 1, contraction))
        if it == 2:
            contraction = rmax / best
        try:
            # rows scaled to unit max-norm keep det finite at 1/eta ~ 1e160
            (a, b), (c, d) = jacobian(x, a0, a1)
            s0, s1, t0, t1 = abs(a), abs(c), abs(b), abs(d)
            if t0 > s0:
                s0 = t0
            if t1 > s1:
                s1 = t1
            a, b, q0 = a / s0, b / s0, r0 / s0
            c, d, q1 = c / s1, d / s1, r1 / s1
            det = a * d - b * c
            dx0, dx1 = (b * q1 - d * q0) / det, (c * q0 - a * q1) / det
        except ZeroDivisionError as exc:
            raise NoConvergenceError(f"singular Jacobian at {x}: {exc}", x, r, it) from exc
        if rmax < best:
            best, stalled = rmax, 0
        else:
            stalled += 1
            if stalled == NEWTON_STALL_ITER:
                # a full step of rounding size marks the floor of the residual
                # evaluation; a larger one, a minimum of |r| away from any root
                if abs(dx0) <= NEWTON_FLOOR_STEP * abs(x0) and abs(dx1) <= NEWTON_FLOOR_STEP * abs(x1):
                    raise ResidualFloorError(
                        f"residual floor |r|={best:.3e} reached above tol={tol:.1e}", x, r, it
                    )
                raise NoConvergenceError(
                    f"residual stalled at |r|={best:.3e} above tol={tol:.1e}", x, r, it
                )
        # the full step first, then halvings of it
        x, lam, halvings = (x0 + dx0, x1 + dx1), 1.0, 0
        while True:
            try:
                r0, r1 = r = residual(x, a0, a1)
            except ConstraintViolationError as exc:  # off the sheet: halve
                if halvings == NEWTON_MAX_HALVINGS:
                    raise ConstraintViolationError(
                        f"Newton step blocked by sign constraints near x={(x0, x1)}") from exc
            else:
                # below a finite rmax a residual is finite; the last candidate
                # is kept even where its residual grows
                e0, e1 = abs(r0), abs(r1)
                if (e0 <= rmax and e1 <= rmax and (rmax < math.inf or math.isfinite(e0)
                                                   and math.isfinite(e1))) or halvings == NEWTON_MAX_HALVINGS:
                    break
            lam *= 0.5
            halvings += 1
            x = (x0 + lam * dx0, x1 + lam * dx1)
        x0, x1 = x
    raise NoConvergenceError(
        f"no convergence after {NEWTON_MAX_ITER} iterations (|r|={max(abs(v) for v in r):.3e})",
        x, r, NEWTON_MAX_ITER,
    )
