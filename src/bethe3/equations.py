"""Transcendental systems: continued arguments, residuals, Newton corrector.

Residual conventions
--------------------
Real branch (k1 <= k2 <= k3, gaps d1, d2 >= 0): with
theta(dk, c) = -2*atan2(dk, c) in (-2*pi, 0], the quantization system reads

    r1 = d1 - 2*pi*(n1+1) - 2*theta(d1,c) - theta(d1+d2,c) + theta(d2,c)
    r2 = d2 - 2*pi*(n2+1) - 2*theta(d2,c) - theta(d1+d2,c) + theta(d1,c)

which is globally continuous in c, so a root fixes its own branch, and
equals the log form r_j = d_j - i*log(z_j) - 2*pi*n_j = d_j + arg(z_j) -
2*pi*n_j when arg z_j is continued from the c = 0 root (z_j = 1, winding 0).
The corrector solves the theta-sum; the log form (residual_real with refs)
is the independent oracle that `bethe3 verify` walks along a trajectory.

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

Internally the solvers work in shifted correction variables
(beta = alpha + c/2, eta = alpha + c) to avoid the catastrophic cancellation
of -c - 2*alpha (or alpha + c) deep in the attractive regime; the public
functions accept plain (alpha, gamma).

Every residual the corrector solves has its closed-form Jacobian next to it,
built from d(theta)/d(dk) = -2c/(c^2 + dk^2) and the derivatives of log|z|
and arg z.  newton_solve is a damped Newton for these one- and two-unknown
systems; the test suite checks each Jacobian against central differences.
It reports the contraction of its first iteration (the march sizes its steps
from it) and raises ResidualFloorError when the residual stalls above the
tolerance.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .model import TWO_PI, QuantumLabel
from .tolerances import (
    IMAG_TOL,
    NEWTON_MAX_HALVINGS,
    NEWTON_MAX_ITER,
    NEWTON_FLOOR_STEP,
    NEWTON_STALL_ITER,
    RESIDUAL_TOL,
)


class SingularArgumentError(ValueError):
    """A continued argument was asked of zero (root collision / invalid region)."""


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


# ---------------------------------------------------------------------------
# Continued argument
# ---------------------------------------------------------------------------


def continued_arg(z: complex, ref: float | None = None) -> float:
    """Argument of z on the branch nearest ref (principal when ref is None).

    This is ref + remainder(phase(z) - ref, 2*pi), written as phase(z) plus
    whole turns so the principal value passes through unrounded.  Fed the
    previous value at each point of a path, it continues arg z analytically
    as long as successive arguments move by less than pi.
    """
    if z == 0:
        raise SingularArgumentError("continued argument of zero")
    phase = cmath.phase(z)
    return phase if ref is None else phase + TWO_PI * round((ref - phase) / TWO_PI)


# ---------------------------------------------------------------------------
# Real branch
# ---------------------------------------------------------------------------


class ResidualPoint(NamedTuple):
    """Residual evaluation at a trial point of a 2-unknown system; args are
    the continued arguments of the log form (None for the theta-sum)."""

    unknowns: tuple[float, float]
    residual: tuple[float, float]
    imag_defect: float = 0.0
    args: tuple[float, float] | None = None


def _real_log_arguments(d1: float, d2: float, c: float) -> tuple[complex, complex]:
    f1 = complex(c, d1)
    f1c = complex(c, -d1)
    f2 = complex(c, d2)
    f2c = complex(c, -d2)
    f3 = complex(c, d1 + d2)
    f3c = complex(c, -(d1 + d2))
    z1 = (f1 / f1c) ** 2 * (f2c / f2) * (f3 / f3c)
    z2 = (f2 / f2c) ** 2 * (f1c / f1) * (f3 / f3c)
    return z1, z2


def residual_real_thetasum(d1: float, d2: float, c: float, n1: int, n2: int) -> tuple[float, float]:
    """Theta-sum form of the coupled real-branch equations (stateless)."""
    t1 = theta(d1, c)
    t2 = theta(d2, c)
    t3 = theta(d1 + d2, c)
    r1 = d1 - TWO_PI * (n1 + 1) - 2.0 * t1 - t3 + t2
    r2 = d2 - TWO_PI * (n2 + 1) - 2.0 * t2 - t3 + t1
    return r1, r2


def jacobian_real_thetasum(d1: float, d2: float, c: float):
    """Rows d(r1, r2)/d(d1, d2) of the theta-sum residual."""
    p1, p2, p3 = dtheta(d1, c), dtheta(d2, c), dtheta(d1 + d2, c)
    return ((1.0 - 2.0 * p1 - p3, p2 - p3), (p1 - p3, 1.0 - 2.0 * p2 - p3))


def residual_real(
    d1: float,
    d2: float,
    c: float,
    label: QuantumLabel,
    refs: tuple[float | None, float | None] | None = None,
) -> ResidualPoint:
    """Coupled residuals for (delta1, delta2) at coupling c under a label.

    With refs the log form r_j = d_j - i*log(z_j) - 2*pi*n_j = d_j + arg z_j
    - 2*pi*n_j is evaluated, arg z_j continued from refs[j] (principal where
    None); feeding the returned args back as refs along a path from the c = 0
    root continues the log.  At a root the continued argument is
    arg z_j = 2*pi*n_j - d_j in closed form, so no solve needs to carry it.
    Without refs the equivalent theta-sum form is used.  The imaginary parts
    log|z_j| must cancel and are asserted below IMAG_TOL.
    """
    if refs is None:
        r1, r2 = residual_real_thetasum(d1, d2, c, label.n1, label.n2)
        return ResidualPoint(unknowns=(d1, d2), residual=(r1, r2))
    z1, z2 = _real_log_arguments(d1, d2, c)
    args = (continued_arg(z1, refs[0]), continued_arg(z2, refs[1]))
    r1 = d1 + args[0] - TWO_PI * label.n1
    r2 = d2 + args[1] - TWO_PI * label.n2
    defect = max(abs(math.log(abs(z1))), abs(math.log(abs(z2))))
    if defect > IMAG_TOL:
        raise ValueError(f"residual imaginary defect {defect} exceeds {IMAG_TOL}")
    return ResidualPoint(unknowns=(d1, d2), residual=(r1, r2), imag_defect=defect, args=args)


def residual_equal_delta(d: float, c: float, n0: int) -> float:
    """Scalar residual for the common delta when n1 = n2 = n0 (real branch)."""
    if d < 0:
        raise ConstraintViolationError(f"delta must be >= 0, got {d}")
    return d - theta(d, c) - theta(2.0 * d, c) - TWO_PI * (n0 + 1)


def jacobian_equal_delta(d: float, c: float) -> float:
    """d/dd of residual_equal_delta."""
    return 1.0 - dtheta(d, c) - 2.0 * dtheta(2.0 * d, c)


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
    arguments are principal.
    """
    if s2 <= 0.0:
        raise ConstraintViolationError(f"2*alpha + c must stay positive, got {s2}")
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


def residual_complex(
    alpha: float,
    gamma: float,
    c: float,
    label: QuantumLabel,
) -> ResidualPoint:
    """Two real residuals for the complex branch at (alpha, gamma) (principal arguments).

    Dispatches to the n1 = 0 or n1 = 1 family of equations; raises
    ConstraintViolationError when a log factor would change sign.

    Conditioning: the equations depend on the exponentially small parts
    eta = alpha + c (trimers) or beta = alpha + c/2 (dimers), recovered here
    by subtraction from alpha; once those drop toward eps*|alpha| the
    evaluation loses accuracy like eps*|c|/eta.  The continuation solvers
    avoid this by working in the shifted unknowns directly.
    """
    if c >= 0:
        raise ConstraintViolationError(f"complex branch requires c < 0, got {c}")
    if alpha <= 0:
        raise ConstraintViolationError(f"alpha must be > 0, got {alpha}")
    lab = label.canonical()
    if lab.n1 == 1:
        ra, rg = family1_residual_beta(alpha + c / 2.0, gamma, c, lab.n2)
    elif lab.n1 == 0:
        if alpha > -0.75 * c:
            ra, rg = family0_residual_eta(alpha + c, gamma, c, lab.n2)
        else:
            ra, rg = family0_residual_beta(alpha + c / 2.0, gamma, c, lab.n2)
    else:
        raise ConstraintViolationError(
            f"label {label} has no complex branch (both n_j >= 2)"
        )
    return ResidualPoint(unknowns=(alpha, gamma), residual=(ra, rg))


# ---------------------------------------------------------------------------
# Damped Newton corrector
# ---------------------------------------------------------------------------


class NewtonResult(NamedTuple):
    """contraction is |r1|/|r0| over the first iteration (max-norms), the
    observed Newton contraction; 0 when the first iterate (or the guess)
    already meets the tolerance."""

    root: tuple[float, ...]
    residual: tuple[float, ...]
    iterations: int
    contraction: float = 0.0


def _newton_step(jac, r) -> tuple[float, ...]:
    """Solve J*s = -r for one or two unknowns (Cramer's rule).

    Rows are scaled to unit max-norm first, so the determinant stays finite
    when an exponentially small unknown puts 1/eta ~ 1e160 into the Jacobian.
    """
    if len(r) == 1:
        return (-r[0] / jac[0][0],)
    (a, b), (c, d) = jac
    s0, s1 = max(abs(a), abs(b)), max(abs(c), abs(d))
    a, b, r0 = a / s0, b / s0, r[0] / s0
    c, d, r1 = c / s1, d / s1, r[1] / s1
    det = a * d - b * c
    return ((b * r1 - d * r0) / det, (c * r0 - a * r1) / det)


def newton_solve(
    residual,
    jacobian,
    guess,
    tol: float = RESIDUAL_TOL,
    max_iter: int = NEWTON_MAX_ITER,
    guard=None,
) -> NewtonResult:
    """Damped Newton for one or two unknowns with a closed-form Jacobian.

    residual maps the tuple of unknowns to a sequence of residuals and
    jacobian maps it to the rows of d(residual)/d(unknown); guard(x) -> bool
    marks the valid sheet (steps never cross it).  Each step is halved until
    it stays on the sheet with a finite residual whose max-norm does not grow.
    Raises NoConvergenceError / ConstraintViolationError.  When that max-norm
    has not decreased for NEWTON_STALL_ITER iterations in a row, the error is
    ResidualFloorError if the full Newton step is rounding noise (below
    NEWTON_FLOOR_STEP relative to x), else NoConvergenceError.
    """
    x = tuple(float(v) for v in guess)
    if guard is not None and not guard(x):
        raise ConstraintViolationError(f"initial guess {x} violates constraints")
    r = residual(x)
    best, stalled, contraction = math.inf, 0, 0.0
    for it in range(1, max_iter + 1):
        rmax = max(map(abs, r))
        if rmax < tol:
            return NewtonResult(x, tuple(r), it - 1, contraction)
        if it == 2:
            contraction = rmax / best
        try:
            step = _newton_step(jacobian(x), r)
        except ZeroDivisionError as exc:
            raise NoConvergenceError(f"singular Jacobian at {x}: {exc}", x, r, it) from exc
        if rmax < best:
            best, stalled = rmax, 0
        else:
            stalled += 1
            if stalled == NEWTON_STALL_ITER:
                # a full step of rounding size marks the floor of the residual
                # evaluation; a larger one, a minimum of |r| away from any root
                if all(abs(s) <= NEWTON_FLOOR_STEP * abs(v) for s, v in zip(step, x)):
                    raise ResidualFloorError(
                        f"residual floor |r|={best:.3e} reached above tol={tol:.1e}", x, r, it
                    )
                raise NoConvergenceError(
                    f"residual stalled at |r|={best:.3e} above tol={tol:.1e}", x, r, it
                )
        lam = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            x_new = tuple([xi + lam * si for xi, si in zip(x, step)])
            if guard is None or guard(x_new):
                try:
                    r_new = residual(x_new)
                except (SingularArgumentError, ConstraintViolationError):
                    lam *= 0.5
                    continue
                if all(map(math.isfinite, r_new)) and max(map(abs, r_new)) <= rmax:
                    break
            lam *= 0.5
        else:
            # keep the last guarded candidate if any; otherwise the step is blocked
            x_new = tuple([xi + lam * si for xi, si in zip(x, step)])
            if guard is not None and not guard(x_new):
                raise ConstraintViolationError(
                    f"Newton step blocked by sign constraints near x={x}"
                )
            try:
                r_new = residual(x_new)
            except (SingularArgumentError, ConstraintViolationError) as exc:
                raise NoConvergenceError(str(exc), x, r, it) from exc
        x, r = x_new, r_new
    raise NoConvergenceError(
        f"no convergence after {max_iter} iterations (|r|={max(abs(v) for v in r):.3e})",
        x, r, max_iter,
    )
