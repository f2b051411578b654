"""Bethe amplitudes and eigenfunction evaluation on the 3-torus.

The (unnormalized) eigenfunction on the primary region 0 <= x1 <= x2 <= x3 <= 1
is the six-term sum

    psi(x) = sum_P a(P) exp(i (k_{P1} x1 + k_{P2} x2 + k_{P3} x3))

over permutations P of the momentum triple, with amplitude ratios fixed by the
two-body phase factors E_{jl} = (c - i(k_j - k_l)) / (c + i(k_j - k_l)):

    a(123) = 1          a(213) = -E21        a(132) = -E32
    a(321) = -E21*E31*E32   a(312) = E31*E32   a(231) = E21*E31

amplitudes returns the six a(P) as a tuple in PERMUTATIONS order.  Evaluation
anywhere on the torus wraps coordinates mod 1 and sorts them (bosonic
symmetry); psi_ordered and the periodicity and jump residuals evaluate the
raw analytic form on the primary region.  Every
public call looks up the amplitudes once and forms psi with the derivatives it
needs in one pass per point, one exponential per permutation, taken with cmath
at real scalar coordinates, so psi and the residuals run without numpy; arrays
go through numpy, with the same arithmetic term by term.
"""
from __future__ import annotations

import cmath

from .model import Branch, Momenta, StateSolution
from .tolerances import DEGENERATE_MOMENTA_TOL

PERMUTATIONS = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0))
_REAL = (float, int)  # coordinate types summed with cmath, not numpy


class DegenerateMomentaError(ValueError):
    """Two momenta coincide: the raw ansatz vanishes (critical-point limit)."""


class ClassificationError(ValueError):
    """Dimer prefactor asked for a real-branch state."""


def _phase_factor(c: float, dk: complex) -> complex:
    """E_{jl} = (c - i dk)/(c + i dk) for dk = k_j - k_l."""
    num = c - 1j * dk
    den = c + 1j * dk
    if abs(dk) < DEGENERATE_MOMENTA_TOL:
        if abs(c) < DEGENERATE_MOMENTA_TOL:
            return -1.0 + 0.0j  # reference-state convention theta = -pi
        raise DegenerateMomentaError(
            f"coinciding momenta (|dk|={abs(dk):.2e}) at c={c}: ansatz vanishes"
        )
    if den == 0:
        raise ZeroDivisionError(f"two-body pole: c + i(k_j - k_l) = 0 at c={c}")
    return num / den


def amplitudes(m: Momenta, c: float) -> tuple[complex, ...]:
    """Six Bethe coefficients for a momentum triple at coupling c, in
    PERMUTATIONS order: a(123), a(213), a(132), a(321), a(312), a(231)."""
    e21 = _phase_factor(c, m.k2 - m.k1)
    e31 = _phase_factor(c, m.k3 - m.k1)
    e32 = _phase_factor(c, m.k3 - m.k2)
    return (1.0 + 0.0j, -e21, -e32, -e21 * e31 * e32, e31 * e32, e21 * e31)


def labelled(fn, state: StateSolution):
    """fn(state.momenta, state.c), whose two-body-pole and degenerate-momenta
    errors name the state's label."""
    try:
        return fn(state.momenta, state.c)
    except (ZeroDivisionError, DegenerateMomentaError) as exc:
        exc.args = (f"{exc} for {state.label}",)
        raise


def _six_term_pass(k: Momenta, a, x1, x2, x3, axes=()) -> list:
    """[psi, d psi/d x_axis for each axis in axes] of sum_P a(P) exp(i k_P . x), one
    exponential per permutation: complexes from cmath at real scalar x, else numpy."""
    point = isinstance(x1, _REAL) and isinstance(x2, _REAL) and isinstance(x3, _REAL)
    if point:
        exp, zero = cmath.exp, 0j
    else:
        import numpy as np

        x1, x2, x3 = np.asarray(x1), np.asarray(x2), np.asarray(x3)
        exp, zero = np.exp, np.zeros(np.broadcast(x1, x2, x3).shape, dtype=complex)
    sums = [zero] * (1 + len(axes))
    for perm, ap in zip(PERMUTATIONS, a):
        e = exp(1j * (k[perm[0]] * x1 + k[perm[1]] * x2 + k[perm[2]] * x3))
        sums[0] = sums[0] + ap * e
        for i, axis in enumerate(axes, 1):
            sums[i] = sums[i] + (ap * (1j * k[perm[axis]])) * e
    return sums if point or zero.shape != () else [complex(v) for v in sums]


def psi_ordered(state: StateSolution, x1, x2, x3) -> complex | np.ndarray:
    """Raw six-term sum on the primary region (inputs must be ordered).

    Accepts scalars or broadcastable arrays; no wrapping or sorting.  A grid
    value and psi at the same point can differ in the last bit: numpy sums
    arrays of length >= 1 in a different order from 0-d ones.
    """
    return _six_term_pass(state.momenta, labelled(amplitudes, state), x1, x2, x3)[0]


def psi(point, state: StateSolution) -> complex:
    """Eigenfunction at any point of the 3-torus (wraps mod 1, then sorts);
    a non-finite coordinate raises ValueError."""
    x1, x2, x3 = sorted(float(v) % 1.0 for v in point)
    if not (0.0 <= x1 <= x2 <= x3 <= 1.0):  # x % 1.0 is nan for nan and +-inf
        raise ValueError(f"point must have finite coordinates, got {tuple(point)}")
    return psi_ordered(state, x1, x2, x3)


def jump_residual(state: StateSolution, x_pair: float, x_third: float) -> float:
    """Normalized defect of the derivative-jump condition at a coincidence point.

    The pair coordinate is placed at x_pair; for x_pair <= x_third the tested
    condition is (d2 - d1) psi = c psi at (x_pair, x_pair, x_third), otherwise
    (d3 - d2) psi = c psi at (x_third, x_pair, x_pair).
    """
    if not (0.0 <= x_pair <= 1.0 and 0.0 <= x_third <= 1.0):
        raise ValueError("coincidence point must lie inside the unit cell")
    if x_pair <= x_third:
        x, axes = (x_pair, x_pair, x_third), (0, 1)
    else:
        x, axes = (x_third, x_pair, x_pair), (1, 2)
    value, lower, upper = _six_term_pass(state.momenta, labelled(amplitudes, state), *x, axes)
    rhs = state.c * value
    return abs(upper - lower - rhs) / max(1.0, abs(rhs))


def periodicity_residual(state: StateSolution, x2: float, x3: float) -> float:
    """Normalized defect of psi(0,x2,x3) = psi(x2,x3,1) and the matching
    first/last derivative condition, for 0 <= x2 <= x3 <= 1."""
    if not (0.0 <= x2 <= x3 <= 1.0):
        raise ValueError(f"need 0 <= x2 <= x3 <= 1, got ({x2}, {x3})")
    k, a = state.momenta, labelled(amplitudes, state)
    va, da = _six_term_pass(k, a, 0.0, x2, x3, (0,))
    vb, db = _six_term_pass(k, a, x2, x3, 1.0, (2,))
    value_defect = abs(va - vb) / max(1.0, abs(va), abs(vb))
    deriv_defect = abs(da - db) / max(1.0, abs(da), abs(db))
    return max(value_defect, deriv_defect)


def dimer_prefactor(state: StateSolution) -> float:
    """(2*alpha - c)/(2*alpha + c) for a complex-branch state.

    Tends to 3 on the (0,0) branch and to -infinity on the (1,1) branch.
    """
    if state.branch is not Branch.COMPLEX_K:
        raise ClassificationError("dimer prefactor applies to complex-branch states")
    alpha = state.coords.alpha
    den = 2.0 * alpha + state.c
    if den == 0.0:
        raise ZeroDivisionError("dimer prefactor pole: 2*alpha + c = 0")
    return (2.0 * alpha - state.c) / den
