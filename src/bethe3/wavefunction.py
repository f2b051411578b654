"""Bethe amplitudes and eigenfunction evaluation on the 3-torus.

The (unnormalized) eigenfunction on the primary region 0 <= x1 <= x2 <= x3 <= 1
is the six-term sum

    psi(x) = sum_P a(P) exp(i (k_{P1} x1 + k_{P2} x2 + k_{P3} x3))

over permutations P of the momentum triple, with amplitude ratios fixed by the
two-body phase factors E_{jl} = (c - i(k_j - k_l)) / (c + i(k_j - k_l)):

    a(123) = 1          a(213) = -E21        a(132) = -E32
    a(321) = -E21*E31*E32   a(312) = E31*E32   a(231) = E21*E31

Evaluation anywhere on the torus wraps coordinates mod 1 and sorts them
(bosonic symmetry); the *_ordered functions evaluate the raw analytic form on
the primary region, which is what the periodicity and jump residuals need.
"""
from __future__ import annotations

import numpy as np

from .model import Branch, Momenta, StateSolution
from .tolerances import DEGENERATE_MOMENTA_TOL

PERMUTATIONS = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (2, 0, 1), (1, 2, 0))


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


def amplitudes(m: Momenta, c: float) -> dict:
    """Six Bethe coefficients for a momentum triple at coupling c, keyed by
    the momentum permutation."""
    e21 = _phase_factor(c, m.k2 - m.k1)
    e31 = _phase_factor(c, m.k3 - m.k1)
    e32 = _phase_factor(c, m.k3 - m.k2)
    return {
        (0, 1, 2): 1.0 + 0.0j,
        (1, 0, 2): -e21,
        (0, 2, 1): -e32,
        (2, 1, 0): -e21 * e31 * e32,
        (2, 0, 1): e31 * e32,
        (1, 2, 0): e21 * e31,
    }


def _k_and_a(state: StateSolution):
    k = np.array(state.momenta.as_tuple())
    a = amplitudes(state.momenta, state.c)
    return k, a


def psi_ordered(state: StateSolution, x1, x2, x3) -> complex | np.ndarray:
    """Raw six-term sum on the primary region (inputs must be ordered).

    Accepts scalars or broadcastable arrays; no wrapping or sorting.
    """
    k, a = _k_and_a(state)
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    x3 = np.asarray(x3)
    total = np.zeros(np.broadcast(x1, x2, x3).shape, dtype=complex)
    for perm in PERMUTATIONS:
        phase = k[perm[0]] * x1 + k[perm[1]] * x2 + k[perm[2]] * x3
        total = total + a[perm] * np.exp(1j * phase)
    if total.shape == ():
        return complex(total)
    return total


def grad_psi_ordered(state: StateSolution, x1, x2, x3, axis: int) -> complex | np.ndarray:
    """d psi / d x_axis of the raw six-term sum (axis in {0,1,2})."""
    k, a = _k_and_a(state)
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    x3 = np.asarray(x3)
    total = np.zeros(np.broadcast(x1, x2, x3).shape, dtype=complex)
    for perm in PERMUTATIONS:
        phase = k[perm[0]] * x1 + k[perm[1]] * x2 + k[perm[2]] * x3
        total = total + a[perm] * (1j * k[perm[axis]]) * np.exp(1j * phase)
    if total.shape == ():
        return complex(total)
    return total


def psi(point, state: StateSolution) -> complex:
    """Eigenfunction at any point of the 3-torus (wraps mod 1, then sorts)."""
    x = np.sort(np.mod(np.asarray(point, dtype=float), 1.0))
    return psi_ordered(state, x[0], x[1], x[2])


def jump_residual(state: StateSolution, x_pair: float, x_third: float) -> float:
    """Normalized defect of the derivative-jump condition at a coincidence point.

    The pair coordinate is placed at x_pair; for x_pair <= x_third the tested
    condition is (d2 - d1) psi = c psi at (x_pair, x_pair, x_third), otherwise
    (d3 - d2) psi = c psi at (x_third, x_pair, x_pair).
    """
    if not (0.0 <= x_pair <= 1.0 and 0.0 <= x_third <= 1.0):
        raise ValueError("coincidence point must lie inside the unit cell")
    if x_pair <= x_third:
        x = (x_pair, x_pair, x_third)
        lhs = grad_psi_ordered(state, *x, axis=1) - grad_psi_ordered(state, *x, axis=0)
    else:
        x = (x_third, x_pair, x_pair)
        lhs = grad_psi_ordered(state, *x, axis=2) - grad_psi_ordered(state, *x, axis=1)
    rhs = state.c * psi_ordered(state, *x)
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def periodicity_residual(state: StateSolution, x2: float, x3: float) -> float:
    """Normalized defect of psi(0,x2,x3) = psi(x2,x3,1) and the matching
    first/last derivative condition, for 0 <= x2 <= x3 <= 1."""
    if not (0.0 <= x2 <= x3 <= 1.0):
        raise ValueError(f"need 0 <= x2 <= x3 <= 1, got ({x2}, {x3})")
    va = psi_ordered(state, 0.0, x2, x3)
    vb = psi_ordered(state, x2, x3, 1.0)
    value_defect = abs(va - vb) / max(1.0, abs(va), abs(vb))
    da = grad_psi_ordered(state, 0.0, x2, x3, axis=0)
    db = grad_psi_ordered(state, x2, x3, 1.0, axis=2)
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
