"""Closed-form expansion oracles for every limiting regime.

Every oracle but the helper small_c_slope takes (label, c) and answers in the
label's own frame, as solve_state does: it is written for the canonical
partner (n1 <= n2), and a partner label gets model.partner_coords of that
answer.  beta_dimer and eta_trimer return the exponentially small unknown
beta = alpha + c/2 or eta = alpha + c, which that map leaves as it is.  Only
the orders printed in the source analysis are implemented, so a disagreement
with the solver indicates a solver bug rather than a truncation surprise.
Each raises ValueError for a NaN or infinite c, as solve_state does, and for
a label or c outside its regime.  The regimes, by canonical label:

* delta_large_c: any label for c >= LARGE_C_MIN, n1 >= 2 for c <= -LARGE_C_MIN.
* delta_small_c: |c| <= SMALL_C_MAX; n1 = 0 labels for 0 <= c only.
* dimer, beta_dimer: (1, n2 >= 1) and (0, n2 >= 2), c <= DEEP_C_MAX.
* trimer, eta_trimer: (0, 0) and (0, 1), c <= DEEP_C_MAX.

DEEP_C_MAX is the one deep-regime bound of both families.  The march never
imports this module (it seeds from continuation.branch_switch).
"""
from __future__ import annotations

import math

from .model import TWO_PI, ComplexCoords, QuantumLabel, RealCoords, partner_coords
from .tolerances import DEEP_C_MAX, LARGE_C_MIN, SMALL_C_MAX


def _own_frame(label: QuantumLabel, coords):
    """coords, written for the label's canonical partner, in the label's own frame."""
    return coords if label.n1 <= label.n2 else partner_coords(coords)


def _deep(label: QuantumLabel, c: float, trimer: bool) -> QuantumLabel:
    """The canonical label of a deep dimer (trimer) branch; ValueError unless
    c is finite and at most DEEP_C_MAX and the label has such a branch."""
    kind = "trimer" if trimer else "dimer"
    if not -math.inf < c <= DEEP_C_MAX:
        raise ValueError(f"{kind} regime needs finite c <= {DEEP_C_MAX}, got {c}")
    lab = label.canonical()
    if lab.n1 > 1 or trimer != (lab.n1 == 0 and lab.n2 <= 1):
        raise ValueError(f"no {kind} branch for label {label}")
    return lab


def delta_large_c(label: QuantumLabel, c: float) -> RealCoords:
    """First-order large-|c| asymptote of (delta1, delta2), O(c^-2) error.

    delta_j = 2*pi*(n_j + 1)*(1 - 6/c) for c > 0 and 2*pi*(n_j - 1)*(1 - 6/c)
    for c < 0 (both n_j >= 2).
    """
    if not LARGE_C_MIN <= abs(c) < math.inf:
        raise ValueError(f"|c| must be finite and >= {LARGE_C_MIN}, got {c}")
    lab = label.canonical()
    if c < 0 and lab.n1 <= 1:
        raise ValueError(f"negative-c real-branch asymptote needs both n_j > 1, got {label}")
    shift = 1 if c > 0 else -1
    d1, d2 = (TWO_PI * (n + shift) * (1.0 - 6.0 / c) for n in lab)
    return _own_frame(label, RealCoords(d1, d2, lab.p))


def beta_dimer(label: QuantumLabel, c: float) -> float:
    """Exponentially small beta = alpha + c/2 on the dimer branches.

    (1, n2 >= 2): beta = 3c e^{c/2} - 9c^2 e^c (< 0)
    (0, n2 >= 2): beta = -3c e^{c/2} + 9c^2 e^c (> 0)
    (1, 1): beta = 3c e^{c/2}, the single printed order.
    """
    lab = _deep(label, c, False)
    b = 3.0 * c * math.exp(c / 2.0)
    if lab.n2 == 1:
        return b
    b -= 9.0 * c * c * math.exp(c)
    return b if lab.n1 == 1 else -b


def dimer(label: QuantumLabel, c: float) -> ComplexCoords:
    """Asymptotic (alpha, gamma) on the dimer branches: alpha = -c/2 + beta, and
    gamma with its first 1/c correction, -(2*pi/3)(n2 - 1)(1 - 8/c) for
    (1, n2) and -((2/3) n2 - 1) pi (1 - 8/c) for (0, n2)."""
    lab = _deep(label, c, False)
    if lab.n1 == 1:
        gamma = -(TWO_PI / 3.0) * (lab.n2 - 1) * (1.0 - 8.0 / c)
    else:
        gamma = -((2.0 / 3.0) * lab.n2 - 1.0) * math.pi * (1.0 - 8.0 / c)
    return _own_frame(label, ComplexCoords(-c / 2.0 + beta_dimer(lab, c), gamma, lab.p))


def eta_trimer(label: QuantumLabel, c: float) -> float:
    """Exponentially small eta = alpha + c on the trimer branches.

    (0,0): eta = -6c e^c - 36 c^2 e^{2c} (> 0)
    (0,1): eta = 3c e^c (< 0; leading order, with gamma = sqrt(3) c e^c so
           that eta^2 + 9 gamma^2 = 36 c^2 e^{2c} and the argument of
           (-3 gamma + i eta) tends to -pi/6).
    """
    if _deep(label, c, True).n2 == 0:
        return -6.0 * c * math.exp(c) - 36.0 * c * c * math.exp(2.0 * c)
    return 3.0 * c * math.exp(c)


def trimer(label: QuantumLabel, c: float) -> ComplexCoords:
    """Asymptotic (alpha, gamma) on the trimer branches: alpha = -c + eta,
    gamma = 0 for (0,0) and sqrt(3) c e^c for (0,1)."""
    lab = _deep(label, c, True)
    gamma = math.sqrt(3.0) * c * math.exp(c) if lab.n2 else 0.0
    return _own_frame(label, ComplexCoords(-c + eta_trimer(lab, c), gamma, lab.p))


def delta_small_c(label: QuantumLabel, c: float) -> RealCoords:
    """Small-coupling series for (delta1, delta2) on the real branch.

    Both n_j >= 1:  delta_j = 2*pi*n_j + A_j * c with
        A_1 = (2 n1 n2 + 2 n2^2 - n1^2) / (n1 n2 (n1+n2) pi)   (A_2 symmetric).
    n1 = 0, n2 >= 1 (0 <= c):  delta1 = 2 sqrt(c),
        delta2 = 2*pi*n2 - delta1/2 + 3 delta1^2/(4 pi n2).
    (0,0) (0 <= c):  delta1 = delta2 = sqrt(3 c).
    """
    if not abs(c) <= SMALL_C_MAX:
        raise ValueError(f"small-c series needs |c| <= {SMALL_C_MAX}, got {c}")
    n1, n2 = lab = label.canonical()
    if n1 >= 1:
        d1, d2 = TWO_PI * n1 + small_c_slope(n1, n2) * c, TWO_PI * n2 + small_c_slope(n2, n1) * c
    elif c < 0:
        raise ValueError(f"n1 = 0 labels have no real branch for c < 0 (got c={c})")
    elif n2 == 0:
        d1 = d2 = math.sqrt(3.0 * c)
    else:
        d1 = 2.0 * math.sqrt(c)
        d2 = TWO_PI * n2 - d1 / 2.0 + 3.0 * d1 * d1 / (4.0 * math.pi * n2)
    return _own_frame(label, RealCoords(d1, d2, lab.p))


def small_c_slope(n1: int, n2: int) -> float:
    """d(delta1)/dc at c = 0 for labels with both n_j >= 1."""
    if n1 < 1 or n2 < 1:
        raise ValueError("slope formula needs both n_j >= 1")
    return (2.0 * n1 * n2 + 2.0 * n2 * n2 - n1 * n1) / (n1 * n2 * (n1 + n2) * math.pi)
