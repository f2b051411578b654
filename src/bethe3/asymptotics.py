"""Closed-form expansion oracles for every limiting regime.

Only the orders printed in the source analysis are implemented, so a
disagreement with the solver indicates a solver bug rather than a truncation
surprise.  Each raises ValueError for a NaN or infinite c, as solve_state
does.  Where each expansion applies:

* delta_large_c, c > 0: any label, c >= LARGE_C_MIN.
* delta_large_c, c < 0: labels with n_j >= 2, c <= -LARGE_C_MIN.
* delta_small_c: |c| <= SMALL_C_MAX (n1 = 0 labels: 0 <= c only).  Only an
  oracle: the march no longer seeds from it (continuation.branch_switch does).
* alpha/beta/gamma_dimer: (0, n2 >= 2) and (1, n2 >= 1), c <= DIMER_C_MAX.
* alpha/eta_trimer: (0, 0) and (0, 1), c <= TRIMER_C_MAX.
"""
from __future__ import annotations

import math

from .model import TWO_PI, QuantumLabel
from .tolerances import DIMER_C_MAX, LARGE_C_MIN, SMALL_C_MAX, TRIMER_C_MAX


def delta_large_c(n: int, c: float) -> float:
    """First-order large-|c| asymptote of delta_j, O(c^-2) error.

    c > 0: 2*pi*(n+1)*(1 - 6/c); c < 0 (requires n > 1): 2*pi*(n-1)*(1 + 6/(-c)).
    """
    if not LARGE_C_MIN <= abs(c) < math.inf:
        raise ValueError(f"|c| must be finite and >= {LARGE_C_MIN}, got {c}")
    if c > 0:
        return TWO_PI * (n + 1) * (1.0 - 6.0 / c)
    if n <= 1:
        raise ValueError(f"negative-c real-branch asymptote needs n > 1, got {n}")
    return TWO_PI * (n - 1) * (1.0 + 6.0 / (-c))


def beta_dimer(c: float, family: int) -> float:
    """Exponentially small part of alpha = -c/2 + beta for dimer branches.

    family = 1 (labels (1, n2>=2)):  beta = 3c e^{c/2} - 9c^2 e^c  (< 0)
    family = 0 (labels (0, n2>=2)):  beta = -3c e^{c/2} + 9c^2 e^c (> 0)
    """
    if not -math.inf < c <= DIMER_C_MAX:
        raise ValueError(f"dimer regime needs finite c <= {DIMER_C_MAX}, got {c}")
    b = 3.0 * c * math.exp(c / 2.0) - 9.0 * c * c * math.exp(c)
    if family == 1:
        return b
    if family == 0:
        return -b
    raise ValueError(f"family must be 0 or 1, got {family}")


def alpha_dimer(c: float, n1: int, n2: int) -> float:
    """Asymptotic alpha for dimer branches; error exponentially small in |c|.

    (1,1) keeps only the single printed exponential order.
    """
    if n1 == 1 and n2 == 1:
        if not -math.inf < c <= DIMER_C_MAX:
            raise ValueError(f"dimer regime needs finite c <= {DIMER_C_MAX}, got {c}")
        return -c / 2.0 + 3.0 * c * math.exp(c / 2.0)
    if n2 < 2 or n1 not in (0, 1):
        raise ValueError(f"no dimer branch for label ({n1},{n2})")
    return -c / 2.0 + beta_dimer(c, n1)


def gamma_dimer(n2: int, c: float, family: int) -> float:
    """Asymptotic gamma for dimer branches, first 1/c correction included.

    family = 1: gamma = -(2*pi/3)(n2-1) (1 - 8/c)
    family = 0: gamma = -((2/3) n2 - 1) pi (1 - 8/c)
    """
    if not -math.inf < c <= DIMER_C_MAX:
        raise ValueError(f"dimer regime needs finite c <= {DIMER_C_MAX}, got {c}")
    if family == 1:
        if n2 < 1:
            raise ValueError("family 1 needs n2 >= 1")
        return -(TWO_PI / 3.0) * (n2 - 1) * (1.0 - 8.0 / c)
    if family == 0:
        if n2 < 2:
            raise ValueError("family 0 dimer needs n2 >= 2")
        return -((2.0 / 3.0) * n2 - 1.0) * math.pi * (1.0 - 8.0 / c)
    raise ValueError(f"family must be 0 or 1, got {family}")


def eta_trimer(c: float, n2: int) -> float:
    """Exponentially small eta = alpha + c on the trimer branches.

    (0,0): eta = -6c e^c - 36 c^2 e^{2c} (> 0)
    (0,1): eta = 3c e^c (< 0; leading order, with gamma = sqrt(3) c e^c so
           that eta^2 + 9 gamma^2 = 36 c^2 e^{2c} and the argument of
           (-3 gamma + i eta) tends to -pi/6).
    """
    if not -math.inf < c <= TRIMER_C_MAX:
        raise ValueError(f"trimer regime needs finite c <= {TRIMER_C_MAX}, got {c}")
    if n2 == 0:
        return -6.0 * c * math.exp(c) - 36.0 * c * c * math.exp(2.0 * c)
    if n2 == 1:
        return 3.0 * c * math.exp(c)
    raise ValueError(f"trimer branch exists only for (0,0) and (0,1), got n2={n2}")


def alpha_trimer(label: QuantumLabel, c: float) -> tuple[float, float]:
    """Asymptotic (alpha, gamma) for the trimer labels (0,0) and (0,1)."""
    lab = label.canonical()
    if lab.n1 != 0 or lab.n2 > 1:
        raise ValueError(f"trimer branch exists only for (0,0) and (0,1), got {label}")
    eta = eta_trimer(c, lab.n2)
    if lab.n2 == 0:
        return (-c + eta, 0.0)
    gamma = math.sqrt(3.0) * c * math.exp(c)
    return (-c + eta, gamma)


def delta_small_c(label: QuantumLabel, c: float) -> tuple[float, float]:
    """Small-coupling series for (delta1, delta2) on the real branch.

    Both n_j >= 1:  delta_j = 2*pi*n_j + A_j * c with
        A_1 = (2 n1 n2 + 2 n2^2 - n1^2) / (n1 n2 (n1+n2) pi)   (A_2 symmetric).
    n1 = 0, n2 >= 1 (0 <= c):  delta1 = 2 sqrt(c),
        delta2 = 2*pi*n2 - delta1/2 + 3 delta1^2/(4 pi n2).
    (0,0) (0 <= c):  delta1 = delta2 = sqrt(3 c).
    """
    if not abs(c) <= SMALL_C_MAX:
        raise ValueError(f"small-c series needs |c| <= {SMALL_C_MAX}, got {c}")
    lab = label.canonical()
    n1, n2 = lab.n1, lab.n2
    if n1 >= 1:
        return (TWO_PI * n1 + small_c_slope(n1, n2) * c, TWO_PI * n2 + small_c_slope(n2, n1) * c)
    if c < 0:
        raise ValueError(f"n1 = 0 labels have no real branch for c < 0 (got c={c})")
    if n2 == 0:
        d = math.sqrt(3.0 * c)
        return (d, d)
    d1 = 2.0 * math.sqrt(c)
    d2 = TWO_PI * n2 - d1 / 2.0 + 3.0 * d1 * d1 / (4.0 * math.pi * n2)
    return (d1, d2)


def small_c_slope(n1: int, n2: int) -> float:
    """d(delta1)/dc at c = 0 for labels with both n_j >= 1."""
    if n1 < 1 or n2 < 1:
        raise ValueError("slope formula needs both n_j >= 1")
    return (2.0 * n1 * n2 + 2.0 * n2 * n2 - n1 * n1) / (n1 * n2 * (n1 + n2) * math.pi)
