"""State classification, coordinate parameterizations, and exact conversions.

Conventions (dimensionless throughout, box length 1):

* A state is labelled by the non-interacting quantum numbers (n1, n2), both
  >= 0; the total-momentum index np in {-1, 0, 1} follows from (n1 - n2) mod 3
  and the total momentum is p = 2*pi*np.
* Real-branch coordinates are the momentum gaps delta1 = k2 - k1 and
  delta2 = k3 - k2 (both >= 0 with k1 <= k2 <= k3).
* Complex-branch coordinates are (alpha > 0, gamma) with
  delta1 = -2i*alpha, delta2 = i*alpha - 3*gamma, so that
  k1 = i*alpha + gamma + p/3, k2 = conj(k1), k3 = -2*gamma + p/3.
* The energy is E = sum k_j^2 and has the closed forms
  E = (p^2 + 2*(d1^2 + d2^2 + d1*d2))/3 on the real branch and
  E = -2*alpha^2 + 6*gamma^2 + p^2/3 on the complex branch.

Labels, momenta, coordinates and states are immutable named tuples: fields
are read by name, and equality and hashing are those of the plain tuple of
field values.  Labels reject negative components and coordinates coerce
their fields to float in __new__.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .tolerances import ENERGY_AGREEMENT_RTOL, IDENTITY_TOL

TWO_PI = 2.0 * math.pi

_NP_FROM_MOD3 = {0: 0, 1: -1, 2: 1}


def np_from_label(n1: int, n2: int) -> int:
    """Total-momentum index for a label: 0, -1, +1 as n1-n2 = 3n, 3n+1, 3n+2."""
    return _NP_FROM_MOD3[(n1 - n2) % 3]


class QuantumLabel(NamedTuple("_Label", [("n1", int), ("n2", int)])):
    """Non-interacting classification (n1, n2) of a root, stored as given.

    (n1, n2) and (-n2, -n1) denote the same state; (n2, n1) is the degenerate
    conjugate partner when n1 != n2.  The canonical cell has n2 >= n1 >= 0.
    """

    __slots__ = ()

    def __new__(cls, n1: int, n2: int) -> "QuantumLabel":
        if n1 < 0 or n2 < 0:
            raise ValueError(f"label components must be >= 0, got ({n1}, {n2})")
        return super().__new__(cls, n1, n2)

    @property
    def np(self) -> int:
        return np_from_label(self.n1, self.n2)

    @property
    def p(self) -> float:
        return TWO_PI * self.np

    @property
    def is_diagonal(self) -> bool:
        return self.n1 == self.n2

    def canonical(self) -> "QuantumLabel":
        if self.n1 <= self.n2:
            return self
        return QuantumLabel(self.n2, self.n1)

    def partner(self) -> "QuantumLabel":
        return QuantumLabel(self.n2, self.n1)

    def __str__(self) -> str:
        return f"({self.n1},{self.n2})"


class Branch(Enum):
    REAL_K = "real"
    COMPLEX_K = "complex"


class Momenta(NamedTuple):
    """Ordered wavenumber triple; real ascending, or conjugate pair (Im>0 first)."""

    k1: complex
    k2: complex
    k3: complex

    @property
    def total(self) -> complex:
        return self.k1 + self.k2 + self.k3

    def energy(self) -> float:
        e = self.k1 ** 2 + self.k2 ** 2 + self.k3 ** 2
        return e.real

    def energy_imag_defect(self) -> float:
        return abs((self.k1 ** 2 + self.k2 ** 2 + self.k3 ** 2).imag)

    def is_real(self, tol: float = IDENTITY_TOL) -> bool:
        return max(abs(self.k1.imag), abs(self.k2.imag), abs(self.k3.imag)) < tol


def k_from_deltas(p: float, d1: float, d2: float) -> Momenta:
    """Real-branch momenta from (p, delta1, delta2), deltas >= 0."""
    if d1 < 0 or d2 < 0:
        raise ValueError(f"deltas must be >= 0, got ({d1}, {d2})")
    k1 = (p - 2.0 * d1 - d2) / 3.0
    k2 = (p + d1 - d2) / 3.0
    k3 = (p + d1 + 2.0 * d2) / 3.0
    return Momenta(complex(k1), complex(k2), complex(k3))


def deltas_from_k(m: Momenta) -> tuple[float, float, float]:
    """Inverse of k_from_deltas; rejects non-real or unordered input."""
    if not m.is_real():
        raise ValueError("deltas_from_k requires real-branch momenta")
    k1, k2, k3 = m.k1.real, m.k2.real, m.k3.real
    if not (k1 <= k2 <= k3):
        raise ValueError(f"momenta must be ordered ascending, got ({k1}, {k2}, {k3})")
    return (k1 + k2 + k3, k2 - k1, k3 - k2)


def k_from_alpha_gamma(p: float, alpha: float, gamma: float) -> Momenta:
    """Complex-branch momenta: k1 = i*alpha + gamma + p/3, k2 = conj(k1), k3 real."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    k1 = complex(gamma + p / 3.0, alpha)
    k2 = complex(gamma + p / 3.0, -alpha)
    k3 = complex(-2.0 * gamma + p / 3.0, 0.0)
    return Momenta(k1, k2, k3)


class RealCoords(NamedTuple("_Real", [("delta1", float), ("delta2", float), ("p", float)])):
    """Real-branch coordinates (delta1, delta2, p)."""

    __slots__ = ()
    branch = Branch.REAL_K

    def __new__(cls, delta1: float, delta2: float, p: float) -> "RealCoords":
        return super().__new__(cls, float(delta1), float(delta2), float(p))

    def momenta(self) -> Momenta:
        return k_from_deltas(self.p, self.delta1, self.delta2)

    def energy(self) -> float:
        d1, d2 = self.delta1, self.delta2
        return (self.p ** 2 + 2.0 * (d1 * d1 + d2 * d2 + d1 * d2)) / 3.0


class ComplexCoords(NamedTuple("_Complex", [("alpha", float), ("gamma", float), ("p", float)])):
    """Complex-branch coordinates (alpha, gamma, p), alpha > 0."""

    __slots__ = ()
    branch = Branch.COMPLEX_K

    def __new__(cls, alpha: float, gamma: float, p: float) -> "ComplexCoords":
        return super().__new__(cls, float(alpha), float(gamma), float(p))

    def momenta(self) -> Momenta:
        return k_from_alpha_gamma(self.p, self.alpha, self.gamma)

    def energy(self) -> float:
        return -2.0 * self.alpha ** 2 + 6.0 * self.gamma ** 2 + self.p ** 2 / 3.0


BranchCoords = RealCoords | ComplexCoords


class StateSolution(NamedTuple):
    """A solved eigenstate at one coupling value."""

    label: QuantumLabel
    c: float
    coords: BranchCoords
    momenta: Momenta
    energy: float

    @property
    def branch(self) -> Branch:
        return self.coords.branch


def build_state(label: QuantumLabel, c: float, coords: BranchCoords) -> StateSolution:
    """Assemble a StateSolution, enforcing the conservation and energy identities."""
    if not math.isfinite(c):
        raise ValueError(f"coupling must be finite, got {c}")
    m = coords.momenta()
    p = TWO_PI * label.np
    if abs(m.total - p) > IDENTITY_TOL:
        raise ValueError(
            f"momentum sum {m.total} != 2*pi*np = {p} for label {label}"
        )
    e_coord = coords.energy()
    e_sum = m.energy()
    scale = max(1.0, abs(e_coord))
    if abs(e_coord - e_sum) > ENERGY_AGREEMENT_RTOL * scale:
        raise ValueError(
            f"energy formulas disagree: coords {e_coord} vs sum(k^2) {e_sum}"
        )
    if m.energy_imag_defect() > ENERGY_AGREEMENT_RTOL * scale:
        raise ValueError(f"imaginary energy defect {m.energy_imag_defect()}")
    return StateSolution(label=label, c=c, coords=coords, momenta=m, energy=e_coord)


def partner_state(state: StateSolution) -> StateSolution:
    """Degenerate partner: label swapped, momenta negated and re-canonicalized.

    Diagonal labels return an equivalent state (same momenta set, p = 0).
    """
    lab = state.label.partner()
    if isinstance(state.coords, RealCoords):
        coords = RealCoords(
            delta1=state.coords.delta2, delta2=state.coords.delta1, p=-state.coords.p
        )
    else:
        coords = ComplexCoords(
            alpha=state.coords.alpha, gamma=-state.coords.gamma, p=-state.coords.p
        )
    return build_state(lab, state.c, coords)
