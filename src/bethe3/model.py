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
field values.  Labels take integer components >= 0 (not bool or float) and
coordinates coerce their fields to float in __new__.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .tolerances import ENERGY_AGREEMENT_RTOL, IDENTITY_TOL

TWO_PI = 2.0 * math.pi
_INF = math.inf

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
        if type(n1) is not int or type(n2) is not int:  # numpy integers become int
            from numbers import Integral

            if not all(isinstance(n, Integral) and not isinstance(n, bool) for n in (n1, n2)):
                raise ValueError(f"label components must be integers, got ({n1!r}, {n2!r})")
            n1, n2 = int(n1), int(n2)
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

    def is_real(self) -> bool:
        return max(abs(self.k1.imag), abs(self.k2.imag), abs(self.k3.imag)) < IDENTITY_TOL


def _real_k(p: float, d1: float, d2: float) -> tuple[float, float, float]:
    """Real-branch momenta k1 <= k2 <= k3 as floats, finite p and deltas >= 0."""
    if not (0.0 <= d1 < _INF and 0.0 <= d2 < _INF and abs(p) < _INF):
        raise ValueError(f"need finite p and deltas >= 0, got deltas ({d1}, {d2}), p={p}")
    return (p - 2.0 * d1 - d2) / 3.0, (p + d1 - d2) / 3.0, (p + d1 + 2.0 * d2) / 3.0


def k_from_deltas(p: float, d1: float, d2: float) -> Momenta:
    """Real-branch momenta from (p, delta1, delta2), deltas >= 0."""
    k1, k2, k3 = _real_k(p, d1, d2)
    return tuple.__new__(Momenta, (complex(k1), complex(k2), complex(k3)))


def deltas_from_k(m: Momenta) -> tuple[float, float, float]:
    """Inverse of k_from_deltas; rejects non-real or unordered input."""
    if not m.is_real():
        raise ValueError("deltas_from_k requires real-branch momenta")
    k1, k2, k3 = m.k1.real, m.k2.real, m.k3.real
    if not (k1 <= k2 <= k3):
        raise ValueError(f"momenta must be ordered ascending, got ({k1}, {k2}, {k3})")
    return (k1 + k2 + k3, k2 - k1, k3 - k2)


def _complex_k(p: float, alpha: float, gamma: float) -> tuple[float, float]:
    """Complex-branch Re k1 = Re k2 and k3 as floats, finite p, gamma and alpha >= 0."""
    if not (0.0 <= alpha < _INF and abs(gamma) < _INF and abs(p) < _INF):
        raise ValueError(f"need finite gamma, p and alpha >= 0, got ({alpha}, {gamma}, {p})")
    q = p / 3.0
    return gamma + q, -2.0 * gamma + q


class RealCoords(NamedTuple("_Real", [("delta1", float), ("delta2", float), ("p", float)])):
    """Real-branch coordinates (delta1, delta2, p)."""

    __slots__ = ()
    branch = Branch.REAL_K

    def __new__(cls, delta1: float, delta2: float, p: float) -> "RealCoords":
        return tuple.__new__(cls, (float(delta1), float(delta2), float(p)))

    def energy(self) -> float:
        d1, d2, p = self
        return (p ** 2 + 2.0 * (d1 * d1 + d2 * d2 + d1 * d2)) / 3.0


class ComplexCoords(NamedTuple("_Complex", [("alpha", float), ("gamma", float), ("p", float)])):
    """Complex-branch coordinates (alpha, gamma, p), alpha > 0."""

    __slots__ = ()
    branch = Branch.COMPLEX_K

    def __new__(cls, alpha: float, gamma: float, p: float) -> "ComplexCoords":
        return tuple.__new__(cls, (float(alpha), float(gamma), float(p)))

    def energy(self) -> float:
        alpha, gamma, p = self
        return -2.0 * alpha ** 2 + 6.0 * gamma ** 2 + p ** 2 / 3.0


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
    """Assemble a StateSolution, enforcing the conservation and energy identities.

    coords is a RealCoords or a ComplexCoords; any other type raises
    TypeError.  Every call runs every check, each written so that NaN fails
    it: c finite, the coordinates finite with their sign check, sum(k) =
    2*pi*np, and sum(k^2) = coords.energy().  The imaginary parts of both sums
    cancel exactly (all momenta are real, or a conjugate pair gives
    alpha - alpha and +-2*alpha*Re(k1)), so the sums are formed from the real
    parts in float arithmetic, and the complex momenta are built once from
    those floats.
    """
    if not math.isfinite(c):
        raise ValueError(f"coupling must be finite, got {c}")
    p = TWO_PI * _NP_FROM_MOD3[(label.n1 - label.n2) % 3]  # label.np, inlined
    kind = type(coords)
    if kind is RealCoords:
        d1, d2, q = coords
        k1, k2, k3 = _real_k(q, d1, d2)
        total, e_sum = k1 + k2 + k3, k1 * k1 + k2 * k2 + k3 * k3
        m = tuple.__new__(Momenta, (complex(k1), complex(k2), complex(k3)))
    elif kind is ComplexCoords:
        alpha, gamma, q = coords
        r, k3 = _complex_k(q, alpha, gamma)
        t = r * r - alpha * alpha  # Re k1^2 = Re k2^2
        total, e_sum = r + r + k3, t + t + k3 * k3
        m = tuple.__new__(Momenta, (complex(r, alpha), complex(r, -alpha), complex(k3, 0.0)))
    else:
        raise TypeError(f"coords must be RealCoords or ComplexCoords, got {kind.__name__}")
    if not (abs(total - p) <= IDENTITY_TOL):
        raise ValueError(f"momentum sum {m.total} != 2*pi*np = {p} for label {label}")
    e_coord = coords.energy()
    tol = ENERGY_AGREEMENT_RTOL * max(1.0, abs(e_coord))
    if not (abs(e_coord - e_sum) <= tol):
        raise ValueError(f"energy formulas disagree: coords {e_coord} vs sum(k^2) {e_sum}")
    return tuple.__new__(StateSolution, (label, c, coords, m, e_coord))


def partner_coords(coords: BranchCoords) -> BranchCoords:
    """Conjugate partner's coords (k -> -conj k): (delta2, delta1, -p) or (alpha, -gamma, -p)."""
    a, b, p = coords
    return RealCoords(b, a, -p) if coords.branch is Branch.REAL_K else ComplexCoords(a, -b, -p)


def partner_state(state: StateSolution) -> StateSolution:
    """Degenerate partner: label swapped, momenta negated and re-canonicalized.

    Diagonal labels return an equivalent state (same momenta set, p = 0).
    """
    return build_state(state.label.partner(), state.c, partner_coords(state.coords))
