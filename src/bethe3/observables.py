"""Analytic norm, potential-energy expectation, and ternary density grids.

Depth limit: once the exponentially small part of alpha (eta or beta) drops
below the double-precision resolution of alpha itself, the stored momenta
saturate exactly onto the two-body pole c + i(k_j - k_l) = 0 and amplitude
construction raises; in practice observables are available down to roughly
c ~ -36 for trimer states and c ~ -75 for dimer states.  Root coordinates
themselves remain exact to machine precision at any depth.

The squared norm is 6 * sum over 36 permutation pairs (P, Q) of
a(P) * conj(a(Q)) * T(alpha_1, alpha_2, alpha_3) with exponents
alpha_m = k_{Pm} - conj(k_{Qm}) (their sum is p - p = 0 exactly) and

    T(a1,a2,a3) = int_0^1 dx3 int_0^{x3} dx2 int_0^{x2} dx1 e^{i(a1 x1 + a2 x2 + a3 x3)}.

With e_n(z) = (e^z - sum_{k<n} z^k/k!)/z^n the closed forms per degeneracy
case are

    all zero:            1/6
    a1 = 0 (a3 = -a2):   e_3(i a3)
    a3 = 0 (a2 = -a1):   e_3(i a2)
    a2 = 0 (a3 = -a1):   (e_1(w) - 2 e_2(w))/w,  w = i a3
    none zero:           [e_2(z3) - (e_1(-z1) - e_1(z3))/z2]/z1,  z_m = i a_m

each validated against a tensor Gauss-Legendre quadrature oracle.  One
function, simplex_integral_exponents, picks the form: an exponent below
NEAR_DEGENERATE_EXPONENT (1e-6) in magnitude counts as zero, so a
near-degenerate triple takes the nearer limiting form instead of cancelling.
The coincidence-plane integral for <V> reduces to the single-variable
D(b) = e_2(ib) = (e^{ib} - 1 - ib)/(ib)^2 per pair, with b = k_{P3} - conj(k_{Q3}).
"""
from __future__ import annotations

import math

from .model import StateSolution
from .tolerances import MAX_GRID_POINTS, NEAR_DEGENERATE_EXPONENT, NORM_IMAG_RTOL
from .wavefunction import PERMUTATIONS, amplitudes, psi_ordered


def _cexpm1(z: complex) -> complex:
    """e^z - 1 without cancellation for small |z| (complex expm1)."""
    x, y = z.real, z.imag
    re = math.expm1(x) * math.cos(y) - 2.0 * math.sin(y / 2.0) ** 2
    im = math.exp(x) * math.sin(y)
    return complex(re, im)


def _e1(z: complex) -> complex:
    """(e^z - 1)/z."""
    if abs(z) < 1e-8:
        return 1.0 + z / 2.0 + z * z / 6.0
    return _cexpm1(z) / z


def _e2(z: complex) -> complex:
    """(e^z - 1 - z)/z^2."""
    if abs(z) < 1e-6:
        return 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0
    return (_cexpm1(z) - z) / (z * z)


def _e3(z: complex) -> complex:
    """(e^z - 1 - z - z^2/2)/z^3."""
    if abs(z) < 1e-4:
        return 1.0 / 6.0 + z / 24.0 + z * z / 120.0 + z ** 3 / 720.0
    return (_cexpm1(z) - z - z * z / 2.0) / (z ** 3)


def _middle_zero(w: complex) -> complex:
    """T for (a1, 0, a3) with a3 = -a1, w = i*a3: (e1(w) - 2 e2(w))/w.

    Series sum_{k>=1} k w^{k-1}/(k+2)! below the cancellation window.
    """
    if abs(w) < 1e-4:
        return 1.0 / 6.0 + w / 12.0 + w * w / 40.0 + w ** 3 / 180.0
    return (_e1(w) - 2.0 * _e2(w)) / w


def simplex_integral_exponents(a1: complex, a2: complex, a3: complex) -> complex:
    """Closed-form ordered-simplex integral T(a1, a2, a3) of exp(i sum a_m x_m).

    The exponents must sum to ~0.  An exponent below NEAR_DEGENERATE_EXPONENT
    routes the triple to the nearer limiting form, which avoids catastrophic
    cancellation.
    """
    mags = [abs(a1), abs(a2), abs(a3)]
    if abs(a1 + a2 + a3) > 1e-9 * max(1.0, *mags):
        raise ValueError(f"exponents must sum to zero, got sum {a1 + a2 + a3}")
    if max(mags) < NEAR_DEGENERATE_EXPONENT:
        return complex(1.0 / 6.0)
    j = mags.index(min(mags))
    if mags[j] < NEAR_DEGENERATE_EXPONENT:
        if j == 0:
            return _e3(1j * a3)
        if j == 2:
            return _e3(1j * a2)
        return _middle_zero(1j * a3)
    z1, z2, z3 = 1j * a1, 1j * a2, 1j * a3
    return (_e2(z3) - (_e1(-z1) - _e1(z3)) / z2) / z1


def _pair_sum(state: StateSolution, term) -> complex:
    """sum over 36 permutation pairs (P, Q) of a(P) conj(a(Q)) times
    term(k_{P1} - conj(k_{Q1}), k_{P2} - conj(k_{Q2}), k_{P3} - conj(k_{Q3}))."""
    k = tuple(state.momenta)  # indexing a plain tuple takes the interpreter's fast path
    kc = [kj.conjugate() for kj in k]
    a = amplitudes(state.momenta, state.c)
    total = 0j
    for p in PERMUTATIONS:
        for q in PERMUTATIONS:
            total += a[p] * a[q].conjugate() * term(
                k[p[0]] - kc[q[0]], k[p[1]] - kc[q[1]], k[p[2]] - kc[q[2]])
    return total


def norm_squared(state: StateSolution) -> float:
    """<psi|psi> of the unnormalized six-term eigenfunction (6 regions)."""
    total = 6.0 * _pair_sum(state, simplex_integral_exponents)
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise OverflowError(
            f"norm overflow for {state.label} at c={state.c}: the bound-state "
            "exponentials exceed double range (|c| too large for observables)"
        )
    if abs(total.imag) > NORM_IMAG_RTOL * max(1.0, abs(total.real)):
        raise ValueError(f"norm imaginary defect: {total}")
    if not total.real > 0.0:
        raise ValueError(f"norm must be positive, got {total.real}")
    return total.real


def potential_expectation(state: StateSolution, norm: float | None = None) -> float:
    """<V> = (6c/<psi|psi>) * integral of |psi|^2 over the coincidence plane.

    Exactly zero at c = 0; otherwise sign(<V>) = sign(c).
    """
    if state.c == 0.0:
        return 0.0
    n = norm_squared(state) if norm is None else norm

    # coincidence-plane integral D(b) = e_2(i b), b = k_{P3} - conj(k_{Q3})
    total = _pair_sum(state, lambda b1, b2, b3: _e2(1j * b3))
    if abs(total.imag) > NORM_IMAG_RTOL * max(1.0, abs(total.real)):
        raise ValueError(f"coincidence integral imaginary defect: {total}")
    return 6.0 * state.c * total.real / n


class TernaryGrid:
    """Probability density sampled on the barycentric lattice of the ternary
    diagram (r12 + r23 + r31 = 1), `resolution` levels per side, row-major;
    len() is the number of points."""

    __slots__ = ("resolution", "r12", "r23", "r31", "density")

    def __init__(self, resolution: int, r12: np.ndarray, r23: np.ndarray, r31: np.ndarray,
                 density: np.ndarray) -> None:
        self.resolution, self.density = resolution, density
        self.r12, self.r23, self.r31 = r12, r23, r31

    def __len__(self) -> int:
        return self.density.size

    def vertex_mask(self) -> np.ndarray:
        return (self.r12 == 1.0) | (self.r23 == 1.0) | (self.r31 == 1.0)

    def edge_mask(self) -> np.ndarray:
        eps = 1e-12
        return (self.r12 < eps) | (self.r23 < eps) | (self.r31 < eps)

    def interior_mask(self) -> np.ndarray:
        return ~self.edge_mask()


def density_grid(state: StateSolution, resolution: int) -> TernaryGrid:
    """Normalized |psi|^2 on the ternary lattice.

    The representative configuration for (r12, r23, r31) is
    x = (0, r12, r12 + r23); the density depends only on the relative
    coordinates at fixed state.  A resolution below 8, or above 1413 where the
    n(n+1)/2 points pass MAX_GRID_POINTS, raises ValueError before any array
    is built.
    """
    import numpy as np

    n = resolution
    if not (n >= 8 and n * (n + 1) // 2 <= MAX_GRID_POINTS):
        raise ValueError(f"resolution must be >= 8 with n(n+1)/2 <= {MAX_GRID_POINTS}, got {n}")
    ii, jj = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < n)
    r12 = ii / (n - 1)
    r23 = jj / (n - 1)
    r31 = 1.0 - r12 - r23
    r31[np.abs(r31) < 1e-14] = 0.0
    norm = norm_squared(state)
    x2 = r12
    x3 = r12 + r23
    values = psi_ordered(state, np.zeros_like(x2), x2, x3)
    density = np.abs(values) ** 2 / norm
    return TernaryGrid(resolution=n, r12=r12, r23=r23, r31=r31, density=density)
