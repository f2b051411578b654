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
routing, shared by simplex_integral_exponents, picks the form: an exponent
below NEAR_DEGENERATE_EXPONENT (1e-6) in magnitude counts as zero, so a
near-degenerate triple takes the nearer limiting form instead of cancelling.

The 108 exponents of the 36 pairs take only 9 values d_ij = k_i - conj(k_j),
so a state's norm is read from one 3x3 table: entry (i, j) holds d_ij, |d_ij|
and, at z = i d_ij, e_1(-z), e_1(z), e_2(z), e_3(z) and the middle-zero form,
from e^z - 1 and e^{-z} - 1, which share their trigonometric factors.  As
d_ji = -conj(d_ij), entry (j, i) is entry (i, j) with every piece
conjugated, so only the diagonal and upper entries are evaluated.  Each
pair only routes and combines three entries; all 36 are summed, so the
imaginary part of the total stays a check on the arithmetic.

The coincidence-plane integral for <V> reduces to the single-variable
D(b) = e_2(ib) = (e^{ib} - 1 - ib)/(ib)^2 per pair, with b = k_{P3} - conj(k_{Q3}).
It depends on (P3, Q3) alone, so the 36-term sum is grouped exactly into 9:
sum_ij e_2(i d_ij) A_i conj(A_j) with A_i = sum over P3 = i of a(P).  The
e_2(i d_ij) are the .e2 pieces of the norm's table, so one amplitudes call
and one table serve both sums.  That pair of sums is memoised for the last
state evaluated: callers take norm_squared and then
potential_expectation(state, norm=n) of the same state, and without the
memo the second call would rebuild the whole table.
"""
from __future__ import annotations

import functools
import math

from .model import Momenta, StateSolution
from .tolerances import MAX_GRID_POINTS, NEAR_DEGENERATE_EXPONENT, NORM_IMAG_RTOL
from .wavefunction import PERMUTATIONS, amplitudes, psi_ordered


def _e1(z: complex, m: complex) -> complex:
    """(e^z - 1)/z, given m = e^z - 1."""
    if abs(z) < 1e-8:
        return 1.0 + z / 2.0 + z * z / 6.0
    return m / z


def _e2(z: complex, m: complex) -> complex:
    """(e^z - 1 - z)/z^2, given m = e^z - 1."""
    if abs(z) < 1e-6:
        return 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0
    return (m - z) / (z * z)


def _e3(z: complex, m: complex) -> complex:
    """(e^z - 1 - z - z^2/2)/z^3, given m = e^z - 1."""
    if abs(z) < 1e-4:
        return 1.0 / 6.0 + z / 24.0 + z * z / 120.0 + z ** 3 / 720.0
    return (m - z - z * z / 2.0) / (z ** 3)


def _middle_zero(w: complex, e1: complex, e2: complex) -> complex:
    """T for (a1, 0, a3) with a3 = -a1, w = i*a3: (e1(w) - 2 e2(w))/w.

    Series sum_{k>=1} k w^{k-1}/(k+2)! below the cancellation window.
    """
    if abs(w) < 1e-4:
        return 1.0 / 6.0 + w / 12.0 + w * w / 40.0 + w ** 3 / 180.0
    return (e1 - 2.0 * e2) / w


class _Exponent:
    """One exponent a with every piece T reads for it, at z = i a: e_1(-z),
    e_1(z), e_2(z), e_3(z) and the middle-zero form.  e^z - 1 and e^{-z} - 1
    are formed without cancellation at small |z| (complex expm1) and share
    cos y, sin y and 2 sin^2(y/2) (y = Im z)."""

    __slots__ = ("a", "mag", "z", "e1_neg", "e1", "e2", "e3", "mid")

    def __init__(self, a: complex) -> None:
        z = 1j * a
        x, y = z.real, z.imag
        cos_y, sin_y, half = math.cos(y), math.sin(y), 2.0 * math.sin(y / 2.0) ** 2
        m = complex(math.expm1(x) * cos_y - half, math.exp(x) * sin_y)
        m_neg = complex(math.expm1(-x) * cos_y - half, math.exp(-x) * -sin_y)
        self.a, self.mag, self.z = a, abs(a), z
        self.e1_neg = _e1(-z, m_neg)
        self.e1, self.e2, self.e3 = _e1(z, m), _e2(z, m), _e3(z, m)
        self.mid = _middle_zero(z, self.e1, self.e2)

    def conjugate(self) -> _Exponent:
        """The entry of -conj(a), whose z is conj(z): every piece conjugated."""
        t = _Exponent.__new__(_Exponent)
        t.a, t.mag, t.z = -self.a.conjugate(), self.mag, self.z.conjugate()
        t.e1_neg, t.e1 = self.e1_neg.conjugate(), self.e1.conjugate()
        t.e2, t.e3, t.mid = self.e2.conjugate(), self.e3.conjugate(), self.mid.conjugate()
        return t


def _symmetric_table(k, entry) -> list[list]:
    """3x3 table of entry(d_ij), d_ij = k_i - conj(k_j), for an entry whose
    value at -conj(d) is its value at d conjugated: d_ji = -conj(d_ij), so
    only the diagonal and the upper triangle are evaluated."""
    table = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            table[i][j] = t = entry(k[i] - k[j].conjugate())
            if j != i:
                table[j][i] = t.conjugate()
    return table


def _simplex(t1: _Exponent, t2: _Exponent, t3: _Exponent) -> complex:
    """T(a1, a2, a3) from the three exponents' pieces; the routing of
    simplex_integral_exponents.  A triple with an exponent below
    NEAR_DEGENERATE_EXPONENT takes the limiting form of its first smallest."""
    m1, m2, m3 = t1.mag, t2.mag, t3.mag
    s = abs(t1.a + t2.a + t3.a)
    # s > 1e-9 * max(1, m1, m2, m3), without building the max on the common path
    if s > 1e-9 and s > 1e-9 * m1 and s > 1e-9 * m2 and s > 1e-9 * m3:
        raise ValueError(f"exponents must sum to zero, got sum {t1.a + t2.a + t3.a}")
    eps = NEAR_DEGENERATE_EXPONENT
    if m1 < eps or m2 < eps or m3 < eps:
        if m1 < eps and m2 < eps and m3 < eps:
            return complex(1.0 / 6.0)
        if m1 <= m2 and m1 <= m3:
            return t3.e3
        if m2 <= m3:
            return t3.mid
        return t2.e3
    return (t3.e2 - (t1.e1_neg - t3.e1) / t2.z) / t1.z


def simplex_integral_exponents(a1: complex, a2: complex, a3: complex) -> complex:
    """Closed-form ordered-simplex integral T(a1, a2, a3) of exp(i sum a_m x_m).

    The exponents must sum to ~0.  An exponent below NEAR_DEGENERATE_EXPONENT
    routes the triple to the nearer limiting form, which avoids catastrophic
    cancellation.
    """
    return _simplex(_Exponent(a1), _Exponent(a2), _Exponent(a3))


@functools.lru_cache(maxsize=1)
def _sums(momenta: Momenta, c: float) -> tuple[complex, complex]:
    """(norm sum, coincidence sum) of one state from one amplitudes call and
    one exponent table: the 36 pairs a(P) conj(a(Q)) T_PQ, and the (P3, Q3)
    grouping sum_ij e_2(i d_ij) A_i conj(A_j) with A_i = sum_{P3 = i} a(P)."""
    a = amplitudes(momenta, c)
    table = _symmetric_table(momenta, _Exponent)
    norm = 0j
    for p in PERMUTATIONS:
        ap, row1, row2, row3 = a[p], table[p[0]], table[p[1]], table[p[2]]
        for q in PERMUTATIONS:
            norm += ap * a[q].conjugate() * _simplex(row1[q[0]], row2[q[1]], row3[q[2]])
    A = [0j, 0j, 0j]
    for p in PERMUTATIONS:
        A[p[2]] += a[p]
    coincidence = 0j
    for row, Ai in zip(table, A):
        for t, Aj in zip(row, A):
            coincidence += t.e2 * Ai * Aj.conjugate()
    return norm, coincidence


def norm_squared(state: StateSolution) -> float:
    """<psi|psi> of the unnormalized six-term eigenfunction (6 regions).

    Near a fold the sum cancels: for (1,2) within 1e-5 of C(1,2) its O(1)
    terms add up to a norm of ~1e-5, and about 8 of 16 digits survive, in
    the norm and in <V>, which divides by it.  Reordering the same arithmetic
    moves the norm there by up to ~1e-8 relative.
    """
    total = 6.0 * _sums(state.momenta, state.c)[0]
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

    Exactly zero at c = 0; otherwise sign(<V>) = sign(c).  A given norm must
    be finite and positive (it is norm_squared(state)); otherwise ValueError.
    """
    if norm is not None and not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"norm must be finite and positive, got {norm}")
    if state.c == 0.0:
        return 0.0
    n = norm_squared(state) if norm is None else norm
    total = _sums(state.momenta, state.c)[1]
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
    coordinates at fixed state.  A resolution that is not an integer, is
    below 8, or is above 1413 where the n(n+1)/2 points pass MAX_GRID_POINTS,
    raises ValueError before any array is built.
    """
    import numpy as np

    n = resolution
    if not (isinstance(n, (int, np.integer)) and n >= 8 and n * (n + 1) // 2 <= MAX_GRID_POINTS):
        raise ValueError(
            f"resolution must be an integer >= 8 with n(n+1)/2 <= {MAX_GRID_POINTS}, got {n!r}")
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
