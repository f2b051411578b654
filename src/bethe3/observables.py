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

With e_2(z) = (e^z - 1 - z)/z^2 = exp[0, 0, z], the Hermite-Genocchi formula
(de Boor, "Divided differences", Surveys in Approximation Theory 1, 2005)
reads T as a divided difference of exp at the partial exponent sums:

    T(a1,a2,a3) = exp[0, 0, -z1, z3] = (e_2(-z1) - e_2(z3))/z2,  z_m = i a_m.

e_2 takes its Taylor series below |z| = 0.1, so a node -z1 or z3 next to the
double node 0 needs no special case.  The one window: for |a2| below
NEAR_DEGENERATE_EXPONENT (1e-6) the nodes -z1 and z3 merge and T is
e_2'(z3) = (e_1(z3) - 2 e_2(z3))/z3, e_1(z) = (e^z - 1)/z, an O(|a2|) error
in place of the quotient's cancellation, which above the window costs about
log10(1/|a2|) digits.  simplex_integral_exponents evaluates the same kernel;
a tensor Gauss-Legendre quadrature oracle checks it.

The 108 exponents of the 36 pairs take only 9 values d_ij = k_i - conj(k_j),
so a state's norm is read from one 3x3 table: entry (i, j) holds d_ij, |d_ij|
and, at z = i d_ij, e_2(z), e_2(-z) and e_2'(z), from e^z - 1 and
e^{-z} - 1, which share their trigonometric factors.  As
d_ji = -conj(d_ij), entry (j, i) is entry (i, j) with every piece
conjugated, so only the diagonal and upper entries are evaluated.  Each
pair only combines three entries; all 36 are summed, so the imaginary part
of the total stays a check on the arithmetic.

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
import numbers

from .model import Momenta, StateSolution
from .tolerances import MAX_GRID_POINTS, MAX_SUM_CONDITION, NEAR_DEGENERATE_EXPONENT, NORM_IMAG_RTOL
from .wavefunction import PERMUTATIONS, amplitudes, labelled, psi_ordered


def _e2(z: complex, m: complex) -> complex:
    """(e^z - 1 - z)/z^2, given m = e^z - 1; below |z| = 0.1, where m - z
    cancels, its Taylor series to z^8 (beyond, the quotient errs by ~2e-16/|z|)."""
    if abs(z) < 0.1:
        return 0.5 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120 + z * (1 / 720 + z * (
            1 / 5040 + z * (1 / 40320 + z * (1 / 362880 + z / 3628800)))))))
    return (m - z) / (z * z)


def _de2(z: complex, m: complex, e2: complex) -> complex:
    """e_2'(z) = (e_1(z) - 2 e_2(z))/z, given m = e^z - 1 and e2 = e_2(z); its
    series sum_{k>=1} k z^{k-1}/(k+2)! below |z| = 1e-4, where that cancels."""
    if abs(z) < 1e-4:
        return 1.0 / 6.0 + z / 12.0 + z * z / 40.0 + z ** 3 / 180.0
    return (m / z - 2.0 * e2) / z


class _Exponent:
    """One exponent a with every piece T reads for it, at z = i a: e_2(z),
    e_2(-z) and e_2'(z).  e^z - 1 and e^{-z} - 1 are formed without
    cancellation at small |z| (complex expm1) and share cos y, sin y and
    2 sin^2(y/2) (y = Im z)."""

    __slots__ = ("a", "mag", "z", "e2", "e2_neg", "de2")

    def __init__(self, a: complex) -> None:
        z = 1j * a
        x, y = z.real, z.imag
        cos_y, sin_y, half = math.cos(y), math.sin(y), 2.0 * math.sin(y / 2.0) ** 2
        m = complex(math.expm1(x) * cos_y - half, math.exp(x) * sin_y)
        m_neg = complex(math.expm1(-x) * cos_y - half, math.exp(-x) * -sin_y)
        self.a, self.mag, self.z = a, abs(a), z
        self.e2, self.e2_neg = _e2(z, m), _e2(-z, m_neg)
        self.de2 = _de2(z, m, self.e2)

    def conjugate(self) -> _Exponent:
        """The entry of -conj(a), whose z is conj(z): every piece conjugated."""
        t = _Exponent.__new__(_Exponent)
        t.a, t.mag, t.z = -self.a.conjugate(), self.mag, self.z.conjugate()
        t.e2, t.e2_neg, t.de2 = self.e2.conjugate(), self.e2_neg.conjugate(), self.de2.conjugate()
        return t


def _symmetric_table(k) -> list[list[_Exponent]]:
    """3x3 table of _Exponent(d_ij), d_ij = k_i - conj(k_j): d_ji = -conj(d_ij),
    so only the diagonal and the upper triangle are evaluated."""
    table = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            table[i][j] = t = _Exponent(k[i] - k[j].conjugate())
            if j != i:
                table[j][i] = t.conjugate()
    return table


def _simplex(t1: _Exponent, t2: _Exponent, t3: _Exponent) -> complex:
    """T(a1, a2, a3) = (e_2(-z1) - e_2(z3))/z2 from the three exponents'
    pieces, or e_2'(z3) for |a2| below NEAR_DEGENERATE_EXPONENT."""
    m1, m2, m3 = t1.mag, t2.mag, t3.mag
    s = abs(t1.a + t2.a + t3.a)
    # s > 1e-9 * max(1, m1, m2, m3), without building the max on the common path
    if s > 1e-9 and s > 1e-9 * m1 and s > 1e-9 * m2 and s > 1e-9 * m3:
        raise ValueError(f"exponents must sum to zero, got sum {t1.a + t2.a + t3.a}")
    if m2 < NEAR_DEGENERATE_EXPONENT:
        return t3.de2
    return (t1.e2_neg - t3.e2) / t2.z


def simplex_integral_exponents(a1: complex, a2: complex, a3: complex) -> complex:
    """Ordered-simplex integral T(a1, a2, a3) of exp(i sum a_m x_m), whose
    exponents must sum to ~0: the norm's kernel (see the module notes)."""
    return _simplex(_Exponent(a1), _Exponent(a2), _Exponent(a3))


@functools.lru_cache(maxsize=1)
def _sums(momenta: Momenta, c: float) -> tuple[complex, complex, float, float]:
    """(norm sum, coincidence sum, and the sum of |term| of each) of one state
    from one amplitudes call and one exponent table: the 36 pairs
    a(P) conj(a(Q)) T_PQ, and the (P3, Q3) grouping
    sum_ij e_2(i d_ij) A_i conj(A_j) with A_i = sum_{P3 = i} a(P)."""
    a = amplitudes(momenta, c)
    table = _symmetric_table(momenta)
    norm, norm_scale = 0j, 0.0
    for p in PERMUTATIONS:
        ap, row1, row2, row3 = a[p], table[p[0]], table[p[1]], table[p[2]]
        for q in PERMUTATIONS:
            term = ap * a[q].conjugate() * _simplex(row1[q[0]], row2[q[1]], row3[q[2]])
            norm += term
            norm_scale += abs(term)
    A = [0j, 0j, 0j]
    for p in PERMUTATIONS:
        A[p[2]] += a[p]
    coincidence, coincidence_scale = 0j, 0.0
    for row, Ai in zip(table, A):
        for t, Aj in zip(row, A):
            term = t.e2 * Ai * Aj.conjugate()
            coincidence += term
            coincidence_scale += abs(term)
    return norm, coincidence, norm_scale, coincidence_scale


def _check_cancellation(what: str, state: StateSolution, total: complex, scale: float) -> None:
    """ValueError where a sum cancels below the digits double precision keeps:
    its terms' magnitudes add up to more than MAX_SUM_CONDITION times |sum|."""
    if scale > MAX_SUM_CONDITION * abs(total):
        raise ValueError(
            f"{what} of {state.label} at c={state.c} cancels to {abs(total):.1e} from terms "
            f"of total size {scale:.1e}: too near a fold for double precision")


def norm_squared(state: StateSolution) -> float:
    """<psi|psi> of the unnormalized six-term eigenfunction (6 regions).

    Near a fold the O(1) terms cancel to a norm that vanishes at C, and each
    term loses digits as the momenta that merge there close up: for (1,2)
    1e-5 from C(1,2) about 8 of 16 digits survive, in the norm and in <V>,
    which divides by it.  Where the terms' magnitudes add up to more than
    MAX_SUM_CONDITION (1e7) times the sum, both raise ValueError instead:
    (1,2) and (1,3) within about 6e-7 of their C, (1,1) within 0.035 of -6.
    """
    norm, _, scale, _ = labelled(_sums, state)
    total = 6.0 * norm
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise OverflowError(
            f"norm overflow for {state.label} at c={state.c}: the bound-state "
            "exponentials exceed double range (|c| too large for observables)"
        )
    _check_cancellation("norm sum", state, norm, scale)
    if abs(total.imag) > NORM_IMAG_RTOL * max(1.0, abs(total.real)):
        raise ValueError(f"norm imaginary defect: {total}")
    if not total.real > 0.0:
        raise ValueError(f"norm must be positive, got {total.real}")
    return total.real


def potential_expectation(state: StateSolution, norm: float | None = None) -> float:
    """<V> = (6c/<psi|psi>) * integral of |psi|^2 over the coincidence plane.

    Exactly zero at c = 0; otherwise sign(<V>) = sign(c).  A given norm must
    be finite and positive (it is norm_squared(state)); otherwise ValueError,
    as where the norm or the coincidence sum cancels (see norm_squared).
    """
    if norm is not None and not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"norm must be finite and positive, got {norm}")
    if state.c == 0.0:
        return 0.0
    n = norm_squared(state) if norm is None else norm
    _, total, _, scale = labelled(_sums, state)
    _check_cancellation("coincidence sum", state, total, scale)
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
    n = resolution
    if not (isinstance(n, numbers.Integral) and n >= 8 and n * (n + 1) // 2 <= MAX_GRID_POINTS):
        raise ValueError(
            f"resolution must be an integer >= 8 with n(n+1)/2 <= {MAX_GRID_POINTS}, got {n!r}")
    norm = norm_squared(state)  # before numpy: a state past the depth limit fails cheaply
    import numpy as np

    ii, jj = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < n)
    r12 = ii / (n - 1)
    r23 = jj / (n - 1)
    r31 = 1.0 - r12 - r23
    r31[np.abs(r31) < 1e-14] = 0.0
    x2 = r12
    x3 = r12 + r23
    values = psi_ordered(state, np.zeros_like(x2), x2, x3)
    density = np.abs(values) ** 2 / norm
    return TernaryGrid(resolution=n, r12=r12, r23=r23, r31=r31, density=density)
