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
so a state's norm is read from one 3x3 table: entry (i, j) holds |d_ij|
and, at z = i d_ij, z, e_2(z), e_2(-z) and e_2'(z), from e^z - 1 and
e^{-z} - 1, which share their trigonometric factors.  Each entry is a plain
tuple of these pieces, from _entry (which simplex_integral_exponents also
uses) or _opposite_entries, and the table is returned as five flat 9-entry
columns (index 3i + j), one per piece.  Only
distinct exponents are evaluated, and every entry equals its direct
evaluation: d_ji = -conj(d_ij), so entry (j, i) is entry (i, j) with every
piece but |d_ij| conjugated; a zero d_ij (the three d_ii of real momenta,
d_12 and d_33 of a conjugate pair k_2 = conj(k_1) with k_3 real) is one
constant entry; and for such a pair d_22 = -d_11 and d_32 = -d_13 swap
e^z - 1 with e^{-z} - 1.  A state then costs 3 sets of transcendentals
(real momenta) or 2 (a conjugate pair), not 6.  The 36 pairs run from the
index tuple _PAIRS through one inlined kernel that reads the columns.
Every pair's exponents sum to sum(k) - conj(sum(k)), so that sum is
checked once per state, against 1e-9 max(1, the smallest over the pairs of
their largest |a_m|), no looser than a check per pair.  All 36 terms are
summed, so the imaginary part of the total stays a check on the arithmetic.

The coincidence-plane integral for <V> reduces to the single-variable
D(b) = e_2(ib) = (e^{ib} - 1 - ib)/(ib)^2 per pair, with b = k_{P3} - conj(k_{Q3}).
It depends on (P3, Q3) alone, so the 36-term sum is grouped exactly into 9:
sum_ij e_2(i d_ij) A_i conj(A_j) with A_i = sum over P3 = i of a(P), read
from the amplitudes tuple at the fixed positions of PERMUTATIONS.  The
e_2(i d_ij) are the e2 column of the norm's table, so one amplitudes call
and one table serve both sums.  That pair of sums is memoised for the last
state evaluated: callers take norm_squared and then
potential_expectation(state, norm=n) of the same state, and without the
memo the second call would rebuild the whole table.
"""
from __future__ import annotations

import cmath
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


def _expm1_pair(z: complex) -> tuple[complex, complex]:
    """e^z - 1 and e^{-z} - 1 without cancellation at small |z| (complex
    expm1), sharing cos y, sin y and 2 sin^2(y/2) (y = Im z)."""
    x, y = z.real, z.imag
    cos_y, sin_y, half = math.cos(y), math.sin(y), 2.0 * math.sin(y / 2.0) ** 2
    return (complex(math.expm1(x) * cos_y - half, math.exp(x) * sin_y),
            complex(math.expm1(-x) * cos_y - half, math.exp(-x) * -sin_y))


def _entry(a: complex) -> tuple[float, complex, complex, complex, complex]:
    """The pieces T reads for one exponent a, at z = i a: |a|, z, e_2(z),
    e_2(-z) and e_2'(z)."""
    z = 1j * a
    m, m_neg = _expm1_pair(z)
    e2 = _e2(z, m)
    return abs(a), z, e2, _e2(-z, m_neg), _de2(z, m, e2)


_ZERO = _entry(0j)


def _opposite_entries(a: complex) -> tuple[tuple, tuple]:
    """_entry(a) and _entry(-a) from one set of transcendentals: z changes
    sign, so e^z - 1 and e^{-z} - 1 swap, e_2(z) and e_2(-z) swap, and only
    e_2'(-z) is new."""
    z = 1j * a
    m, m_neg = _expm1_pair(z)
    e2, e2_neg = _e2(z, m), _e2(-z, m_neg)
    mag = abs(a)
    return (mag, z, e2, e2_neg, _de2(z, m, e2)), (mag, -z, e2_neg, e2, _de2(-z, m_neg, e2_neg))


def _symmetric_table(k) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The columns mag, z, e2, e2_neg, de2 of the 9 entries _entry(d_ij),
    d_ij = k_i - conj(k_j), flat at 3i + j, each entry equal to its direct
    evaluation, with only distinct exponents evaluated: entry (j, i) is entry
    (i, j) with every piece but mag conjugated (d_ji = -conj(d_ij)), a zero
    d_ij is _ZERO, and a conjugate pair k_2 = conj(k_1) with k_3 real
    (d_12 = d_33 = 0) takes d_22 = -d_11 and d_32 = -d_13 from
    _opposite_entries."""
    k1, k2, k3 = k
    c1, c2, c3 = k1.conjugate(), k2.conjugate(), k3.conjugate()
    d12, d33 = k1 - c2, k3 - c3
    if d12 or d33:
        ((m11, z11, p11, n11, q11), (m12, z12, p12, n12, q12), (m13, z13, p13, n13, q13),
         (m22, z22, p22, n22, q22), (m23, z23, p23, n23, q23), (m33, z33, p33, n33, q33)) = [
            _entry(d) if d else _ZERO for d in (k1 - c1, d12, k1 - c3, k2 - c2, k2 - c3, d33)]
        return ((m11, m12, m13, m12, m22, m23, m13, m23, m33),
                (z11, z12, z13, z12.conjugate(), z22, z23, z13.conjugate(), z23.conjugate(), z33),
                (p11, p12, p13, p12.conjugate(), p22, p23, p13.conjugate(), p23.conjugate(), p33),
                (n11, n12, n13, n12.conjugate(), n22, n23, n13.conjugate(), n23.conjugate(), n33),
                (q11, q12, q13, q12.conjugate(), q22, q23, q13.conjugate(), q23.conjugate(), q33))
    # k_2 = conj(k_1), k_3 real: entries 12, 21 and 33 are _ZERO, 23 is 32 conjugated
    (m11, z11, p11, n11, q11), (m22, z22, p22, n22, q22) = _opposite_entries(k1 - c1)
    (m13, z13, p13, n13, q13), (m32, z32, p32, n32, q32) = _opposite_entries(k1 - c3)
    m0, z0, p0, n0, q0 = _ZERO
    return ((m11, m0, m13, m0, m22, m32, m13, m32, m0),
            (z11, z0, z13, z0, z22, z32.conjugate(), z13.conjugate(), z32, z0),
            (p11, p0, p13, p0, p22, p32.conjugate(), p13.conjugate(), p32, p0),
            (n11, n0, n13, n0, n22, n32.conjugate(), n13.conjugate(), n32, n0),
            (q11, q0, q13, q0, q22, q32.conjugate(), q13.conjugate(), q32, q0))


def simplex_integral_exponents(a1: complex, a2: complex, a3: complex) -> complex:
    """Ordered-simplex integral T(a1, a2, a3) of exp(i sum a_m x_m), whose
    exponents must sum to ~0: the norm's kernel (see the module notes),
    (e_2(-z1) - e_2(z3))/z2, or e_2'(z3) for |a2| below NEAR_DEGENERATE_EXPONENT.
    A nan or infinite exponent raises ValueError."""
    if not all(map(cmath.isfinite, (a1, a2, a3))):
        raise ValueError(f"exponents must be finite, got ({a1}, {a2}, {a3})")
    mag1, _, _, e2_neg1, _ = _entry(a1)
    mag2, z2, _, _, _ = _entry(a2)
    mag3, _, e2_3, _, de2_3 = _entry(a3)
    s = a1 + a2 + a3
    if abs(s) > 1e-9 * max(1.0, mag1, mag2, mag3):
        raise ValueError(f"exponents must sum to zero, got sum {s}")
    if mag2 < NEAR_DEGENERATE_EXPONENT:
        return de2_3
    return (e2_neg1 - e2_3) / z2


# (P, Q, and the flat table indices of (P1, Q1), (P2, Q2), (P3, Q3)) of the
# 36 pairs, P and Q as indices into PERMUTATIONS
_PAIRS = tuple((ip, iq, 3 * p[0] + q[0], 3 * p[1] + q[1], 3 * p[2] + q[2])
               for ip, p in enumerate(PERMUTATIONS) for iq, q in enumerate(PERMUTATIONS))


@functools.lru_cache(maxsize=1)
def _sums(momenta: Momenta, c: float) -> tuple[complex, complex, float, float]:
    """(norm sum, coincidence sum, and the sum of |term| of each) of one state
    from one amplitudes call and one exponent table: the 36 pairs
    a(P) conj(a(Q)) T_PQ, each T inlined from the table's columns, and the
    (P3, Q3) grouping sum_ij e_2(i d_ij) A_i conj(A_j) with
    A_i = sum_{P3 = i} a(P)."""
    amp = amplitudes(momenta, c)
    amp_conj = [x.conjugate() for x in amp]
    mag, z, e2, e2_neg, de2 = _symmetric_table(momenta)
    # every pair's exponents sum to total - conj(total): one check for all 36,
    # against the smallest of their per-pair bounds
    total = momenta.total
    total -= total.conjugate()
    s = abs(total)
    if s > 1e-9 and s > 1e-9 * min(max(mag[i1], mag[i2], mag[i3]) for _, _, i1, i2, i3 in _PAIRS):
        raise ValueError(f"exponents must sum to zero, got sum {total}")
    near = NEAR_DEGENERATE_EXPONENT
    norm, norm_scale = 0j, 0.0
    for p, q, i1, i2, i3 in _PAIRS:
        if mag[i2] < near:
            term = amp[p] * amp_conj[q] * de2[i3]
        else:
            term = amp[p] * amp_conj[q] * ((e2_neg[i1] - e2[i3]) / z[i2])
        norm += term
        norm_scale += abs(term)
    # A_i by P3 = i: PERMUTATIONS 3 and 5 end in 0, 2 and 4 in 1, 0 and 1 in 2;
    # the 9 terms e2[3i + j] A_i conj(A_j) run i-major
    A0, A1, A2 = amp[3] + amp[5], amp[2] + amp[4], amp[0] + amp[1]
    A_conj = (A0.conjugate(), A1.conjugate(), A2.conjugate()) * 3
    coincidence, coincidence_scale = 0j, 0.0
    for e, Ai, Aj in zip(e2, (A0, A0, A0, A1, A1, A1, A2, A2, A2), A_conj):
        term = e * Ai * Aj
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

    This is <c sum_{i<j} delta(x_i - x_j)>, half the interaction energy of
    H = -sum d^2 + 2c sum delta, the Hamiltonian whose jump condition
    jump_residual checks (Lieb & Liniger, Phys. Rev. 130, 1605 (1963)), so
    it is c dE/dc / 2.  The full value takes 12c for 6c below; that change
    waits on the benchmark's reference values, which pin this one.
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
