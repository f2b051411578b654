"""Independent reference routes, shared by the test suite and `bethe3 verify`.

They share no code with what they check, and they run without numpy, so
`bethe3 verify` never imports it.  Gauss-Legendre quadrature on the
ordered simplex backs the closed-form simplex integrals of
bethe3.observables: the innermost variable x1 is integrated exactly, and the
remaining two by a collapsed 2-D rule whose nodes and weights come from
Newton's method on the Legendre recurrence.  The logarithm form of the
real-branch equations, each argument continued from the c = 0 root (Lieb &
Liniger, Phys. Rev. 130, 1605 (1963)), checks solved roots against the
theta-sum the corrector solves.
"""
from __future__ import annotations

import cmath
import functools
import math

from .model import TWO_PI, Branch
from .tolerances import IMAG_TOL


@functools.lru_cache(maxsize=4)
def gl_nodes(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [0, 1], as tuples.

    Each root x of P_n in (0, 1) is found by Newton's method from
    cos(pi (i - 1/4)/(n + 1/2)), and its mirror -x gives the other half
    (with 0 for odd n).  On [0, 1] a root maps to (1 -+ x)/2 and its weight
    is 1/((1 - x^2) P_n'(x)^2).
    """
    half = [_legendre_root(n, math.cos(math.pi * (i - 0.25) / (n + 0.5)))
            for i in range(1, n // 2 + 1)]
    middle = [_legendre_root(n, 0.0)] if n % 2 else []
    nodes = ([(0.5 * (1.0 - x), w) for x, w in half + middle]
             + [(0.5 * (1.0 + x), w) for x, w in reversed(half)])
    return tuple(t for t, _ in nodes), tuple(w for _, w in nodes)


def _legendre_root(n: int, x: float) -> tuple[float, float]:
    """The root of P_n that Newton's method reaches from x, and its weight on [0, 1]."""
    for _ in range(100):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        if abs(dx) <= 1e-16:
            break
    _, dp = _legendre(n, x)
    return x, 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) by the three-term recurrence j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2},
    and P_n'(x) = n (P_{n-1} - x P_n)/(1 - x^2), with 1 - x^2 taken as
    (1 - x)(1 + x), which keeps its digits next to x = 1."""
    p0, p1 = 1.0, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def quad_simplex_exp(a1, a2, a3, n: int = 48) -> complex:
    """int over 0<=x1<=x2<=x3<=1 of exp(i(a1 x1 + a2 x2 + a3 x3)).

    x1 is integrated exactly: with h = i a1/2,
    int_0^u e^{i a1 x1} dx1 = (e^{2hu} - 1)/(2h) = e^{hu} sinh(hu)/h,
    which keeps its digits for small a1 u (cmath.sinh(x + iy) is
    sinh x cos y + i cosh x sin y, with no e^z - 1 to cancel) and is u at
    a1 = 0.  (x2, x3) take n x n Gauss-Legendre points on the square,
    mapped by x3 = t3, x2 = t3 t2 (Jacobian t3).
    """
    x, w = gl_nodes(n)
    exp, sinh = cmath.exp, cmath.sinh
    h = 0.5j * a1
    b = 1j * a2 + h
    total = 0j
    for t3, w3 in zip(x, w):
        us = [t3 * t2 for t2 in x]
        if a1 == 0:
            row = sum(w2 * u * exp(b * u) for u, w2 in zip(us, w))
        else:
            row = sum(w2 * exp(b * u) * sinh(h * u) for u, w2 in zip(us, w)) / h
        total += w3 * t3 * exp(1j * a3 * t3) * row
    return total


def continued_arg(z: complex, ref: float | None = None) -> float:
    """Argument of z on the branch nearest ref (principal when ref is None).

    This is ref + remainder(phase(z) - ref, 2*pi), written as phase(z) plus
    whole turns so the principal value passes through unrounded.  Fed the
    previous value at each point of a path, it continues arg z analytically
    as long as successive arguments move by less than pi.
    """
    if z == 0:
        raise ValueError("continued argument of zero")
    phase = cmath.phase(z)
    return phase if ref is None else phase + TWO_PI * round((ref - phase) / TWO_PI)


def log_form_real(d1: float, d2: float, c: float, n1: int, n2: int, refs):
    """Log form r_j = d_j + arg z_j - 2*pi*n_j of the real-branch equations.

    z_j is a product of the two-body factors (c + i*dk)/(c - i*dk) of the
    gaps d1, d2, d1 + d2 and their inverses, and arg z_j is continued from
    refs[j] (principal where None).  Returns (residuals, args); feeding args
    back as refs along a path from the c = 0 root continues the log, and at a
    root arg z_j = 2*pi*n_j - d_j in closed form.  |z_j| = 1 for real gaps, so
    the imaginary parts log|z_j| must cancel: ValueError above IMAG_TOL.
    """
    f1, f2, f3 = complex(c, d1), complex(c, d2), complex(c, d1 + d2)
    z1 = (f1 / f1.conjugate()) ** 2 * (f2.conjugate() / f2) * (f3 / f3.conjugate())
    z2 = (f2 / f2.conjugate()) ** 2 * (f1.conjugate() / f1) * (f3 / f3.conjugate())
    args = (continued_arg(z1, refs[0]), continued_arg(z2, refs[1]))
    defect = max(abs(math.log(abs(z1))), abs(math.log(abs(z2))))
    if defect > IMAG_TOL:
        raise ValueError(f"residual imaginary defect {defect} exceeds {IMAG_TOL}")
    return (d1 + args[0] - TWO_PI * n1, d2 + args[1] - TWO_PI * n2), args


def log_form_residual(traj) -> float:
    """Largest log-form residual over a real-branch trajectory, each arg z_j
    continued sample by sample outward from c = 0.

    The continuation starts at the c = 0 root, where a zero gap makes its
    two-body factor 0/0, and log_form_real reads real-branch gaps: so
    ValueError, naming the label and the c range, for a trajectory with no
    c = 0 sample, with a sample off the real branch, or with a zero gap at c = 0.
    """
    samples = traj.samples
    cs = traj.couplings()
    where = f"log form of {traj.label} on c = {cs[0]}..{cs[-1]}"
    if 0.0 not in cs:
        raise ValueError(f"{where}: no c = 0 sample to continue from")
    for s in samples:
        if s.branch is not Branch.REAL_K:
            raise ValueError(f"{where}: the sample at c = {s.c} is not on the real branch")
    i0 = cs.index(0.0)
    d1, d2 = samples[i0].coords.delta1, samples[i0].coords.delta2
    if 0.0 in (d1, d2, d1 + d2):
        raise ValueError(f"{where}: a zero gap at c = 0, gaps {d1!r}, {d2!r}")
    worst = 0.0
    for side in (samples[i0::-1], samples[i0:]):
        refs = (None, None)
        for s in side:
            r, refs = log_form_real(s.coords.delta1, s.coords.delta2, s.c,
                                    s.label.n1, s.label.n2, refs)
            worst = max(worst, abs(r[0]), abs(r[1]))
    return worst
