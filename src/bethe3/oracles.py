"""Independent reference routes, shared by the test suite and `bethe3 verify`.

They share no code with what they check.  Tensor Gauss-Legendre quadrature
on the ordered simplex backs the closed-form simplex integrals of
bethe3.observables.  The logarithm form of the real-branch equations, each
argument continued from the c = 0 root (Lieb & Liniger, Phys. Rev. 130, 1605
(1963)), checks solved roots against the theta-sum the corrector solves.
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .model import TWO_PI
from .tolerances import IMAG_TOL


def _read_only(*arrays):
    """The arrays, read-only: each rule below is built once per n and shared."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=4)
def gl_nodes(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


@functools.lru_cache(maxsize=4)
def simplex_rule(n: int = 48):
    """Nodes x1, x2, x3 and weights of tensor GL on 0 <= x1 <= x2 <= x3 <= 1.

    Maps the simplex to the cube via x3 = t3, x2 = t3 t2, x1 = t3 t2 t1
    (Jacobian t3^2 t2); for analytic integrands GL converges spectrally.
    """
    x, w = gl_nodes(n)
    t3, t2, t1 = np.meshgrid(x, x, x, indexing="ij")
    w3, w2, w1 = np.meshgrid(w, w, w, indexing="ij")
    return _read_only(t3 * t2 * t1, t3 * t2, t3, t3 ** 2 * t2 * w1 * w2 * w3)


def quad_simplex_exp(a1, a2, a3, n: int = 48):
    """int over 0<=x1<=x2<=x3<=1 of exp(i(a1 x1 + a2 x2 + a3 x3))."""
    x1, x2, x3, w = simplex_rule(n)
    return np.sum(np.exp(1j * (a1 * x1 + a2 * x2 + a3 * x3)) * w)


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
    continued sample by sample outward from c = 0."""
    samples = traj.samples
    i0 = traj.couplings().index(0.0)
    worst = 0.0
    for side in (samples[i0::-1], samples[i0:]):
        refs = (None, None)
        for s in side:
            r, refs = log_form_real(s.coords.delta1, s.coords.delta2, s.c,
                                    s.label.n1, s.label.n2, refs)
            worst = max(worst, abs(r[0]), abs(r[1]))
    return worst
