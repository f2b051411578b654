"""Independent reference routes, shared by the test suite and `bethe3 verify`.

They share no code with what they check: tensor Gauss-Legendre quadrature
backs the closed-form simplex integrals, and central differences back the
closed-form Jacobians of the Newton corrector.
"""
from __future__ import annotations

import numpy as np


def gl_nodes(n: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def simplex_rule(n: int = 48):
    """Nodes x1, x2, x3 and weights of tensor GL on 0 <= x1 <= x2 <= x3 <= 1.

    Maps the simplex to the cube via x3 = t3, x2 = t3 t2, x1 = t3 t2 t1
    (Jacobian t3^2 t2); for analytic integrands GL converges spectrally.
    """
    x, w = gl_nodes(n)
    t3, t2, t1 = np.meshgrid(x, x, x, indexing="ij")
    w3, w2, w1 = np.meshgrid(w, w, w, indexing="ij")
    return t3 * t2 * t1, t3 * t2, t3, t3 ** 2 * t2 * w1 * w2 * w3


def quad_simplex_exp(a1, a2, a3, n: int = 48):
    """int over 0<=x1<=x2<=x3<=1 of exp(i(a1 x1 + a2 x2 + a3 x3))."""
    x1, x2, x3, w = simplex_rule(n)
    return np.sum(np.exp(1j * (a1 * x1 + a2 * x2 + a3 * x3)) * w)


def fd_jacobian(residual, x):
    """Central-difference rows d(residual)/dx at x.

    The probe for unknown j is 6e-6*|x_j| (6e-6 where x_j = 0), so
    exponentially small unknowns keep their sign; 6e-6 ~ eps**(1/3) balances
    truncation against rounding.
    """
    cols = []
    for j, xj in enumerate(x):
        h = 6e-6 * abs(xj) or 6e-6
        up, down = list(x), list(x)
        up[j], down[j] = xj + h, xj - h
        cols.append([(a - b) / (2.0 * h) for a, b in zip(residual(up), residual(down))])
    return tuple(tuple(col[i] for col in cols) for i in range(len(x)))
