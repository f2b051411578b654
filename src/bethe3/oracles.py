"""Independent reference routes, shared by the test suite and `bethe3 verify`.

They share no code with what they check: tensor Gauss-Legendre quadrature
backs the closed-form simplex integrals, and central differences back the
closed-form Jacobians of the Newton corrector.  Two closed forms check solved
roots: the implicit derivative d(delta)/dc of the equal-delta curve and
gamma^2(alpha) of the n1 = 1 family.
"""
from __future__ import annotations

import math

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


def ddelta_dc(delta: float, c: float) -> float:
    """Implicit derivative d(delta)/dc on the equal-delta root curve."""
    d2 = delta * delta
    num = 6.0 * delta * (c * c + 2.0 * d2)
    den = c * c * (c * c + 5.0 * d2) + 4.0 * d2 * d2 + 6.0 * c * (2.0 * d2 + c * c)
    return num / den


def gamma_squared_from_alpha(alpha: float, c: float) -> float:
    """Closed-form gamma^2(alpha, c) from the n1 = 1 family alpha equation.

    At alpha = 0 this reduces to c^2*(6+c)/(-9*(4+c)), the critical-point
    relation.  Uses an odd-part series below |alpha| = 1e-3 to avoid the 0/0
    cancellation at alpha -> 0.
    """
    if c >= 0:
        raise ValueError(f"requires c < 0, got {c}")
    if alpha < 0:
        raise ValueError(f"requires alpha >= 0, got {alpha}")
    if alpha < 1e-3:
        # num ~ -(f'(0) + f'''(0) a^2/6), den ~ 9(h'(0) + h'''(0) a^2/6)
        a2 = alpha * alpha
        fp = c ** 3 * (c + 6.0)
        fppp = c ** 4 + 18.0 * c ** 3 + 78.0 * c * c + 72.0 * c
        hp = c * (c + 4.0)
        hppp = c * c + 12.0 * c + 24.0
        den = hp + hppp * a2 / 6.0
        if abs(den) < 1e-13 * max(1.0, abs(hp)):
            raise ZeroDivisionError(f"gamma^2 pole at alpha={alpha}, c={c}")
        return -(fp + fppp * a2 / 6.0) / (9.0 * den)
    ea = math.exp(alpha)
    f_m = (c - 2 * alpha) ** 2 * (c - alpha) ** 2 / ea
    f_p = (c + 2 * alpha) ** 2 * (c + alpha) ** 2 * ea
    h_m = (c - 2 * alpha) ** 2 / ea
    h_p = (c + 2 * alpha) ** 2 * ea
    den = 9.0 * (h_p - h_m)
    if abs(den) < 1e-13 * max(1.0, abs(h_p) + abs(h_m)):
        raise ZeroDivisionError(f"gamma^2 pole at alpha={alpha}, c={c}")
    return (f_m - f_p) / den
