"""Shared oracles, trajectory lookup, solved-state cache and solve counter for
the test suite.

The quadrature oracles are independent evaluation routes: tensor
Gauss-Legendre on smooth mapped domains (the integrands are analytic inside
the ordered simplex, so convergence is spectral).  The numpy-free
simplex-exponential oracle and its Gauss-Legendre nodes live in
bethe3.oracles, shared with `bethe3 verify`; tensor_simplex_exp, the numpy
tensor rule on the same nodes, checks that oracle.  pair_terms is the direct
form of the norm and coincidence sums, one term per permutation pair,
against which the grouped sums of bethe3.observables are checked.
gaudin_norm is the Gaudin-Korepin determinant form of the norm, which needs
no simplex integral at all.
"""
import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest

import bethe3.equations as eq
from bethe3 import QuantumLabel, solve_state
from bethe3.oracles import gl_nodes, quad_simplex_exp  # noqa: F401  (re-exported)
from bethe3.wavefunction import PERMUTATIONS, amplitudes


def psi_on_grid(state, x1, x2, x3):
    k = np.array(state.momenta)
    a = amplitudes(state.momenta, state.c)
    val = np.zeros_like(np.asarray(x1, dtype=complex))
    for perm, ap in zip(PERMUTATIONS, a):
        val = val + ap * np.exp(
            1j * (k[perm[0]] * x1 + k[perm[1]] * x2 + k[perm[2]] * x3)
        )
    return val


@functools.lru_cache(maxsize=4)
def simplex_rule(n=48):
    """Nodes x1, x2, x3 and weights of tensor GL on 0 <= x1 <= x2 <= x3 <= 1.

    Maps the simplex to the cube via x3 = t3, x2 = t3 t2, x1 = t3 t2 t1
    (Jacobian t3^2 t2); for analytic integrands GL converges spectrally.
    Built once per n and shared, so its arrays are read-only.
    """
    x, w = np.array(gl_nodes(n))
    t3, t2, t1 = np.meshgrid(x, x, x, indexing="ij")
    w3, w2, w1 = np.meshgrid(w, w, w, indexing="ij")
    rule = (t3 * t2 * t1, t3 * t2, t3, t3 ** 2 * t2 * w1 * w2 * w3)
    for a in rule:
        a.setflags(write=False)
    return rule


def tensor_simplex_exp(a1, a2, a3, n=48):
    """int over 0<=x1<=x2<=x3<=1 of exp(i(a1 x1 + a2 x2 + a3 x3)) by the tensor rule."""
    x1, x2, x3, w = simplex_rule(n)
    return np.sum(np.exp(1j * (a1 * x1 + a2 * x2 + a3 * x3)) * w)


def quad_norm(state, n=48):
    """6 * simplex integral of |psi|^2 by mapped Gauss-Legendre."""
    x1, x2, x3, w = simplex_rule(n)
    return 6.0 * np.sum(np.abs(psi_on_grid(state, x1, x2, x3)) ** 2 * w)


def quad_potential(state, n=160, norm=None):
    """(6c/norm) * int_0^1 dx3 int_0^x3 dx1 |psi(x1,x1,x3)|^2 by mapped GL."""
    x, w = gl_nodes(n)
    x3, u = np.meshgrid(x, x, indexing="ij")
    w3, wu = np.meshgrid(w, w, indexing="ij")
    x1 = x3 * u
    val = psi_on_grid(state, x1, x1, x3)
    integral = np.sum(np.abs(val) ** 2 * x3 * w3 * wu)
    n2 = quad_norm(state) if norm is None else norm
    return 6.0 * state.c * integral / n2


def pair_terms(state, term):
    """The 36 terms a(P) conj(a(Q)) term(a1, a2, a3), a_m = k_{Pm} - conj(k_{Qm}),
    over permutation pairs (P, Q); term = simplex_integral_exponents gives the
    norm sum, term = coincidence_term the coincidence-plane sum."""
    k = tuple(state.momenta)
    kc = [kj.conjugate() for kj in k]
    a = amplitudes(state.momenta, state.c)
    return [ap * aq.conjugate()
            * term(k[p[0]] - kc[q[0]], k[p[1]] - kc[q[1]], k[p[2]] - kc[q[2]])
            for p, ap in zip(PERMUTATIONS, a) for q, aq in zip(PERMUTATIONS, a)]


def coincidence_term(a1, a2, a3):
    """D(b) = int_0^1 (1 - u) e^{ibu} du = sum_n (ib)^n/(n+2)! at b = a3."""
    z = 1j * a3
    if abs(z) < 1.0:
        return sum(z ** n / math.factorial(n + 2) for n in range(20))
    return (cmath.exp(z) - 1.0 - z) / (z * z)


def gaudin_norm(state):
    """Gaudin-Korepin norm (Korepin, Commun. Math. Phys. 86, 391 (1982)):
    Re(6 det G F) with K(x) = 2c/(c^2 + x^2), G_jj = 1 + sum_{m != j} K(k_j - k_m),
    G_jl = -K(k_j - k_l), and F = prod_{j<l} [(D^2 + c^2)/D^2] [|D|^2/|D - ic|^2]
    at D = k_l - k_j, which is 1 for real momenta."""
    k, c = tuple(state.momenta), state.c

    def kernel(x):
        return 2.0 * c / (c * c + x * x)

    g = [[1.0 + sum(kernel(k[j] - k[m]) for m in range(3) if m != j) if l == j
          else -kernel(k[j] - k[l]) for l in range(3)] for j in range(3)]
    det = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
           - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
           + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))
    f = 1.0
    for j in range(3):
        for l in range(j + 1, 3):
            d = k[l] - k[j]
            f *= (d * d + c * c) / (d * d) * (abs(d) ** 2 / abs(d - 1j * c) ** 2)
    return (6.0 * det * f).real


def sample_at(traj, c):
    """The sample of a trajectory at c (to 1e-12); KeyError off its grid."""
    for s in traj.samples:
        if abs(s.c - c) <= 1e-12:
            return s
    raise KeyError(f"no sample at c={c}")


_STATE_CACHE = {}


def solved(n1, n2, c):
    key = (n1, n2, float(c))
    if key not in _STATE_CACHE:
        _STATE_CACHE[key] = solve_state(QuantumLabel(n1, n2), float(c))
    return _STATE_CACHE[key]


@pytest.fixture(scope="session")
def solve_cached():
    return solved


@dataclass
class NewtonCount:
    calls: int = 0
    iterations: int = 0
    failures: int = 0


@pytest.fixture
def newton_counter(monkeypatch):
    """Counts the corrector solves (bethe3.equations.newton_solve calls), their
    Newton iterations and the solves that raised."""
    count = NewtonCount()
    solve = eq.newton_solve

    def counting(*args, **kwargs):
        count.calls += 1
        try:
            res = solve(*args, **kwargs)
        except Exception:
            count.failures += 1
            raise
        count.iterations += res.iterations
        return res

    monkeypatch.setattr(eq, "newton_solve", counting)
    return count
