"""Shared oracles, solved-state cache and solve counter for the test suite.

The quadrature oracles are independent evaluation routes: tensor
Gauss-Legendre on smooth mapped domains (the integrands are analytic inside
the ordered simplex, so convergence is spectral).  The simplex-exponential
oracle lives in bethe3.oracles, shared with `bethe3 verify`.
"""
from dataclasses import dataclass

import numpy as np
import pytest

import bethe3.equations as eq
from bethe3 import QuantumLabel, solve_state
from bethe3.oracles import gl_nodes, quad_simplex_exp, simplex_rule  # noqa: F401  (re-exported)
from bethe3.wavefunction import PERMUTATIONS, amplitudes


def psi_on_grid(state, x1, x2, x3):
    k = np.array(state.momenta)
    a = amplitudes(state.momenta, state.c)
    val = np.zeros_like(np.asarray(x1, dtype=complex))
    for perm in PERMUTATIONS:
        val = val + a[perm] * np.exp(
            1j * (k[perm[0]] * x1 + k[perm[1]] * x2 + k[perm[2]] * x3)
        )
    return val


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
