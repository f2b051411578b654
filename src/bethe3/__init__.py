"""Bethe-ansatz eigenstates of three attractive delta-interacting bosons on a ring."""

from .model import (
    Branch,
    BranchCoords,
    ComplexCoords,
    Momenta,
    QuantumLabel,
    RealCoords,
    StateSolution,
    build_state,
    deltas_from_k,
    k_from_alpha_gamma,
    k_from_deltas,
    np_from_label,
    partner_state,
)
from .equations import (
    ConstraintViolationError,
    NoConvergenceError,
    ResidualFloorError,
    ResidualPoint,
    newton_solve,
    residual_real,
    theta,
)
from .continuation import (
    BoundsViolationError,
    CriticalPoint,
    SpectrumResult,
    Trajectory,
    branch_switch,
    critical_point,
    find_critical,
    residual_complex,
    solve_state,
    spectrum,
    trace_root,
)
from .wavefunction import (
    ClassificationError,
    DegenerateMomentaError,
    amplitudes,
    dimer_prefactor,
    jump_residual,
    periodicity_residual,
    psi,
    psi_ordered,
)
from .observables import (
    TernaryGrid,
    density_grid,
    norm_squared,
    potential_expectation,
    simplex_integral_exponents,
)

__version__ = "0.1.0"
