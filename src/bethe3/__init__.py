"""Bethe-ansatz eigenstates of three attractive delta-interacting bosons on a ring.

Importing the package loads the solver (`model`, `equations`,
`continuation`).  The `wavefunction` and `observables` submodules, and the
names re-exported from them, are imported on first access (PEP 562), so a
process that only solves roots never compiles them.

`__all__` is the public API, the list in the README's "Public API"
section.  Every other name stays importable from its own module but is
outside that contract.
"""

from .model import (
    Branch,
    ComplexCoords,
    Momenta,
    QuantumLabel,
    RealCoords,
    StateSolution,
    partner_state,
)
from .equations import (
    ConstraintViolationError,
    NoConvergenceError,
    ResidualFloorError,
    residual_real,
)
from .continuation import (
    BoundsViolationError,
    CriticalPoint,
    SpectrumResult,
    Trajectory,
    critical_point,
    residual_complex,
    solve_state,
    spectrum,
    trace_root,
)
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# submodule -> the names this package re-exports from it on first access
_LAZY = {
    "wavefunction": ("ClassificationError", "DegenerateMomentaError", "dimer_prefactor",
                     "jump_residual", "periodicity_residual", "psi"),
    "observables": ("TernaryGrid", "density_grid", "norm_squared", "potential_expectation"),
}
_LAZY_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += _LAZY_SOURCE


def __getattr__(name: str):
    """Import a lazy submodule, or the submodule a lazy name lives in, once;
    the name is then bound here and this hook is not called for it again."""
    import importlib

    module = name if name in _LAZY else _LAZY_SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
