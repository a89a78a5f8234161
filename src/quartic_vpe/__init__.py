"""Free energy of the quartic anharmonic oscillator at finite temperature.

Variational perturbation expansion around an optimized harmonic reference:
the first-order (variational) free energy plus closed-form corrections
through fourth order, cross-checked by two independent oracles
(imaginary-time diagram integrals and exact diagonalization).

The series path is pure ``math``.  The oracles' names are re-exported
lazily: ``diagrams`` and ``spectrum``, and numpy with them, are imported
on first access to one of those names.
"""

import importlib

from .core import (
    ModelParams,
    Propagator,
    RescaledParams,
    harmonic_free_energy,
    rescale,
    unrescale,
)
from .errors import ConvergenceError, ValidationError
from .runs import (
    ResultRow,
    render_rows,
    run_figure,
    run_oracle_check,
    run_point,
    run_sweep,
    run_table1,
    run_table2,
)
from .series import (
    FreeEnergySeries,
    closed_correction,
    series_eval,
    temperature_factor,
)
from .variational import VariationalSolution, solve_gap

__version__ = "0.1.0"

# name -> module of the oracle re-exports; see __getattr__
_LAZY = {
    "DiagramSpec": "diagrams",
    "builtin_diagrams": "diagrams",
    "quad_correction": "diagrams",
    "quad_diagram": "diagrams",
    "ExactResult": "spectrum",
    "exact_free_energy": "spectrum",
}

__all__ = [
    "ConvergenceError",
    "DiagramSpec",
    "ExactResult",
    "FreeEnergySeries",
    "ModelParams",
    "Propagator",
    "RescaledParams",
    "ResultRow",
    "ValidationError",
    "VariationalSolution",
    "builtin_diagrams",
    "closed_correction",
    "exact_free_energy",
    "harmonic_free_energy",
    "quad_correction",
    "quad_diagram",
    "render_rows",
    "rescale",
    "run_figure",
    "run_oracle_check",
    "run_point",
    "run_sweep",
    "run_table1",
    "run_table2",
    "series_eval",
    "solve_gap",
    "temperature_factor",
    "unrescale",
    "__version__",
]


def __getattr__(name):
    """Import an oracle's module on first access to one of its names (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
