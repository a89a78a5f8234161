"""Free energy of the quartic anharmonic oscillator at finite temperature.

Variational perturbation expansion around an optimized harmonic reference:
the first-order (variational) free energy plus closed-form corrections
through fourth order, cross-checked by two independent oracles
(imaginary-time diagram quadrature and exact diagonalization).
"""

from .core import (
    ModelParams,
    Propagator,
    RescaledParams,
    harmonic_free_energy,
    rescale,
    unrescale,
)
from .diagrams import (
    DiagramSpec,
    builtin_diagrams,
    quad_correction,
    quad_diagram,
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
from .spectrum import ExactResult, exact_free_energy
from .variational import VariationalSolution, solve_gap

__version__ = "0.1.0"

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
