"""The benchmark's tracer and checker still match the program.

``perfbench/tracing.py`` wraps program functions by module attribute name
(``runs.exact_free_energy``, ``spectrum.diagonalize``, ...).  A rename in
``src/`` would leave those spans empty without an error, so one test runs
two CLI commands under the tracer and checks the per-layer metrics.
``perfbench/check.py`` keeps its own copies of the program's tolerances;
another test keeps them equal.
"""

import importlib.util
import sys
from pathlib import Path

from quartic_vpe import runs, spectrum
from quartic_vpe.cli import main

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_checker_tolerances_match_the_program():
    check = load_perfbench("check")
    # the checker accepts F0 >= exact - EXACT_TOL
    assert check.EXACT_TOL == spectrum.DEFAULT_TOL
    assert check.ORACLE_TOL == runs.ORACLE_CHECK_TOL


def test_tracer_sees_every_layer(capsys):
    tracing = load_perfbench("tracing")
    with tracing.Tracer() as tracer:
        assert main(["point", "--exact", "--temp", "2"]) == 0
        assert main(["oracle-check", "--beta", "2", "--order", "2"]) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["spectrum.exact_free_energy.calls"] > 0
    assert metrics["diagrams.quad_correction.calls"] > 0
    assert metrics["core.rescale.calls"] > 0
    assert metrics["spectrum.exact_free_energy.basis_max"] == 64
    # one gap solve per command: the exact oracle reuses the row's
    assert metrics["variational.solve_gap.calls"] == 2


def test_exact_oracle_runs_per_row_on_shared_spectra(capsys):
    # one traced oracle call per row, fewer eigensolves than rows: the rows
    # share their spectra without bypassing runs.exact_free_energy
    tracing = load_perfbench("tracing")
    with tracing.Tracer() as tracer:
        assert main(["fig1", "--points", "7"]) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["spectrum.exact_free_energy.calls"] == 7
    assert metrics["spectrum.diagonalize.per_exact"] < 1
