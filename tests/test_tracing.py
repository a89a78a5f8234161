"""The benchmark's tracer still finds every layer boundary it times.

``perfbench/tracing.py`` wraps program functions by module attribute name
(``runs.exact_free_energy``, ``spectrum.diagonalize``, ...).  A rename in
``src/`` would leave those spans empty without an error, so this test runs
two CLI commands under the tracer and checks the per-layer metrics.
"""

import importlib.util
from pathlib import Path

from quartic_vpe.cli import main

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer(capsys):
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        assert main(["point", "--exact", "--temp", "2"]) == 0
        assert main(["oracle-check", "--beta", "2", "--order", "2"]) == 0
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["spectrum.exact_free_energy.calls"] > 0
    assert metrics["diagrams.quad_correction.calls"] > 0
    assert metrics["core.rescale.calls"] > 0
    assert metrics["spectrum.exact_free_energy.basis_max"] == 128
    # one gap solve per command: the exact oracle reuses the row's
    assert metrics["variational.solve_gap.calls"] == 2
