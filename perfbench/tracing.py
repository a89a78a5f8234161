"""Spans around the program's layer boundaries, and per-layer metrics.

The tracer replaces module attributes with timing wrappers, each under the
name its caller looks up (``runs.series_eval``, not ``series.series_eval``),
and puts the originals back afterwards. Spans stay in memory until the run
ends. Nothing here changes the program's files.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

BASIS_SIZES = (64, 128, 256, 512, 1024, 2048)
LAYERS = ("cli", "runs", "series", "variational", "spectrum", "diagrams", "core")

# Span fields, kept as a list per span for low overhead.
NAME, START, END, PARENT, OP, ATTRS = range(6)


def _basis_arg(args, kwargs):
    return {"n": args[2] if len(args) > 2 else kwargs["n_basis"]}


def _order_arg(args, kwargs):
    return {"order": args[2] if len(args) > 2 else kwargs["order"]}


def _iterations(result):
    return {"iters": result.iterations}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, args=(), kwargs=None, arg_attrs=None,
             result_attrs=None):
        kwargs = kwargs or {}
        attrs = arg_attrs(args, kwargs) if arg_attrs else {}
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.op, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if result_attrs:
            attrs.update(result_attrs(result))
        return result

    def _patch(self, module, attr, name, arg_attrs=None, result_attrs=None):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, arg_attrs,
                             result_attrs)

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self):
        from quartic_vpe import cli, runs, series, spectrum

        self._patch(series, "solve_gap", "variational.solve_gap",
                    result_attrs=_iterations)
        self._patch(spectrum, "solve_gap", "variational.solve_gap",
                    result_attrs=_iterations)
        self._patch(runs, "series_eval", "series.series_eval")
        self._patch(runs, "exact_free_energy", "spectrum.exact_free_energy")
        self._patch(runs, "quad_correction", "diagrams.quad_correction",
                    arg_attrs=_order_arg)
        self._patch(runs, "rescale", "core.rescale")
        self._patch(spectrum, "diagonalize", "spectrum.diagonalize",
                    arg_attrs=_basis_arg)
        self._patch(spectrum, "build_hamiltonian", "spectrum.build_hamiltonian",
                    arg_attrs=_basis_arg)
        self._patch(cli, "render_rows", "runs.render_rows")
        for attr in sorted(vars(cli)):
            if attr.startswith("run_"):
                self._patch(cli, attr, f"runs.{attr}")

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def as_records(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "op": s[OP], **s[ATTRS]}
                for s in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover.

    The program is single-threaded, so children of one span never overlap
    and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times over the given spans (one traced pass)."""
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    failed = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    build_ms = defaultdict(list)
    eigensolve_ms = defaultdict(list)
    quad_busy = defaultdict(float)
    gap_iters = 0
    basis_max = 0
    for s, own_s in zip(spans, own):
        name, attrs = s[NAME], s[ATTRS]
        calls[name] += 1
        busy[name] += s[END] - s[START]
        self_s[name] += own_s
        layer_self[name.split(".", 1)[0]] += own_s
        if attrs.get("error") == "ConvergenceError":
            failed[name] += 1
        if name == "variational.solve_gap":
            gap_iters += attrs.get("iters", 0)
        elif name == "spectrum.build_hamiltonian":
            build_ms[attrs["n"]].append(1e3 * (s[END] - s[START]))
        elif name == "spectrum.diagonalize":
            eigensolve_ms[attrs["n"]].append(1e3 * own_s)
            basis_max = max(basis_max, attrs["n"])
        elif name == "diagrams.quad_correction":
            quad_busy[attrs["order"]] += s[END] - s[START]

    exact_calls = calls["spectrum.exact_free_energy"]
    out = {
        "variational.solve_gap.calls": calls["variational.solve_gap"],
        "variational.solve_gap.busy_s": busy["variational.solve_gap"],
        "variational.solve_gap.iters": gap_iters,
        "variational.solve_gap.failed": failed["variational.solve_gap"],
        "series.series_eval.calls": calls["series.series_eval"],
        "series.series_eval.self_s": self_s["series.series_eval"],
        "diagrams.quad_correction.calls": calls["diagrams.quad_correction"],
        "diagrams.quad_correction.failed": failed["diagrams.quad_correction"],
    }
    for order in (2, 3, 4):
        out[f"diagrams.quad_correction.o{order}.busy_s"] = quad_busy[order]
    out.update({
        "spectrum.exact_free_energy.calls": exact_calls,
        "spectrum.exact_free_energy.busy_s": busy["spectrum.exact_free_energy"],
        "spectrum.exact_free_energy.failed": failed["spectrum.exact_free_energy"],
        "spectrum.exact_free_energy.basis_max": basis_max,
        "spectrum.diagonalize.per_exact": (
            calls["spectrum.diagonalize"] / exact_calls if exact_calls else 0.0),
    })
    for n in BASIS_SIZES:
        out[f"spectrum.build.n{n}.ms"] = (
            statistics.median(build_ms[n]) if build_ms[n] else 0.0)
        out[f"spectrum.eigensolve.n{n}.ms"] = (
            statistics.median(eigensolve_ms[n]) if eigensolve_ms[n] else 0.0)
    out["runs.drivers.self_s"] = sum(
        v for k, v in self_s.items()
        if k.startswith("runs.run_"))
    out["runs.render_rows.busy_s"] = busy["runs.render_rows"]
    out["core.rescale.calls"] = calls["core.rescale"]
    out["cli.main.self_s"] = self_s["cli.main"]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
    out["trace.spans"] = len(spans)
    return out


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each layer's share of traced self time, in percent."""
    total = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS)
    return {layer: (100.0 * metrics[f"layer.{layer}.self_s"] / total
                    if total else 0.0) for layer in LAYERS}
