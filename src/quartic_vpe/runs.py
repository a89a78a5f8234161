"""Run drivers: benchmark tables, figure data series, point/sweep evaluation.

Every driver returns a list of :class:`ResultRow`; serialization to CSV,
JSON, or a fixed-width table is handled by :func:`render_rows`.  Output is
deterministic: identical inputs produce byte-identical CSV (floats at 9
significant digits, fixed column order given by the ResultRow field order).

Every series row (tables, figures, points, sweeps) comes from one builder,
``_point_rows``: one gap solve per row, whose trial frequency the
diagram oracle reuses, plus the fixed columns a driver adds (published
``ref_*`` values, fig2's blank f2/f3).  The exact oracle of every row in
an (m, omega, lam) group works in the basis of the group's hottest row and
shares its spectra, so one call diagonalizes each basis size at most once
per group.  The per-order oracle-check rows are the other kind.

The series path is pure ``math``.  This module imports ``spectrum`` and
``diagrams`` inside its :func:`exact_free_energy` and
:func:`quad_correction`, on the first row that asks for one.  Tables,
figures, points and sweeps without an oracle import neither.

Conventions:

* rows carry the physical coordinates (lam, omega, mass, beta, temp) and,
  whenever mass = 1, the reduced coordinates (z, t_reduced) of the same
  point; :class:`ResultRow` fills all of them from one ``ModelParams``;
* ``f0``/``f2``/``f3``/``f4`` are cumulative partial sums of the
  variational series, not bare corrections;
* ``ref_*`` columns are published literature values quoted for
  comparison, never computed here;
* two things degrade a row: the exact oracle reaching its basis cap (the
  row keeps the partial value and its last step) and an oracle-check gap
  above tolerance.  The row gets ``status`` ``"degraded"`` and explains
  itself in ``note``.  A gap solve that does not converge raises and
  stops the command.  Silent NaNs are never emitted (every populated
  number is finite);
* CSV columns that no row populates are omitted entirely rather than
  emitted blank.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import InitVar, dataclass, field, fields, replace

from .core import ModelParams, RescaledParams, beta_from_temp, rescale, unrescale
from .errors import ConvergenceError, ValidationError
from .literature import TABLE1, TABLE1_Z, TABLE2
from .series import VALID_ORDERS, series_eval

__all__ = [
    "ResultRow",
    "STATUS_DEGRADED",
    "STATUS_OK",
    "exit_code_for",
    "render_rows",
    "run_figure",
    "run_oracle_check",
    "run_point",
    "run_sweep",
    "run_table1",
    "run_table2",
]

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"

FIGURE_DEFAULT_RESOLUTION = {"fig1": 20, "fig2": 25, "fig3": 20}
FIGURE_Z_VALUES = (0.2, 1.0, 10.0, 30.0, 50.0)

# Default agreement tolerances (relative) for the closed-form vs diagram-oracle
# cross-check, per correction order.
ORACLE_CHECK_TOL = {2: 1e-6, 3: 1e-6, 4: 1e-4}

SWEEP_VARIABLES = ("lam", "omega", "mass", "beta", "temp")
OUTPUT_FORMATS = ("csv", "json", "table")

_FLOAT_FMT = ".9g"


@dataclass(frozen=True)
class ResultRow:
    """One output row; unset fields mean "not part of this run".

    Field order is the CSV column order.  The coordinate columns are not
    arguments: they are filled from ``params``, the point the row belongs
    to, with ``temp = 1/beta`` and, for mass 1 only, its reduced pair
    ``rescale(params)``.  Every populated numeric field must be finite.
    """

    params: InitVar[ModelParams | None] = None
    lam: float | None = field(default=None, init=False)
    omega: float | None = field(default=None, init=False)
    mass: float | None = field(default=None, init=False)
    beta: float | None = field(default=None, init=False)
    temp: float | None = field(default=None, init=False)
    z: float | None = field(default=None, init=False)
    t_reduced: float | None = field(default=None, init=False)
    order: int | None = None
    omega_big: float | None = None
    f0: float | None = None
    f2: float | None = None
    f3: float | None = None
    f4: float | None = None
    exact: float | None = None
    exact_step: float | None = None
    quad2: float | None = None
    quad3: float | None = None
    quad4: float | None = None
    closed: float | None = None
    quad: float | None = None
    rel_err: float | None = None
    ref_f0: float | None = None
    ref_f2: float | None = None
    ref_f3: float | None = None
    ref_f4: float | None = None
    ref_accu: float | None = None
    ref_exact: float | None = None
    ref_f1_cumulant: float | None = None
    ref_f3_cumulant: float | None = None
    status: str = STATUS_OK
    note: str | None = None

    def __post_init__(self, params):
        coordinates = () if params is None else (
            ("lam", params.lam), ("omega", params.omega), ("mass", params.m),
            ("beta", params.beta), ("temp", params.temperature))
        # In field order: the coordinates, then the arguments, which the
        # instance dict holds in field order (unset coordinates are class
        # defaults).  Ints and bools are always finite.
        for items in (coordinates, vars(self).items()):
            for name, v in items:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValidationError(f"row field {name} must be finite, got {v!r}")
        for name, value in coordinates:
            object.__setattr__(self, name, value)
        # after the check, so an overflowed temp is named as such; rescale
        # validates the pair it returns
        if params is not None and params.m == 1.0:
            rp = rescale(params)
            object.__setattr__(self, "z", rp.z)
            object.__setattr__(self, "t_reduced", rp.t_reduced)


# the column order, read once: dataclasses.fields() is slow per row
_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))


# The oracles, as names of this module that _point_rows and run_oracle_check
# look up at call time: a wrapper set here (the benchmark's tracer sets one)
# sees every call.
def exact_free_energy(*args, **kwargs):
    """:func:`quartic_vpe.spectrum.exact_free_energy`, imported on first call."""
    from .spectrum import exact_free_energy
    return exact_free_energy(*args, **kwargs)


def quad_correction(*args, **kwargs):
    """:func:`quartic_vpe.diagrams.quad_correction`, imported on first call."""
    from .diagrams import quad_correction
    return quad_correction(*args, **kwargs)


def _point_rows(grid: list[ModelParams], max_order: int, exact: bool,
                quad: bool, fixed: list[dict] | None = None) -> list[ResultRow]:
    """The series rows of the points in ``grid``, with the requested oracles.

    Each row solves its gap once.  A gap solve that does not converge
    raises, so only the exact oracle degrades a row, at its basis cap.
    The exact oracle runs per row, but the rows of one (m, omega, lam)
    group share their basis frequency, the largest Omega of the group (its
    hottest row), and one dict of spectra, so each basis size is
    diagonalized at most once per group.  The diagram oracle runs at each
    row's own Omega.  ``fixed`` holds, per row, columns the caller sets
    outright; they override the computed ones.
    """
    if quad and max_order < 2:
        raise ValidationError(
            f"quadrature oracle needs max_order in {{2, 3, 4}}, got {max_order}"
        )
    series = [series_eval(params, max_order=max_order) for params in grid]
    kws = [{"omega_big": fe.omega_big, "f0": fe.f0, "f2": fe.f2, "f3": fe.f3,
            "f4": fe.f4, **columns}
           for fe, columns in zip(series, fixed or [{}] * len(grid))]
    nu, spectra = {}, {}
    if exact:
        for params, fe in zip(grid, series):
            group = (params.m, params.omega, params.lam)
            nu[group] = max(nu.get(group, 0.0), fe.omega_big)
    for params, fe, kw in zip(grid, series, kws):
        if exact:
            try:
                res = exact_free_energy(
                    params, nu=nu[params.m, params.omega, params.lam],
                    spectra=spectra)
            except ConvergenceError as exc:
                # the basis cap is reachable: keep the partial value and step
                kw.update(exact=exc.value, exact_step=exc.bound,
                          status=STATUS_DEGRADED, note=f"exact oracle: {exc}")
            else:
                kw.update(exact=res.value, exact_step=res.step)
        if quad:
            for order in range(2, max_order + 1):
                kw[f"quad{order}"] = quad_correction(params, fe.omega_big, order)
    return [ResultRow(params=params, **kw) for params, kw in zip(grid, kws)]


def run_point(params: ModelParams, *, max_order: int = 4,
              exact: bool = False, quad: bool = False) -> ResultRow:
    """Evaluate one parameter point, optionally with either oracle."""
    return _point_rows([params], max_order, exact, quad)[0]


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """``numpy.linspace(start, stop, n)`` for n >= 2, bit for bit."""
    step = (stop - start) / (n - 1)  # where it underflows, numpy scales i/(n - 1)
    grid = [(i * step if step else i / (n - 1) * (stop - start)) + start for i in range(n)]
    return grid[:-1] + [stop]


def _geomspace(start: float, stop: float, n: int) -> list[float]:
    """n >= 2 points in geometric progression from start to stop, both > 0."""
    inner = _linspace(math.log10(start), math.log10(stop), n)[1:-1]
    return [start, *(10.0**e for e in inner), stop]


def run_sweep(base: ModelParams, var: str, start: float, stop: float,
              points: int, *, max_order: int = 4, exact: bool = False,
              quad: bool = False, log_spacing: bool = False) -> list[ResultRow]:
    """Sweep one physical variable over [start, stop] with the rest fixed."""
    if var not in SWEEP_VARIABLES:
        raise ValidationError(
            f"sweep variable must be one of {SWEEP_VARIABLES}, got {var!r}"
        )
    if points < 2:
        raise ValidationError(f"sweep needs at least 2 points, got {points}")
    if not math.isfinite(stop - start):
        raise ValidationError(
            f"{var} sweep from {start} to {stop} spans more than double precision holds"
        )
    if log_spacing:
        if start <= 0.0 or stop <= 0.0:
            raise ValidationError("log spacing requires positive endpoints")
        grid = _geomspace(start, stop, points)
    else:
        grid = _linspace(start, stop, points)
    if var == "temp":
        grid = [beta_from_temp(temp) for temp in grid]
    attr = {"mass": "m", "temp": "beta"}.get(var, var)
    return _point_rows([replace(base, **{attr: value}) for value in grid],
                       max_order, exact, quad)


def run_table1(*, exact: bool = False) -> list[ResultRow]:
    """Strong-coupling benchmark scan at z = 10 against published values.

    One row per reduced temperature in {1, 2, 3, 4, 5, 10, 20, 30}, with the
    computed partial sums next to the published ``ref_*`` columns (including
    the independently published high-precision value ``ref_accu``).  With
    ``exact=True`` the diagonalization oracle is run per row as well.
    """
    return _point_rows(
        [unrescale(RescaledParams(TABLE1_Z, ref.t_reduced), lam=1.0)
         for ref in TABLE1],
        4, exact, False,
        [{"ref_f0": ref.f0.value, "ref_f2": ref.f2.value,
          "ref_f3": ref.f3.value, "ref_f4": ref.f4.value,
          "ref_accu": ref.f_accu.value} for ref in TABLE1])


def run_table2(*, exact: bool = False) -> list[ResultRow]:
    """Coupling/temperature benchmark scan at m = omega = 1.

    One row per published (lambda, beta) pair with the computed partial sums
    through third order.  The published exact values (``ref_exact``) and the
    published cumulant-expansion results (``ref_f1_cumulant``,
    ``ref_f3_cumulant``) are quoted as literature constants; with
    ``exact=True`` this package's own diagonalization value is added.
    """
    return _point_rows(
        [ModelParams(m=1.0, omega=1.0, lam=ref.lam, beta=ref.beta)
         for ref in TABLE2],
        3, exact, False,
        [{"ref_f0": ref.f0.value, "ref_f2": ref.f2.value,
          "ref_f3": ref.f3.value, "ref_exact": ref.f_exact.value,
          "ref_f1_cumulant": ref.f1_cumulant.value,
          "ref_f3_cumulant": ref.f3_cumulant.value} for ref in TABLE2])


def run_figure(which: str, grid_resolution: int | None = None) -> list[ResultRow]:
    """Data series behind the three figures (numbers only, no rendering).

    * ``fig1``: temperature scan T in (0, 1] at lam = m = omega = 1;
      columns exact, f0, f2, f3, f4.  Shows the low-temperature behavior
      of the truncations against the exact value.
    * ``fig2``: reduced scan T in [1, 50] for z in {0.2, 1, 10, 30, 50};
      columns f0 and f4 only.  Shows the correction shrinking with z.
    * ``fig3``: pure-quartic limit z = 0 over a beta grid; columns f0,
      f2, f3, f4, exact.
    """
    if which not in FIGURE_DEFAULT_RESOLUTION:
        raise ValidationError(
            f"unknown figure {which!r}; expected one of "
            f"{tuple(FIGURE_DEFAULT_RESOLUTION)}"
        )
    n = FIGURE_DEFAULT_RESOLUTION[which] if grid_resolution is None else grid_resolution
    if n < 2:
        raise ValidationError(f"grid resolution must be >= 2, got {n}")
    if which == "fig1":
        grid = [ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0 / temp)
                for temp in _linspace(0.05, 1.0, n)]
    elif which == "fig2":
        grid = [unrescale(RescaledParams(z, t_red), lam=1.0)
                for z in FIGURE_Z_VALUES for t_red in _linspace(1.0, 50.0, n)]
    else:
        grid = [ModelParams(m=1.0, omega=0.0, lam=1.0, beta=beta)
                for beta in _geomspace(0.25, 20.0, n)]
    fixed = [{"f2": None, "f3": None}] * len(grid) if which == "fig2" else None
    return _point_rows(grid, 4, which != "fig2", False, fixed)


def run_oracle_check(params: ModelParams, *, max_order: int = 4,
                     tol: float | None = None) -> list[ResultRow]:
    """Compare each closed-form correction with its diagram-oracle value.

    One row per order in {2, 3, 4} up to ``max_order``, carrying the
    closed-form value, the value the diagrams integrate to (``quad``), and
    their relative gap.  A gap above tolerance marks the row degraded.
    ``tol=None`` uses the per-order defaults in :data:`ORACLE_CHECK_TOL`;
    an explicit value applies to every order.  A correction that underflows
    below the smallest normal double has no relative gap and is a
    :class:`ValidationError`.
    """
    if max_order not in VALID_ORDERS or max_order < 2:
        raise ValidationError(
            f"oracle check needs max_order in {{2, 3, 4}}, got {max_order}"
        )
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValidationError(f"tolerance must be positive and finite, got {tol}")
    fe = series_eval(params, max_order=max_order)
    closed_forms = {order: getattr(fe, f"c{order}")
                    for order in range(2, max_order + 1)}
    for order, closed in closed_forms.items():
        if abs(closed) < sys.float_info.min:
            raise ValidationError(
                f"order-{order} correction {closed!r} is below the smallest "
                "normal double; its relative gap is not defined"
            )
    rows = []
    for order, closed in closed_forms.items():
        quad = quad_correction(params, fe.omega_big, order)
        rel_err = abs(quad - closed) / abs(closed)
        kw = {"order": order, "omega_big": fe.omega_big, "closed": closed,
              "quad": quad, "rel_err": rel_err}
        order_tol = ORACLE_CHECK_TOL[order] if tol is None else tol
        if rel_err > order_tol:
            kw.update(status=STATUS_DEGRADED,
                      note=f"order-{order} gap {rel_err:.3e} exceeds "
                           f"tolerance {order_tol:.3e}")
        rows.append(ResultRow(params=params, **kw))
    return rows


def _active_columns(rows: list[ResultRow]) -> list[str]:
    return [name for name in _ROW_FIELDS
            if any(getattr(r, name) is not None for r in rows)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, _FLOAT_FMT)
    return str(value)


def render_rows(rows: list[ResultRow], fmt: str = "csv") -> str:
    """Serialize rows as ``csv``, ``json``, or a fixed-width ``table``."""
    if fmt == "csv":
        return _render_csv(rows)
    if fmt == "json":
        return _render_json(rows)
    if fmt == "table":
        return _render_table(rows)
    raise ValidationError(f"format must be one of {OUTPUT_FORMATS}, got {fmt!r}")


def _render_csv(rows: list[ResultRow]) -> str:
    cols = _active_columns(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for r in rows:
        writer.writerow([_cell(getattr(r, c)) for c in cols])
    return buf.getvalue()


def _render_json(rows: list[ResultRow]) -> str:
    objs = []
    for r in rows:
        obj = {}
        for name in _ROW_FIELDS:
            v = getattr(r, name)
            if v is not None:
                obj[name] = v
        objs.append(obj)
    return json.dumps(objs, indent=2) + "\n"


def _render_table(rows: list[ResultRow]) -> str:
    cols = _active_columns(rows)
    cells = [[_cell(getattr(r, c)) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.rjust(w) for c, w in zip(cols, widths))]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def exit_code_for(rows: list[ResultRow]) -> int:
    """0 when every row is clean, 2 when any row is degraded."""
    return 0 if all(r.status == STATUS_OK for r in rows) else 2
