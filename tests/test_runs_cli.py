"""Tests for the run drivers, row serialization, and the command line."""

import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from quartic_vpe import runs, spectrum, variational
from quartic_vpe.cli import main
from quartic_vpe.core import ModelParams, RescaledParams, rescale, unrescale
from quartic_vpe.errors import ConvergenceError, ValidationError
from quartic_vpe.literature import TABLE1, TABLE2
from quartic_vpe.runs import (
    STATUS_DEGRADED,
    STATUS_OK,
    ResultRow,
    exit_code_for,
    render_rows,
    run_figure,
    run_oracle_check,
    run_point,
    run_sweep,
    run_table1,
    run_table2,
)
from quartic_vpe.series import closed_correction, series_eval

rng = np.random.default_rng(20260823)


COORDINATES = ("lam", "omega", "mass", "beta", "temp", "z", "t_reduced")
# the float columns a caller may pass to ResultRow
FLOAT_ARGUMENTS = [f.name for f in fields(ResultRow)
                   if f.init and f.type == "float | None"]


def csv_columns(text):
    return text.splitlines()[0].split(",")


def csv_records(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestResultRow:
    def test_rejects_non_finite_numbers(self):
        with pytest.raises(ValidationError):
            ResultRow(f0=math.nan)
        with pytest.raises(ValidationError):
            ResultRow(exact=math.inf)
        # temp = 1/beta overflows; the row names it before any rescaling
        with pytest.raises(ValidationError,
                           match="^row field temp must be finite, got inf$"):
            ResultRow(params=ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1e-310))

    def test_float_arguments_cover_every_numeric_argument(self):
        arguments = {f.name for f in fields(ResultRow) if f.init}
        assert arguments - set(FLOAT_ARGUMENTS) == {"order", "status", "note"}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", FLOAT_ARGUMENTS)
    def test_every_float_argument_must_be_finite(self, name, value):
        message = f"row field {name} must be finite, got {value!r}"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ResultRow(**{name: value})

    def test_int_and_string_fields_accepted(self):
        row = ResultRow(order=4, status=STATUS_DEGRADED, note="inf")
        assert (row.order, row.status, row.note) == (4, STATUS_DEGRADED, "inf")

    def test_reduced_coordinates_filled_for_unit_mass(self):
        row = ResultRow(params=ModelParams(m=1.0, omega=math.sqrt(20.0),
                                           lam=1.0, beta=1.0))
        assert (row.z, row.t_reduced) == pytest.approx((10.0, 1.0))
        assert csv_columns(render_rows([row])) == [*COORDINATES, "status"]
        heavy = ResultRow(params=ModelParams(m=2.0, omega=1.0, lam=1.0, beta=1.0))
        assert csv_columns(render_rows([heavy])) == [*COORDINATES[:5], "status"]
        assert csv_columns(render_rows([ResultRow()])) == ["status"]

    @pytest.mark.parametrize("name", COORDINATES)
    def test_coordinates_are_not_arguments(self, name):
        with pytest.raises(TypeError):
            ResultRow(**{name: 1.0})


class TestOneRowPipeline:
    """Every driver fails the same way, and each row solves the gap once."""

    PARAMS = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)

    def test_gap_step_cap_stops_every_driver(self, monkeypatch, capsys):
        # no row is emitted without its gap root: one error line, exit 2
        monkeypatch.setattr(variational, "MAX_STEPS", 1)
        for argv in (["table1"], ["fig1", "--points", "2"],
                     ["point", "--exact"],
                     ["sweep", "--var", "temp", "--from", "1", "--to", "3",
                      "--points", "3"],
                     ["oracle-check"]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith(
                "error: gap solver: no convergence in 1 steps"), argv
            assert captured.err.count("\n") == 1, argv

    def test_every_row_carries_its_point(self):
        unit = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        rows = [*run_table1(), *run_table2(),
                *(row for which in runs.FIGURE_DEFAULT_RESOLUTION
                  for row in run_figure(which, 2)),
                run_point(replace(unit, m=2.0)),
                *run_sweep(unit, "mass", 0.5, 1.5, 3),
                *run_oracle_check(unit, max_order=2)]
        assert {row.mass for row in rows} == {0.5, 1.0, 1.5, 2.0}
        for row in rows:
            assert row.temp == 1.0 / row.beta
            params = ModelParams(row.mass, row.omega, row.lam, row.beta)
            if row.mass == 1.0:
                rp = rescale(params)
                assert (row.z, row.t_reduced) == (rp.z, rp.t_reduced)
            else:
                assert (row.z, row.t_reduced) == (None, None)

    def test_exact_oracle_reuses_the_row_gap_solve(self, monkeypatch):
        def resolve(params):
            raise ConvergenceError("the exact oracle solved the gap again")

        expected = spectrum.exact_free_energy(self.PARAMS).value
        monkeypatch.setattr(spectrum, "solve_gap", resolve)
        row = run_point(self.PARAMS, exact=True)
        assert row.status == STATUS_OK
        assert row.exact == expected

    def test_quadrature_failure_stops_the_run(self, monkeypatch):
        error = ConvergenceError("order-2 quadrature not converged",
                                 value=-0.01, bound=1e-3)

        def unconverged(params, omega_big, order):
            raise error

        monkeypatch.setattr(runs, "quad_correction", unconverged)
        for run in (lambda: run_point(self.PARAMS, max_order=3, quad=True),
                    lambda: run_oracle_check(self.PARAMS, max_order=2)):
            with pytest.raises(ConvergenceError) as caught:
                run()
            assert caught.value is error
            assert str(caught.value) == "order-2 quadrature not converged"
            assert (caught.value.value, caught.value.bound) == (-0.01, 1e-3)


class TestSharedSpectrum:
    """The exact oracle diagonalizes each basis size once per (m, omega, lam)."""

    @staticmethod
    def per_row_oracle(row):
        """(status, value, step or bound) of the oracle at the row's own Omega."""
        params = ModelParams(row.mass, row.omega, row.lam, row.beta)
        try:
            res = spectrum.exact_free_energy(params, nu=row.omega_big)
        except ConvergenceError as exc:
            return STATUS_DEGRADED, exc.value, exc.bound
        return STATUS_OK, res.value, res.step

    @pytest.mark.parametrize("argv", [["fig1", "--points", "30"], ["fig3"],
                                      ["table1", "--exact"]])
    def test_each_basis_size_diagonalized_once(self, argv, monkeypatch, capsys):
        calls = []
        diagonalize = spectrum.diagonalize

        def counting_diagonalize(params, nu, n_basis):
            calls.append(n_basis)
            return diagonalize(params, nu, n_basis)

        monkeypatch.setattr(spectrum, "diagonalize", counting_diagonalize)
        assert main(argv) == 0
        assert "exact" in csv_columns(capsys.readouterr().out)
        assert calls and len(calls) == len(set(calls))

    def test_one_row_matches_the_oracle_at_its_omega(self):
        params = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=0.05)
        row = run_point(params, exact=True)
        res = spectrum.exact_free_energy(params, nu=row.omega_big)
        assert (row.exact, row.exact_step) == (res.value, res.step)

    def test_groups_do_not_share_spectra(self):
        # each coupling is its own group, so each row works at its own Omega
        rows = run_sweep(ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0),
                         "lam", 0.5, 2.0, 3, exact=True)
        for row in rows:
            assert self.per_row_oracle(row) == (row.status, row.exact,
                                                row.exact_step)

    @pytest.mark.parametrize("base, var, start, stop, points, log", [
        # rows from basis 128 up to 2048
        (ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0),
         "temp", 0.05, 300.0, 13, False),
        # the hottest seven rows stop degraded at the basis cap
        (ModelParams(m=1.0, omega=1.0, lam=0.01, beta=1.0),
         "beta", 0.001, 50.0, 30, True),
    ])
    def test_shared_spectrum_agrees_with_per_row_oracle(
            self, base, var, start, stop, points, log):
        rows = run_sweep(base, var, start, stop, points, exact=True,
                         log_spacing=log)
        for row in rows:
            status, value, step = self.per_row_oracle(row)
            assert row.status == status
            if status == STATUS_OK:
                bound = max(row.exact_step, spectrum.DEFAULT_TOL)
            else:
                bound = row.exact_step
            assert abs(row.exact - value) <= bound


class TestRunTable1:
    def test_shape_and_reference_columns(self):
        rows = run_table1()
        assert len(rows) == 8
        assert [r.t_reduced for r in rows] == pytest.approx(
            [1, 2, 3, 4, 5, 10, 20, 30])
        for row, ref in zip(rows, TABLE1):
            assert row.status == STATUS_OK
            assert row.z == pytest.approx(10.0, rel=1e-14)
            assert row.mass == 1.0
            assert row.omega == pytest.approx(math.sqrt(20.0))
            assert row.ref_accu == ref.f_accu.value
            assert row.ref_f4 == ref.f4.value
            for name in ("omega_big", "f0", "f2", "f3", "f4"):
                assert getattr(row, name) is not None

    def test_tracks_published_second_order_closely(self):
        # the second-order column is the best-reproduced one; the
        # acceptance gate checks all columns at their stated bands
        for row in run_table1():
            assert row.f2 == pytest.approx(row.ref_f2, abs=5e-6)

    def test_deterministic_csv(self):
        a = render_rows(run_table1(), "csv")
        b = render_rows(run_table1(), "csv")
        assert a == b


class TestRunTable2:
    def test_shape_and_literature_columns(self):
        rows = run_table2()
        assert len(rows) == 5
        for row, ref in zip(rows, TABLE2):
            assert row.status == STATUS_OK
            assert (row.lam, row.beta) == (ref.lam, ref.beta)
            assert row.ref_f1_cumulant == ref.f1_cumulant.value
            assert row.ref_f3_cumulant == ref.f3_cumulant.value
            assert row.ref_exact == ref.f_exact.value
            assert row.f4 is None  # series stops at third order here
        assert rows[0].ref_f3_cumulant == 0.803882

    def test_fourth_order_column_omitted_from_csv(self):
        text = render_rows(run_table2(), "csv")
        cols = csv_columns(text)
        assert "f4" not in cols
        assert "f3" in cols and "ref_f3" in cols


class TestRunFigure:
    def test_low_temperature_scan_columns(self):
        rows = run_figure("fig1", 5)
        assert len(rows) == 5
        temps = [r.temp for r in rows]
        assert temps[0] == pytest.approx(0.05)
        assert temps[-1] == pytest.approx(1.0)
        for r in rows:
            assert r.status == STATUS_OK
            assert r.lam == r.mass == r.omega == 1.0
            for name in ("f0", "f2", "f3", "f4", "exact", "exact_step"):
                assert getattr(r, name) is not None

    def test_reduced_scan_has_only_first_and_fourth_order(self):
        rows = run_figure("fig2", 4)
        assert len(rows) == 20  # five z curves, four points each
        assert sorted({round(r.z, 9) for r in rows}) == [0.2, 1.0, 10.0,
                                                         30.0, 50.0]
        for r in rows:
            assert r.f0 is not None and r.f4 is not None
            assert r.f2 is None and r.f3 is None and r.exact is None
        cols = csv_columns(render_rows(rows, "csv"))
        assert "f4" in cols and "f2" not in cols and "f3" not in cols

    def test_pure_quartic_scan(self):
        rows = run_figure("fig3", 4)
        assert len(rows) == 4
        for r in rows:
            assert r.omega == 0.0 and r.z == 0.0
            assert r.exact is not None and r.f4 is not None
            assert r.status == STATUS_OK

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_figure("fig9")
        with pytest.raises(ValidationError):
            run_figure("fig2", 1)


class TestRunPoint:
    def test_physical_point_partial_sums(self):
        params = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=5.0)
        row = run_point(params)
        assert row.status == STATUS_OK
        assert row.omega_big > row.omega
        fe = series_eval(params, max_order=4)
        assert row.f0 == fe.f0
        assert row.f4 == fe.f4
        assert row.z == 0.5 and row.t_reduced == pytest.approx(0.2)

    def test_reduced_point_matches_its_representative(self, capsys):
        # the command line realizes a reduced point with mass 1 at --lambda
        assert main(["point", "--z", "10", "--t-reduced", "1",
                     "--lambda", "2"]) == 0
        rp = RescaledParams(z=10.0, t_reduced=1.0)
        assert capsys.readouterr().out == \
            render_rows([run_point(unrescale(rp, lam=2.0))])

    def test_exactly_one_parameter_form(self, capsys):
        # the command line takes a point in reduced or in physical flags
        for command in ("point", "oracle-check"):
            assert main([command, "--z", "10"]) == 1
            assert main([command, "--z", "10", "--t-reduced", "1",
                         "--beta", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("reduced mode needs both --z and --t-reduced") == 2
        assert err.count("not both") == 2

    def test_order_truncation_and_validation(self):
        params = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        row = run_point(params, max_order=0)
        assert row.f0 is not None
        assert row.f2 is None and row.f3 is None and row.f4 is None
        with pytest.raises(ValidationError):
            run_point(params, max_order=1)

    def test_oracle_columns(self):
        params = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        row = run_point(params, max_order=2, exact=True, quad=True)
        assert row.status == STATUS_OK
        assert row.exact is not None and row.exact_step is not None
        assert row.quad3 is None and row.quad4 is None
        assert row.quad2 == pytest.approx(row.f2 - row.f0, rel=1e-8)
        assert row.exact == pytest.approx(row.f2, abs=5e-3)


class TestRunSweep:
    BASE = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)

    def test_temperature_grid(self):
        rows = run_sweep(self.BASE, "temp", 1.0, 2.0, 3, max_order=2)
        assert [r.temp for r in rows] == pytest.approx([1.0, 1.5, 2.0])
        assert [r.beta for r in rows] == pytest.approx([1.0, 1 / 1.5, 0.5])

    def test_log_spaced_coupling_grid_is_monotone_in_f0(self):
        rows = run_sweep(self.BASE, "lam", 0.1, 10.0, 5, max_order=0,
                         log_spacing=True)
        lams = [r.lam for r in rows]
        assert lams == pytest.approx(list(np.geomspace(0.1, 10.0, 5)))
        f0s = [r.f0 for r in rows]
        assert all(a < b for a, b in zip(f0s, f0s[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_sweep(self.BASE, "z", 1.0, 2.0, 3)
        with pytest.raises(ValidationError):
            run_sweep(self.BASE, "beta", 1.0, 2.0, 1)
        with pytest.raises(ValidationError):
            run_sweep(self.BASE, "lam", 0.0, 1.0, 3)  # grid hits lam = 0
        with pytest.raises(ValidationError):
            run_sweep(self.BASE, "lam", 0.0, 1.0, 3, log_spacing=True)


class TestRunOracleCheck:
    PARAMS = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)

    def test_orders_and_agreement(self):
        rows = run_oracle_check(self.PARAMS, max_order=3)
        assert [r.order for r in rows] == [2, 3]
        for row in rows:
            assert row.status == STATUS_OK
            assert row.rel_err < 1e-6
        assert rows[0].closed == pytest.approx(
            closed_correction(self.PARAMS, rows[0].omega_big, 2), rel=1e-15)
        assert exit_code_for(rows) == 0

    def test_unreachable_tolerance_degrades(self):
        rows = run_oracle_check(self.PARAMS, max_order=2, tol=1e-18)
        assert rows[0].status == STATUS_DEGRADED
        assert "exceeds tolerance" in rows[0].note
        assert exit_code_for(rows) == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_oracle_check(self.PARAMS, max_order=0)
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                run_oracle_check(self.PARAMS, tol=tol)


class TestRenderRows:
    def test_csv_structure(self):
        rows = run_table2()
        text = render_rows(rows, "csv")
        assert text.endswith("\n")
        records = csv_records(text)
        assert len(records) == 5
        # 9-significant-digit float cells
        assert records[0]["f0"] == format(rows[0].f0, ".9g")
        # every emitted column has a value in every row here
        for rec in records:
            assert all(v != "" for v in rec.values())

    def test_csv_omits_empty_columns(self):
        rows = [run_point(ModelParams(1.0, 1.0, 1.0, 2.0), max_order=2)]
        cols = csv_columns(render_rows(rows, "csv"))
        assert "f3" not in cols and "exact" not in cols and "note" not in cols
        assert "status" in cols

    def test_json_types(self):
        rows = run_table2()
        data = json.loads(render_rows(rows, "json"))
        assert isinstance(data, list) and len(data) == 5
        obj = data[0]
        assert isinstance(obj["f0"], float)
        assert isinstance(obj["status"], str)
        assert "f4" not in obj and "note" not in obj
        assert obj["ref_f3_cumulant"] == 0.803882

    def test_table_alignment(self):
        text = render_rows(run_table2(), "table")
        lines = text.splitlines()
        assert len(lines) == 6
        assert len({len(line) for line in lines}) == 1

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            render_rows(run_table2(), "yaml")


class TestCli:
    def test_table2_csv_on_stdout(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        records = csv_records(out)
        assert len(records) == 5
        assert float(records[0]["ref_exact"]) == 0.803758

    def test_point_third_order_benchmark(self, capsys):
        code = main(["point", "--lambda", "1", "--beta", "5",
                     "--order", "3", "--format", "json"])
        assert code == 0
        (obj,) = json.loads(capsys.readouterr().out)
        assert obj["f3"] == pytest.approx(0.807364, abs=5e-6)
        assert "f4" not in obj

    def test_point_reduced_mode(self, capsys):
        code = main(["point", "--z", "10", "--t-reduced", "1",
                     "--format", "json"])
        assert code == 0
        (obj,) = json.loads(capsys.readouterr().out)
        assert obj["f4"] == pytest.approx(2.262259, abs=5e-6)
        assert obj["beta"] == pytest.approx(1.0)

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        assert main(["table2", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == \
            render_rows(run_table2(), "csv")

    def test_sweep_row_count(self, capsys):
        code = main(["sweep", "--var", "temp", "--from", "1", "--to", "2",
                     "--points", "3", "--order", "2"])
        assert code == 0
        assert len(csv_records(capsys.readouterr().out)) == 3

    @pytest.mark.parametrize("var, start, stop", [
        ("lam", "1e308", "-1e308"), ("omega", "-1e308", "1e308"),
    ])
    def test_overflowing_sweep_range_is_one_error_line(self, var, start, stop, capsys):
        # stop - start overflows: the range is named before any grid is built,
        # so no numpy warning and no nan grid point reach the user
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--var", var, f"--from={start}", f"--to={stop}",
                         "--points", "3"])
        assert (code, caught) == (1, [])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {var} sweep from {float(start)} to {float(stop)} spans more "
            "than double precision holds\n")

    def test_oracle_check_ok(self, capsys):
        code = main(["oracle-check", "--beta", "2", "--order", "2"])
        assert code == 0
        records = csv_records(capsys.readouterr().out)
        assert len(records) == 1
        assert float(records[0]["rel_err"]) < 1e-6

    def test_validation_errors_exit_1(self, capsys):
        assert main(["point", "--lambda", "0"]) == 1
        assert "error" in capsys.readouterr().err
        assert main(["point", "--z", "10"]) == 1
        assert main(["point", "--z", "10", "--t-reduced", "1",
                     "--beta", "2"]) == 1

    def test_oracle_check_rejects_non_positive_tol(self, capsys):
        assert main(["oracle-check", "--beta", "2", "--tol", "0"]) == 1
        assert "tolerance must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table1"], ["table2"], ["fig1"], ["fig2"], ["fig3"],
        ["point", "--exact"],
        ["sweep", "--var", "temp", "--from", "1", "--to", "2", "--exact"],
        ["oracle-check", "--beta", "2"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_must_be_positive_and_finite(self, argv, tol, capsys):
        # only oracle-check has --tol; the exact oracle's tolerance is fixed,
        # so on every other subcommand the flag is a usage error
        try:
            code = main([*argv, f"--tol={tol}"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        if argv[0] == "oracle-check":
            assert captured.err == (
                f"error: tolerance must be positive and finite, got {float(tol)}\n")
        else:
            assert captured.err.endswith(
                f"error: unrecognized arguments: --tol={tol}\n")

    @pytest.mark.parametrize("argv", [
        ["--lambda", "1e-200", "--beta", "1"],              # c2 is -0.0
        ["--lambda", "1e-160", "--beta", "1", "--order", "2"],  # c2 subnormal
    ])
    def test_oracle_check_rejects_underflowed_correction(self, argv, capsys):
        assert main(["oracle-check", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: order-2 correction ")
        assert captured.err.count("\n") == 1

    def test_out_to_unwritable_path_is_an_error(self, tmp_path, capsys):
        for target in (tmp_path / "missing" / "rows.csv", tmp_path):
            assert main(["point", "--out", str(target)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write {target}: ")
            assert captured.err.count("\n") == 1

    def test_overflowed_temperature_is_one_error_line(self, capsys):
        # order 0 has no correction to fail first; F0 ~ T ln(beta Omega)
        # overflows in the gap solve, before the row's temp = 1/beta does
        assert main(["point", "--order", "0", "--beta", "1e-310"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: F0 is outside double precision at beta*Omega = 5.89e-233\n")

    def test_usage_errors_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["point", "--beta", "2", "--temp", "0.5"])
        assert exc.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["point", "--z", "1e308", "--t-reduced", "1"],
         "z = 1e+308 at lambda = 1.0 gives omega = inf, outside double precision"),
        (["point", "--mass", "inf"], "mass must be finite, got inf"),
        (["point", "--lambda", "nan"], "coupling lambda must be finite, got nan"),
        (["point", "--omega", "nan"], "omega must be finite, got nan"),
        (["point", "--z", "nan", "--t-reduced", "1"], "z must be finite, got nan"),
        (["point", "--z", "1", "--t-reduced", "1", "--lambda", "-1"],
         "coupling lambda must be positive and finite, got -1.0"),
        (["sweep", "--var", "beta", "--from", "1", "--to", "2", "--z", "1",
          "--t-reduced", "1"],
         "sweep works on physical variables; reduced flags are not supported here"),
    ], ids=["z-overflow", "mass-inf", "lambda-nan", "omega-nan", "z-nan",
            "reduced-lambda", "reduced-sweep"])
    def test_input_errors_name_the_quantity(self, argv, message, capsys):
        # the message names what the user gave, not an internal field
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["point", "--quad", "--order", "0"],
        ["sweep", "--var", "beta", "--from", "1", "--to", "2", "--points", "2",
         "--quad", "--order", "0"],
    ], ids=lambda argv: argv[0])
    def test_quadrature_needs_a_correction_order(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: quadrature oracle needs max_order in {2, 3, 4}, got 0\n")

    @pytest.mark.parametrize("argv, name", [
        (["point", "--temp", "nan"], "temp"),
        (["point", "--temp", "inf"], "temp"),
        (["point", "--temp", "1e-320"], "temp"),
        (["sweep", "--var", "temp", "--from", "1e-320", "--to", "1",
          "--points", "3"], "temp"),
        (["point", "--z", "10", "--t-reduced", "1e-320"], "t_reduced"),
    ], ids=["nan", "inf", "1e-320", "sweep", "t_reduced"])
    def test_temperature_errors_name_the_temperature(self, argv, name, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} ")
        assert captured.err.count("\n") == 1
        assert "beta must" not in captured.err

    def test_quadrature_at_beta_1e20_is_ok(self, capsys):
        # beta*Omega = 2e20 takes the sector limit
        code = main(["point", "--quad", "--beta", "1e20", "--order", "2"])
        assert code == 0
        (record,) = csv_records(capsys.readouterr().out)
        assert record["status"] == "ok"
        assert float(record["quad2"]) == pytest.approx(
            float(record["f2"]) - float(record["f0"]), rel=1e-8)

    def test_oracle_check_at_beta_omega_8e26(self, capsys):
        code = main(["oracle-check", "--lambda", "1e80", "--beta", "1", "--order", "4"])
        assert code == 0
        records = csv_records(capsys.readouterr().out)
        assert [(r["order"], r["status"]) for r in records] == [
            ("2", "ok"), ("3", "ok"), ("4", "ok")]
        for record in records:
            assert float(record["omega_big"]) > 8e26
            assert float(record["rel_err"]) < 2e-15

    def test_c4_finite_at_beta_omega_1e303(self, capsys):
        # 202496 x overflows here; R_4(x)/x = 202496 does not
        argv = ["point", "--mass", "1e3", "--omega", "1e3", "--lambda",
                "1e-12", "--beta", "1e300", "--format", "json"]
        assert main(argv) == 0
        (obj,) = json.loads(capsys.readouterr().out)
        assert math.isfinite(obj["f4"])

    def test_import_builds_no_parser(self):
        # the parser is built by the first main() call, so importing the
        # package costs every library user nothing for it
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import quartic_vpe, quartic_vpe.cli\n"
            "print(len(built))\n"
            "quartic_vpe.cli.build_parser()\n"
            "print(len(built) > 0)\n"
        )
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        # the second line shows the count sees a parser being built
        assert run.stdout.split() == ["0", "True"]

    def test_series_only_commands_import_no_numpy(self):
        # one fresh interpreter: the series path is pure math, and only an
        # oracle loads numpy; the last command shows the check can fail
        series_only = [["table1"], ["table2"],
                       ["point", "--lambda", "2", "--beta", "5"],
                       ["point", "--z", "10", "--t-reduced", "1"]]
        script = (
            "import contextlib, io, json, sys\n"
            "from quartic_vpe.cli import main\n"
            "heavy = ('numpy', 'quartic_vpe.spectrum', 'quartic_vpe.diagrams')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "    loaded = [name for name in heavy if name in sys.modules]\n"
            "    codes.append(main(['point', '--exact']))\n"
            "print(json.dumps([codes, loaded, 'numpy' in sys.modules]))\n"
        )
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script, json.dumps(series_only)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        codes, loaded, numpy_after_exact = json.loads(run.stdout)
        assert codes == [0] * (len(series_only) + 1)
        assert loaded == []
        assert numpy_after_exact

    def test_readme_command_lines_run(self, capsys):
        # a renamed flag or subcommand fails here instead of leaving the
        # README's examples stale
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        block = block.split("```", 1)[0]
        argvs = [shlex.split(line, comments=True)
                 for line in block.splitlines() if line.startswith("quartic-vpe ")]
        assert argvs
        for argv in argvs:
            assert main(argv[1:]) == 0, argv
            captured = capsys.readouterr()
            assert captured.out and captured.err == "", argv

    def test_figure_data_series(self, capsys):
        assert main(["fig2", "--points", "2"]) == 0
        records = csv_records(capsys.readouterr().out)
        assert len(records) == 10
        assert "f2" not in records[0]
