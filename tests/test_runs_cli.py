"""Tests for the run drivers, row serialization, and the command line."""

import csv
import io
import json
import math

import numpy as np
import pytest

from quartic_vpe.cli import main
from quartic_vpe.core import ModelParams, RescaledParams, unrescale
from quartic_vpe.errors import ValidationError
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
from quartic_vpe.series import c2_closed, series_eval

rng = np.random.default_rng(20260823)


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

    def test_temp_must_match_beta(self):
        ResultRow(beta=2.0, temp=0.5)
        with pytest.raises(ValidationError):
            ResultRow(beta=2.0, temp=0.6)

    def test_reduced_coordinates_must_match_physical(self):
        ResultRow(lam=1.0, omega=math.sqrt(20.0), mass=1.0, beta=1.0,
                  temp=1.0, z=10.0, t_reduced=1.0)
        with pytest.raises(ValidationError):
            ResultRow(lam=1.0, omega=math.sqrt(20.0), mass=1.0, beta=1.0,
                      temp=1.0, z=11.0, t_reduced=1.0)

    def test_reduced_coordinates_need_full_physical_point(self):
        with pytest.raises(ValidationError):
            ResultRow(z=10.0, t_reduced=1.0)

    def test_reduced_coordinates_require_unit_mass(self):
        with pytest.raises(ValidationError):
            ResultRow(lam=1.0, omega=1.0, mass=2.0, beta=1.0, temp=1.0,
                      z=0.5, t_reduced=1.0)


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

    def test_reduced_point_matches_its_representative(self):
        rp = RescaledParams(z=10.0, t_reduced=1.0)
        via_reduced = run_point(rescaled=rp)
        via_physical = run_point(unrescale(rp, lam=1.0))
        assert via_reduced == via_physical

    def test_exactly_one_parameter_form(self):
        with pytest.raises(ValidationError):
            run_point()
        with pytest.raises(ValidationError):
            run_point(ModelParams(1.0, 1.0, 1.0, 1.0),
                      RescaledParams(1.0, 1.0))

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
            c2_closed(self.PARAMS, rows[0].omega_big), rel=1e-15)
        assert exit_code_for(rows) == 0

    def test_unreachable_tolerance_degrades(self):
        rows = run_oracle_check(self.PARAMS, max_order=2, tol=1e-18)
        assert rows[0].status == STATUS_DEGRADED
        assert "exceeds tolerance" in rows[0].note
        assert exit_code_for(rows) == 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_oracle_check(self.PARAMS, max_order=0)
        with pytest.raises(ValidationError):
            run_oracle_check(self.PARAMS, tol=-1.0)
        with pytest.raises(ValidationError):
            run_oracle_check()


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

    def test_usage_errors_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["point", "--beta", "2", "--temp", "0.5"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_non_convergence_exits_2(self, capsys):
        code = main(["oracle-check", "--beta", "2", "--order", "2",
                     "--tol", "1e-18"])
        assert code == 2
        records = csv_records(capsys.readouterr().out)
        assert records[0]["status"] == "degraded"

    def test_figure_data_series(self, capsys):
        assert main(["fig2", "--points", "2"]) == 0
        records = csv_records(capsys.readouterr().out)
        assert len(records) == 10
        assert "f2" not in records[0]
