"""Golden CLI outputs: stdout bytes and exit codes of representative commands.

Each case runs ``cli.main`` in-process and compares its stdout byte for byte
with ``tests/golden/<name>.out``; the expected exit code sits in ``CASES``.
The set covers every subcommand, every output format, the ``--exact`` and
``--quad`` oracles, reduced mode and degraded rows (exit 2).

After a deliberate output change, re-record with

    PYTHONPATH=src python tests/test_golden.py

which rewrites the ``.out`` files, prints every cell that moved (file,
row, column, old value, new value) and fails if an exit code moved.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quartic_vpe import cli
from quartic_vpe.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# name -> (argv, exit code)
CASES = {
    "table1": (["table1"], 0),
    "table1_exact": (["table1", "--exact"], 0),
    "table2": (["table2"], 0),
    "table2_exact": (["table2", "--exact"], 0),
    "fig1": (["fig1"], 0),
    "fig2": (["fig2"], 0),
    "fig3": (["fig3"], 0),
    "fig1_json": (["fig1", "--points", "7", "--format", "json"], 0),
    "point_exact_quad": (
        ["point", "--exact", "--quad", "--order", "3", "--beta", "2"], 0),
    "point_reduced_json": (
        ["point", "--z", "10", "--t-reduced", "1", "--format", "json"], 0),
    "sweep_temp_table": (
        ["sweep", "--var", "temp", "--from", "1", "--to", "50",
         "--points", "25", "--format", "table"], 0),
    "sweep_lam_log": (
        ["sweep", "--var", "lam", "--from", "1e-12", "--to", "1e8",
         "--points", "61", "--log"], 0),
    "oracle_check": (["oracle-check", "--beta", "2"], 0),
    "oracle_check_reduced": (
        ["oracle-check", "--z", "10", "--t-reduced", "1", "--order", "3"], 0),
    "oracle_check_degraded": (
        ["oracle-check", "--beta", "2", "--order", "2", "--tol", "1e-18"], 2),
    "point_exact_degraded": (["point", "--exact", "--temp", "400"], 2),
}


def run_case(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def golden(name):
    return (GOLDEN_DIR / f"{name}.out").read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    argv, expected_code = CASES[name]
    code, text = run_case(argv)
    assert code == expected_code
    assert text == golden(name)


def test_one_parser_serves_every_call(monkeypatch):
    # main() reuses its parser: nothing a call parses, or fails to parse,
    # may reach a later call
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    usage_errors = (["no-such-command"], ["point", "--beta", "2", "--temp", "0.5"],
                    ["sweep", "--var", "x", "--from", "1", "--to", "2"])
    names = sorted(CASES)
    for i, name in enumerate([*reversed(names), *names]):
        argv, expected_code = CASES[name]
        assert run_case(argv) == (expected_code, golden(name)), name
        with pytest.raises(SystemExit) as exc:
            run_case(usage_errors[i % len(usage_errors)])
        assert exc.value.code == 1
        assert run_case(["point", "--order", "0", "--beta", "1e-310"]) == (1, "")
    code, text = run_case(["point", "--exact"])
    assert code == 0 and "exact" in text.partition("\n")[0].split(",")
    code, text = run_case(["point"])
    assert code == 0 and "exact" not in text.partition("\n")[0].split(",")
    assert len(builds) == 1


@pytest.mark.parametrize("argv", [["table1", "--exact"],
                                  ["fig1", "--points", "7", "--format", "json"],
                                  ["point", "--exact", "--temp", "400"]])
def test_output_independent_of_blas_threads(argv):
    # the thread count is read when numpy loads, so each run is a fresh process
    src = str(Path(__file__).parents[1] / "src")
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-c",
             "import sys; from quartic_vpe.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv], env=env, capture_output=True, timeout=120)
        # exit code 2 flags degraded rows; 1 is a failure
        assert run.returncode != 1, run.stderr.decode()
        outputs.add((run.returncode, run.stdout))
    assert len(outputs) == 1


def cells(text):
    """{(row, column): value} of a CSV, JSON or table output; rows count from 1."""
    if text.startswith("["):
        rows = [{k: json.dumps(v) for k, v in obj.items()} for obj in json.loads(text)]
    elif "," in text.partition("\n")[0]:
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        header, *lines = text.splitlines()
        columns = header.split()
        rows = [dict(zip(columns, line.split(None, len(columns) - 1))) for line in lines]
    return {(i, column): value
            for i, row in enumerate(rows, 1) for column, value in row.items() if value}


def cell_diff(name, old, new):
    """One line per cell that differs: file, row, column, old and new value."""
    before, after = cells(old), cells(new)
    return [f"{name}.out row {row} {column}: {before.get((row, column), '-')} -> "
            f"{after.get((row, column), '-')}"
            for row, column in {**before, **after}
            if before.get((row, column)) != after.get((row, column))]


def record():
    GOLDEN_DIR.mkdir(exist_ok=True)
    moved = []
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, text = run_case(argv)
        path = GOLDEN_DIR / f"{name}.out"
        if path.exists():
            print("\n".join(cell_diff(name, path.read_text("utf-8"), text)) or f"{name}.out unchanged")
        path.write_bytes(text.encode("utf-8"))
        if code != expected_code:
            moved.append(f"{name}: exit {code}, expected {expected_code}")
    return moved


if __name__ == "__main__":
    problems = record()
    print("\n".join(problems) or f"recorded {len(CASES)} golden outputs")
    sys.exit(1 if problems else 0)
