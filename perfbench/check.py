"""Parse what ``cli.main`` printed and check every row.

A row is *ok*, *degraded* (the program flagged it: a solver did not
converge) or *wrong* (it breaks an invariant or disagrees with the
reference output recorded from the seed commit). Rows an op should have
printed but did not are *missing*. Degraded, wrong and missing rows all
count as failed; a wrong row also makes the run incorrect.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative agreement the oracle check promises per order (the values of
# quartic_vpe.runs.ORACLE_CHECK_TOL, fixed here so the check is independent
# of the program under test).
ORACLE_TOL = {2: 1e-6, 3: 1e-6, 4: 1e-4}
# CSV and table output print 9 significant digits; two rounded values of
# nearly equal numbers may differ by one unit in the last digit.
ROUNDING = 2e-8
# Tolerance the exact oracle runs at: the CLI default, as no op passes --tol.
EXACT_TOL = 1e-9

COORDINATES = ("lam", "omega", "mass", "beta", "temp", "z", "t_reduced")
SERIES = ("omega_big", "f0", "f2", "f3", "f4", "closed")
NOT_COMPARED = ("exact_step", "note")
TEXT_COLUMNS = ("status", "note")


class OutputError(ValueError):
    """The op's output could not be parsed."""


def output_format(argv) -> str:
    argv = list(argv)
    return argv[argv.index("--format") + 1] if "--format" in argv else "csv"


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise OutputError(f"not a number: {text!r}") from None


def _typed(raw: dict) -> dict:
    row = {}
    for key, value in raw.items():
        if key is None:
            raise OutputError("row has more fields than the header")
        if value is None or value == "":
            continue
        row[key] = value if key in TEXT_COLUMNS else _number(value)
    return row


def _table_rows(text: str) -> list[dict]:
    """Rows of the fixed-width table format (right-aligned, two-space gaps)."""
    lines = text.splitlines()
    if not lines:
        raise OutputError("empty output")
    header = lines[0]
    spans, pos = [], 0
    for name in header.split():
        end = header.index(name, pos) + len(name)
        spans.append((name, pos, end))
        pos = end
    return [{name: line[start:end].strip() for name, start, end in spans}
            for line in lines[1:]]


def parse_rows(text: str, fmt: str) -> list[dict]:
    if fmt == "csv":
        raw = list(csv.DictReader(io.StringIO(text)))
    elif fmt == "table":
        raw = _table_rows(text)
    else:
        raise OutputError(f"unknown format {fmt!r}")
    return [_typed(r) for r in raw]


def _close(col: str, a: float, b: float, row: dict) -> bool:
    scale = max(abs(a), abs(b))
    rel, absolute = ROUNDING, 0.0
    if col == "exact":
        absolute = 2.0 * EXACT_TOL
    elif col in ("quad2", "quad3", "quad4"):
        rel = max(rel, ORACLE_TOL[int(col[-1])])
    elif col == "quad":
        rel = max(rel, ORACLE_TOL[int(row["order"])])
    elif col == "rel_err":
        absolute = ORACLE_TOL[int(row["order"])]
    return abs(a - b) <= absolute + rel * scale


def _invariants(row: dict) -> str | None:
    """Reason the row is wrong on any seed, or None."""
    status = row.get("status")
    if status not in ("ok", "degraded"):
        return f"status {status!r}"
    for key, value in row.items():
        if key not in TEXT_COLUMNS and not math.isfinite(value):
            return f"{key} is not finite"
    f = [row.get(k) for k in ("f0", "f2", "f3", "f4")]
    # Rounding to 9 digits is monotonic, so the non-strict forms survive it.
    if f[0] is not None and f[1] is not None and not f[1] <= f[0]:
        return "f2 > f0 (c2 must be negative)"
    if f[1] is not None and f[2] is not None and not f[2] >= f[1]:
        return "f3 < f2 (c3 must be positive)"
    if f[2] is not None and f[3] is not None and not f[3] <= f[2]:
        return "f4 > f3 (c4 must be negative)"
    if status != "ok":
        return None
    if f[0] is not None and "exact" in row:
        exact = row["exact"]
        slack = EXACT_TOL + ROUNDING * max(abs(f[0]), abs(exact))
        if f[0] < exact - slack:
            return f"f0 {f[0]!r} below exact {exact!r}: variational bound broken"
    if "rel_err" in row:
        order = int(row["order"])
        if order not in ORACLE_TOL:
            return f"oracle row of order {order}"
        if row["rel_err"] > ORACLE_TOL[order] * (1.0 + ROUNDING):
            return f"order-{order} rel_err {row['rel_err']!r} above tolerance"
    return None


def _against_reference(row: dict, ref: dict) -> str | None:
    """Reason the row disagrees with the seed commit's row, or None.

    The status must match, except that a row degraded at the seed commit
    may now converge; then only coordinates and series columns are compared.
    """
    if ref["status"] == "ok" and row["status"] != "ok":
        return f"status {row['status']!r}, reference row was ok"
    if ref["status"] == "ok":
        columns = set(row) | set(ref)
    else:
        columns = {c for c in COORDINATES if c in row or c in ref}
        columns |= {c for c in SERIES + ("order",) if c in row and c in ref}
    for col in sorted(columns - set(TEXT_COLUMNS) - set(NOT_COMPARED)):
        if (col in row) != (col in ref):
            return f"column {col} present in only one of row and reference"
        if not _close(col, row[col], ref[col], ref):
            return f"{col} {row[col]!r} differs from reference {ref[col]!r}"
    return None


@dataclass
class Tally:
    requested: int = 0
    ok: int = 0
    degraded: int = 0
    wrong: int = 0
    missing: int = 0
    ops: int = 0
    failed_ops: int = 0
    reasons: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.degraded + self.wrong + self.missing

    def add(self, other: "Tally") -> None:
        for name in ("requested", "ok", "degraded", "wrong", "missing", "ops",
                     "failed_ops"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.reasons.extend(other.reasons[:max(0, 20 - len(self.reasons))])


def check_op(op, rc, out: str, err: str, reference: str | None) -> Tally:
    """Verdicts for one op's rows. ``rc`` is None when the call raised."""
    t = Tally(requested=op.rows, ops=1)
    label = " ".join(op.argv)

    def fail_op(kind: str, reason: str) -> Tally:
        setattr(t, kind, op.rows)
        t.failed_ops = 1
        t.reasons.append(f"{label}: {reason}")
        return t

    if rc not in (0, 2):
        return fail_op("missing", f"exit {rc}: {err.strip()[-300:]}")
    fmt = output_format(op.argv)
    try:
        rows = parse_rows(out, fmt)
        ref_rows = parse_rows(reference, fmt) if reference is not None else None
    except OutputError as exc:
        return fail_op("wrong", str(exc))
    if len(rows) != op.rows or (ref_rows is not None and len(ref_rows) != op.rows):
        return fail_op("wrong", f"{len(rows)} rows, expected {op.rows}")
    if (rc == 2) != any(r.get("status") == "degraded" for r in rows):
        return fail_op("wrong", f"exit {rc} does not match the rows' status")
    for k, row in enumerate(rows):
        reason = _invariants(row)
        if reason is None and ref_rows is not None:
            reason = _against_reference(row, ref_rows[k])
        if reason is not None:
            t.wrong += 1
            t.reasons.append(f"{label}: row {k}: {reason}")
        elif row["status"] == "ok":
            t.ok += 1
        else:
            t.degraded += 1
    if t.wrong:
        t.failed_ops = 1
    return t


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict[tuple, str]:
    """argv -> output text recorded from the seed commit (may be empty)."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    return {tuple(entry["argv"]): entry["output"] for entry in data["ops"]}


def save_reference(workload: str, seed: int, outputs: dict[tuple, str]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {"workload": workload, "seed": seed,
            "ops": [{"argv": list(argv), "output": text}
                    for argv, text in outputs.items()]}
    # mtime=0 keeps the file byte-identical across recordings
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(data, indent=0, sort_keys=True).encode("utf-8"))
    return path
