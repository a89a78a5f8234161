"""Seeded op lists for the four benchmark workloads.

One op is one ``quartic_vpe.cli.main(argv)`` call. Each workload gives a
warm-up op (a cheap ``point`` command that touches the workload's layer;
it is also the command ``setup_s`` times in fresh interpreters) and a pass:
the fixed list of ops generated from the seed. The program only ever sees
the generated argv.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass

# The seed whose outputs are recorded in reference/ (and run.py's default).
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    rows: int                 # rows the op must emit


@dataclass(frozen=True)
class Workload:
    warmup: tuple[str, ...]
    make_pass: Callable[[int], list[Op]]   # seed -> one pass


def _num(x: float) -> str:
    return format(x, ".6g")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# --- readme: the README's command lines (not seeded) -----------------------

README_OPS = (
    Op(("table1",), 8),
    Op(("table2", "--exact"), 5),
    Op(("fig1", "--points", "30"), 30),
    Op(("fig2",), 125),
    Op(("fig3",), 20),
    Op(("point", "--lambda", "1", "--beta", "5", "--order", "3",
        "--format", "table"), 1),
    Op(("point", "--z", "10", "--t-reduced", "1", "--exact"), 1),
    Op(("sweep", "--var", "temp", "--from", "1", "--to", "50", "--points",
        "25", "--order", "4"), 25),
)
# 16 repetitions give 128 ops a pass, so the tail percentile (ten ops beyond
# it) falls inside the 16 fig1 calls rather than on a boundary between
# commands.
README_REPEATS = 16


def readme_pass(seed: int) -> list[Op]:
    return list(README_OPS) * README_REPEATS


# --- hot: exact diagonalization from basis 128 up to the 2048 cap ----------

# Temperature bands at m = omega = lambda = 1, each inside the range where
# the exact oracle stops at one basis size (measured on the seed commit:
# 128 up to T = 9, 256 for 10-22, 512 for 24-55, 1024 for 60-130, 2048 for
# 135-310, cap failure from about 330). The gaps between bands keep the
# number of basis doublings, and so the cost of a pass, the same on every
# seed. Counts per 16-op block: the last band is the ~2 of 16 rows that
# come back degraded at the cap.
HOT_BANDS = (
    (2.0, 7.0, 4),      # basis 128
    (11.5, 19.0, 3),    # basis 256
    (27.0, 48.0, 3),    # basis 512
    (68.0, 115.0, 2),   # basis 1024
    (155.0, 270.0, 2),  # basis 2048
    (380.0, 500.0, 2),  # fails at the 2048 cap
)
# Two blocks (32 ops): the median op is a basis-512 point and the tail
# percentile falls inside the basis-1024 points.
HOT_BLOCKS = 2


def hot_pass(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(HOT_BLOCKS):
        for lo, hi, count in HOT_BANDS:
            for _ in range(count):
                temp = _log_uniform(rng, lo, hi)
                ops.append(Op(("point", "--exact", "--temp", _num(temp)), 1))
    rng.shuffle(ops)
    return ops


# --- oracle: closed forms vs diagram quadrature ----------------------------

# At m = omega = lambda = 1, beta*Omega is about 2*beta for beta > 2. Panels
# are uniform for beta*Omega <= 24 and graded above. Uniform points run
# through order 4 (beta*Omega about 1-20); graded points run through order 3
# only (beta*Omega about 30-200), because one graded order-4 point costs
# about 400 s. Three order-4 ops out of five make the median op an order-4
# one.
ORACLE_UNIFORM_BETA = (0.5, 9.5)
ORACLE_UNIFORM_COUNT = 3
ORACLE_GRADED_BETA = (15.0, 100.0)
ORACLE_GRADED_COUNT = 2


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw from each of ``count`` equal log-width strata."""
    step = (math.log(hi) - math.log(lo)) / count
    return [math.exp(math.log(lo) + (k + rng.random()) * step)
            for k in range(count)]


def oracle_pass(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [Op(("oracle-check", "--beta", _num(b), "--order", "4"), 3)
           for b in _strata(rng, *ORACLE_UNIFORM_BETA, ORACLE_UNIFORM_COUNT)]
    ops += [Op(("oracle-check", "--beta", _num(b), "--order", "3"), 2)
            for b in _strata(rng, *ORACLE_GRADED_BETA, ORACLE_GRADED_COUNT)]
    rng.shuffle(ops)
    return ops


# --- wide: series-only log sweeps over the documented parameter ranges -----

WIDE_RANGES = {
    "lam": (1e-12, 1e8),
    "mass": (1e-3, 1e3),
    "omega": (1e-3, 1e3),
    "beta": (1e-12, 1e12),
}
WIDE_FLAGS = {"lam": "--lambda", "mass": "--mass", "omega": "--omega",
              "beta": "--beta"}
# Drawn per sweep; the mass stays 1 unless it is the swept variable, so most
# rows also carry (and validate) the reduced coordinates.
WIDE_DRAWN = ("lam", "omega", "beta")
WIDE_SWEEPS_PER_VAR = 32
# Enough points that row work, not argument parsing, dominates an op.
WIDE_POINTS = 61


def wide_pass(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for var, (lo, hi) in WIDE_RANGES.items():
        others = [o for o in WIDE_DRAWN if o != var]
        # Latin hypercube over the drawn coordinates: each takes one
        # log-uniform draw from each of WIDE_SWEEPS_PER_VAR equal log-width
        # bins, so every seed covers the ranges evenly.
        draws = {}
        for other in others:
            column = _strata(rng, *WIDE_RANGES[other], WIDE_SWEEPS_PER_VAR)
            rng.shuffle(column)
            draws[other] = column
        for k in range(WIDE_SWEEPS_PER_VAR):
            argv = ["sweep", "--var", var, "--from", _num(lo), "--to", _num(hi),
                    "--points", str(WIDE_POINTS), "--log", "--order", "4"]
            for other in others:
                argv += [WIDE_FLAGS[other], _num(draws[other][k])]
            ops.append(Op(tuple(argv), WIDE_POINTS))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "readme": Workload(("point", "--lambda", "1", "--beta", "5",
                                  "--order", "3", "--format", "table"),
                       readme_pass),
    "hot": Workload(("point", "--exact", "--temp", "2"), hot_pass),
    "oracle": Workload(("point", "--quad", "--order", "3",
                                  "--beta", "2"), oracle_pass),
    "wide": Workload(("point", "--lambda", "1e-06", "--beta", "1e+06",
                              "--order", "4"), wide_pass),
}
