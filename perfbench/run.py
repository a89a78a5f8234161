#!/usr/bin/env python3
"""Benchmark of quartic-vpe: seeded workloads run through ``cli.main``.

    python3 perfbench/run.py --workload {readme,hot,oracle,wide} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. One process, one client, closed loop: each op (one
``cli.main(argv)`` call, in-process) starts when the previous one returns.
BLAS and OpenMP are pinned to one thread in this process and its children.

A run runs the workload's warm-up op untimed, then repeats the seeded pass
(a fixed op list) while another whole pass fits in ``--seconds``; there is
always at least one pass. Every row printed is checked (see check.py).
With tracing off, ``setup_s`` is timed in fresh interpreters started
between passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
budget on untraced passes, then runs one pass with spans at each layer
boundary (see tracing.py) and reports the per-layer metrics, including the
tracing overhead. The last line of stdout is one JSON object with
``correct``, ``attempted`` and ``failed`` (ops) and ``metrics``; a full
record, with machine facts, goes to ``perfbench/out/``. The exit code is 1
when a row is wrong, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import Tally, check_op, load_reference
from tracing import Tracer, layer_metrics, layer_shares
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 9
TAIL_BEYOND = 10     # the tail percentile keeps at least this many ops above it
CHILD_TIMEOUT_S = 60

# A fresh interpreter that runs one CLI command, as the installed
# ``quartic-vpe`` script would.
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from quartic_vpe.cli import main; sys.exit(main(sys.argv[2:]))")


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_cli():
    if not (SRC / "quartic_vpe" / "cli.py").is_file():
        raise BenchError(f"no quartic_vpe package under {SRC}; run from the "
                         "root of a source checkout")
    sys.path.insert(0, str(SRC))
    from quartic_vpe import cli
    return cli.main


def run_op(main, argv) -> tuple[float, int | None, str, str]:
    """Latency, exit code (None if it raised), stdout and stderr of one op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:   # argparse exits on usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:    # an op that raises is a failed op
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
    return latency, rc, out.getvalue(), err.getvalue()


class SetupTimer:
    """Time from starting a fresh interpreter to its output, sampled.

    The command is a one-row ``point``; its output reaches the caller when
    the child exits, since stdout to a pipe is block-buffered. The first
    child is untimed: it writes the bytecode cache, as any earlier use of
    the installed package would have. The timed children are spread over
    the run (see ``Runner.passes``), so their median does not hang on the
    machine's speed at a single moment.
    """

    def __init__(self, argv):
        self.argv = argv
        self.times: list[float] = []
        self._child()

    def _child(self) -> float:
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", CHILD, str(SRC), *self.argv],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("set-up child timed out") from None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or len(out.splitlines()) < 2:
            raise BenchError(f"set-up command {' '.join(self.argv)} exited "
                             f"{proc.returncode}: {err.strip()[-300:]}")
        return elapsed

    def catch_up(self, fraction: float) -> None:
        """Take the samples due once ``fraction`` of the run has passed."""
        due = min(SETUP_RUNS, int(SETUP_RUNS * fraction))
        while len(self.times) < due:
            self.times.append(self._child())

    def median(self) -> float:
        self.catch_up(1.0)
        return statistics.median(self.times)


class Runner:
    """Runs passes of one op list and checks everything they print."""

    def __init__(self, main, ops, references):
        self.main = main
        self.ops = ops
        # Only this pass's references are kept (none on most seeds).
        self.references = {op.argv: references[op.argv] for op in ops
                           if op.argv in references}
        self.tally = Tally()
        self._seen: dict[tuple, tuple] = {}   # argv -> (rc, digest, verdict)

    def run_pass(self, main=None) -> tuple[float, list[float], Tally]:
        """Wall time, op latencies and row verdicts of one pass.

        Each op's output is checked as soon as it returns, so that the
        process never holds a whole pass of output; the wall time leaves
        the checking out.
        """
        main = main or self.main
        latencies, tally, checking = [], Tally(), 0.0
        start = time.perf_counter()
        for op in self.ops:
            latency, rc, out, err = run_op(main, op.argv)
            latencies.append(latency)
            checked = time.perf_counter()
            tally.add(self._check(op, rc, out, err))
            checking += time.perf_counter() - checked
        wall = time.perf_counter() - start - checking
        self.tally.add(tally)
        return wall, latencies, tally

    def _check(self, op, rc, out, err) -> Tally:
        # A repeated op with identical output gets the verdict it got before.
        # hash() rather than hashlib: importing hashlib maps OpenSSL, which
        # adds several MB to the peak_rss_mb being measured.
        digest = (len(out), hash(out))
        seen = self._seen.get(op.argv)
        if seen is not None and seen[:2] == (rc, digest):
            return seen[2]
        verdict = check_op(op, rc, out, err, self.references.get(op.argv))
        self._seen[op.argv] = (rc, digest, verdict)
        return verdict

    def passes(self, budget_s: float, setup: SetupTimer | None = None
               ) -> list[tuple[float, list[float], Tally]]:
        """Whole passes while another one fits in the budget (at least one).

        Between passes ``setup`` takes the samples due by then; their time
        is not counted against the budget.
        """
        start = time.perf_counter()
        done = [self.run_pass()]
        while True:
            elapsed = time.perf_counter() - start
            if setup is not None:
                sampling = time.perf_counter()
                setup.catch_up(elapsed / budget_s)
                start += time.perf_counter() - sampling
            if elapsed + done[-1][0] > budget_s:
                return done
            done.append(self.run_pass())


def central_mean(latencies: list[float], lo: float = 0.4, hi: float = 0.6) -> float:
    """Mean latency of the ops between the lo and hi quantiles of a pass.

    A smoothed median: a single middle op flips between the machine's fast
    and slow states, the mean of the middle fifth moves with the time spent
    in each. With fewer than five ops it is a single middle op.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    window = ordered[int(lo * n):max(int(hi * n), int(lo * n) + 1)]
    return statistics.fmean(window)


def tail_index(n: int) -> int:
    """Index (ascending) of the highest percentile with TAIL_BEYOND ops above."""
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1


def end_to_end(passes, tally, setup_s) -> tuple[dict, dict]:
    # Times are means over passes, not medians: the reference machine
    # switches between a fast and a slow state every few seconds, and the
    # median of a run jumps between the two while the mean weights them by
    # time spent in each.
    n_ops = len(passes[0][1])
    p50 = [central_mean(p[1]) for p in passes]
    tail = [sorted(p[1])[tail_index(n_ops)] for p in passes]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.fmean(p[0] for p in passes), "s"),
        "op_p50_ms": (1e3 * statistics.fmean(p50), "ms"),
        "op_tail_ms": (1e3 * statistics.fmean(tail), "ms"),
        "ok_share": (tally.ok / tally.requested, "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    pct = 100.0 * (tail_index(n_ops) + 1) / n_ops
    notes = {
        "setup_s": (f"median of {SETUP_RUNS} fresh interpreters, started "
                    "between passes"),
        "wall_s": f"mean over {len(passes)} passes of {n_ops} ops",
        "op_p50_ms": ("mean latency of the ops between p40 and p60 of a "
                      "pass, mean over passes"),
        "op_tail_ms": (f"p{pct:.1f} of {n_ops} ops per pass "
                       f"({n_ops - tail_index(n_ops) - 1} ops beyond it), "
                       "mean over passes"),
        "ok_share": (f"{tally.ok} ok of {tally.requested} rows requested: "
                     f"{tally.degraded} degraded, {tally.wrong} wrong, "
                     f"{tally.missing} missing"),
        "peak_rss_mb": "peak resident memory of this process",
    }
    return metrics, notes


def traced_run(runner, cli_main, seconds, record) -> tuple[dict, dict]:
    """Untraced passes for half the budget, then one traced pass."""
    untraced = runner.passes(seconds / 2)
    tracer = Tracer()
    op_ids = itertools.count()

    def traced_main(op_argv):
        tracer.op = next(op_ids)
        return tracer.call("cli.main", cli_main, (op_argv,))

    with tracer:
        traced_wall, _, traced = runner.run_pass(traced_main)
    values = layer_metrics(tracer.spans)
    values["runs.rows"] = traced.requested
    values["runs.degraded_rows"] = traced.degraded
    values["runs.failed_share"] = traced.failed / traced.requested
    values["trace.overhead_s"] = traced_wall - statistics.fmean(
        p[0] for p in untraced)
    record["layer_share_pct"] = layer_shares(values)
    record["spans"] = tracer.as_records()
    return {name: (value, unit_of(name)) for name, value in values.items()}, {}


def unit_of(name: str) -> str:
    if name.endswith((".busy_s", ".self_s", ".overhead_s")):
        return "s"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith((".per_exact", ".failed_share")):
        return "ratio"
    return "count"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": checkout_commit(),
    }


def checkout_commit() -> str | None:
    """The commit of a git checkout, or None (e.g. in an exported tree)."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        cli_main = load_cli()
        workload = WORKLOADS[args.workload]
        ops = workload.make_pass(args.seed)
        runner = Runner(cli_main, ops, load_reference(args.workload))
        setup = None if args.trace else SetupTimer(workload.warmup)
        _, rc, _, err = run_op(cli_main, workload.warmup)
        if rc != 0:
            raise BenchError(f"warm-up op exited {rc}: {err.strip()[-300:]}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts()}
    try:
        if args.trace:
            metrics, notes = traced_run(runner, cli_main, args.seconds, record)
        else:
            passes = runner.passes(args.seconds, setup)
            metrics, notes = end_to_end(passes, runner.tally, setup.median())
            record["passes"] = [{"wall_s": p[0], "latency_s": p[1]}
                                for p in passes]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tally = runner.tally
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  notes=notes, rows={"requested": tally.requested, "ok": tally.ok,
                                     "degraded": tally.degraded,
                                     "wrong": tally.wrong, "missing": tally.missing},
                  problems=tally.reasons)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops a pass; "
          f"record in {out_path.relative_to(ROOT)}")
    print("machine " + json.dumps(record["machine"]))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    if args.trace:
        print("self time by layer: " + ", ".join(
            f"{layer} {share:.1f}%"
            for layer, share in record["layer_share_pct"].items()))
    for reason in tally.reasons:
        print(f"problem: {reason}")
    correct = tally.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.ops,
        "failed": tally.failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
