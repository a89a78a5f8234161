#!/usr/bin/env python3
"""Record the reference outputs that run.py compares default-seed rows with.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every distinct op of each workload's default-seed pass once and
stores what ``cli.main`` printed in ``perfbench/reference/<workload>.json.gz``.
The committed files were recorded from the seed commit; re-record only to
add a workload, never to make a changed program pass.
"""

from __future__ import annotations

import sys

from check import save_reference
from run import load_cli, pin_threads, run_op
from workloads import DEFAULT_SEED, WORKLOADS


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    pin_threads()
    cli_main = load_cli()
    for name in names:
        outputs = {}
        for op in WORKLOADS[name].make_pass(DEFAULT_SEED):
            if op.argv not in outputs:
                _, rc, out, err = run_op(cli_main, op.argv)
                if rc not in (0, 2):
                    print(f"{' '.join(op.argv)} exited {rc}: {err}",
                          file=sys.stderr)
                    return 1
                outputs[op.argv] = out
        path = save_reference(name, DEFAULT_SEED, outputs)
        print(f"{name}: {len(outputs)} ops -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
