"""Command-line front end.

Subcommands
-----------
``table1``
    Strong-coupling benchmark scan (z = 10) against published values.
``table2``
    Coupling/temperature benchmark scan (m = omega = 1) against
    published values, including the published cumulant-expansion and
    exact columns as quoted constants.
``fig1`` / ``fig2`` / ``fig3``
    The data series behind the three standard plots (CSV-style data
    only; rendering is left to external tools).
``point``
    Evaluate one parameter point, optionally with the exact-
    diagonalization oracle (``--exact``) and the diagram-quadrature
    oracle (``--quad``).
``sweep``
    Evaluate a grid over one physical variable.
``oracle-check``
    Compare each closed-form correction with its quadrature value and
    report relative gaps.

Exit codes: 0 success; 1 invalid request; 2 a numerical result failed to
converge (the affected rows are still emitted, marked degraded).

``main`` builds the parser on its first call and reuses it for every later
call in the process; importing this module builds none.  The ``run_*``
drivers and ``render_rows`` are looked up in this module at call time, not
bound into the parser, so a name replaced after import is the one called.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import ModelParams, RescaledParams, unrescale
from .errors import ConvergenceError, ValidationError
from .runs import (
    FIGURE_DEFAULT_RESOLUTION,
    OUTPUT_FORMATS,
    SWEEP_VARIABLES,
    exit_code_for,
    render_rows,
    run_figure,
    run_oracle_check,
    run_point,
    run_sweep,
    run_table1,
    run_table2,
)
from .series import VALID_ORDERS


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=OUTPUT_FORMATS, default="csv",
                   help="output format (default: csv)")
    p.add_argument("--out", metavar="PATH",
                   help="write output to PATH instead of stdout")


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, metavar="FLOAT",
                   help="quartic coupling (default 1; also the realization "
                        "coupling in reduced mode)")
    p.add_argument("--omega", type=float, metavar="FLOAT",
                   help="bare frequency (default 1)")
    p.add_argument("--mass", type=float, metavar="FLOAT",
                   help="mass (default 1)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float, metavar="FLOAT",
                       help="inverse temperature (default 1)")
    group.add_argument("--temp", type=float, metavar="FLOAT",
                       help="temperature, alternative to --beta")
    p.add_argument("--z", type=float, metavar="FLOAT",
                   help="reduced coupling parameter; with --t-reduced selects "
                        "reduced mode")
    p.add_argument("--t-reduced", type=float, metavar="FLOAT",
                   help="reduced temperature; with --z selects reduced mode")


def _add_order_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, choices=VALID_ORDERS, default=4,
                   help="highest correction order to include (default 4)")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the whole command line."""
    parser = _Parser(
        prog="quartic-vpe",
        description="Free energy of the quartic anharmonic oscillator by "
                    "variational perturbation expansion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="benchmark scan at z = 10",
                       description=run_table1.__doc__)
    p.add_argument("--exact", action="store_true",
                   help="add the exact-diagonalization column")
    _add_output_flags(p)

    p = sub.add_parser("table2", help="benchmark scan at m = omega = 1",
                       description=run_table2.__doc__)
    p.add_argument("--exact", action="store_true",
                   help="add the exact-diagonalization column")
    _add_output_flags(p)

    for which in FIGURE_DEFAULT_RESOLUTION:
        p = sub.add_parser(which, help=f"data series behind {which}",
                           description=run_figure.__doc__)
        p.add_argument("--points", type=int, metavar="N",
                       help="grid resolution (per curve)")
        _add_output_flags(p)

    p = sub.add_parser("point", help="evaluate one parameter point",
                       description=run_point.__doc__)
    _add_param_flags(p)
    _add_order_flag(p)
    p.add_argument("--exact", action="store_true",
                   help="add the exact-diagonalization oracle")
    p.add_argument("--quad", action="store_true",
                   help="add the diagram-quadrature oracle per order")
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="evaluate a grid over one variable",
                       description=run_sweep.__doc__)
    _add_param_flags(p)
    p.add_argument("--var", required=True,
                   choices=SWEEP_VARIABLES,
                   help="variable to sweep")
    p.add_argument("--from", dest="start", type=float, required=True,
                   metavar="FLOAT", help="first grid value")
    p.add_argument("--to", dest="stop", type=float, required=True,
                   metavar="FLOAT", help="last grid value")
    p.add_argument("--points", type=int, default=10, metavar="N",
                   help="number of grid points (default 10)")
    p.add_argument("--log", action="store_true",
                   help="use geometric instead of linear spacing")
    _add_order_flag(p)
    p.add_argument("--exact", action="store_true",
                   help="add the exact-diagonalization oracle")
    p.add_argument("--quad", action="store_true",
                   help="add the diagram-quadrature oracle per order")
    _add_output_flags(p)

    p = sub.add_parser("oracle-check",
                       help="closed forms vs diagram quadrature",
                       description=run_oracle_check.__doc__)
    _add_param_flags(p)
    _add_order_flag(p)
    p.add_argument("--tol", type=float, metavar="FLOAT",
                   help="relative agreement tolerance (default: per-order)")
    _add_output_flags(p)

    return parser


def _resolve_point(args) -> ModelParams:
    """Build the requested point from flags; reduced and physical modes.

    A reduced point is realized with mass 1 at coupling ``--lambda``.
    """
    lam = 1.0 if args.lam is None else args.lam
    if args.z is not None or args.t_reduced is not None:
        if args.z is None or args.t_reduced is None:
            raise ValidationError("reduced mode needs both --z and --t-reduced")
        if any(v is not None for v in (args.omega, args.mass, args.beta,
                                       args.temp)):
            raise ValidationError(
                "give either reduced flags (--z/--t-reduced) or physical "
                "flags (--omega/--mass/--beta/--temp), not both"
            )
        return unrescale(RescaledParams(z=args.z, t_reduced=args.t_reduced), lam=lam)
    omega = 1.0 if args.omega is None else args.omega
    mass = 1.0 if args.mass is None else args.mass
    if args.temp is not None:
        if args.temp <= 0.0:
            raise ValidationError(f"temp must be positive, got {args.temp}")
        beta = 1.0 / args.temp
    else:
        beta = 1.0 if args.beta is None else args.beta
    return ModelParams(m=mass, omega=omega, lam=lam, beta=beta)


def _dispatch(args) -> list:
    if args.command == "table1":
        return run_table1(exact=args.exact)
    if args.command == "table2":
        return run_table2(exact=args.exact)
    if args.command in FIGURE_DEFAULT_RESOLUTION:
        return run_figure(args.command, args.points)
    if args.command == "point":
        return [run_point(_resolve_point(args), max_order=args.order,
                          exact=args.exact, quad=args.quad)]
    if args.command == "sweep":
        if args.z is not None or args.t_reduced is not None:
            raise ValidationError("sweep works on physical variables; "
                                  "reduced flags are not supported here")
        return run_sweep(_resolve_point(args), args.var, args.start,
                         args.stop, args.points,
                         max_order=args.order, exact=args.exact,
                         quad=args.quad, log_spacing=args.log)
    # the subparsers are required, so the one command left is oracle-check
    return run_oracle_check(_resolve_point(args), max_order=args.order,
                            tol=args.tol)


# Built by the first main() call and shared by the later ones: parsing
# leaves a parser unchanged, so no call sees another call's arguments.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        rows = _dispatch(args)
        text = render_rows(rows, args.format)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return exit_code_for(rows)


if __name__ == "__main__":
    sys.exit(main())
