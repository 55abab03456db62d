"""Command-line driver for single runs, convergence sweeps and verification.

Exit codes: 0 on success, 1 on runtime or I/O failure, 2 on usage errors,
including values the spec or the solver rejects (printed as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import sys

from .reporting import write_csv
from .stepping import SCHEMES
from .sweeps import (
    SweepResult,
    SweepSpec,
    run_spec,
    run_sweep,
    spatial_spec,
    stability_spec,
    temporal_spec,
)
from .verification import measure_checks

__all__ = ["build_parser", "main"]


def _add_subcommand(subs, name: str, summary: str, builder) -> argparse.ArgumentParser:
    """A subcommand with the flags every experiment takes, carrying its spec builder.

    A flag left out is absent from the namespace, so the default of the
    subcommand's spec builder holds.
    """
    sub = subs.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    sub.set_defaults(builder=builder)
    sub.add_argument("--N", type=int, help="half mode count")
    sub.add_argument("--T", type=float, help="final time")
    sub.add_argument("--xmin", type=float, help="left domain boundary")
    sub.add_argument("--xmax", type=float, help="right domain boundary")
    sub.add_argument("--out", help="CSV output path")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boussinesq",
        description="Second-order pseudospectral solver for the good Boussinesq equation",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    run_p = _add_subcommand(subs, "run", "single solitary-wave run", run_spec)
    run_p.add_argument("--dt", type=float, help="time step")
    run_p.add_argument("--scheme", choices=SCHEMES, help="time scheme")

    space_p = _add_subcommand(subs, "sweep-space", "spatial spectral-accuracy sweep", spatial_spec)
    space_p.add_argument("--dt", type=float, help="fixed time step")
    _add_subcommand(subs, "sweep-time", "temporal second-order sweep", temporal_spec)
    stab_p = _add_subcommand(
        subs, "stability", "proposed vs three-level stability map", stability_spec
    )
    stab_p.add_argument("--dt", type=float, help="fixed time step")

    subs.add_parser("verify", help="fast invariant self-checks")
    return parser


def _write_outputs(result: SweepResult, args) -> None:
    out = getattr(args, "out", None)
    if out:
        write_csv(result, out)
        print(f"wrote {out}")


def _spec_from_args(args) -> SweepSpec:
    """The subcommand's spec, made by its builder with the fields of the given flags."""
    given = vars(args)
    overrides = {field: given[field] for field in ("T", "dt") if field in given}
    if "N" in given:
        overrides["N_list"] = (args.N,)
    if "xmin" in given or "xmax" in given:
        # no builder sets the domain, so a bound not given keeps the field's default
        xmin, xmax = SweepSpec.domain
        overrides["domain"] = (given.get("xmin", xmin), given.get("xmax", xmax))
    if "scheme" in given:
        overrides["schemes"] = (args.scheme,)
    return args.builder(**overrides)


def _print_rows(result: SweepResult) -> None:
    for row in result.rows:
        flag = " DIVERGED" if row.diverged else ""
        print(
            f"{row.scheme:9s} N={row.N:5d} dt={row.dt:.3e} "
            f"err_psi_l2={row.err_psi_l2:.6e} err_u_h2={row.err_u_h2:.6e}{flag}"
        )
    if result.fitted_orders:
        print(
            "fitted orders: psi {err_psi_l2:.3f}, u (H2) {err_u_h2:.3f}".format(
                **result.fitted_orders
            )
        )


def _cmd_verify() -> int:
    results = measure_checks()
    for name, value, bound, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}  {value:.3g} (bound {bound:.3g})")
    return 0 if all(passed for *_, passed in results) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "verify":
            return _cmd_verify()
        if getattr(args, "out", None) == "":
            raise ValueError("--out needs a path")
        result = run_sweep(_spec_from_args(args))
        if args.subcommand == "run":
            row = result.rows[0]
            print(
                f"{'diverged' if row.diverged else 'completed'}: scheme={row.scheme} "
                f"N={row.N} dt={row.dt:g} K={row.K} err_psi_l2={row.err_psi_l2:.3e} "
                f"err_u_h2={row.err_u_h2:.3e} wall={row.wall_seconds:.2f}s"
            )
        else:
            _print_rows(result)
        _write_outputs(result, args)
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid or a batch larger than the memory available
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except ValueError as exc:  # values the spec or the solver rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
