"""Command-line driver for single runs, convergence sweeps and verification.

Exit codes: 0 on success, 1 on runtime or I/O failure, 2 on usage errors,
including values the spec or the solver rejects (printed as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .reporting import emit_plot_script, write_csv
from .sweeps import (
    SweepResult,
    SweepSpec,
    run_spec,
    run_sweep,
    spatial_spec,
    stability_spec,
    temporal_spec,
)
from .verification import run_checks

__all__ = ["build_parser", "parse_args", "main"]


def _add_subcommand(subs, name: str, summary: str) -> argparse.ArgumentParser:
    """A subcommand with the flags every experiment takes.

    A flag left out is absent from the namespace, so the default of the
    subcommand's spec builder holds.
    """
    sub = subs.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    sub.add_argument("--N", type=int, help="half mode count")
    sub.add_argument("--T", type=float, help="final time")
    sub.add_argument("--amplitude", type=float, help="solitary wave amplitude")
    sub.add_argument("--p", type=int, help="nonlinearity power (only 2 has an exact reference)")
    sub.add_argument("--xmin", type=float, help="left domain boundary")
    sub.add_argument("--xmax", type=float, help="right domain boundary")
    sub.add_argument(
        "--bootstrap", choices=("exact", "self-start"), help="how to seed the u^{-1} level"
    )
    sub.add_argument("--out", help="CSV output path")
    sub.add_argument(
        "--emit-plot",
        action="store_true",
        help="also write a plot script next to the CSV",
    )
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boussinesq",
        description="Second-order pseudospectral solver for the good Boussinesq equation",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    run_p = _add_subcommand(subs, "run", "single solitary-wave run")
    steps = run_p.add_mutually_exclusive_group()
    steps.add_argument("--dt", type=float, help="time step")
    steps.add_argument("--nk", type=int, help="number of time steps")
    run_p.add_argument("--scheme", choices=("proposed", "frutos"), help="time scheme")

    space_p = _add_subcommand(subs, "sweep-space", "spatial spectral-accuracy sweep")
    space_p.add_argument("--dt", type=float, help="fixed time step")

    _add_subcommand(subs, "sweep-time", "temporal second-order sweep")

    stab_p = _add_subcommand(subs, "stability", "proposed vs three-level stability map")
    stab_p.add_argument("--dt", type=float, help="fixed time step")

    subs.add_parser("verify", help="fast invariant self-checks")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _write_outputs(result: SweepResult, args) -> None:
    out = getattr(args, "out", None)
    if out:
        write_csv(result, out)
        print(f"wrote {out}")
        if getattr(args, "emit_plot", False):
            base, _ = os.path.splitext(out)
            emit_plot_script(result, base + "_plot.py", os.path.basename(out))
            print(f"wrote {base}_plot.py")


# subcommand -> builder of its spec, the one home of its defaults
_SPEC_BUILDERS = {
    "run": run_spec,
    "sweep-space": spatial_spec,
    "sweep-time": temporal_spec,
    "stability": stability_spec,
}


def _spec_from_args(args) -> SweepSpec:
    """The subcommand's spec, with the fields of the given flags overridden."""
    given = vars(args)
    spec = _SPEC_BUILDERS[args.subcommand]()
    overrides = {
        field: given[flag]
        for flag, field in (("T", "T"), ("amplitude", "amplitude"), ("p", "power"), ("dt", "dt"))
        if flag in given
    }
    if "N" in given:
        overrides["N_list"] = (args.N,)
    if "nk" in given:
        overrides.update(nk_list=(args.nk,), dt=None)
    if "xmin" in given or "xmax" in given:
        xmin, xmax = spec.domain
        overrides["domain"] = (given.get("xmin", xmin), given.get("xmax", xmax))
    if "bootstrap" in given:
        overrides["bootstrap_mode"] = args.bootstrap.replace("-", "_")
    if "scheme" in given:
        overrides["schemes"] = (args.scheme,)
    return replace(spec, **overrides)


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
    results = run_checks()
    for name, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return 0 if all(p for _, p in results) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.subcommand == "verify":
            return _cmd_verify()
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
    except ValueError as exc:  # values the spec or the solver rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
