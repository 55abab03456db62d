"""Command-line driver for single runs, convergence sweeps and verification.

Exit codes: 0 on success, 1 on runtime or I/O failure, 2 on usage errors,
including inputs the solver rejects (printed as one ``error:`` line).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .reporting import emit_plot_script, write_csv
from .sweeps import (
    SweepResult,
    SweepSpec,
    run_sweep,
    spatial_spec,
    stability_spec,
    temporal_spec,
)
from .verification import run_checks

__all__ = ["build_parser", "parse_args", "main"]


def _add_common_flags(sub, N_default):
    sub.add_argument("--N", type=int, default=N_default, help="half mode count")
    sub.add_argument("--T", type=float, default=4.0, help="final time")
    sub.add_argument("--amplitude", type=float, default=0.5, help="solitary wave amplitude")
    sub.add_argument(
        "--p", type=int, default=2, help="nonlinearity power (only 2 has an exact reference)"
    )
    sub.add_argument("--xmin", type=float, default=-40.0, help="left domain boundary")
    sub.add_argument("--xmax", type=float, default=40.0, help="right domain boundary")
    sub.add_argument(
        "--bootstrap",
        choices=("exact", "self-start"),
        default="exact",
        help="how to seed the u^{-1} level",
    )
    sub.add_argument("--out", default=None, help="CSV output path")
    sub.add_argument(
        "--emit-plot",
        action="store_true",
        help="also write a plot script next to the CSV",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boussinesq",
        description="Second-order pseudospectral solver for the good Boussinesq equation",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    run_p = subs.add_parser("run", help="single solitary-wave run")
    _add_common_flags(run_p, N_default=512)
    run_p.add_argument("--dt", type=float, default=None, help="time step")
    run_p.add_argument("--nk", type=int, default=None, help="number of time steps")
    run_p.add_argument(
        "--scheme", choices=("proposed", "frutos"), default="proposed", help="time scheme"
    )

    space_p = subs.add_parser("sweep-space", help="spatial spectral-accuracy sweep")
    _add_common_flags(space_p, N_default=None)
    space_p.add_argument("--dt", type=float, default=1e-4, help="fixed time step")

    time_p = subs.add_parser("sweep-time", help="temporal second-order sweep")
    _add_common_flags(time_p, N_default=512)

    stab_p = subs.add_parser("stability", help="proposed vs three-level stability map")
    _add_common_flags(stab_p, N_default=None)
    stab_p.add_argument("--dt", type=float, default=0.1, help="fixed time step")
    # the contrast needs a long horizon; see sweeps.stability_spec
    stab_p.set_defaults(T=100.0)

    subs.add_parser("verify", help="fast invariant self-checks")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "verify":
        return args
    if args.subcommand == "run":
        if args.dt is not None and args.nk is not None:
            parser.error("--dt and --nk are mutually exclusive")
        if args.dt is None and args.nk is None:
            args.dt = 4e-3
        elif args.dt is None:
            if args.nk <= 0:
                parser.error("--nk must be positive")
            args.dt = args.T / args.nk
    if getattr(args, "dt", None) is not None and args.dt <= 0:
        parser.error("--dt must be positive")
    if args.T <= 0:
        parser.error("--T must be positive")
    if args.xmin >= args.xmax:
        parser.error("--xmin must be below --xmax")
    return args


def _write_outputs(result: SweepResult, args) -> None:
    if args.out:
        write_csv(result, args.out)
        print(f"wrote {args.out}")
        if args.emit_plot:
            base, _ = os.path.splitext(args.out)
            emit_plot_script(result, base + "_plot.py", os.path.basename(args.out))
            print(f"wrote {base}_plot.py")


# subcommand -> builder of its spec from the overrides the flags give
_SPEC_BUILDERS = {
    "run": functools.partial(SweepSpec, "run"),
    "sweep-space": spatial_spec,
    "sweep-time": temporal_spec,
    "stability": stability_spec,
}


def _spec_from_args(args) -> SweepSpec:
    overrides = dict(
        T=args.T,
        amplitude=args.amplitude,
        domain=(args.xmin, args.xmax),
        power=args.p,
        bootstrap_mode=args.bootstrap.replace("-", "_"),
    )
    if getattr(args, "dt", None) is not None:  # sweep-time steps by nk_list
        overrides["dt"] = args.dt
    if args.N is not None:
        overrides["N_list"] = (args.N,)
    if args.subcommand == "run":
        overrides["schemes"] = (args.scheme,)
    return _SPEC_BUILDERS[args.subcommand](**overrides)


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
    except ValueError as exc:  # inputs the parser accepts but the solver rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
