"""Convergence and stability experiments over the solitary-wave benchmark.

Default constants reproduce the published study: domain (-40, 40),
amplitude 0.5, final time T = 4; the spatial sweep fixes dt = 1e-4 over
N = 32..128 in steps of 8, the temporal sweep fixes N = 512 over
N_K = 100..1000 steps in increments of 100, and a single run steps
dt = 4e-3 at N = 512.  These defaults live in ``SweepSpec``'s field
defaults and the four spec builders only.  Each builder makes its spec in
one construction, from its defaults merged with the fields it is given;
each CLI subcommand carries its builder and gives it the fields of the
flags it was given, so a command makes one spec.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .diagnostics import error_norms, mass
from .spectral import Grid, _check_integer, _check_real
from .stepping import SCHEMES, _check_run, bootstrap, run_batch
from .waves import SolitaryWaveParams, _problem

__all__ = [
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_spec",
    "spatial_spec",
    "temporal_spec",
    "stability_spec",
    "run_sweep",
    "fit_order",
]


@dataclass(frozen=True)
class SweepSpec:
    """Configuration of one experiment: the (scheme, N, dt) runs it makes.

    ``kind`` is "spatial", "temporal", "stability" or "run" (one CLI run).
    Every N of ``N_list`` is run with every scheme of ``schemes``, stepping
    either the fixed ``dt`` or T / nk for every nk of ``nk_list``: exactly
    one of the two is given.  A temporal sweep steps by ``nk_list`` at its
    one N with its one scheme.  A spec that constructs runs: its own rules,
    then stepping's rules on each run, then each grid and the amplitude are
    checked here.
    """

    kind: str
    N_list: tuple[int, ...]
    dt: float | None = None
    nk_list: tuple[int, ...] | None = None
    T: float = 4.0
    amplitude: float = 0.5
    domain: tuple[float, float] = (-40.0, 40.0)
    schemes: tuple[str, ...] = ("proposed",)
    bootstrap_mode: str = "exact"

    def __post_init__(self):
        if self.kind not in ("spatial", "temporal", "stability", "run"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.N_list:
            raise ValueError("N_list must be nonempty")
        if len(set(self.schemes)) < len(self.schemes) or not self.schemes:
            raise ValueError(f"schemes must be proposed, frutos or both, got {self.schemes}")
        # every entry is an integer before any is compared
        for N in self.N_list:
            _check_integer(N, 1, "half_modes")
        if list(self.N_list) != sorted(set(self.N_list)):
            raise ValueError("N_list must be strictly increasing")
        if (self.dt is None) == (self.nk_list is None):
            raise ValueError("give exactly one of a fixed dt and nk_list")
        if self.nk_list is not None:
            nks = list(self.nk_list)
            for nk in nks:
                # a count below 1 is left to the order rule's message
                if not (isinstance(nk, (int, np.integer)) and nk < 1):
                    _check_integer(nk, 1, "a step count")
            if not nks or nks[0] <= 0 or nks != sorted(set(nks)):
                raise ValueError(
                    f"step counts must be positive and strictly increasing, got {self.nk_list}"
                )
        # the orders are fitted over all rows: one N and scheme, two step sizes at least
        if self.kind == "temporal" and (
            len(self.N_list) != 1 or len(self.schemes) != 1 or len(self.nk_list or ()) < 2
        ):
            raise ValueError("a temporal sweep needs two or more step counts, one N, one scheme")
        _check_real(self.T, "final time")
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if np.shape(self.domain) != (2,):
            raise ValueError(f"domain must be two bounds (xmin, xmax), got {self.domain}")
        for bound in self.domain:
            _check_real(bound, "a domain bound")
        if not -np.inf < self.domain[0] < self.domain[1] < np.inf:
            raise ValueError(f"domain must be finite with xmin < xmax, got {self.domain}")
        for scheme, dt in self.runs:
            _check_run(scheme, dt, self.T, self.bootstrap_mode)
        for N in self.N_list:
            self._grid(N)
        SolitaryWaveParams(self.amplitude)

    @property
    def runs(self) -> list[tuple[str, float]]:
        """The (scheme, dt) of every run on each grid."""
        dts = [self.T / nk for nk in self.nk_list] if self.nk_list else [self.dt]
        return [(scheme, dt) for scheme in self.schemes for dt in dts]

    def _grid(self, N: int) -> Grid:
        """The grid of the runs at half mode count N."""
        return Grid(half_modes=N, length=self.domain[1] - self.domain[0], x_left=self.domain[0])


@dataclass(frozen=True)
class SweepRow:
    """One run's summary: resolution, step size and final error norms.

    ``wall_seconds`` is the run's stepping time.  All runs on one grid, of
    any scheme and step size, are stepped in one batch, whose time is shared
    in proportion to the steps each run took (up to blow-up if it diverged),
    so the rows of a sweep still sum to its stepping time.
    """

    kind: str
    scheme: str
    N: int
    dt: float
    K: int
    T: float
    err_psi_l2: float
    err_u_h2: float
    err_u_l2: float
    mass_drift: float
    diverged: bool
    wall_seconds: float


@dataclass(frozen=True)
class SweepResult:
    """Sweep rows plus, for temporal sweeps, fitted convergence orders."""

    spec: SweepSpec  # read by ``benchmarks/`` until ROADMAP direction 3
    rows: tuple[SweepRow, ...]
    fitted_orders: dict | None = None


def run_spec(**overrides) -> SweepSpec:
    """One run of the proposed scheme: N = 512, dt = 4e-3."""
    defaults = dict(kind="run", N_list=(512,), dt=4e-3)
    return SweepSpec(**{**defaults, **overrides})


def spatial_spec(**overrides) -> SweepSpec:
    """The published spatial-accuracy sweep: N = 32..128 step 8, dt = 1e-4."""
    defaults = dict(kind="spatial", N_list=tuple(range(32, 136, 8)), dt=1e-4)
    return SweepSpec(**{**defaults, **overrides})


def temporal_spec(**overrides) -> SweepSpec:
    """The published temporal-accuracy sweep: N = 512, N_K = 100..1000 step 100."""
    defaults = dict(kind="temporal", N_list=(512,), nk_list=tuple(range(100, 1100, 100)))
    return SweepSpec(**{**defaults, **overrides})


def stability_spec(**overrides) -> SweepSpec:
    """Pilot-calibrated stability comparison of the two schemes.

    The fixed step, resolution ladder and horizon were chosen by doubling
    N until the three-level scheme diverges well before T while the
    proposed scheme still completes.  The three-level scheme's growth rate
    is capped near exp(t/2), so the contrast needs a horizon much longer
    than the accuracy experiments use; T = 100 at dt = 0.1 trips it at
    N = 512 while every proposed-scheme run stays bounded.
    """
    defaults = dict(kind="stability", N_list=(64, 128, 256, 512), dt=0.1, T=100.0, schemes=SCHEMES)
    return SweepSpec(**{**defaults, **overrides})


def _sweep_row(spec: SweepSpec, scheme: str, problem, params, dt, final, wall) -> SweepRow:
    """Summarize one run's final state against the exact wave as a sweep row."""
    err_psi = err_h2 = err_l2 = drift = float("inf")
    if not final.diverged:
        record = error_norms(final, params)
        err_psi, err_h2, err_l2 = record.err_psi_l2, record.err_u_h2, record.err_u_l2
        # the scheme keeps mass(t) = mass(0) + t * rate, the rate its start sets
        start, grid = bootstrap(problem, dt, spec.bootstrap_mode, params), problem.grid
        mass0 = mass(grid, start.u_curr)
        rate = (mass(grid, start.psi_curr) if scheme == "proposed"
                else (mass0 - mass(grid, start.u_prev)) / dt)
        law = mass(grid, final.u_curr) - mass0 - final.time * rate
        drift = abs(law) / max(abs(mass0), 1e-300)
    return SweepRow(
        kind=spec.kind,
        scheme=scheme,
        N=problem.grid.half_modes,
        dt=dt,
        K=int(round(spec.T / dt)),
        T=spec.T,
        err_psi_l2=err_psi,
        err_u_h2=err_h2,
        err_u_l2=err_l2,
        mass_drift=drift,
        diverged=final.diverged,
        wall_seconds=wall,
    )


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every (scheme, N, dt) of a spec, with all the runs on one grid in one batch.

    Rows come scheme by scheme, N by N, then step size by step size; the
    batch's stepping time is split between its rows as :class:`SweepRow`
    says.  Divergence is data: a row that blows up before T is flagged and
    the sweep goes on.  Orders are fitted for temporal sweeps only.
    """
    params = SolitaryWaveParams(spec.amplitude)
    runs = spec.runs
    rows = []
    for N in spec.N_list:
        problem = _problem(params, spec._grid(N))
        start = _time.perf_counter()
        finals = run_batch(problem, runs, spec.T, spec.bootstrap_mode, params)
        taken = sum(final.step_index for final in finals)
        per_step = (_time.perf_counter() - start) / max(taken, 1)
        rows.extend(
            _sweep_row(spec, scheme, problem, params, dt, final, per_step * final.step_index)
            for (scheme, dt), final in zip(runs, finals)
        )
    # scheme by scheme; the sort is stable, so N by N and dt by dt within a scheme
    rows.sort(key=lambda row: spec.schemes.index(row.scheme))
    fitted = None
    if spec.kind == "temporal":
        fitted = {
            key: fit_order([row.dt for row in rows], [getattr(row, key) for row in rows])
            for key in ("err_psi_l2", "err_u_h2")
        }
    return SweepResult(spec=spec, rows=tuple(rows), fitted_orders=fitted)


def fit_order(dts, errors) -> float:
    """Least-squares slope of log(error) against log(dt).

    Rows with non-finite or non-positive errors are dropped; duplicate dt
    values collapse to their first occurrence.  Every dt must be positive and
    finite, with one error each.
    """
    if len(dts) != len(errors):
        raise ValueError(f"order fit got {len(dts)} step sizes and {len(errors)} errors")
    if not all(0 < dt < np.inf for dt in dts):
        raise ValueError("order fit needs positive, finite step sizes")
    seen = {}
    for dt, err in zip(dts, errors):
        if np.isfinite(err) and err > 0 and dt not in seen:
            seen[dt] = err
    if len(seen) < 2:
        raise ValueError("order fit needs at least two distinct usable step sizes")
    log_dt = np.log(np.array(list(seen.keys())))
    log_err = np.log(np.array(list(seen.values())))
    return float(np.polyfit(log_dt, log_err, 1)[0])
