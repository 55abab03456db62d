"""Convergence and stability experiments over the solitary-wave benchmark.

Default constants reproduce the published study: domain (-40, 40),
amplitude 0.5, final time T = 4; the spatial sweep fixes dt = 1e-4 over
N = 32..128 in steps of 8, the temporal sweep fixes N = 512 over
N_K = 100..1000 steps in increments of 100.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import mass
from .spectral import Grid, derivative, norm2
from .stepping import RunResult, run, run_batch
from .waves import (
    GBProblem,
    params_from_amplitude,
    solitary_wave,
    solitary_wave_dt,
)

__all__ = [
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "spatial_spec",
    "temporal_spec",
    "stability_spec",
    "run_spatial_sweep",
    "run_temporal_sweep",
    "run_stability_experiment",
    "single_run",
    "fit_order",
]


@dataclass(frozen=True)
class SweepSpec:
    """Configuration of one experiment sweep."""

    kind: str  # "spatial" | "temporal" | "stability"
    N_list: tuple[int, ...]
    dt: float | None = None
    nk_list: tuple[int, ...] | None = None
    T: float = 4.0
    amplitude: float = 0.5
    domain: tuple[float, float] = (-40.0, 40.0)
    schemes: tuple[str, ...] = ("proposed",)
    bootstrap_mode: str = "exact"
    power: int = 2

    def __post_init__(self):
        if self.kind not in ("spatial", "temporal", "stability"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if not self.N_list:
            raise ValueError("N_list must be nonempty")
        if list(self.N_list) != sorted(set(self.N_list)):
            raise ValueError("N_list must be strictly increasing")
        if self.kind == "temporal":
            if not self.nk_list:
                raise ValueError("temporal sweep needs nk_list")
            if list(self.nk_list) != sorted(set(self.nk_list)):
                raise ValueError("nk_list must be strictly increasing")
        elif self.dt is None or not self.dt > 0:
            raise ValueError(f"{self.kind} sweep needs a positive fixed dt")
        if not self.T > 0:
            raise ValueError("final time must be positive")


@dataclass(frozen=True)
class SweepRow:
    """One run's summary: resolution, step size and final error norms.

    ``wall_seconds`` is the run's stepping time.  Runs stepped together in
    one batch share the batch's time in proportion to their step counts K,
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

    spec: SweepSpec
    rows: tuple[SweepRow, ...]
    fitted_orders: dict | None = None


def spatial_spec(**overrides) -> SweepSpec:
    """The published spatial-accuracy sweep: N = 32..128 step 8, dt = 1e-4."""
    base = SweepSpec(kind="spatial", N_list=tuple(range(32, 136, 8)), dt=1e-4)
    return replace(base, **overrides) if overrides else base


def temporal_spec(**overrides) -> SweepSpec:
    """The published temporal-accuracy sweep: N = 512, N_K = 100..1000 step 100."""
    base = SweepSpec(
        kind="temporal",
        N_list=(512,),
        nk_list=tuple(range(100, 1100, 100)),
    )
    return replace(base, **overrides) if overrides else base


def stability_spec(**overrides) -> SweepSpec:
    """Pilot-calibrated stability comparison of the two schemes.

    The fixed step, resolution ladder and horizon were chosen by doubling
    N until the three-level scheme diverges well before T while the
    proposed scheme still completes.  The three-level scheme's growth rate
    is capped near exp(t/2), so the contrast needs a horizon much longer
    than the accuracy experiments use; T = 100 at dt = 0.1 trips it at
    N = 512 while every proposed-scheme run stays bounded.
    """
    base = SweepSpec(
        kind="stability",
        N_list=(64, 128, 256, 512),
        dt=0.1,
        T=100.0,
        schemes=("proposed", "frutos"),
    )
    return replace(base, **overrides) if overrides else base


def _solitary(spec: SweepSpec, N: int):
    """The solitary-wave problem of a spec on the N grid, and its wave."""
    grid = Grid(half_modes=N, length=spec.domain[1] - spec.domain[0], x_left=spec.domain[0])
    params = params_from_amplitude(spec.amplitude)
    problem = GBProblem(
        power=spec.power,
        grid=grid,
        initial_u=solitary_wave(params, grid.nodes, 0.0),
        initial_ut=solitary_wave_dt(params, grid.nodes, 0.0),
    )
    return problem, params


def _sweep_row(
    spec: SweepSpec,
    scheme: str,
    problem: GBProblem,
    params,
    dt: float,
    result: RunResult,
    wall: float,
    kind: str | None = None,
) -> SweepRow:
    """Summarize one run's result against the exact wave as a sweep row."""
    grid = problem.grid
    state = result.state
    if result.diverged:
        err_psi = err_h2 = err_l2 = drift = float("inf")
    else:
        u_exact = solitary_wave(params, grid.nodes, state.time)
        u_err = state.u_curr - u_exact
        err_h2 = norm2(grid, derivative(grid, u_err, 2))
        err_l2 = norm2(grid, u_err)
        if hasattr(state, "psi_curr"):
            psi_exact = solitary_wave_dt(params, grid.nodes, state.time)
            err_psi = norm2(grid, state.psi_curr - psi_exact)
        else:
            # three-level scheme has no psi variable
            err_psi = float("nan")
        mass0 = mass(grid, problem.initial_u)
        drift = abs(mass(grid, state.u_curr) - mass0) / max(abs(mass0), 1e-300)
    return SweepRow(
        kind=kind or spec.kind,
        scheme=scheme,
        N=grid.half_modes,
        dt=dt,
        K=int(round(spec.T / dt)),
        T=spec.T,
        err_psi_l2=err_psi,
        err_u_h2=err_h2,
        err_u_l2=err_l2,
        mass_drift=drift,
        diverged=result.diverged,
        wall_seconds=wall,
    )


def single_run(
    spec: SweepSpec, scheme: str, N: int, dt: float, kind: str | None = None
) -> SweepRow:
    """Run one benchmark configuration and summarize it as a sweep row."""
    problem, params = _solitary(spec, N)
    start = _time.perf_counter()
    result = run(problem, dt, spec.T, scheme, spec.bootstrap_mode, params)
    wall = _time.perf_counter() - start
    return _sweep_row(spec, scheme, problem, params, dt, result, wall, kind)


def run_spatial_sweep(spec: SweepSpec | None = None) -> SweepResult:
    """Fixed small dt, increasing N; errors should fall spectrally then saturate."""
    spec = spec or spatial_spec()
    if spec.kind != "spatial":
        raise ValueError("expected a spatial sweep spec")
    rows = tuple(single_run(spec, spec.schemes[0], N, spec.dt) for N in spec.N_list)
    return SweepResult(spec=spec, rows=rows)


def run_temporal_sweep(spec: SweepSpec | None = None) -> SweepResult:
    """Fixed N, decreasing dt; fits the observed temporal order.

    Every step size runs as one row of a single batch.
    """
    spec = spec or temporal_spec()
    if spec.kind != "temporal":
        raise ValueError("expected a temporal sweep spec")
    scheme = spec.schemes[0]
    problem, params = _solitary(spec, spec.N_list[-1])
    dts = [spec.T / nk for nk in spec.nk_list]
    start = _time.perf_counter()
    results = run_batch(
        problem, dts, spec.T, scheme=scheme, bootstrap_mode=spec.bootstrap_mode, params=params
    )
    per_step = (_time.perf_counter() - start) / sum(spec.nk_list)
    rows = tuple(
        _sweep_row(spec, scheme, problem, params, dt, result, per_step * nk)
        for dt, nk, result in zip(dts, spec.nk_list, results)
    )
    fitted = {
        "err_psi_l2": fit_order(dts, [row.err_psi_l2 for row in rows]),
        "err_u_h2": fit_order(dts, [row.err_u_h2 for row in rows]),
    }
    return SweepResult(spec=spec, rows=rows, fitted_orders=fitted)


def run_stability_experiment(spec: SweepSpec | None = None) -> SweepResult:
    """Run both schemes over the resolution ladder at one fixed dt.

    Divergence is data here: the rows record which (scheme, N) pairs blow
    up before T.
    """
    spec = spec or stability_spec()
    if spec.kind != "stability":
        raise ValueError("expected a stability sweep spec")
    rows = tuple(
        single_run(spec, scheme, N, spec.dt)
        for scheme in spec.schemes
        for N in spec.N_list
    )
    return SweepResult(spec=spec, rows=rows)


def fit_order(dts, errors) -> float:
    """Least-squares slope of log(error) against log(dt).

    Rows with non-finite or non-positive errors are dropped; duplicate dt
    values collapse to their first occurrence.
    """
    seen = {}
    for dt, err in zip(dts, errors):
        if np.isfinite(err) and err > 0 and dt not in seen:
            seen[dt] = err
    if len(seen) < 2:
        raise ValueError("order fit needs at least two distinct usable step sizes")
    log_dt = np.log(np.array(list(seen.keys())))
    log_err = np.log(np.array(list(seen.values())))
    return float(np.polyfit(log_dt, log_err, 1)[0])
