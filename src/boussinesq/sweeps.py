"""Convergence and stability experiments over the solitary-wave benchmark.

Every experiment solves the solitary wave of amplitude ``AMPLITUDE`` = 0.5
from its exact start.  The other defaults reproduce the published study:
domain (-40, 40), final time T = 4; the spatial sweep fixes dt = 1e-4 over
N = 32..128 in steps of 8, the temporal sweep fixes N = 512 over the
``STEP_COUNTS`` N_K = 100..1000 in increments of 100, and a single run
steps dt = 4e-3 at N = 512.  These defaults live in the two module
constants, ``SweepSpec``'s field defaults and the four spec builders only.
Each builder makes its spec in one construction, from its defaults merged
with the fields it is given; each CLI subcommand carries its builder and
gives it the fields of the flags it was given, so a command makes one spec.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from .diagnostics import error_norms, mass
from .spectral import DENSE_MAX_POINTS, Grid, _check_integer, _check_real
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

AMPLITUDE = 0.5  # of the solitary wave that every experiment solves
STEP_COUNTS = tuple(range(100, 1100, 100))  # N_K of the temporal sweep; it steps T / N_K


@dataclass(frozen=True)
class SweepSpec:
    """Configuration of one experiment: the (scheme, N, dt) runs it makes.

    ``kind`` is "spatial", "temporal", "stability" or "run" (one CLI run).
    Every N of ``N_list`` is run with every scheme of ``schemes``, stepping
    the fixed ``dt``.  A temporal sweep takes no ``dt``: it steps T / N_K for
    every N_K of ``STEP_COUNTS``, at its one N with the proposed scheme.  A
    spec that constructs runs: its own rules, stepping's rules on each run
    from the exact start, and each grid are checked here.
    """

    kind: str
    N_list: tuple[int, ...]
    dt: float | None = None
    T: float = 4.0
    domain: tuple[float, float] = (-40.0, 40.0)
    schemes: tuple[str, ...] = ("proposed",)

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
        if (self.dt is None) != (self.kind == "temporal"):
            raise ValueError("a temporal sweep takes no dt, and every other kind needs one")
        # the orders are fitted over all rows, psi's too: one N, the proposed scheme
        if self.kind == "temporal" and (len(self.N_list) != 1 or self.schemes != ("proposed",)):
            raise ValueError("a temporal sweep needs one N, the proposed scheme")
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
            _check_run(scheme, dt, self.T, "exact")
        for N in self.N_list:
            self._grid(N)

    @property
    def runs(self) -> list[tuple[str, float]]:
        """The (scheme, dt) of every run on each grid."""
        dts = [self.T / nk for nk in STEP_COUNTS] if self.kind == "temporal" else [self.dt]
        return [(scheme, dt) for scheme in self.schemes for dt in dts]

    def _grid(self, N: int) -> Grid:
        """The grid of the runs at half mode count N."""
        return Grid(half_modes=N, length=self.domain[1] - self.domain[0], x_left=self.domain[0])


@dataclass(frozen=True)
class SweepRow:
    """One run's summary: resolution, step size and final error norms.

    ``wall_seconds`` is the run's stepping time.  All runs on a batch's
    grids (:func:`_batches`), of any scheme and step size, step together;
    the batch's time is shared in proportion to the steps each run took (up
    to blow-up if it diverged), so the rows still sum to the stepping time.
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
    defaults = dict(kind="temporal", N_list=(512,))
    return SweepSpec(**{**defaults, **overrides})


def stability_spec(**overrides) -> SweepSpec:
    """Stability comparison of the two schemes: dt = 0.1, N = 64..512, T = 100.

    Linearised at u = 0, the three-level modes with l >= ceil(L/(pi dt))
    = 255 grow (L = 80), so only N = 256 and N = 512 have a growing mode;
    their predicted e-folds by T = 100, T max ln|mu| / dt, are 10.2 and
    50.0.  Lifting the band's initial rms to the blow-up threshold,
    1e6 max(rms u0, 1), needs 44.9 and 43.5, so only N = 512 is predicted
    to diverge.  The growth rate is capped near exp(t/2), so the contrast
    needs a horizon much longer than the accuracy experiments use.  Every
    proposed-scheme mode has |mu| = 1, so its runs stay bounded.
    """
    defaults = dict(kind="stability", N_list=(64, 128, 256, 512), dt=0.1, T=100.0,
                    schemes=tuple(SCHEMES))
    return SweepSpec(**{**defaults, **overrides})


def _sweep_row(spec: SweepSpec, scheme: str, problem, params, dt, final, wall) -> SweepRow:
    """Summarize one run's final state against the exact wave as a sweep row."""
    err_psi = err_h2 = err_l2 = drift = float("inf")
    if not final.diverged:
        record = error_norms(final, params)
        err_psi, err_h2, err_l2 = record.err_psi_l2, record.err_u_h2, record.err_u_l2
        # the scheme keeps mass(t) = mass(0) + t * rate, the rate its start sets
        start, grid = bootstrap(problem, dt, "exact", params), problem.grid
        mass0 = mass(grid, start.u_curr)
        rate = (mass(grid, start.psi_curr) if final.psi_curr is not None
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


def _batches(spec: SweepSpec) -> list[list[int]]:
    """The N of each batch that :func:`run_sweep` steps: consecutive N while the dense grids'
    sum of n^2 is within DENSE_MAX_POINTS^2, so that no batch holds more DFT matrices than
    one grid of DENSE_MAX_POINTS points (1.06 MB, within a 2 MB L2); other grids hold none."""
    batches, held = [], np.inf
    for N in spec.N_list:
        n = spec._grid(N).num_points
        size = n * n if n <= DENSE_MAX_POINTS else 0
        if held + size > DENSE_MAX_POINTS**2:
            batches.append([])
            held = 0
        batches[-1].append(N)
        held += size
    return batches


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run every (scheme, N, dt) of a spec, the runs on a batch's grids in one :func:`run_batch`.

    Rows come scheme by scheme, N by N, then step size by step size; the
    batch's stepping time is split between its rows as :class:`SweepRow`
    says.  Divergence is data: a row that blows up before T is flagged and
    the sweep goes on.  Orders are fitted for temporal sweeps only.
    """
    params = SolitaryWaveParams(AMPLITUDE)
    runs = spec.runs
    rows = []
    for batch in _batches(spec):
        problems = []
        for N in batch:  # a comprehension's frame would hide run_sweep's caller from a warning
            problems.append(_problem(params, spec._grid(N)))
        start = _time.perf_counter()
        finals = run_batch(problems, runs, spec.T, "exact", params)
        taken = sum(final.step_index for final in finals)
        per_step = (_time.perf_counter() - start) / taken
        made = ((problem, scheme, dt) for problem in problems for scheme, dt in runs)
        rows.extend(
            _sweep_row(spec, scheme, problem, params, dt, final, per_step * final.step_index)
            for (problem, scheme, dt), final in zip(made, finals)
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
