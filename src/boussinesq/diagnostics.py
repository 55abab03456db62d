"""Error norms against the exact solitary wave, mass, and the modified energy.

Two weighting conventions coexist on purpose and are never mixed: inner
products and norms carry the mean weight 1/(2N+1), while the discrete mass
carries the trapezoidal weight h so that a constant u == 1 has mass L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, derivative, norm2
from .stepping import SchemeState
from .waves import SolitaryWaveParams, solitary_wave, solitary_wave_dt

__all__ = ["ErrorRecord", "error_norms", "mass", "modified_energy", "crest_position"]


@dataclass(frozen=True)
class ErrorRecord:
    """One row of run diagnostics at a fixed time."""

    time: float
    err_psi_l2: float
    err_u_h2: float
    err_u_l2: float
    mass: float
    energy: float


def mass(grid: Grid, values: np.ndarray) -> float:
    """Discrete mass h * sum_i u_i (equivalently L times the mean)."""
    return float(grid.spacing * np.sum(values))


def modified_energy(grid: Grid, u_err: np.ndarray, psi_err: np.ndarray) -> float:
    """Energy functional (1/2)(||psi_err||^2 + ||D^2 u_err||^2 + ||D u_err||^2)."""
    return _energy(
        norm2(grid, psi_err),
        norm2(grid, derivative(grid, u_err, 2)),
        norm2(grid, derivative(grid, u_err, 1)),
    )


def _energy(psi_norm: float, d2_norm: float, d1_norm: float) -> float:
    return 0.5 * (psi_norm**2 + d2_norm**2 + d1_norm**2)


def error_norms(state: SchemeState, params: SolitaryWaveParams) -> ErrorRecord:
    """Compare a scheme state against the exact solitary wave at its time.

    The "H2 error" is the seminorm ||D^2(u - u_e)||_2, the quantity the
    convergence experiments track; the full Sobolev norm is available
    separately via :func:`boussinesq.spectral.sobolev_norm`.  A state of the
    three-level scheme has no psi, so its psi error and energy are NaN.
    """
    grid = state.grid
    u_err = state.u_curr - solitary_wave(params, grid.nodes, state.time)
    if state.psi_curr is None:
        err_psi = float("nan")
    else:
        psi_exact = solitary_wave_dt(params, grid.nodes, state.time)
        err_psi = norm2(grid, state.psi_curr - psi_exact)
    err_h2 = norm2(grid, derivative(grid, u_err, 2))
    return ErrorRecord(
        time=state.time,
        err_psi_l2=err_psi,
        err_u_h2=err_h2,
        err_u_l2=norm2(grid, u_err),
        mass=mass(grid, state.u_curr),
        energy=_energy(err_psi, err_h2, norm2(grid, derivative(grid, u_err, 1))),
    )


def crest_position(grid: Grid, values: np.ndarray) -> float:
    """Locate the trough of a solitary-wave profile by quadratic interpolation.

    Fits a parabola through the minimum node and its periodic neighbours.
    """
    values = np.asarray(values, dtype=float)
    j = int(np.argmin(values))
    left = values[(j - 1) % grid.num_points]
    mid = values[j]
    right = values[(j + 1) % grid.num_points]
    denom = left - 2.0 * mid + right
    offset = 0.0 if denom == 0 else 0.5 * (left - right) / denom
    return float(grid.nodes[j] + offset * grid.spacing)
