"""Error norms against the exact solitary wave, mass, and the modified energy.

Two weighting conventions coexist on purpose and are never mixed: inner
products and norms carry the mean weight 1/(2N+1), while the discrete mass
carries the trapezoidal weight h so that a constant u == 1 has mass L.

Seminorms of a u error come by Parseval from one U = rfft(u) on n = 2N+1 points:
||D^m u||^2 = (1/n^2) sum_l w_l k_l^(2m) |U_l|^2 with w_0 = 1 and w_l = 2 above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, _parseval, norm2
from .stepping import SchemeState
from .waves import SolitaryWaveParams, solitary_fields

__all__ = ["ErrorRecord", "error_norms", "mass", "modified_energy", "crest_position"]


@dataclass(frozen=True)
class ErrorRecord:
    """Error norms of one state against the exact wave at its time."""

    err_psi_l2: float
    err_u_h2: float
    err_u_l2: float


def mass(grid: Grid, values: np.ndarray) -> float:
    """Discrete mass h * sum_i u_i (equivalently L times the mean)."""
    return float(grid.spacing * np.sum(values))


def modified_energy(grid: Grid, u_err: np.ndarray, psi_err: np.ndarray) -> float:
    """Energy functional (1/2)(||psi_err||^2 + ||D^2 u_err||^2 + ||D u_err||^2), where
    ||D^m u_err||^2 = (1/n^2) sum_l w_l k_l^(2m) |U_l|^2 with U = rfft(u_err)."""
    k2 = grid.wavenumbers**2
    d2_squared, d1_squared = _parseval(grid, u_err, (k2 * k2, k2))
    return 0.5 * (norm2(grid, psi_err) ** 2 + d2_squared + d1_squared)


def error_norms(state: SchemeState, params: SolitaryWaveParams) -> ErrorRecord:
    """Compare a scheme state against the exact solitary wave at its time.

    The "H2 error" is the seminorm ||D^2(u - u_e)||_2, the quantity the
    convergence experiments track; the full Sobolev norm is available
    separately via :func:`boussinesq.spectral.sobolev_norm`.  It comes from one
    rfft U of the error, as ||D^2 u||^2 = (1/n^2) sum_l w_l k_l^4 |U_l|^2.
    A state of the three-level scheme has no psi, so its psi error is NaN.
    """
    grid = state.grid
    u_exact, psi_exact = solitary_fields(params, grid.nodes, state.time)
    u_err = state.u_curr - u_exact
    if state.psi_curr is None:
        err_psi = float("nan")
    else:
        err_psi = norm2(grid, state.psi_curr - psi_exact)
    k2 = grid.wavenumbers**2
    (d2_squared,) = _parseval(grid, u_err, (k2 * k2,))
    return ErrorRecord(
        err_psi_l2=err_psi,
        err_u_h2=float(np.sqrt(d2_squared)),
        err_u_l2=norm2(grid, u_err),
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
