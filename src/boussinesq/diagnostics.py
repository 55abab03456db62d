"""Error norms against the exact solitary wave, mass, and the modified energy.

Two weighting conventions coexist on purpose and are never mixed: inner
products and norms carry the mean weight 1/(2N+1), while the discrete mass
carries the trapezoidal weight h so that a constant u == 1 has mass L.

By Parseval ||D^m u||^2 is the dot of y^2, y = grid.forward(u) in the carry layout, with
the grid's weights w_l k_l^(2m)/n^2 (w_0 = 1, w_l = 2); error_norms uses the grid's buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, _check_shape, _checked, _parseval, norm2
from .stepping import SchemeState
from .waves import SolitaryWaveParams

__all__ = ["ErrorRecord", "error_norms", "mass", "modified_energy", "crest_position"]


@dataclass(frozen=True)
class ErrorRecord:
    """Error norms of one state against the exact wave at its time."""

    err_psi_l2: float
    err_u_h2: float
    err_u_l2: float


def mass(grid: Grid, values: np.ndarray) -> float:
    """Discrete mass h * sum_i u_i (equivalently L times the mean)."""
    _check_shape(grid, np.asarray(values))
    return float(grid.spacing * np.sum(values))


def modified_energy(grid: Grid, u_err: np.ndarray, psi_err: np.ndarray) -> float:
    """Energy functional (1/2)(||psi_err||^2 + ||D^2 u_err||^2 + ||D u_err||^2), where
    ||D^m u_err||^2 = (1/n^2) sum_l w_l k_l^(2m) |U_l|^2 with U = rfft(u_err)."""
    weights = (grid._h2_weights, grid._parseval_weights(grid.wavenumbers**2))
    d2_squared, d1_squared = _parseval(grid, _checked(grid, u_err), weights)
    return 0.5 * (norm2(grid, psi_err) ** 2 + d2_squared + d1_squared)


def error_norms(state: SchemeState, params: SolitaryWaveParams) -> ErrorRecord:
    """Compare a scheme state against the exact solitary wave at its time.

    The "H2 error" is the seminorm ||D^2(u - u_e)||_2, the quantity the
    convergence experiments track; the full Sobolev norm is available
    separately via :func:`boussinesq.spectral.sobolev_norm`.  It comes from one
    forward transform y of the error, as the dot of y^2 with the grid's H2
    weights.  u and psi must hold one finite value per node.  A state of the
    three-level scheme has no psi, so its psi error is NaN.
    """
    grid, u, psi = state.grid, state.u_curr, state.psi_curr
    for values in (u,) if psi is None else (u, psi):
        _check_shape(grid, np.asarray(values))
    # the exact fields go into the grid's rows, and the errors over them
    rows, spectrum = grid._scratch
    u_err, psi_err = params.fields(grid.nodes, state.time, rows)
    errors = [np.subtract(u, u_err, out=u_err)]
    if psi is not None:
        errors.append(np.subtract(psi, psi_err, out=psi_err))
    # a non-finite sum of squares comes from a non-finite value, or from a huge one
    squares = [float(np.dot(e, e)) for e in errors]
    if not np.isfinite(sum(squares)) and not all(np.all(np.isfinite(e)) for e in errors):
        raise ValueError("grid function contains non-finite values")
    squares.append(float("nan"))  # the psi error of a state without psi
    (d2_squared,) = _parseval(grid, u_err, (grid._h2_weights,), spectrum)
    return ErrorRecord(
        err_psi_l2=float(np.sqrt(squares[1] / grid.num_points)),
        err_u_h2=float(np.sqrt(d2_squared)),
        err_u_l2=float(np.sqrt(squares[0] / grid.num_points)),
    )


def crest_position(grid: Grid, values: np.ndarray) -> float:
    """Locate the trough of a solitary-wave profile by quadratic interpolation.

    Fits a parabola through the minimum node and its periodic neighbours.
    """
    values = np.asarray(values, dtype=float)
    _check_shape(grid, values)
    j = int(np.argmin(values))
    left = values[(j - 1) % grid.num_points]
    mid = values[j]
    right = values[(j + 1) % grid.num_points]
    denom = left - 2.0 * mid + right
    offset = 0.0 if denom == 0 else 0.5 * (left - right) / denom
    return float(grid.nodes[j] + offset * grid.spacing)
