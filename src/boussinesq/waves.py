"""Good Boussinesq problem setup and exact solitary-wave solutions.

The equation is u_tt = -u_xxxx + u_xx + (u^p)_xx with integer p >= 2.
For p = 2 it admits the traveling trough

    u(x, t) = -A sech^2((P/2)(x - c0 t)),

with amplitude, shape and speed tied by A = 3 P^2 / 2 and c0 = sqrt(1 - P^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import Grid, _check_integer

__all__ = [
    "SolitaryWaveParams",
    "GBProblem",
    "params_from_amplitude",
    "solitary_wave",
    "solitary_fields",
    "solitary_wave_dtt",
    "solitary_problem",
]


@dataclass(frozen=True)
class SolitaryWaveParams:
    """Amplitude A of a wave with its crest at x = 0 at t = 0; shape P and speed c0 follow."""

    amplitude: float

    def __post_init__(self):
        if not 0 < self.amplitude <= 1.5:
            raise ValueError(
                f"amplitude must lie in (0, 3/2] for a real wave speed, got {self.amplitude}"
            )

    @cached_property
    def shape(self) -> float:
        """P = sqrt(2A/3), in (0, 1]."""
        return np.sqrt(2.0 * self.amplitude / 3.0)

    @cached_property
    def speed(self) -> float:
        """c0 = sqrt(1 - P^2)."""
        return np.sqrt(max(1.0 - self.shape**2, 0.0))


@dataclass(frozen=True)
class GBProblem:
    """Nonlinearity power plus initial data (u, u_t) at t = 0 on one grid."""

    power: int
    grid: Grid
    initial_u: np.ndarray
    initial_ut: np.ndarray

    def __post_init__(self):
        _check_power(self.power)
        n = self.grid.num_points
        if self.initial_u.shape != (n,) or self.initial_ut.shape != (n,):
            raise ValueError("initial data does not match the grid size")


def params_from_amplitude(amplitude: float) -> SolitaryWaveParams:
    """Solitary-wave parameters of the given amplitude."""
    return SolitaryWaveParams(amplitude)


def _theta(params: SolitaryWaveParams, x, t):
    return 0.5 * params.shape * (np.asarray(x, dtype=float) - params.speed * t)


def _cosh2(th):
    with np.errstate(over="ignore"):  # inf far out on a wide domain, where 1/inf = 0 is right
        return np.cosh(th) ** 2


def solitary_wave(params: SolitaryWaveParams, x, t: float = 0.0):
    """Exact traveling trough -A sech^2((P/2)(x - c0 t))."""
    return -params.amplitude / _cosh2(_theta(params, x, t))


def solitary_fields(params: SolitaryWaveParams, x, t: float):
    """Exact (u, u_t) from one theta and cosh^2; u has the bits of :func:`solitary_wave`."""
    th = _theta(params, x, t)
    cosh2 = _cosh2(th)
    sech2 = 1.0 / cosh2
    u_t = -params.amplitude * params.shape * params.speed * sech2 * np.tanh(th)
    return -params.amplitude / cosh2, u_t


def solitary_wave_dtt(params: SolitaryWaveParams, x, t: float = 0.0):
    """Exact second time derivative of :func:`solitary_wave`."""
    th = _theta(params, x, t)
    sech2 = 1.0 / _cosh2(th)
    tanh2 = np.tanh(th) ** 2
    # d^2/dtheta^2 of -A sech^2 is 2A sech^2 (sech^2 - 2 tanh^2); each time
    # derivative contributes a factor -c0 P / 2 on theta.
    return (
        0.5 * params.amplitude * (params.speed * params.shape) ** 2
        * sech2 * (sech2 - 2.0 * tanh2)
    )


def _check_power(power) -> None:
    """Reject a nonlinearity power that :func:`_power` cannot take."""
    _check_integer(power, 2, "nonlinearity power")


def _power(values: np.ndarray, power: int) -> np.ndarray:
    """u^p by repeated multiplication for p >= 3.

    ``u**p`` would call libm ``pow`` for every point, about 40x slower than
    p - 1 products; ``u**2`` is already ``np.square``.
    """
    if power == 2:
        return values**2
    out = values * values
    for _ in range(power - 2):
        out *= values
    return out


def _problem(params: SolitaryWaveParams, grid: Grid, power: int) -> GBProblem:
    """The solitary-wave problem: (u, u_t) sampled at t = 0 on the grid nodes.

    Warns when the wave is not effectively supported inside the domain,
    since periodization error then stops being negligible.  Only
    :func:`solitary_problem` and ``sweeps.run_sweep`` call this, directly,
    so the warning names the line that called one of them.
    """
    u0, v0 = solitary_fields(params, grid.nodes, 0.0)
    edge = max(abs(u0[0]), abs(u0[-1]))
    if edge >= 1e-8 * params.amplitude:
        warnings.warn(
            f"solitary wave magnitude {edge:.3e} at the domain boundary; "
            "periodization error may be significant",
            stacklevel=3,
        )
    return GBProblem(power=power, grid=grid, initial_u=u0, initial_ut=v0)


def solitary_problem(params: SolitaryWaveParams, grid: Grid, power: int = 2) -> GBProblem:
    """Convenience constructor for the solitary-wave benchmark problem."""
    return _problem(params, grid, power)
