"""Good Boussinesq problem setup and exact solitary-wave solutions.

The equation is u_tt = -u_xxxx + u_xx + (u^2)_xx.  It admits the
traveling trough

    u(x, t) = -A sech^2((P/2)(x - c0 t)),

with amplitude, shape and speed tied by A = 3 P^2 / 2 and c0 = sqrt(1 - P^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .spectral import Grid, _check_real

__all__ = [
    "SolitaryWaveParams",
    "GBProblem",
    "params_from_amplitude",
    "solitary_wave",
    "solitary_problem",
]


@dataclass(frozen=True)
class SolitaryWaveParams:
    """Exact wave of amplitude A, crest at x = 0 at t = 0: the one source of exact references."""

    amplitude: float

    def __post_init__(self):
        _check_real(self.amplitude, "amplitude")
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

    def _theta_cosh2(self, x, t):
        """theta = (P/2)(x - c0 t) and cosh^2(theta), the one evaluation of every field."""
        th = np.asarray(x, dtype=float) - self.speed * t
        th *= 0.5 * self.shape
        with np.errstate(over="ignore"):  # inf far out on a wide domain; 1/inf = 0 is right
            cosh2 = np.cosh(th)
            cosh2 **= 2
        return th, cosh2

    def fields(self, x, t):
        """Exact (u, u_t) at x and time t: -A sech^2(theta) and -A P c0 sech^2 tanh(theta).

        The formulas run in place, in their order, on three arrays the size
        of x; a scalar x is a row of one.
        """
        if np.ndim(x) == 0:
            u, u_t = self.fields(np.reshape(x, 1), t)
            return u[0], u_t[0]
        th, cosh2 = self._theta_cosh2(x, t)
        u = -self.amplitude / cosh2
        u_t = np.divide(1.0, cosh2, out=cosh2)  # sech^2
        u_t *= -self.amplitude * self.shape * self.speed
        u_t *= np.tanh(th, out=th)
        return u, u_t

    def u_tt(self, x, t):
        """Exact u_tt, the reference of criterion 9 and ``test_discrete_pde_residual``."""
        th, cosh2 = self._theta_cosh2(x, t)
        sech2 = 1.0 / cosh2
        tanh2 = np.tanh(th) ** 2
        # d^2/dtheta^2 of -A sech^2 is 2A sech^2 (sech^2 - 2 tanh^2); each time
        # derivative contributes a factor -c0 P / 2 on theta.
        return (
            0.5 * self.amplitude * (self.speed * self.shape) ** 2
            * sech2 * (sech2 - 2.0 * tanh2)
        )


@dataclass(frozen=True)
class GBProblem:
    """Initial data (u, u_t) at t = 0 on one grid."""

    power: ClassVar[int] = 2  # read by ``benchmarks/`` until ROADMAP direction 3
    grid: Grid
    initial_u: np.ndarray
    initial_ut: np.ndarray

    def __post_init__(self):
        n = self.grid.num_points
        if self.initial_u.shape != (n,) or self.initial_ut.shape != (n,):
            raise ValueError("initial data does not match the grid size")


def params_from_amplitude(amplitude: float) -> SolitaryWaveParams:
    """The wave of the given amplitude; kept for ``benchmarks/`` until ROADMAP direction 3."""
    return SolitaryWaveParams(amplitude)


def solitary_wave(params: SolitaryWaveParams, x, t: float = 0.0):
    """Exact u = -A sech^2((P/2)(x - c0 t)); kept for ``benchmarks/`` until ROADMAP direction 3."""
    return params.fields(x, t)[0]


def _problem(params: SolitaryWaveParams, grid: Grid) -> GBProblem:
    """The solitary-wave problem: (u, u_t) sampled at t = 0 on the grid nodes.

    Warns when the wave is not effectively supported inside the domain,
    since periodization error then stops being negligible.  Only
    :func:`solitary_problem` and ``sweeps.run_sweep`` call this, directly,
    so the warning names the line that called one of them.
    """
    u0, v0 = params.fields(grid.nodes, 0.0)
    edge = max(abs(u0[0]), abs(u0[-1]))
    if edge >= 1e-8 * params.amplitude:
        warnings.warn(
            f"solitary wave magnitude {edge:.3e} at the domain boundary; "
            "periodization error may be significant",
            stacklevel=3,
        )
    return GBProblem(grid, u0, v0)


def solitary_problem(params: SolitaryWaveParams, grid: Grid) -> GBProblem:
    """Convenience constructor for the solitary-wave benchmark problem."""
    return _problem(params, grid)
