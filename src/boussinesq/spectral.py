"""Periodic 1-D Fourier collocation on an odd-sized uniform grid.

Everything here works on the 2N+1 point grid over an interval of length L
with the right endpoint excluded.  A real field lives on the half spectrum
l = 0, ..., N, and the grid's own pair :meth:`Grid.rfft`/:meth:`Grid.irfft`
is the one transform path.  The odd point count leaves no Nyquist mode, so
each l > 0 also stands for its conjugate partner -l.  Coefficients divided
by 2N+1 have the mean of the nodal values at l = 0; with that normalization
the discrete L2 inner product ``(1/(2N+1)) sum f_i g_i`` and Parseval's
identity, with weight 1 at l = 0 and 2 above, line up exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "derivative",
    "inner_product",
    "norm2",
    "sobolev_norm",
    "evaluate_interpolant",
]

# Grids of at most this many points transform by two real matrix products,
# which beat numpy's FFT pair at these short, often prime, lengths; longer
# grids call np.fft.
DENSE_MAX_POINTS = 257


def _check_integer(value, least: int, what: str) -> None:
    """Reject a value that is not an int or numpy integer >= least; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with 2N+1 points on (x_left, x_left + length).

    The odd point count keeps the mode set {-N, ..., N} symmetric, so odd
    derivatives have no ambiguous Nyquist mode.  Even sizes are rejected by
    construction: the size is always derived from ``half_modes``.
    """

    half_modes: int
    length: float
    x_left: float = 0.0

    def __post_init__(self):
        _check_integer(self.half_modes, 1, "half_modes")
        # the nodes, and k_N^4 in the steppers' symbols and the H2 seminorm, must be finite
        with np.errstate(all="ignore"):
            finite = np.all(np.isfinite([self.nodes[-1], self.wavenumbers[-1] ** 4]))
        if not (self.length > 0 and finite):
            raise ValueError(
                f"length {self.length} is not positive or leaves nodes or k_N^4 non-finite"
            )

    @property
    def num_points(self) -> int:
        return 2 * self.half_modes + 1

    @property
    def spacing(self) -> float:
        return self.length / self.num_points

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates x_i = x_left + i*h, right endpoint excluded."""
        return self.x_left + self.spacing * np.arange(self.num_points)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Wavenumbers k_l = 2*pi*l/L of the half spectrum, l = 0, ..., N."""
        return 2.0 * np.pi * np.arange(self.half_modes + 1) / self.length

    @cached_property
    def _dense_dft(self) -> tuple[np.ndarray, np.ndarray]:
        """(W, w): the (n, 2h) interleaved [Re, Im] rfft matrix and irfft's 1/n, 2/n weights.

        Row j, column k is exp(-2 pi i jk/n), read from one table of the n
        roots by (jk mod n) on the h x h block; rows j >= h are the
        conjugates of rows n - j.
        """
        n, h = self.num_points, self.half_modes + 1
        table = np.exp(-2j * np.pi * np.arange(n) / n)
        j = np.arange(h)
        block = table[np.outer(j, j) % n]
        W = np.concatenate([block, block[:0:-1].conj()]).view(float)
        w = np.full(2 * h, 2.0 / n)
        w[:2] = 1.0 / n
        return W, w

    def rfft(self, x: np.ndarray) -> np.ndarray:
        """Half spectrum of real nodal values along the last axis, as ``np.fft.rfft``.

        Each row of a stack is its own (1, n) product, so a row transforms
        bit for bit as it would alone.
        """
        if self.num_points > DENSE_MAX_POINTS:
            return np.fft.rfft(x)
        W, _ = self._dense_dft
        x = np.ascontiguousarray(x, dtype=float)
        return (x[..., None, :] @ W)[..., 0, :].view(complex)

    def irfft(self, y: np.ndarray) -> np.ndarray:
        """Real nodal values of a half spectrum along the last axis, as ``np.fft.irfft``."""
        if self.num_points > DENSE_MAX_POINTS:
            return np.fft.irfft(y, self.num_points)
        W, w = self._dense_dft
        y = np.ascontiguousarray(y, dtype=complex)
        return ((y.view(float) * w)[..., None, :] @ W.T)[..., 0, :]


def _check_shape(grid: Grid, values: np.ndarray) -> None:
    if values.shape != (grid.num_points,):
        raise ValueError(
            f"expected {grid.num_points} values for this grid, got shape {values.shape}"
        )


def _checked(grid: Grid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    _check_shape(grid, values)
    if not np.all(np.isfinite(values)):
        raise ValueError("grid function contains non-finite values")
    return values


def _coefficients(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Half-spectrum coefficients l = 0, ..., N over 2N+1, so that the zeroth is the mean."""
    return grid.rfft(_checked(grid, values)) / grid.num_points


def derivative(grid: Grid, values: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative of the given order: multiply the half spectrum by (i*k)^order."""
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    half = grid.rfft(_checked(grid, values)) * (1j * grid.wavenumbers) ** order
    return grid.irfft(half)


def inner_product(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    """Mean-weighted discrete L2 inner product: (1/(2N+1)) sum_i f_i g_i."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    _check_shape(grid, f)
    _check_shape(grid, g)
    return float(np.dot(f, g) / grid.num_points)


def norm2(grid: Grid, f: np.ndarray) -> float:
    """Discrete L2 norm induced by :func:`inner_product`."""
    return float(np.sqrt(inner_product(grid, f, f)))


def sobolev_norm(grid: Grid, values: np.ndarray, order: int = 0) -> float:
    """Discrete H^k norm via Fourier multipliers 1 + k^2 + ... + k^(2k).

    ``sobolev_norm(grid, f, 0)`` equals ``norm2(grid, f)`` to round-off.
    """
    if order < 0:
        raise ValueError(f"Sobolev order must be >= 0, got {order}")
    k2 = grid.wavenumbers**2
    multiplier = np.ones_like(k2)
    power = np.ones_like(k2)
    for _ in range(order):
        power = power * k2
        multiplier = multiplier + power
    return float(np.sqrt(_parseval(grid, values, [multiplier])[0]))


def _parseval(grid: Grid, values: np.ndarray, multipliers) -> list[float]:
    """sum_l w_l M_l |F_l|^2 of the mean-normalised coefficients F for each multiplier M,
    from one forward transform; w_0 = 1 and w_l = 2 for l > 0, which also stands for -l."""
    energy = np.abs(_coefficients(grid, values)) ** 2
    return [float(2.0 * np.sum(m * energy) - m[0] * energy[0]) for m in multipliers]


def evaluate_interpolant(grid: Grid, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant through ``values`` at arbitrary points.

    Dense O(M*N) evaluation; meant for resampling between non-nested grids
    and for reference computations, not for inner solver loops.
    """
    coeffs = _coefficients(grid, values)
    coeffs[1:] *= 2.0  # l and -l give twice the real part
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phase = np.exp(1j * np.outer(x - grid.x_left, grid.wavenumbers))
    return (phase @ coeffs).real
