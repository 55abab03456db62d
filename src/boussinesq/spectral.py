"""Periodic 1-D Fourier collocation on an odd-sized uniform grid.

Everything here works on the 2N+1 point grid over an interval of length L
with the right endpoint excluded.  A real field lives on the half spectrum
l = 0, ..., N.  The grid's pair :meth:`Grid.forward`/:meth:`Grid.inverse`
is the one transform path: the steppers call it in their own layout, and
:meth:`Grid.rfft`/:meth:`Grid.irfft` adapt it to numpy's.  The odd point
count leaves no Nyquist mode, so each l > 0 also stands for its conjugate
partner -l.  Coefficients divided by 2N+1 have the mean of the nodal values
at l = 0; with that normalization the discrete L2 inner product
``(1/(2N+1)) sum f_i g_i`` and Parseval's identity, with weight 1 at l = 0
and 2 above, line up exactly.
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

# the most half modes whose 2N+1 float64 nodes numpy can index: it caps an
# array's size in bytes at the largest intp
MAX_HALF_MODES = (np.iinfo(np.intp).max // 8 - 1) // 2


def _check_integer(value, least: int, what: str) -> None:
    """Reject a value that is not an int or numpy integer >= least; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def _check_real(value, what: str) -> None:
    """Reject a value that is not an int, a float or a numpy real scalar; a bool is not a real.

    An int too large for a float is refused by its size, not printed digit by digit.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number (an int or a float), got {value!r}")
    try:
        float(value)
    except OverflowError:
        bits = value.bit_length()
        raise ValueError(f"{what} is an int of {bits} bits, too large for a float") from None


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
        if self.half_modes > MAX_HALF_MODES:  # numpy would refuse the nodes' size
            raise ValueError(
                f"half_modes must be at most {MAX_HALF_MODES}, so that numpy can index "
                f"2N+1 float64 points; got an int of {int(self.half_modes).bit_length()} bits"
            )
        for name in ("length", "x_left"):
            _check_real(getattr(self, name), name)
            # a float32 or an int makes the nodes of the equal float64 grid
            object.__setattr__(self, name, float(getattr(self, name)))
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
    def _dense_dft(self) -> tuple[np.ndarray, np.ndarray] | None:
        """None above DENSE_MAX_POINTS, else (W, V): the rfft and irfft matrices.

        W is the (n, 2h) interleaved [Re, Im] rfft matrix: row j, column k
        is exp(-2 pi i jk/n), read from one table of the n roots by
        (jk mod n) on the h x h block; rows j >= h are the conjugates of
        rows n - j.  V is the C-contiguous (2h, n) irfft matrix
        V[k, j] = w_k W[j, k], with irfft's weights w folded in: 1/n at
        k = 0 and 2/n above, since each l > 0 also stands for -l.
        """
        n, h = self.num_points, self.half_modes + 1
        if n > DENSE_MAX_POINTS:
            return None
        table = np.exp(-2j * np.pi * np.arange(n) / n)
        j = np.arange(h)
        block = table[np.outer(j, j) % n]
        W = np.concatenate([block, block[:0:-1].conj()]).view(float)
        del block
        w = np.full((2 * h, 1), 2.0 / n)
        w[:2] = 1.0 / n
        # written in place, so no transposed copy of W raises the peak
        return W, np.multiply(W.T, w, out=np.empty((2 * h, n)))

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of real nodal rows, in the carry layout the steppers keep.

        x is one row (n,) or a stack (..., n); the result is real, (2h,) or
        (..., 2h), with each mode's Re and Im side by side: the layout of W's
        columns.  It is written into ``out``, a C-contiguous float array of
        that shape, or into a new array when ``out`` is None.  On a dense
        grid a row is the one product ``np.dot(x, W, out)`` and a stack one
        ``np.matmul`` over its rows viewed as (..., 1, n), so each row of a
        stack is its own (1, n) product and transforms bit for bit as it
        would alone.  The FFT grids write numpy's complex result through
        ``out=`` into ``out`` viewed as complex.
        """
        dense = self._dense_dft
        if dense is None:
            if out is None:
                return np.fft.rfft(x).view(float)
            np.fft.rfft(x, out=out.view(complex))
            return out
        return _rows_times(x, dense[0], out)

    def inverse(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Real nodal rows (n,) or (..., n) of C-ordered spectra in the layout of :meth:`forward`.

        Written into ``out`` as :meth:`forward` writes: on a dense grid the
        one product of y with V, on an FFT grid numpy's irfft through ``out=``.
        """
        dense = self._dense_dft
        if dense is None:
            return np.fft.irfft(y.view(complex), self.num_points, out=out)
        return _rows_times(y, dense[1], out)

    def rfft(self, x: np.ndarray) -> np.ndarray:
        """Half spectrum of real nodal values along the last axis, as ``np.fft.rfft``.

        An adapter over :meth:`forward` for diagnostics, checks and tests,
        into a new array; any layout of x transforms as its contiguous copy does.
        """
        return self.forward(np.ascontiguousarray(x, dtype=float)).view(complex)

    def irfft(self, y: np.ndarray) -> np.ndarray:
        """Real nodal values of a half spectrum along the last axis, as ``np.fft.irfft``."""
        return self.inverse(np.ascontiguousarray(y, dtype=complex).view(float))


def _rows_times(x: np.ndarray, matrix: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """x @ matrix into ``out``: np.dot of a 1-D row, or one np.matmul of a stack's (1, n) rows."""
    if x.ndim == 1:
        return np.dot(x, matrix, out)
    if out is None:
        out = np.empty(x.shape[:-1] + matrix.shape[-1:])
    np.matmul(x[..., None, :], matrix, out[..., None, :])
    return out


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
    _check_integer(order, 1, "derivative order")
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
    _check_integer(order, 0, "Sobolev order")
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
