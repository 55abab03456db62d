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

A grid of n points transforms on one of three paths, chosen once per grid:

* dense, for n <= DENSE_MAX_POINTS (257): one real product with the stored
  (n, 2h) real-DFT matrix W, the inverse's with irfft's weights applied first;
* two-stage, for n = p*r with p its largest prime factor, r <= p <= 257 and
  n*p >= TWO_STAGE_MIN_WORK (723 = 241*3 and 4,097 = 241*17 points, say): the
  p-point real DFT of the r decimated rows as two BLAS products over folded
  cosine and sine halves, then twiddles and the r-point DFT as one small
  product (:class:`_TwoStage`);
* numpy's ``np.fft.rfft``/``irfft`` at every other n (513 and 1,025 points).

Each path writes into a given ``out`` without allocating, and a row of a
stack transforms bit for bit as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "derivative",
    "inner_product",
    "sobolev_norm",
    "evaluate_interpolant",
]

# Grids of at most this many points transform by two real matrix products,
# which beat numpy's FFT pair at these short, often prime, lengths.
DENSE_MAX_POINTS = 257

# A longer grid of n = p*r points, p its largest prime factor, transforms in
# two stages (_TwoStage) when r <= p <= DENSE_MAX_POINTS and n*p, the order of
# numpy's generic radix-p pass, is at least this: below it numpy's FFT was
# about as fast (BENCH_26.json).  Every other grid calls np.fft.
TWO_STAGE_MIN_WORK = 50_000

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

    def _parseval_weights(self, multiplier: np.ndarray) -> np.ndarray:
        """w_l M_l / n^2 of a per-mode multiplier M in each Re and Im slot of the carry layout,
        with w_0 = 1 and w_l = 2 for l > 0, which also stands for -l (see :func:`_parseval`)."""
        weights = np.repeat(multiplier / float(self.num_points) ** 2, 2)
        weights[2:] *= 2.0
        return weights

    @cached_property
    def _h2_weights(self) -> np.ndarray:
        """The H2 seminorm's Parseval weights w_l k_l^4 / n^2, computed once per grid."""
        k2 = self.wavenumbers**2
        return self._parseval_weights(k2 * k2)

    @cached_property
    def _scratch(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Three nodal rows and one spectrum (2h,), 64-byte aligned, for diagnostics to reuse:
        an observed step writes its exact fields, errors and error spectrum there."""
        rows = tuple(_aligned((self.num_points,)) for _ in range(3))
        return rows, _aligned((2 * self.half_modes + 2,))

    @cached_property
    def _dense_dft(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """None above DENSE_MAX_POINTS, else (W, w, work): the one DFT matrix, of both directions.

        W is the (n, 2h) interleaved [Re, Im] rfft matrix: row j, column k
        is exp(-2 pi i jk/n), read from one table of the n roots by
        (jk mod n) on the h x h block; rows j >= h are the conjugates of
        rows n - j.  The irfft is W (w y), with irfft's weights w: 1/n at
        k = 0 and 2/n above, since each l > 0 also stands for -l.  work,
        64-byte aligned, holds w y.
        """
        n, h = self.num_points, self.half_modes + 1
        if n > DENSE_MAX_POINTS:
            return None
        table = np.exp(-2j * np.pi * np.arange(n) / n)
        # jk, read mod n by take; made before W, freed before the conjugates: the peak is 1.25 W
        index = np.outer(np.arange(h), np.arange(h))
        W = np.empty((n, h), complex)
        np.take(table, index, out=W[:h], mode="wrap")
        del index
        np.conjugate(W[h - 1:0:-1], out=W[h:])
        w = np.full(2 * h, 2.0 / n)
        w[:2] = 1.0 / n
        return W.view(float), w, _aligned((2 * h,))

    @cached_property
    def _two_stage(self) -> _TwoStage | None:
        """The two-stage plan of a length that qualifies (see TWO_STAGE_MIN_WORK), else None."""
        n = rest = self.num_points
        p = 1
        for d in range(3, DENSE_MAX_POINTS + 1, 2):  # n is odd
            while rest % d == 0:
                rest, p = rest // d, d
        if rest == 1 and DENSE_MAX_POINTS < n <= p * p and n * p >= TWO_STAGE_MIN_WORK:
            return _TwoStage(n, p)
        return None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of real nodal rows, in the carry layout the steppers keep.

        x is one row (n,) or a stack (..., n); the result is real, (2h,) or
        (..., 2h), with each mode's Re and Im side by side: the layout of W's
        columns.  It is written into ``out``, a C-contiguous float array of
        that shape, or into a new array when ``out`` is None, on the grid's
        one path (see the module docstring): the product with W, one
        ``np.dot`` of a row or one ``np.matmul`` of a stack's rows viewed as
        (..., 1, n); the two-stage plan, over a stack's rows in turn; or
        numpy's rfft through ``out=`` into ``out`` viewed as complex.  On
        each, a row of a stack transforms bit for bit as it would alone.
        """
        dense = self._dense_dft
        if dense is not None:
            return _rows_times(x, dense[0], out)
        plan = self._two_stage
        if plan is not None:
            return _by_rows(plan.forward, x, out, 2 * self.half_modes + 2)
        if out is None:
            return np.fft.rfft(x).view(float)
        np.fft.rfft(x, out=out.view(complex))
        return out

    def inverse(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Real nodal rows (n,) or (..., n) of C-ordered spectra in the layout of :meth:`forward`.

        Written into ``out`` on the path :meth:`forward` takes: W (w y) via
        the grid's one work row, or the two-stage plan, each a row at a time
        and one call at a time; or numpy's irfft through ``out=``.
        """
        if self._dense_dft is not None:
            if y.ndim > 1:
                return _by_rows(self._dense_inverse, y, out, self.num_points)
            return self._dense_inverse(y, out)
        plan = self._two_stage
        if plan is not None:
            return _by_rows(plan.inverse, y, out, self.num_points)
        return np.fft.irfft(y.view(complex), self.num_points, out=out)

    def _dense_inverse(self, y: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """One row's dense inverse: w y into the grid's work row, then W times it."""
        W, w, work = self._dense_dft
        np.multiply(y, w, work)
        return np.dot(W, work, out)

    def rfft(self, x: np.ndarray) -> np.ndarray:
        """Half spectrum of real nodal values along the last axis, as ``np.fft.rfft``.

        An adapter over :meth:`forward` into a new array, for derivatives, interpolants and
        checks; any layout of x transforms as its contiguous copy does.
        """
        return self.forward(np.ascontiguousarray(x, dtype=float)).view(complex)

    def irfft(self, y: np.ndarray) -> np.ndarray:
        """Real nodal values of a half spectrum along the last axis, as ``np.fft.irfft``."""
        return self.inverse(np.ascontiguousarray(y, dtype=complex).view(float))


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float array whose data start on a 64-byte boundary.

    numpy's float loops can store at half speed to an array off a 64-byte
    boundary (x86-64, AVX2), as a fresh array often is.
    """
    size = int(np.prod(shape))
    buffer = np.empty(size + 7)
    skip = -buffer.ctypes.data % 64 // 8
    return buffer[skip : skip + size].reshape(shape)


def _rows_times(x: np.ndarray, matrix: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """x @ matrix into ``out``: np.dot of a 1-D row, or one np.matmul of a stack's (1, n) rows."""
    if x.ndim == 1:
        return np.dot(x, matrix, out)
    if out is None:
        out = np.empty(x.shape[:-1] + matrix.shape[-1:])
    np.matmul(x[..., None, :], matrix, out[..., None, :])
    return out


def _by_rows(one, x: np.ndarray, out: np.ndarray | None, width: int) -> np.ndarray:
    """one(row, into) on a 1-D x or on each row of a stack, into ``out`` or a new array."""
    out = np.empty(x.shape[:-1] + (width,)) if out is None else out
    if x.ndim == 1:
        return one(x, out)
    for row, into in zip(x.reshape(-1, x.shape[-1]), out.reshape(-1, width)):
        one(row, into)
    return out


class _TwoStage:
    """Real DFT of n = p*r points in Cooley & Tukey's two stages (Math. Comp. 1965).

    Node r*a + b is entry (a, b) of a row viewed as (p, r); mode c + p*m with
    c < q = (p + 1)/2 is entry (c, m) of a (q, r) array G, and a mode with
    c > p/2 is the conjugate of G's entry (p-c, r-1-m).  Forward, the folded
    rows x_a + x_{p-a} and x_a - x_{p-a} give the p-point DFT of every column
    as two real products, C (cosines) and S (minus sines), read from the
    table of the n roots by r*(a*c mod p) as W is; twiddles exp(-2 pi i bc/n)
    and one real product with the r-point DFT then give G.  The inverse runs
    the stages back, irfft's weights in its twiddles, and unfolds x_a and
    x_{p-a} from C Re + S Im.  The buffers are built once, so a transform
    allocates nothing (ufuncs see only contiguous blocks: numpy buffers
    strided 2-D operands) and no result aliases them; they also make a
    plan serve one call at a time.
    """

    def __init__(self, n: int, p: int):
        r, q = n // p, (p + 1) // 2
        self.shape, self.mid = (p, r), (r - 1) // 2  # the output's rows below mid are whole
        roots = np.exp(-2j * np.pi * np.arange(n) / n)
        a, b = np.arange(q), np.arange(r)
        index = r * (np.outer(a, a) % p)
        self.C, self.S = roots.real[index], roots.imag[index[1:, 1:]]
        del index
        self.T = roots[np.outer(a, b) % n]
        self.T_inv = self.T.conj() * np.where(a == 0, 1.0, 2.0)[:, None] / n
        # z @ A is z @ dft on complex (q, r) z viewed as (q, 2r) reals; A's signs
        # conjugate the output columns above mid, A_inv's the input columns
        dft = roots[p * (np.outer(b, b) % r)][:, None, :]
        self.A, self.A_inv = (
            (x * [[1], [1j]]).view(float).reshape(2 * r, -1) for x in (dft, dft.conj())
        )
        self.A[:, 2 * self.mid + 3::2] *= -1
        self.A_inv[2 * self.mid + 3::2] *= -1
        self.f, self.g0, self.re, self.im = (np.zeros((q, r)) for _ in range(4))
        self.g, self.im = self.g0[1:], self.im[1:]  # g0[0] stays 0
        self.y, self.z, self.G = np.zeros((q, r), complex), *np.empty((2, q, r), complex)

    def forward(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        (p, r), mid, q, G = self.shape, self.mid, len(self.C), self.G
        rows = x.reshape(p, r)
        self.g[...] = rows[:q - 1:-1]
        np.add(rows[:q], self.g0, out=self.f)
        np.subtract(rows[1:q], self.g, out=self.g)
        np.dot(self.C, self.f, out=self.re)
        np.dot(self.S, self.g, out=self.im)
        self.y.real, self.y.imag[1:] = self.re, self.im
        np.multiply(self.y, self.T, out=self.z)
        np.dot(self.z.view(float), self.A, out=G.view(float))
        half = out.view(complex)
        whole = half[:mid * p].reshape(mid, p)
        whole[:, :q], whole[:, q:], half[mid * p:] = G[:, :mid].T, G[:0:-1, :mid:-1].T, G[:, mid]
        return out

    def inverse(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        (p, r), mid, q, G = self.shape, self.mid, len(self.C), self.G
        half = y.view(complex)
        whole = half[:mid * p].reshape(mid, p)
        G[:, :mid], G[:, mid] = whole[:, :q].T, half[mid * p:]
        G[1:, mid + 1:], G[0, mid + 1:] = whole[::-1, :q - 1:-1].T, G[0, mid:0:-1]
        np.dot(G.view(float), self.A_inv, out=self.z.view(float))
        np.multiply(self.z, self.T_inv, out=self.z)
        self.re[...], self.im[...] = self.z.real, self.z.imag[1:]
        rows = out.reshape(p, r)
        np.dot(self.C, self.re, out=rows[:q])
        np.dot(self.S, self.im, out=self.g)
        np.subtract(rows[1:q], self.g, out=self.f[1:])
        rows[:q - 1:-1] = self.f[1:]
        np.add(rows[1:q], self.g, out=rows[1:q])
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


def sobolev_norm(grid: Grid, values: np.ndarray, order: int = 0) -> float:
    """Discrete H^k norm via Fourier multipliers 1 + k^2 + ... + k^(2k).

    ``sobolev_norm(grid, f, 0)`` equals ``sqrt(inner_product(grid, f, f))`` to round-off.
    """
    _check_integer(order, 0, "Sobolev order")
    k2 = grid.wavenumbers**2
    multiplier = np.ones_like(k2)
    power = np.ones_like(k2)
    for _ in range(order):
        power = power * k2
        multiplier = multiplier + power
    weights = grid._parseval_weights(multiplier)
    return float(np.sqrt(_parseval(grid, _checked(grid, values), weights)))


def _parseval(grid: Grid, values: np.ndarray, weights: np.ndarray, out=None) -> float:
    """sum_l w_l M_l |F_l|^2 of the mean-normalised coefficients F for a multiplier M, as the
    dot of y^2, y = grid.forward(values) written into ``out``, with M's carry-layout weights
    (:meth:`Grid._parseval_weights`); ``values`` are checked by the caller.  When M is 0 at
    l = 0, mode 0 is zeroed first: a huge mean would square to inf, and 0 * inf is nan."""
    y = grid.forward(values, out)
    if not weights[0]:
        y[:2] = 0.0
    y *= y
    return float(np.dot(y, weights))


def evaluate_interpolant(grid: Grid, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant through ``values`` at arbitrary points.

    Dense O(M*N) evaluation; meant for resampling between non-nested grids
    and for reference computations, not for inner solver loops.
    """
    coeffs = grid.rfft(_checked(grid, values)) / grid.num_points  # the zeroth is the mean
    coeffs[1:] *= 2.0  # l and -l give twice the real part
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phase = np.exp(1j * np.outer(x - grid.x_left, grid.wavenumbers))
    return (phase @ coeffs).real
