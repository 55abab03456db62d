"""Transform, differentiation and inner-product identities.

The independent oracle throughout is a direct O(N^2) DFT summation over
the full mode list -N..N, kept deliberately separate from the library's
one transform path, the grid's half-spectrum pair.
"""

import tracemalloc

import numpy as np
import pytest

from boussinesq.spectral import (
    DENSE_MAX_POINTS,
    MAX_HALF_MODES,
    TWO_STAGE_MIN_WORK,
    Grid,
    _parseval,
    derivative,
    evaluate_interpolant,
    inner_product,
    sobolev_norm,
)


def full_modes(grid):
    """Integer mode numbers l in numpy FFT ordering: 0, 1, ..., N, -N, ..., -1."""
    return np.concatenate([np.arange(grid.half_modes + 1), np.arange(-grid.half_modes, 0)])


def dft_forward(grid, values):
    """Direct O(N^2) collocation coefficients over the full mode list, scaled by 1/(2N+1)."""
    n = grid.num_points
    i = np.arange(n)
    out = np.empty(n, dtype=complex)
    for idx, l in enumerate(full_modes(grid)):
        out[idx] = np.sum(values * np.exp(-2j * np.pi * l * i / n)) / n
    return out


def dft_inverse(grid, coeffs):
    n = grid.num_points
    i = np.arange(n)
    out = np.empty(n, dtype=complex)
    for j in range(n):
        out[j] = np.sum(coeffs * np.exp(2j * np.pi * full_modes(grid) * i[j] / n))
    return out


def l2_norm(grid, f):
    """The nodal l2 norm: the square root of the mean-weighted inner product."""
    return np.sqrt(inner_product(grid, f, f))


def half_coefficients(grid, values):
    """The grid pair's half spectrum l = 0..N, scaled like ``dft_forward``."""
    return grid.rfft(values) / grid.num_points


class TestGrid:
    def test_odd_point_count(self):
        grid = Grid(half_modes=8, length=2 * np.pi)
        assert grid.num_points == 17
        assert grid.num_points == 2 * grid.half_modes + 1

    def test_nodes_equispaced_excluding_right_endpoint(self):
        grid = Grid(half_modes=10, length=80.0, x_left=-40.0)
        assert np.allclose(np.diff(grid.nodes), grid.spacing)
        assert grid.nodes[0] == -40.0
        assert grid.nodes[-1] < 40.0

    def test_wavenumber_symmetry(self):
        # the half spectrum l = 0..N; each l > 0 also stands for -l
        grid = Grid(half_modes=6, length=5.0)
        k = grid.wavenumbers
        assert k.shape == (7,) and k[0] == 0.0
        for l in range(7):
            assert k[l] == pytest.approx(2 * np.pi * l / 5.0, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Grid(half_modes=0, length=1.0)
        with pytest.raises(ValueError):
            Grid(half_modes=4, length=-1.0)
        # at N = 16, lengths 1e-100 and 1e-300 take k_N^4 and k_N^2 past the largest float
        domains = [(np.inf, 0.0), (np.nan, 0.0), (1.0, np.nan), (1.0, -np.inf), (1e-100, 0.0),
                   (1e-300, 0.0)]
        for length, x_left in domains:
            with pytest.raises(ValueError, match="length"):
                Grid(half_modes=16, length=length, x_left=x_left)

    @pytest.mark.parametrize("length, x_left", [("80", 0.0), (True, 0), (80.0, "-40"), (80, None)])
    def test_length_or_left_end_not_a_real_rejected(self, length, x_left):
        with pytest.raises(ValueError, match="must be a real number"):
            Grid(half_modes=16, length=length, x_left=x_left)
        assert Grid(half_modes=16, length=np.float32(80.0), x_left=-40).x_left == -40

    def test_a_float32_or_int_length_makes_the_float64_grid(self):
        want = Grid(half_modes=16, length=80.0, x_left=-40.0)
        for length, x_left in ((np.float32(80.0), -40.0), (80, np.int64(-40)),
                               (80.0, np.float32(-40.0))):
            grid = Grid(half_modes=16, length=length, x_left=x_left)
            assert type(grid.length) is float and type(grid.x_left) is float
            assert np.array_equal(grid.nodes, want.nodes)
            # the node after the last closes the period
            assert grid.nodes[-1] + grid.spacing - grid.x_left == grid.length

    @pytest.mark.parametrize("half_modes", [16.5, 16.0, True])
    def test_half_modes_not_an_integer_rejected(self, half_modes):
        # a float would size the spectrum by float arithmetic, and a bool is not a count
        with pytest.raises(ValueError, match="half_modes must be an integer >= 1"):
            Grid(half_modes=half_modes, length=80.0)
        assert Grid(half_modes=np.int64(16), length=80.0).num_points == 33

    @pytest.mark.parametrize("half_modes", [MAX_HALF_MODES + 1, 10**20, 10**400])
    def test_more_points_than_numpy_can_index_rejected(self, half_modes):
        # refused before any array is made; numpy caps an array's bytes at the largest intp
        assert (2 * MAX_HALF_MODES + 1) * 8 <= np.iinfo(np.intp).max
        with pytest.raises(ValueError, match="half_modes must be at most .* bits$"):
            Grid(half_modes=half_modes, length=80.0)


class TestForwardInverse:
    """The grid's forward and inverse pair against the direct full-spectrum DFT."""

    def test_constant_is_mode_zero(self):
        grid = Grid(half_modes=8, length=3.0)
        coeffs = half_coefficients(grid, np.ones(grid.num_points))
        assert coeffs.shape == (9,)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(coeffs[1:])) < 1e-14

    def test_single_cosine_splits_into_two_half_modes(self):
        # the full spectrum holds 1/2 at l = 1 and at l = -1; the half
        # spectrum keeps the l = 1 half, which stands for both
        grid = Grid(half_modes=8, length=4.0)
        f = np.cos(2 * np.pi * grid.nodes / 4.0)
        full = dft_forward(grid, f)
        assert full[1] == pytest.approx(0.5, abs=1e-14)
        assert full[-1] == pytest.approx(0.5, abs=1e-14)
        coeffs = half_coefficients(grid, f)
        assert coeffs[1] == pytest.approx(0.5, abs=1e-14)
        mask = np.ones(coeffs.size, dtype=bool)
        mask[1] = False
        assert np.max(np.abs(coeffs[mask])) < 1e-14

    def test_round_trip_matches_direct_dft(self, rng):
        grid = Grid(half_modes=16, length=7.0, x_left=-2.0)
        f = rng.standard_normal(grid.num_points)
        coeffs = half_coefficients(grid, f)
        assert np.allclose(coeffs, dft_forward(grid, f)[:17], atol=1e-13)
        back = grid.irfft(grid.rfft(f))
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))
        full = np.concatenate([coeffs, coeffs[:0:-1].conj()])
        assert np.allclose(dft_inverse(grid, full).real, f, atol=1e-12)

    def test_hermitian_symmetry_of_real_input(self, rng):
        # the direct DFT at -l is the conjugate of the half spectrum at l
        grid = Grid(half_modes=12, length=1.0)
        f = rng.standard_normal(grid.num_points)
        coeffs, full = half_coefficients(grid, f), dft_forward(grid, f)
        for l in range(1, 13):
            assert coeffs[l] == pytest.approx(np.conj(full[-l]), abs=1e-13)
        assert abs(coeffs[0].imag) < 1e-14

    def test_inverse_of_zero_and_constant(self):
        grid = Grid(half_modes=5, length=1.0)
        assert np.all(grid.irfft(np.zeros(6, dtype=complex)) == 0.0)
        coeffs = np.zeros(6, dtype=complex)
        coeffs[0] = 2.5 * grid.num_points
        assert np.allclose(grid.irfft(coeffs), 2.5)

    def test_non_finite_input_rejected(self):
        grid = Grid(half_modes=4, length=1.0)
        bad = np.ones(grid.num_points)
        bad[3] = np.nan
        for operator in (
            lambda f: derivative(grid, f, 2),
            lambda f: sobolev_norm(grid, f, 1),
            lambda f: evaluate_interpolant(grid, f, grid.nodes),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                operator(bad)


class TestAcrossTransformSwitch:
    """The operators against the direct DFT on a dense grid and on an FFT grid.

    N = 16 (33 points) transforms by matrix products, N = 200 (401 points)
    by np.fft; the operators must not be able to tell which.
    """

    @pytest.fixture(params=[16, 200])
    def case(self, request, rng):
        grid = Grid(half_modes=request.param, length=80.0, x_left=-40.0)
        f = rng.standard_normal(grid.num_points)
        k = 2 * np.pi * full_modes(grid) / grid.length
        return grid, f, dft_forward(grid, f), k

    def test_derivative(self, case):
        grid, f, full, k = case
        for order in (1, 2, 4):
            want = dft_inverse(grid, full * (1j * k) ** order).real
            got = derivative(grid, f, order)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), order

    def test_sobolev_norm(self, case):
        grid, f, full, k = case
        for order in range(3):
            multiplier = sum(k ** (2 * j) for j in range(order + 1))
            want = np.sqrt(np.sum(multiplier * np.abs(full) ** 2))
            assert sobolev_norm(grid, f, order) == pytest.approx(want, rel=1e-12), order

    def test_parseval_seminorms_match_derivative_route(self, case):
        # ||D f|| and ||D^2 f|| by Parseval, one multiplier a call, against
        # a derivative's round trip and the nodal norm
        grid, f, _, _ = case
        k2 = grid.wavenumbers**2
        got = [np.sqrt(_parseval(grid, f, grid._parseval_weights(m))) for m in (k2, k2 * k2)]
        want = [l2_norm(grid, derivative(grid, f, m)) for m in (1, 2)]
        assert got == pytest.approx(want, rel=1e-13)

    def test_parseval_seminorms_of_a_constant_vanish(self, case):
        grid = case[0]
        k2 = grid.wavenumbers**2
        f = np.full(grid.num_points, 0.37)
        got = [np.sqrt(_parseval(grid, f, grid._parseval_weights(m))) for m in (k2, k2 * k2)]
        want = [l2_norm(grid, derivative(grid, f, m)) for m in (1, 2)]
        # zero up to the round-off of the transform, which k^2 amplifies
        assert max(*got, *want) <= 1e-12 * 0.37

    def test_evaluate_interpolant(self, case, rng):
        grid, f, full, _ = case
        x = grid.x_left + grid.length * rng.random(50)
        phase = np.exp(2j * np.pi * np.outer((x - grid.x_left) / grid.length, full_modes(grid)))
        want = (phase @ full).real
        assert np.max(np.abs(evaluate_interpolant(grid, f, x) - want)) <= 1e-12 * np.max(
            np.abs(want)
        )


class TestGridTransforms:
    """``Grid.forward``/``Grid.inverse`` and their adapters ``Grid.rfft``/``Grid.irfft``:
    matrix products up to DENSE_MAX_POINTS, two stages at lengths with a large prime
    factor (TWO_STAGE_MIN_WORK), np.fft at the others."""

    @staticmethod
    def samples(rng, grid, shape=()):
        x = rng.standard_normal((*shape, grid.num_points))
        y = rng.standard_normal((*shape, grid.half_modes + 1, 2)) @ [1.0, 1j]
        return x, y

    def test_matches_numpy_at_every_odd_length(self, rng):
        # 3, 5, ..., 257 points transform densely; 259 is the first FFT length
        for half in range(1, 130):
            grid = Grid(half_modes=half, length=80.0, x_left=-40.0)
            x, y = self.samples(rng, grid)
            want_y, want_x = np.fft.rfft(x), np.fft.irfft(y, grid.num_points)
            got_y, got_x = grid.rfft(x), grid.irfft(y)
            assert np.max(np.abs(got_y - want_y)) <= 1e-13 * np.max(np.abs(want_y)), half
            assert np.max(np.abs(got_x - want_x)) <= 1e-13 * np.max(np.abs(want_x)), half

    def test_first_fft_length_is_numpy_exactly(self, rng):
        grid = Grid(half_modes=129, length=80.0)
        assert grid.num_points == 259 and DENSE_MAX_POINTS == 257
        x, y = self.samples(rng, grid, (3,))
        assert np.array_equal(grid.rfft(x), np.fft.rfft(x))
        assert np.array_equal(grid.irfft(y), np.fft.irfft(y, grid.num_points))

    def test_first_dense_transform_peaks_below_two_and_a_half_matrices(self, rng):
        # the stored inverse is written in place: no transposed copy of the forward matrix
        grid = Grid(half_modes=128, length=80.0)
        x = rng.standard_normal(grid.num_points)
        tracemalloc.start()
        try:
            grid.rfft(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        W, V = grid._dense_dft
        assert W.shape == V.T.shape == (grid.num_points, 2 * (grid.half_modes + 1))
        assert V.flags.c_contiguous
        assert peak < 2.5 * W.nbytes

    @staticmethod
    def path(grid):
        if grid._dense_dft is not None:
            return "dense"
        return "fft" if grid._two_stage is None else "two-stage"

    @pytest.mark.parametrize(
        "points, path",
        [(257, "dense"), (259, "fft"), (513, "fft"), (1025, "fft"), (723, "two-stage"),
         (4097, "two-stage")],
    )
    def test_each_length_takes_its_path(self, points, path):
        # numpy's FFT is fast at 259 = 7 * 37, 513 = 19 * 27 and 1025 = 41 * 25 (n * p
        # small, and r > p at 513) and slow at 723 = 241 * 3 and 4097 = 241 * 17
        assert 1025 * 41 < TWO_STAGE_MIN_WORK <= 723 * 241
        assert self.path(Grid(half_modes=(points - 1) // 2, length=80.0)) == path

    @pytest.mark.parametrize("points, plan", [(723, (241, 3)), (1143, (127, 9)),
                                              (2047, (89, 23)), (4097, (241, 17))])
    def test_two_stage_lengths_match_numpy(self, rng, points, plan):
        grid = Grid(half_modes=(points - 1) // 2, length=80.0, x_left=-40.0)
        assert grid._two_stage.shape == plan
        x, y = self.samples(rng, grid, (2,))
        want_y, want_x = np.fft.rfft(x), np.fft.irfft(y, points)
        got_y, got_x = grid.rfft(x), grid.irfft(y)
        assert np.max(np.abs(got_y - want_y)) <= 1e-13 * np.max(np.abs(want_y))
        assert np.max(np.abs(got_x - want_x)) <= 1e-13 * np.max(np.abs(want_x))

    @pytest.mark.parametrize("points", [513, 1025])
    def test_fft_lengths_of_the_sweeps_are_numpy_exactly(self, rng, points):
        grid = Grid(half_modes=(points - 1) // 2, length=80.0)
        x, y = self.samples(rng, grid, (3,))
        assert np.array_equal(grid.rfft(x), np.fft.rfft(x))
        assert np.array_equal(grid.irfft(y), np.fft.irfft(y, points))

    def test_two_stage_results_do_not_alias_the_plan(self, rng):
        # a result lives in its own array, not in the plan's buffers
        grid = Grid(half_modes=361, length=80.0)
        x, y = self.samples(rng, grid, (2,))
        first_y, first_x = grid.rfft(x[0]), grid.irfft(y[0])
        kept_y, kept_x = first_y.copy(), first_x.copy()
        for transform, data in ((grid.rfft, x[1]), (grid.irfft, y[1]), (grid.rfft, x), (grid.irfft, y)):
            transform(data)
        assert np.array_equal(first_y, kept_y) and np.array_equal(first_x, kept_x)

    @pytest.mark.parametrize("half", [16, 129, 361])
    def test_pair_works_in_the_carry_layout(self, rng, half):
        # (rows, n) nodal rows to real (rows, 2h) spectra, each mode's
        # Re and Im side by side, and back; rfft and irfft are its adapters
        grid = Grid(half_modes=half, length=80.0)
        x, y = self.samples(rng, grid, (3,))
        spectra = grid.forward(x)
        assert spectra.shape == (3, 2 * (half + 1)) and spectra.dtype == float
        assert np.array_equal(spectra.view(complex), grid.rfft(x))
        nodal = grid.inverse(np.ascontiguousarray(y).view(float))
        assert nodal.shape == (3, grid.num_points)
        assert np.array_equal(nodal, grid.irfft(y))

    @pytest.mark.parametrize("half", [16, 128, 129, 361])
    def test_a_row_transforms_as_its_row_of_a_stack(self, rng, half):
        # a 1-D row (one np.dot on a dense grid, the one-row plan on a
        # two-stage grid) gives the bits of its row of a stack (one np.matmul
        # of (1, n) rows, or the plan row by row), forward and inverse,
        # written into a given buffer or into a new array alike
        grid = Grid(half_modes=half, length=80.0)
        x, y = self.samples(rng, grid, (4,))
        y = np.ascontiguousarray(y).view(float)
        for transform, stack in ((grid.forward, x), (grid.inverse, y)):
            rows = transform(stack)
            into = np.empty_like(rows)
            assert transform(stack, into) is into and np.array_equal(into, rows)
            for r in range(len(stack)):
                assert np.array_equal(transform(stack[r]), rows[r])
                out = np.empty_like(rows[r])
                assert transform(stack[r], out) is out and np.array_equal(out, rows[r])

    @pytest.mark.parametrize("half", [16, 128, 129, 361])
    def test_mode_zero_imaginary_part_is_exactly_zero(self, rng, half):
        grid = Grid(half_modes=half, length=80.0)
        x, _ = self.samples(rng, grid, (3,))
        assert np.all(grid.rfft(x)[:, 0].imag == 0.0)
        assert np.all(grid.rfft(x[0])[0].imag == 0.0)

    @pytest.mark.parametrize("half", [16, 128, 129, 361])
    def test_layouts_give_the_values_of_contiguous_rows(self, rng, half):
        # 1-D rows, row-strided and element-strided stacks all transform
        # as the rows of a contiguous 2-D array, bit for bit
        grid = Grid(half_modes=half, length=80.0)
        for transform, data in zip((grid.rfft, grid.irfft), self.samples(rng, grid, (6,))):
            wide = np.repeat(data, 2, axis=-1)
            for x in (data[::2], wide[::2, ::2]):
                assert not x.flags.c_contiguous
                want = transform(np.ascontiguousarray(x))
                assert np.array_equal(transform(x), want)
                for row in range(len(x)):
                    assert np.array_equal(transform(x[row]), want[row])


class TestDerivative:
    @pytest.mark.parametrize("order", [1.5, 1.0, True, 0, -1, "1", None])
    def test_order_not_an_integer_of_at_least_one_rejected(self, order):
        # 1.5 would give the real part of a non-Hermitian spectrum, True order 1
        grid = Grid(half_modes=8, length=3.0)
        with pytest.raises(ValueError, match="derivative order must be an integer >= 1"):
            derivative(grid, np.ones(grid.num_points), order)

    def test_constant_derivative_vanishes(self):
        grid = Grid(half_modes=16, length=3.0)
        k_max = float(np.max(np.abs(grid.wavenumbers)))
        for order in (1, 2, 3, 4):
            d = derivative(grid, np.full(grid.num_points, 4.2), order)
            # fft round-off in the nonzero modes gets amplified by k^order
            tol = 4.2 * max(k_max**order, 1.0) * 20 * np.finfo(float).eps
            assert np.max(np.abs(d)) < tol

    def test_resolved_sine_differentiates_exactly(self):
        grid = Grid(half_modes=16, length=2 * np.pi)
        d = derivative(grid, np.sin(grid.nodes), 1)
        assert np.max(np.abs(d - np.cos(grid.nodes))) < 1e-12

    def test_sech_profile_self_convergence(self):
        # second derivative of sech^2 at two resolutions, compared through
        # the finer grid's interpolant (the odd-sized grids share no nodes)
        shape = 0.5773502691896257
        coarse = Grid(half_modes=128, length=80.0, x_left=-40.0)
        fine = Grid(half_modes=256, length=80.0, x_left=-40.0)
        d_coarse = derivative(coarse, 1.0 / np.cosh(0.5 * shape * coarse.nodes) ** 2, 2)
        d_fine = derivative(fine, 1.0 / np.cosh(0.5 * shape * fine.nodes) ** 2, 2)
        at_coarse_nodes = evaluate_interpolant(fine, d_fine, coarse.nodes)
        assert np.max(np.abs(d_coarse - at_coarse_nodes)) <= 1e-8

    def test_second_derivative_twice_equals_fourth(self, rng):
        grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
        f = np.exp(np.sin(2 * np.pi * (grid.nodes + 40.0) / 80.0))
        twice = derivative(grid, derivative(grid, f, 2), 2)
        assert np.max(np.abs(twice - derivative(grid, f, 4))) < 1e-10


class TestInnerProduct:
    def test_constant(self):
        grid = Grid(half_modes=9, length=1.0)
        ones = np.ones(grid.num_points)
        assert inner_product(grid, ones, ones) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonality_with_cosine(self):
        grid = Grid(half_modes=9, length=2.0)
        assert inner_product(
            grid, np.ones(grid.num_points), np.cos(2 * np.pi * grid.nodes / 2.0)
        ) == pytest.approx(0.0, abs=1e-14)

    def test_matches_naive_loop(self, rng):
        grid = Grid(half_modes=11, length=3.0)
        f = rng.standard_normal(grid.num_points)
        g = rng.standard_normal(grid.num_points)
        expected = sum(f[i] * g[i] for i in range(grid.num_points)) / grid.num_points
        assert inner_product(grid, f, g) == pytest.approx(expected, abs=1e-15)

    def test_grid_mismatch(self, rng):
        grid = Grid(half_modes=4, length=1.0)
        with pytest.raises(ValueError):
            inner_product(grid, np.ones(grid.num_points), np.ones(grid.num_points + 2))


class TestSobolevNorm:
    @pytest.mark.parametrize("order", [1.0, 0.5, True, False, -1, "0", None])
    def test_order_not_a_nonnegative_integer_rejected(self, order):
        # 1.0 would fail inside range, True would give the H1 norm
        grid = Grid(half_modes=8, length=3.0)
        with pytest.raises(ValueError, match="Sobolev order must be an integer >= 0"):
            sobolev_norm(grid, np.ones(grid.num_points), order)

    def test_constant_any_order(self):
        grid = Grid(half_modes=6, length=5.0)
        for k in range(4):
            assert sobolev_norm(grid, np.ones(grid.num_points), k) == pytest.approx(
                1.0, abs=1e-13
            )

    def test_single_mode_parseval(self):
        grid = Grid(half_modes=8, length=2 * np.pi)
        f = np.cos(3 * grid.nodes)
        expected = np.sqrt(
            l2_norm(grid, f) ** 2 + l2_norm(grid, derivative(grid, f, 1)) ** 2
        )
        assert sobolev_norm(grid, f, 1) == pytest.approx(expected, abs=1e-12)

    def test_order_zero_is_l2(self, rng):
        grid = Grid(half_modes=20, length=3.0)
        f = rng.standard_normal(grid.num_points)
        assert sobolev_norm(grid, f, 0) == pytest.approx(l2_norm(grid, f), abs=1e-12)

    def test_order_two_matches_derivative_route(self, rng):
        grid = Grid(half_modes=20, length=3.0)
        f = rng.standard_normal(grid.num_points)
        expected = np.sqrt(
            l2_norm(grid, f) ** 2
            + l2_norm(grid, derivative(grid, f, 1)) ** 2
            + l2_norm(grid, derivative(grid, f, 2)) ** 2
        )
        assert sobolev_norm(grid, f, 2) == pytest.approx(expected, abs=1e-12)


class TestIdentities:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_parseval(self, rng, n):
        grid = Grid(half_modes=n, length=80.0, x_left=-40.0)
        f = rng.standard_normal(grid.num_points)
        energy = np.abs(half_coefficients(grid, f)) ** 2
        # each l > 0 stands for l and -l
        assert inner_product(grid, f, f) == pytest.approx(
            float(energy[0] + 2.0 * np.sum(energy[1:])), abs=1e-12
        )

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_summation_by_parts(self, rng, n):
        grid = Grid(half_modes=n, length=80.0, x_left=-40.0)
        f = rng.standard_normal(grid.num_points)
        g = rng.standard_normal(grid.num_points)
        assert inner_product(grid, f, derivative(grid, g, 1)) == pytest.approx(
            -inner_product(grid, derivative(grid, f, 1), g), abs=1e-12
        )
        assert inner_product(grid, f, derivative(grid, g, 2)) == pytest.approx(
            -inner_product(grid, derivative(grid, f, 1), derivative(grid, g, 1)),
            abs=1e-12,
        )
        assert inner_product(grid, f, derivative(grid, g, 4)) == pytest.approx(
            inner_product(grid, derivative(grid, f, 2), derivative(grid, g, 2)),
            abs=1e-12,
        )

    @pytest.mark.parametrize("p", [2, 3])
    def test_aliasing_bound(self, rng, p):
        # phi in B^{pN} drawn as random nodal data on the matching fine grid;
        # its interpolant onto the 2N+1 grid must obey the sqrt(p) bound
        n = 16
        fine = Grid(half_modes=p * n, length=80.0, x_left=-40.0)
        coarse = Grid(half_modes=n, length=80.0, x_left=-40.0)
        for _ in range(20):
            phi = rng.standard_normal(fine.num_points)
            coarse_vals = evaluate_interpolant(fine, phi, coarse.nodes)
            for k in range(3):
                assert (
                    sobolev_norm(coarse, coarse_vals, k)
                    <= np.sqrt(p) * sobolev_norm(fine, phi, k) + 1e-10
                )

    def test_spectral_accuracy_of_interpolation(self):
        # analytic periodic target: interpolation error collapses by far
        # more than 100x per doubling of N until the round-off floor
        reference = Grid(half_modes=512, length=2 * np.pi)
        target = np.exp(np.sin(reference.nodes))
        prev = None
        for n in (4, 8, 16, 32):
            grid = Grid(half_modes=n, length=2 * np.pi)
            interp = evaluate_interpolant(grid, np.exp(np.sin(grid.nodes)), reference.nodes)
            err = float(np.max(np.abs(interp - target)))
            if prev is not None and prev > 1e-13:
                assert prev / max(err, 1e-16) > 100
            prev = err
        assert prev < 1e-13
