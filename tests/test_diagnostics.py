"""Error records, mass and the crest position."""

import tracemalloc

import numpy as np
import pytest

from boussinesq.diagnostics import crest_position, error_norms, mass
from boussinesq.spectral import DENSE_MAX_POINTS, Grid, inner_product
from boussinesq.stepping import SchemeState, bootstrap, run
from boussinesq.waves import (
    params_from_amplitude,
    solitary_problem,
    solitary_wave,
)


def benchmark_grid(n=64):
    return Grid(half_modes=n, length=80.0, x_left=-40.0)


class TestErrorNorms:
    def test_exact_state_has_vanishing_errors(self):
        grid = benchmark_grid(128)
        p = params_from_amplitude(0.5)
        t = 1.25
        state = SchemeState(
            grid,
            step_index=0,
            time=t,
            u_curr=solitary_wave(p, grid.nodes, t),
            psi_curr=p.fields(grid.nodes, t)[1],
            u_prev=solitary_wave(p, grid.nodes, t),
        )
        rec = error_norms(state, p)
        assert rec.err_psi_l2 < 1e-12
        assert rec.err_u_h2 < 1e-12
        assert rec.err_u_l2 < 1e-12

    def test_constant_shift_invisible_to_h2_seminorm(self):
        grid = benchmark_grid(128)
        p = params_from_amplitude(0.5)
        base = SchemeState(
            grid,
            0,
            0.0,
            solitary_wave(p, grid.nodes, 0.0),
            p.fields(grid.nodes, 0.0)[1],
            solitary_wave(p, grid.nodes, 0.0),
        )
        shift = 0.37
        shifted = SchemeState(
            grid, 0, 0.0, base.u_curr + shift, base.psi_curr, base.u_prev
        )
        rec0, rec1 = error_norms(base, p), error_norms(shifted, p)
        assert rec1.err_u_h2 == pytest.approx(rec0.err_u_h2, abs=1e-10)
        assert rec1.err_u_l2 <= rec0.err_u_l2 + shift + 1e-12
        assert rec1.err_u_l2 > rec0.err_u_l2

    def test_h2_seminorm_matches_multiplier_route(self, rng):
        # on each transform path: matrix products (N = 64), np.fft (N = 256)
        # and two stages (N = 361)
        p = params_from_amplitude(0.5)
        for n in (64, 256, 361):
            grid = benchmark_grid(n)
            assert (grid.num_points <= DENSE_MAX_POINTS) == (n == 64)
            assert (grid._two_stage is not None) == (n == 361)
            u = solitary_wave(p, grid.nodes, 0.0) + 1e-3 * rng.standard_normal(
                grid.num_points
            )
            state = SchemeState(
                grid, 0, 0.0, u, p.fields(grid.nodes, 0.0)[1], u.copy()
            )
            rec = error_norms(state, p)
            err = u - solitary_wave(p, grid.nodes, 0.0)
            # full-spectrum reference: every mode l = -N..N in numpy FFT ordering
            coeffs = np.fft.fft(err) / grid.num_points
            modes = np.fft.fftfreq(grid.num_points, d=1.0 / grid.num_points)
            k = 2 * np.pi * modes / grid.length
            via_multiplier = float(np.sqrt(np.sum(k**4 * np.abs(coeffs) ** 2)))
            assert rec.err_u_h2 == pytest.approx(via_multiplier, abs=1e-12), n

    @pytest.mark.parametrize("n", [64, 256, 361])
    def test_l2_errors_are_norm2_of_the_nodal_differences(self, rng, n):
        # the grid's buffers change no bit of the two L2 norms
        grid = benchmark_grid(n)
        p = params_from_amplitude(0.5)
        u_e, psi_e = p.fields(grid.nodes, 0.3)
        u = u_e + 1e-3 * rng.standard_normal(grid.num_points)
        psi = psi_e + 1e-3 * rng.standard_normal(grid.num_points)
        rec = error_norms(SchemeState(grid, 0, 0.3, u, psi, u.copy()), p)
        u_err, psi_err = u - u_e, psi - psi_e
        assert rec.err_u_l2 == np.sqrt(inner_product(grid, u_err, u_err))
        assert rec.err_psi_l2 == np.sqrt(inner_product(grid, psi_err, psi_err))

    @pytest.mark.parametrize("which", ["both", "psi"])
    def test_values_off_the_grid_are_rejected(self, which):
        # one value per node, as mass and crest_position ask: a row of one
        # would broadcast against the exact wave
        grid = Grid(16, 80.0, -40.0)
        p = params_from_amplitude(0.5)
        u = np.zeros(1) if which == "both" else np.zeros(grid.num_points)
        state = SchemeState(grid, 0, 0.0, u, np.zeros(1), u.copy())
        with pytest.raises(ValueError, match="expected 33 values for this grid, got shape"):
            error_norms(state, p)

    @pytest.mark.parametrize("field", ["u", "psi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_are_rejected(self, field, bad):
        # u and psi alike; a huge finite value gives infinite norms instead
        grid = Grid(16, 80.0, -40.0)
        p = params_from_amplitude(0.5)
        u, psi = (x.copy() for x in p.fields(grid.nodes, 0.0))
        (u if field == "u" else psi)[5] = bad
        with pytest.raises(ValueError, match="grid function contains non-finite values"):
            error_norms(SchemeState(grid, 0, 0.0, u, psi, u.copy()), p)
        (u if field == "u" else psi)[5] = 1e200
        with np.errstate(over="ignore"):  # the squares of the H2 sum overflow
            rec = error_norms(SchemeState(grid, 0, 0.0, u, psi, u.copy()), p)
        assert (rec.err_u_l2 if field == "u" else rec.err_psi_l2) == np.inf

    def test_huge_mean_leaves_the_h2_seminorm_finite(self):
        # mode 0 has H2 weight 0, but its square overflows: it is kept out
        # of the sum, where 0 * inf was nan and numpy warned
        grid = Grid(16, 80.0, -40.0)
        p = params_from_amplitude(0.5)
        u = np.full(grid.num_points, 1e153)
        rec = error_norms(SchemeState(grid, 0, 0.0, u, p.fields(grid.nodes, 0.0)[1], u), p)
        assert rec.err_u_l2 == 1e153
        assert np.isfinite(rec.err_u_h2) and rec.err_u_h2 <= 1e-12 * rec.err_u_l2

    @pytest.mark.parametrize("n", [128, 256, 361])
    def test_allocates_no_array_once_warm(self, rng, n):
        # N = 128 transforms by matrix products, N = 256 by np.fft and N = 361
        # in two stages; the exact fields, errors and spectrum are written
        # into the grid's buffers, so only Python objects may come and go,
        # less than one nodal row
        grid = benchmark_grid(n)
        p = params_from_amplitude(0.5)
        u_e, psi_e = p.fields(grid.nodes, 0.2)
        state = SchemeState(grid, 0, 0.2, u_e + 1e-3 * rng.standard_normal(grid.num_points),
                            psi_e, u_e)
        for _ in range(3):
            error_norms(state, p)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                error_norms(state, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 8 * grid.num_points

    def test_one_forward_transform(self, monkeypatch):
        # error_norms makes one forward transform of the grid's pair and no
        # inverse one, on a grid that transforms by matrix products (N = 16)
        # and on one that calls np.fft (N = 256); a run observed by it every
        # step makes four transforms a step: the stepper's pair, psi's
        # inverse in the state and this forward one
        counts = dict.fromkeys(("forward", "inverse"), 0)
        for name in counts:
            fn = getattr(Grid, name)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(Grid, name, wrapper)

        def calls(fn, *args, **kwargs):
            counts.update(forward=0, inverse=0)
            fn(*args, **kwargs)
            return dict(counts)

        p = params_from_amplitude(0.5)
        observers = (lambda state: error_norms(state, p),)
        for n in (16, 256):
            grid = benchmark_grid(n)
            assert (grid.num_points <= DENSE_MAX_POINTS) == (n == 16)
            prob = solitary_problem(p, grid)
            state = bootstrap(prob, 0.01, "exact", p)
            assert state.psi_curr is not None
            assert calls(error_norms, state, p) == {"forward": 1, "inverse": 0}
            short, long = (
                calls(run, prob, 0.01, steps * 0.01, params=p, bootstrap_mode="exact",
                      observers=observers)
                for steps in (10, 30)
            )
            per_step = {key: (long[key] - short[key]) / 20 for key in counts}
            assert per_step == {"forward": 2, "inverse": 2}

    def test_three_level_state_has_nan_psi_error(self, rng):
        grid = benchmark_grid(64)
        p = params_from_amplitude(0.5)
        u = solitary_wave(p, grid.nodes, 0.4) + 1e-3 * rng.standard_normal(grid.num_points)
        rec = error_norms(SchemeState(grid, 0, 0.4, u, None, u.copy()), p)
        full = error_norms(
            SchemeState(grid, 0, 0.4, u, p.fields(grid.nodes, 0.4)[1], u.copy()), p
        )
        assert np.isnan(rec.err_psi_l2)
        assert (rec.err_u_h2, rec.err_u_l2) == (full.err_u_h2, full.err_u_l2)


class TestMass:
    def test_constant_function_mass_is_domain_length(self):
        grid = benchmark_grid(32)
        assert mass(grid, np.ones(grid.num_points)) == pytest.approx(80.0, abs=1e-10)

    def test_zero(self):
        grid = benchmark_grid(8)
        assert mass(grid, np.zeros(grid.num_points)) == 0.0

    def test_matches_naive_summation(self, rng):
        grid = benchmark_grid(16)
        u = rng.standard_normal(grid.num_points)
        expected = 0.0
        for v in u:
            expected += grid.spacing * v
        assert mass(grid, u) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("measure", [mass, crest_position])
def test_values_off_the_grid_are_rejected(measure):
    # the shape rule of spectral.inner_product: one value per node
    grid = Grid(16, 80.0, -40.0)
    with pytest.raises(ValueError, match="expected 33 values for this grid, got shape"):
        measure(grid, np.ones(5) if measure is mass else -np.arange(5.0))


class TestCrestPosition:
    def test_exact_profile_crest(self):
        # the crest at x = 0 sits 2.13 right of the middle of the domain
        grid = Grid(half_modes=256, length=80.0, x_left=-40.0 - 2.13)
        u = solitary_wave(params_from_amplitude(0.5), grid.nodes, 0.0)
        assert crest_position(grid, u) == pytest.approx(0.0, abs=grid.spacing)
