"""Error records, mass and the modified energy functional."""

import numpy as np
import pytest

from boussinesq.diagnostics import (
    crest_position,
    error_norms,
    mass,
    modified_energy,
)
from boussinesq.spectral import DENSE_MAX_POINTS, Grid, derivative, norm2
from boussinesq.stepping import SchemeState, bootstrap, run
from boussinesq.waves import (
    params_from_amplitude,
    solitary_fields,
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
            psi_curr=solitary_fields(p, grid.nodes, t)[1],
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
            solitary_fields(p, grid.nodes, 0.0)[1],
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
        grid = benchmark_grid(64)
        p = params_from_amplitude(0.5)
        u = solitary_wave(p, grid.nodes, 0.0) + 1e-3 * rng.standard_normal(
            grid.num_points
        )
        state = SchemeState(
            grid, 0, 0.0, u, solitary_fields(p, grid.nodes, 0.0)[1], u.copy()
        )
        rec = error_norms(state, p)
        err = u - solitary_wave(p, grid.nodes, 0.0)
        # full-spectrum reference: every mode l = -N..N in numpy FFT ordering
        coeffs = np.fft.fft(err) / grid.num_points
        modes = np.fft.fftfreq(grid.num_points, d=1.0 / grid.num_points)
        k = 2 * np.pi * modes / grid.length
        via_multiplier = float(np.sqrt(np.sum(k**4 * np.abs(coeffs) ** 2)))
        assert rec.err_u_h2 == pytest.approx(via_multiplier, abs=1e-12)

    def test_one_forward_transform(self, monkeypatch):
        # error_norms makes one Grid.rfft and no Grid.irfft, on a grid that
        # transforms by matrix products (N = 16) and on one that calls np.fft
        # (N = 256); a run observed by it every step makes four transforms a
        # step: the stepper's pair, psi's irfft in the state and this rfft
        counts = dict.fromkeys(("rfft", "irfft"), 0)
        for name in counts:
            fn = getattr(Grid, name)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(Grid, name, wrapper)

        def calls(fn, *args, **kwargs):
            counts.update(rfft=0, irfft=0)
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
            assert calls(error_norms, state, p) == {"rfft": 1, "irfft": 0}
            short, long = (
                calls(run, prob, 0.01, steps * 0.01, params=p, bootstrap_mode="exact",
                      observers=observers)
                for steps in (10, 30)
            )
            per_step = {key: (long[key] - short[key]) / 20 for key in counts}
            assert per_step == {"rfft": 2, "irfft": 2}

    def test_three_level_state_has_nan_psi_error(self, rng):
        grid = benchmark_grid(64)
        p = params_from_amplitude(0.5)
        u = solitary_wave(p, grid.nodes, 0.4) + 1e-3 * rng.standard_normal(grid.num_points)
        rec = error_norms(SchemeState(grid, 0, 0.4, u, None, u.copy()), p)
        full = error_norms(
            SchemeState(grid, 0, 0.4, u, solitary_fields(p, grid.nodes, 0.4)[1], u.copy()), p
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


class TestModifiedEnergy:
    def test_zero_fields(self):
        grid = benchmark_grid(16)
        z = np.zeros(grid.num_points)
        assert modified_energy(grid, z, z) == 0.0

    def test_unit_psi_error(self):
        grid = benchmark_grid(16)
        z = np.zeros(grid.num_points)
        assert modified_energy(grid, z, np.ones(grid.num_points)) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_constant_u_error_contributes_nothing(self):
        grid = benchmark_grid(16)
        z = np.zeros(grid.num_points)
        assert modified_energy(grid, np.full(grid.num_points, 7.0), z) < 1e-20

    def test_recomposition_from_norms(self, rng):
        grid = benchmark_grid(32)
        u_err = rng.standard_normal(grid.num_points)
        psi_err = rng.standard_normal(grid.num_points)
        expected = 0.5 * (
            norm2(grid, psi_err) ** 2
            + norm2(grid, derivative(grid, u_err, 2)) ** 2
            + norm2(grid, derivative(grid, u_err, 1)) ** 2
        )
        got = modified_energy(grid, u_err, psi_err)
        assert got == pytest.approx(expected, abs=1e-14 * max(1.0, expected))
        assert got >= 0.0


class TestCrestPosition:
    def test_exact_profile_crest(self):
        # the crest at x = 0 sits 2.13 right of the middle of the domain
        grid = Grid(half_modes=256, length=80.0, x_left=-40.0 - 2.13)
        u = solitary_wave(params_from_amplitude(0.5), grid.nodes, 0.0)
        assert crest_position(grid, u) == pytest.approx(0.0, abs=grid.spacing)
