"""Solitary-wave parameters, profiles and problem setup."""

import os
import subprocess
import sys

import numpy as np
import pytest

from boussinesq.spectral import Grid, derivative, norm2
from boussinesq.waves import (
    GBProblem,
    SolitaryWaveParams,
    _check_power,
    _power,
    params_from_amplitude,
    solitary_fields,
    solitary_problem,
    solitary_wave,
    solitary_wave_dtt,
)


class TestParams:
    def test_boundary_amplitude_gives_stationary_wave(self):
        p = params_from_amplitude(1.5)
        assert p.shape == pytest.approx(1.0, abs=1e-14)
        assert p.speed == pytest.approx(0.0, abs=1e-14)

    def test_benchmark_amplitude(self):
        p = params_from_amplitude(0.5)
        assert p.shape == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-14)
        assert p.speed == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-14)

    def test_amplitude_out_of_range(self):
        with pytest.raises(ValueError):
            params_from_amplitude(2.0)
        with pytest.raises(ValueError):
            params_from_amplitude(0.0)

    def test_inconsistent_fields_rejected(self):
        # P and c0 are derived from A, so only the amplitude range can be wrong
        with pytest.raises(ValueError, match="amplitude"):
            SolitaryWaveParams(amplitude=2.0)


class TestProfile:
    def test_trough_value_at_crest(self):
        p = params_from_amplitude(0.5)
        t = 1.7
        assert solitary_wave(p, p.speed * t, t) == pytest.approx(-0.5, abs=1e-15)

    def test_exponential_decay(self):
        p = params_from_amplitude(0.5)
        assert abs(solitary_wave(p, 40.0, 0.0)) < 1e-9

    def test_time_derivative_vanishes_at_crest(self):
        p = params_from_amplitude(0.5)
        assert solitary_fields(p, 0.0, 0.0)[1] == pytest.approx(0.0, abs=1e-15)

    def test_stationary_wave_has_zero_time_derivative(self):
        p = params_from_amplitude(1.5)
        x = np.linspace(-10, 10, 31)
        assert np.max(np.abs(solitary_fields(p, x, 2.0)[1])) == 0.0

    def test_time_derivative_matches_finite_difference(self):
        p = params_from_amplitude(0.5)
        h = 1e-6
        for x, t in [(0.7, 0.3), (-2.1, 1.0), (5.0, 2.5)]:
            fd = (solitary_wave(p, x, t + h) - solitary_wave(p, x, t - h)) / (2 * h)
            assert solitary_fields(p, x, t)[1] == pytest.approx(fd, abs=1e-8)

    def test_second_time_derivative_matches_finite_difference(self):
        p = params_from_amplitude(0.5)
        h = 1e-4
        for x, t in [(0.7, 0.3), (-2.1, 1.0)]:
            fd = (
                solitary_wave(p, x, t + h)
                - 2 * solitary_wave(p, x, t)
                + solitary_wave(p, x, t - h)
            ) / h**2
            assert solitary_wave_dtt(p, x, t) == pytest.approx(fd, abs=1e-6)

    def test_translation_property(self, rng):
        p = params_from_amplitude(0.5)
        for _ in range(10):
            x, t, s = rng.uniform(-5, 5, size=3)
            assert solitary_wave(p, x, t) == pytest.approx(
                solitary_wave(p, x + p.speed * s, t + s), abs=1e-13
            )

    @pytest.mark.parametrize("t", [0.0, -0.1, 2.5])
    def test_one_evaluation_fields_equal_the_two_functions(self, t):
        # error_norms and solitary_problem take (u, u_t) from one theta and cosh^2
        # the crest sits 1.5 right of the middle of the domain
        p = params_from_amplitude(0.5)
        x = Grid(half_modes=64, length=80.0, x_left=-40.0 - 1.5).nodes
        u, u_t = solitary_fields(p, x, t)
        assert np.array_equal(u, solitary_wave(p, x, t))
        # pin u_t to its own expression
        th = 0.5 * p.shape * (x - p.speed * t)
        sech2 = 1.0 / np.cosh(th) ** 2
        assert np.array_equal(u_t, -p.amplitude * p.shape * p.speed * sech2 * np.tanh(th))


class TestNonlinearity:
    def test_zero(self):
        assert np.all(_power(np.zeros(5), 2) == 0.0)

    def test_even_power_of_negative_one(self):
        assert np.all(_power(-np.ones(5), 2) == 1.0)

    def test_matches_loop_oracle(self, rng):
        f = rng.standard_normal(17)
        out = _power(f, 3)
        for i in range(17):
            # vectorized pow may round the last bit differently than scalar pow
            assert out[i] == pytest.approx(f[i] ** 3, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("power", [3, 4, 5])
    def test_repeated_products_match_pow(self, rng, power):
        f = rng.standard_normal(1025)
        assert np.allclose(_power(f, power), f**power, rtol=1e-14, atol=0.0)

    def test_square_is_exact(self, rng):
        f = rng.standard_normal(1025)
        assert np.array_equal(_power(f, 2), f * f)

    def test_power_below_two_rejected(self):
        # the one check of GBProblem and ProposedStepper
        for power in (1, 0, 2.0, 2.5, True):
            with pytest.raises(ValueError, match="an integer >= 2"):
                _check_power(power)
        _check_power(np.int64(3))


class TestProblemSetup:
    def test_benchmark_boundary_values_negligible(self):
        grid = Grid(half_modes=128, length=80.0, x_left=-40.0)
        p = params_from_amplitude(0.5)
        u0, v0 = solitary_fields(p, grid.nodes, 0.0)
        assert abs(u0[0]) < 1e-9

    def test_stationary_wave_has_zero_velocity_samples(self):
        grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
        u0, v0 = solitary_fields(params_from_amplitude(1.5), grid.nodes, 0.0)
        assert np.max(np.abs(v0)) == 0.0

    def test_minimum_sits_at_node_nearest_center(self):
        # the crest at x = 0 sits 1.3 right of the middle of the domain
        grid = Grid(half_modes=64, length=80.0, x_left=-40.0 - 1.3)
        u0, _ = solitary_fields(params_from_amplitude(0.5), grid.nodes, 0.0)
        node = grid.nodes[np.argmin(u0)]
        assert abs(node) <= 0.5 * grid.spacing + 1e-12

    def test_unsupported_wave_warns(self):
        grid = Grid(half_modes=16, length=10.0, x_left=-5.0)
        with pytest.warns(UserWarning):
            solitary_problem(params_from_amplitude(0.5), grid)

    def test_unsupported_wave_warning_points_at_the_caller(self):
        grid = Grid(half_modes=16, length=10.0, x_left=-5.0)
        with pytest.warns(UserWarning, match="domain boundary") as rec:
            solitary_problem(params_from_amplitude(0.5), grid)
        assert rec[0].filename == __file__

    def test_warning_under_python_m_names_the_cli(self, tmp_path, package_env):
        # every frame above the package is runpy's; the warning names the
        # line of cli.py that calls run_sweep
        argv = ["run", "--xmin", "-5", "--xmax", "5", "--N", "16", "--T", "0.1", "--dt", "0.05"]
        done = subprocess.run(
            [sys.executable, "-m", "boussinesq.cli", *argv],
            cwd=tmp_path, env=package_env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        (line,) = [x for x in done.stderr.splitlines() if "UserWarning" in x]
        assert os.path.join("boussinesq", "cli.py") in line
        assert "runpy" not in done.stderr

    def test_problem_validates_power_and_shapes(self):
        grid = Grid(half_modes=8, length=80.0, x_left=-40.0)
        z = np.zeros(grid.num_points)
        with pytest.raises(ValueError):
            GBProblem(power=1, grid=grid, initial_u=z, initial_ut=z)
        with pytest.raises(ValueError, match="an integer >= 2"):
            GBProblem(power=3.0, grid=grid, initial_u=z, initial_ut=z)
        with pytest.raises(ValueError):
            GBProblem(power=2, grid=grid, initial_u=z[:-1], initial_ut=z)

    def test_discrete_pde_residual(self):
        # the exact solution must satisfy the discretized equation up to
        # periodization and round-off
        grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
        p = params_from_amplitude(0.5)
        u = solitary_wave(p, grid.nodes, 0.0)
        utt = solitary_wave_dtt(p, grid.nodes, 0.0)
        rhs = (
            -derivative(grid, u, 4)
            + derivative(grid, u, 2)
            + derivative(grid, u**2, 2)
        )
        assert norm2(grid, utt - rhs) <= 1e-6
