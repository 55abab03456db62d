"""Solitary-wave parameters, profiles and problem setup."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from boussinesq.spectral import Grid, derivative, inner_product
from boussinesq.waves import (
    GBProblem,
    SolitaryWaveParams,
    params_from_amplitude,
    solitary_problem,
    solitary_wave,
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

    @pytest.mark.parametrize("amplitude", ["0.5", True, None])
    def test_amplitude_not_a_real_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be a real number"):
            SolitaryWaveParams(amplitude)

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
        assert p.fields(0.0, 0.0)[1] == pytest.approx(0.0, abs=1e-15)

    def test_stationary_wave_has_zero_time_derivative(self):
        p = params_from_amplitude(1.5)
        x = np.linspace(-10, 10, 31)
        assert np.max(np.abs(p.fields(x, 2.0)[1])) == 0.0

    def test_time_derivative_matches_finite_difference(self):
        p = params_from_amplitude(0.5)
        h = 1e-6
        for x, t in [(0.7, 0.3), (-2.1, 1.0), (5.0, 2.5)]:
            fd = (solitary_wave(p, x, t + h) - solitary_wave(p, x, t - h)) / (2 * h)
            assert p.fields(x, t)[1] == pytest.approx(fd, abs=1e-8)

    def test_second_time_derivative_matches_finite_difference(self):
        p = params_from_amplitude(0.5)
        h = 1e-4
        for x, t in [(0.7, 0.3), (-2.1, 1.0)]:
            fd = (
                solitary_wave(p, x, t + h)
                - 2 * solitary_wave(p, x, t)
                + solitary_wave(p, x, t - h)
            ) / h**2
            assert p.u_tt(x, t) == pytest.approx(fd, abs=1e-6)

    def test_translation_property(self, rng):
        p = params_from_amplitude(0.5)
        for _ in range(10):
            x, t, s = rng.uniform(-5, 5, size=3)
            assert solitary_wave(p, x, t) == pytest.approx(
                solitary_wave(p, x + p.speed * s, t + s), abs=1e-13
            )

    def test_far_out_fields_are_finite_and_quiet(self):
        # |theta| > 710 overflows cosh to inf, where 1/inf = 0 is the right sech^2
        p = params_from_amplitude(0.5)
        x = np.array([-1e4, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, u_t = p.fields(x, 0.3)
            u_tt = p.u_tt(x, 0.3)
        for values in (u, u_t, u_tt):
            assert np.all(np.isfinite(values)) and np.max(np.abs(values)) == 0.0

    @pytest.mark.parametrize("t", [0.0, -0.1, 2.5])
    def test_one_evaluation_fields_equal_the_two_functions(self, t):
        # error_norms and solitary_problem take (u, u_t) from one theta and cosh^2
        # the crest sits 1.5 right of the middle of the domain
        p = params_from_amplitude(0.5)
        x = Grid(half_modes=64, length=80.0, x_left=-40.0 - 1.5).nodes
        u, u_t = p.fields(x, t)
        assert np.array_equal(u, solitary_wave(p, x, t))
        # pin u_t to its own expression
        th = 0.5 * p.shape * (x - p.speed * t)
        sech2 = 1.0 / np.cosh(th) ** 2
        assert np.array_equal(u_t, -p.amplitude * p.shape * p.speed * sech2 * np.tanh(th))
        u_tt = 0.5 * p.amplitude * (p.speed * p.shape) ** 2 * sech2 * (sech2 - 2 * np.tanh(th) ** 2)
        assert np.array_equal(p.u_tt(x, t), u_tt)


class TestProblemSetup:
    def test_benchmark_boundary_values_negligible(self):
        grid = Grid(half_modes=128, length=80.0, x_left=-40.0)
        p = params_from_amplitude(0.5)
        u0, v0 = p.fields(grid.nodes, 0.0)
        assert abs(u0[0]) < 1e-9

    def test_stationary_wave_has_zero_velocity_samples(self):
        grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
        u0, v0 = params_from_amplitude(1.5).fields(grid.nodes, 0.0)
        assert np.max(np.abs(v0)) == 0.0

    def test_minimum_sits_at_node_nearest_center(self):
        # the crest at x = 0 sits 1.3 right of the middle of the domain
        grid = Grid(half_modes=64, length=80.0, x_left=-40.0 - 1.3)
        u0, _ = params_from_amplitude(0.5).fields(grid.nodes, 0.0)
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
        # the equation is p = 2: the power is a constant, not a field
        assert GBProblem(grid, z, z).power == 2
        with pytest.raises(TypeError):
            GBProblem(grid, z, z, power=3)
        with pytest.raises(ValueError):
            GBProblem(grid, z[:-1], z)

    def test_discrete_pde_residual(self):
        # the exact solution must satisfy the discretized equation up to
        # periodization and round-off
        grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
        p = params_from_amplitude(0.5)
        u = solitary_wave(p, grid.nodes, 0.0)
        utt = p.u_tt(grid.nodes, 0.0)
        rhs = (
            -derivative(grid, u, 4)
            + derivative(grid, u, 2)
            + derivative(grid, u**2, 2)
        )
        residual = utt - rhs
        assert np.sqrt(inner_product(grid, residual, residual)) <= 1e-6
