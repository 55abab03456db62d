"""Scheme mechanics: implicit diagonal, stepping, bootstrap and run control."""

import tracemalloc
import warnings

import numpy as np
import pytest

from boussinesq.spectral import DENSE_MAX_POINTS, Grid, derivative, inner_product
from boussinesq.stepping import (
    BLOWUP_FACTOR,
    SCHEMES,
    FrutosStepper,
    LinearStepper,
    ProposedStepper,
    SchemeState,
    bootstrap,
    bootstrap_frutos,
    build_implicit_diagonal,
    run,
    run_batch,
)
from boussinesq.diagnostics import crest_position, error_norms, mass
from boussinesq.sweeps import AMPLITUDE, stability_spec
from boussinesq.waves import (
    GBProblem,
    SolitaryWaveParams,
    params_from_amplitude,
    solitary_problem,
    solitary_wave,
)


def l2_norm(grid, f):
    """The nodal l2 norm: the square root of the mean-weighted inner product."""
    return np.sqrt(inner_product(grid, f, f))


def benchmark_grid(n=128):
    return Grid(half_modes=n, length=80.0, x_left=-40.0)


def full_wavenumbers(grid):
    """k_l = 2 pi l / L over the full mode list in numpy FFT ordering: 0..N, -N..-1."""
    n = grid.half_modes
    return 2 * np.pi * np.concatenate([np.arange(n + 1), np.arange(-n, 0)]) / grid.length


def mode_zero(stepper):
    """(m', f0, f1, c, q, s) of mode 0 of a one-run stepper: its Re and its Im slot."""
    return [x[:2] for x in (stepper.m, stepper.f0, stepper.f1, stepper.c, stepper.q, stepper.s)]


def zero_problem(grid):
    z = np.zeros(grid.num_points)
    return GBProblem(grid, z, z.copy())


class TestImplicitDiagonal:
    def test_mode_zero_entry(self):
        grid = benchmark_grid(16)
        lam = build_implicit_diagonal(grid, dt=0.25)
        assert lam[0] == pytest.approx(2.0 / 0.25**2, abs=1e-12)

    def test_unit_wavenumber_entry(self):
        grid = Grid(half_modes=8, length=2 * np.pi)
        lam = build_implicit_diagonal(grid, dt=1.0)
        assert lam[1] == pytest.approx(3.0, abs=1e-12)

    def test_positive_for_any_dt(self):
        for dt in (1e-6, 1e-3, 1.0):
            for n in (16, 128, 1024):
                lam = build_implicit_diagonal(Grid(half_modes=n, length=80.0), dt)
                assert np.all(lam > 0)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            build_implicit_diagonal(benchmark_grid(8), 0.0)

    @pytest.mark.parametrize("build", [ProposedStepper, FrutosStepper])
    def test_step_too_small_for_one_over_dt_squared_rejected(self, build):
        # 4/dt^2 overflows below about 1.5e-154: one error, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time step too small.*1e-155"):
                build(benchmark_grid(16), 1e-155)


class TestProposedStep:
    def test_zero_is_fixed_point(self):
        grid = benchmark_grid(32)
        z = np.zeros(grid.num_points)
        u, psi = ProposedStepper(grid, dt=0.01).step_arrays(z, z, z)
        assert np.all(u == 0.0)
        assert np.all(psi == 0.0)

    @pytest.mark.parametrize("power", [1, 2.5, 3.0, 3])
    def test_power_not_an_integer_above_one_rejected(self, power):
        # the equation is p = 2: every other power, an integer above one too, is refused
        with pytest.raises(ValueError, match="the equation is p = 2"):
            ProposedStepper(benchmark_grid(8), 0.1, power)

    def test_one_step_dispersion_error_is_third_order(self):
        # tiny-amplitude single mode: the nonlinearity is negligible and
        # the exact solution is eps*cos(kx)cos(wt) with w = sqrt(k^4+k^2).
        # The trapezoidal phase error is O(dt^3); starting from the crest
        # (u_t = 0) it lands on u only through a sin(w dt) ~ dt factor, so
        # the O(dt^3) local error shows up cleanly in psi.
        grid = Grid(half_modes=32, length=2 * np.pi)
        k = 3.0
        omega = np.sqrt(k**4 + k**2)
        eps = 1e-6

        def one_step_error(dt):
            u0 = eps * np.cos(k * grid.nodes)
            u_prev = eps * np.cos(k * grid.nodes) * np.cos(omega * dt)
            _, psi = ProposedStepper(grid, dt, 2).step_arrays(
                u0, np.zeros(grid.num_points), u_prev
            )
            exact_psi = -eps * omega * np.cos(k * grid.nodes) * np.sin(omega * dt)
            return l2_norm(grid, psi - exact_psi)

        e_coarse = one_step_error(0.05)
        e_fine = one_step_error(0.025)
        assert 6.0 < e_coarse / e_fine < 10.0

    def test_coupling_identity(self, rng):
        grid = benchmark_grid(64)
        dt = 1e-3
        u = np.exp(np.sin(2 * np.pi * (grid.nodes + 40) / 80))
        psi = 0.3 * np.cos(2 * np.pi * (grid.nodes + 40) / 80)
        u_prev = u.copy()
        stepper = ProposedStepper(grid, dt, 2)
        for _ in range(5):
            u_new, psi_new = stepper.step_arrays(u, psi, u_prev)
            lhs = (u_new - u) / dt
            rhs = 0.5 * (psi_new + psi)
            assert l2_norm(grid, lhs - rhs) <= 1e-10 * (l2_norm(grid, psi_new) + 1.0)
            u, psi, u_prev = u_new, psi_new, u

    def test_global_error_halves_like_dt_squared(self):
        grid = benchmark_grid(128)
        p = params_from_amplitude(0.5)
        prob = solitary_problem(p, grid)

        def final_h2_error(dt):
            result = run(prob, dt, 4.0, params=p, bootstrap_mode="exact")
            assert not result.diverged
            u_err = result.u_curr - solitary_wave(p, grid.nodes, 4.0)
            return l2_norm(grid, derivative(grid, u_err, 2))

        ratio = final_h2_error(4e-3) / final_h2_error(2e-3)
        assert 3.4 < ratio < 4.6

    def test_linear_update_matrix_is_non_amplifying(self):
        # the stepper's per-mode linear map is the trapezoidal update of
        # (u, psi), whose spectral radius is at most 1
        grid = benchmark_grid(64)
        for dt in (1e-3, 0.05, 1.0):
            matrix = ProposedStepper(grid, dt, 2).matrix
            sigma = grid.wavenumbers**2
            sigma = sigma + sigma**2
            for s, M in zip(sigma, matrix):
                A = np.array([[1.0, -dt / 2.0], [dt * s / 2.0, 1.0]])
                B = np.array([[1.0, dt / 2.0], [-dt * s / 2.0, 1.0]])
                assert np.allclose(M, np.linalg.solve(A, B), rtol=1e-12, atol=1e-12)
                assert np.max(np.abs(np.linalg.eigvals(M))) <= 1.0 + 1e-12

    def test_matches_full_spectrum_formula(self):
        # reference: assemble the right-hand side on the complex spectrum
        # and divide by the implicit diagonal
        grid = benchmark_grid(32)
        dt = 0.05
        theta = 2 * np.pi * (grid.nodes + 40) / 80
        u = np.exp(np.sin(theta))
        psi = 0.3 * np.cos(2 * theta)
        u_prev = u - dt * psi + 1e-3 * np.sin(3 * theta)
        k2 = full_wavenumbers(grid) ** 2
        fft = np.fft.fft
        rhs = (
            -k2 * fft(1.5 * u**2 - 0.5 * u_prev**2)
            + (2.0 / dt**2 - 0.5 * (k2**2 + k2)) * fft(u)
            + (2.0 / dt) * fft(psi)
        )
        u_ref = np.fft.ifft(rhs / (2.0 / dt**2 + 0.5 * (k2**2 + k2))).real
        psi_ref = 2.0 * (u_ref - u) / dt - psi
        u_new, psi_new = ProposedStepper(grid, dt).step_arrays(u, psi, u_prev)
        assert np.max(np.abs(u_new - u_ref)) <= 1e-12
        assert np.max(np.abs(psi_new - psi_ref)) <= 1e-10

    def test_mode_zero_coefficients(self):
        grid = benchmark_grid(32)
        for dt in (1e-4, 0.1, 3.0):
            m, f0, f1, c, q, s = mode_zero(ProposedStepper(grid, dt, 2))
            # the delta form's m' = m - 1 is exactly 0: dU_0 = c Q_0
            assert np.all(m == 0.0)
            assert np.all(f0 == 0.0) and np.all(f1 == 0.0)
            assert np.all(abs(c - dt) <= 1e-15 * dt)
            # Q_0' = 0 (U_0' - U_0) + Q_0: the mean of psi is copied exactly
            assert np.all(q == 0.0) and np.all(s == -1.0)
            assert np.array_equal(ProposedStepper(grid, dt).matrix[0], [[1.0, c[0]], [0.0, 1.0]])

    def test_psi_error_does_not_grow_as_dt_shrinks(self):
        # in delta form Z' = q dY - s Z does not multiply the rounding of Y'
        # by q = 2/dt, as Z' = q (Y' - Y) - s Z did: at N = 64 and T = 1 that
        # form's psi error at dt = 2.5e-5 was 9.2x the one at dt = 1e-4
        prob, p = batch_problem(64)
        coarse, fine = run_batch((prob,), (("proposed", 1e-4), ("proposed", 2.5e-5)), 1.0,
                                 "exact", p)
        assert error_norms(fine, p).err_psi_l2 <= 2.0 * error_norms(coarse, p).err_psi_l2

    def test_mass_conserved_with_zero_initial_velocity(self, rng):
        grid = benchmark_grid(64)
        u0 = 1.0 + np.exp(np.sin(2 * np.pi * (grid.nodes + 40) / 80)) + 0.1 * np.cos(
            4 * np.pi * (grid.nodes + 40) / 80
        )
        prob = GBProblem(grid, u0, np.zeros(grid.num_points))
        mean0 = float(np.mean(u0))
        state = bootstrap(prob, dt=1e-3)
        stepper = ProposedStepper(grid, 1e-3, 2)
        u, psi, u_prev = state.u_curr, state.psi_curr, state.u_prev
        for _ in range(1000):
            u, psi, u_prev = (*stepper.step_arrays(u, psi, u_prev), u)
        assert abs(float(np.mean(u)) - mean0) <= 1e-12 * abs(mean0)


class TestBootstrap:
    def test_zero_data_modes_identical(self):
        grid = benchmark_grid(16)
        prob = zero_problem(grid)
        a = bootstrap(prob, 0.01, mode="self_start")
        p = params_from_amplitude(0.5)
        b = bootstrap(prob, 0.01, mode="exact", params=p)
        assert np.all(a.u_curr == 0.0) and np.all(a.psi_curr == 0.0)
        assert np.all(b.u_curr == 0.0) and np.all(b.psi_curr == 0.0)

    def test_exact_mode_samples_previous_time(self):
        grid = benchmark_grid(128)
        p = params_from_amplitude(0.5)
        prob = solitary_problem(p, grid)
        dt = 0.1
        state = bootstrap(prob, dt, mode="exact", params=p)
        assert np.allclose(state.u_prev, solitary_wave(p, grid.nodes, -dt))
        # crest of u^{-1} sits behind the t=0 crest
        assert crest_position(grid, state.u_prev) == pytest.approx(
            -p.speed * dt, abs=grid.spacing
        )

    def test_exact_mode_requires_params(self):
        prob = zero_problem(benchmark_grid(8))
        with pytest.raises(ValueError):
            bootstrap(prob, 0.01, mode="exact")

    def test_self_start_preserves_global_accuracy(self):
        grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
        p = params_from_amplitude(0.5)
        prob = solitary_problem(p, grid)

        def final_error(mode):
            result = run(prob, 4e-3, 4.0, params=p, bootstrap_mode=mode)
            assert not result.diverged
            return l2_norm(grid, result.u_curr - solitary_wave(p, grid.nodes, 4.0))

        ratio = final_error("self_start") / final_error("exact")
        assert 0.5 <= ratio <= 2.0


class TestFrutos:
    def test_zero_is_fixed_point(self):
        grid = benchmark_grid(32)
        z = np.zeros(grid.num_points)
        assert np.all(FrutosStepper(grid, dt=0.01).step_arrays(z, z) == 0.0)

    def test_matches_full_spectrum_formula(self):
        grid = benchmark_grid(32)
        dt = 0.05
        theta = 2 * np.pi * (grid.nodes + 40) / 80
        u = np.exp(np.sin(theta))
        u_prev = u - dt * 0.3 * np.cos(2 * theta)
        k2 = full_wavenumbers(grid) ** 2
        u_hat, u_prev_hat = np.fft.fft(u), np.fft.fft(u_prev)
        rhs = (
            (2.0 * u_hat - u_prev_hat) / dt**2
            - 0.25 * k2**2 * (2.0 * u_hat + u_prev_hat)
            - k2 * (u_hat + np.fft.fft(u * u))
        )
        u_ref = np.fft.ifft(rhs / (1.0 / dt**2 + 0.25 * k2**2)).real
        u_new = FrutosStepper(grid, dt).step_arrays(u, u_prev)
        assert np.max(np.abs(u_new - u_ref)) <= 1e-12

    def test_diagonal_symbol_at_mode_zero(self):
        # lam_0 = 1/dt^2 cancels from the mode-0 coefficients: alpha_0 = 2
        # and beta_0 = -1, so m'_0 = alpha_0 - 2 = 0, dU_0 = dt D_0 and
        # D_0' = dU_0/dt
        dt = 0.5
        stepper = FrutosStepper(benchmark_grid(16), dt=dt)
        m, f0, f1, c, q, s = mode_zero(stepper)
        assert m == pytest.approx([0.0, 0.0], abs=1e-15)
        assert np.all(f0 == 0.0) and np.all(f1 == 0.0)
        assert c == pytest.approx([dt, dt], abs=1e-15)
        assert q == pytest.approx([1.0 / dt, 1.0 / dt], abs=1e-15)
        assert np.all(s == 0.0)
        assert np.allclose(stepper.matrix[0], [[1.0, dt], [0.0, 1.0]], rtol=0, atol=1e-15)

    def test_comparable_accuracy_when_stable(self):
        grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
        p = params_from_amplitude(0.5)
        prob = solitary_problem(p, grid)
        errs = {}
        for scheme in ("proposed", "frutos"):
            result = run(prob, 4e-3, 4.0, scheme=scheme, params=p, bootstrap_mode="exact")
            assert not result.diverged
            u_err = result.u_curr - solitary_wave(p, grid.nodes, 4.0)
            errs[scheme] = l2_norm(grid, derivative(grid, u_err, 2))
        assert errs["frutos"] <= 10.0 * errs["proposed"]

    def test_state_is_a_scheme_state_without_psi(self):
        grid = benchmark_grid(16)
        p = params_from_amplitude(0.5)
        prob = solitary_problem(p, grid)
        start = bootstrap_frutos(prob, 0.05, p)
        exact = bootstrap(prob, 0.05, mode="exact", params=p)
        assert isinstance(start, SchemeState) and start.psi_curr is None
        assert np.array_equal(start.u_curr, exact.u_curr)
        assert np.array_equal(start.u_prev, exact.u_prev)
        final = run(prob, 0.05, 0.5, scheme="frutos", bootstrap_mode="exact", params=p)
        assert isinstance(final, SchemeState) and final.psi_curr is None
        assert final.step_index == 10

    def test_self_start_refused(self):
        # run's default start, u^{-1} := u^0, would start the scheme at rest
        prob = zero_problem(benchmark_grid(16))
        with pytest.raises(ValueError, match="needs the exact start"):
            run(prob, 0.01, 0.1, "frutos")


def three_level_textbook(grid, dt):
    """[[alpha, beta], [1, 0]] per mode: the map of (U, V) = (U^n, U^{n-1})."""
    k2 = grid.wavenumbers**2
    lam = 1.0 / dt**2 + 0.25 * k2**2
    alpha = (2.0 / dt**2 - 0.5 * k2**2 - k2) / lam
    beta = (-1.0 / dt**2 - 0.25 * k2**2) / lam
    return np.stack([alpha, beta, np.ones_like(k2), np.zeros_like(k2)], axis=-1).reshape(-1, 2, 2)


class TestStabilityLadder:
    """``stepper.matrix`` predicts the stability ladder at dt = 0.1, L = 80."""

    NS = (64, 128, 256, 512)

    @pytest.mark.parametrize("n", NS)
    def test_both_maps_preserve_area(self, n):
        for plan in (ProposedStepper, FrutosStepper):
            det = np.linalg.det(plan(benchmark_grid(n), 0.1).matrix)
            assert np.max(np.abs(det - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", NS)
    def test_proposed_never_amplifies(self, n):
        radius = np.abs(np.linalg.eigvals(ProposedStepper(benchmark_grid(n), 0.1).matrix))
        assert np.max(radius) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "n, peak",
        [(64, 1.0), (128, 1.0), (254, 1.0), (255, 1.0053), (256, 1.0102), (512, 1.0512)],
    )
    def test_three_level_growth_factor(self, n, peak):
        # modes with k > 2/dt grow: none below N = 255, then up to mode 360
        radius = np.abs(np.linalg.eigvals(FrutosStepper(benchmark_grid(n), 0.1).matrix)).max(-1)
        if peak == 1.0:
            assert np.max(np.abs(radius - 1.0)) <= 1e-12
        else:
            assert round(float(np.max(radius)), 4) == peak
        if n == 512:
            assert np.argmax(radius) == 360
        # k_l dt > 2 is l > L/(pi dt): the growing modes are l = 255 ... N
        first = int(np.ceil(80.0 / (np.pi * 0.1)))
        assert first == 255
        assert np.array_equal(np.flatnonzero(radius > 1.0 + 1e-12), np.arange(first, n + 1))

    def test_three_level_growth_rate_is_capped(self):
        # no mode of any grid or step grows faster than e^{t/2}: by T = 4 the
        # linear map gives at most e^2, far short of what criterion 7 asks
        def rate(n, dt):
            radius = np.abs(np.linalg.eigvals(FrutosStepper(benchmark_grid(n), dt).matrix))
            return float(np.log(radius.max()) / dt)

        rates = [rate(n, dt) for dt in np.geomspace(1e-3, 1.0, 13) for n in 2 ** np.arange(6, 13)]
        assert max(rates) < 0.5
        assert 4.0 * rate(512, 0.1) <= 2.0

    def test_three_level_band_grows_at_the_predicted_rate(self):
        # from the exact start, the energy of the growing band l >= 255 rises
        # from round-off at the rate max ln|mu| / dt of the linear map
        grid = benchmark_grid(512)
        radius = np.abs(np.linalg.eigvals(FrutosStepper(grid, 0.1).matrix)).max(-1)
        band = radius > 1.0 + 1e-12
        assert np.flatnonzero(band)[0] == 255
        times, energy = [], []

        def observe(state):
            times.append(state.time)
            energy.append(np.sum(np.abs(np.fft.rfft(state.u_curr)[band]) ** 2))

        p = SolitaryWaveParams(AMPLITUDE)
        result = run(solitary_problem(p, grid), 0.1, 30.0, "frutos", "exact", p, (observe,), 50)
        assert not result.diverged and times == pytest.approx([5.0 * i for i in range(7)])
        fit = slice(2, None)  # t = 10 ... 30
        slope = np.polyfit(times[fit], 0.5 * np.log(energy[fit]), 1)[0]
        predicted = np.log(radius.max()) / 0.1
        assert predicted == pytest.approx(0.49979, abs=1e-5)
        assert slope == pytest.approx(predicted, rel=0.1)

    def test_predicted_diverging_set_of_the_stability_map(self):
        # a row is predicted to diverge when the e-folds of its fastest mode
        # by T, T max ln|mu| / dt, exceed those its growing band needs to
        # carry the rms from the band's initial rms to the blow-up threshold;
        # criterion 7b observes the same set at T = 100
        spec = stability_spec()
        wave = SolitaryWaveParams(AMPLITUDE)
        predicted, needed = set(), {}
        for scheme in spec.schemes:
            for n in spec.N_list:
                grid = spec._grid(n)
                matrix = SCHEMES[scheme](grid, spec.dt).matrix
                radius = np.abs(np.linalg.eigvals(matrix)).max(-1)
                band = radius > 1.0 + 1e-12
                if not band.any():
                    continue
                u = wave.fields(grid.nodes, 0.0)[0]
                spectrum = np.fft.rfft(u)[band] / grid.num_points
                band_rms = np.sqrt(np.sum(2 * np.abs(spectrum) ** 2))
                threshold = BLOWUP_FACTOR * max(np.sqrt(np.mean(u**2)), 1.0)
                available = spec.T * np.log(radius.max()) / spec.dt
                needed[scheme, n] = np.log(threshold / band_rms)
                if available > needed[scheme, n]:
                    predicted.add((scheme, n))
        assert predicted == {("frutos", 512)}
        # the e-folds that stability_spec's docstring gives: 43.5 and 44.9
        assert sorted(needed) == [("frutos", 256), ("frutos", 512)]
        assert round(needed["frutos", 512], 1) == 43.5
        assert round(needed["frutos", 256], 1) == 44.9

    @pytest.mark.parametrize("n", NS)
    def test_three_level_matrix_has_the_textbook_eigenvalues(self, n):
        # (U, D) with D = (U - V)/dt is a change of variables of (U, V)
        grid = benchmark_grid(n)
        got = np.sort_complex(np.linalg.eigvals(FrutosStepper(grid, 0.1).matrix))
        want = np.sort_complex(np.linalg.eigvals(three_level_textbook(grid, 0.1)))
        assert np.max(np.abs(got - want)) <= 1e-12


class TestRun:
    @pytest.mark.parametrize(
        "scheme, power", [("proposed", 2), ("frutos", 2)]
    )
    def test_matches_loop_of_nodal_steps(self, scheme, power):
        grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
        p = params_from_amplitude(0.5)
        prob = solitary_problem(p, grid)
        dt, steps = 4e-3, 500
        result = run(prob, dt, steps * dt, scheme=scheme, params=p, bootstrap_mode="exact")
        assert not result.diverged and result.step_index == steps
        if scheme == "frutos":
            state = bootstrap_frutos(prob, dt, p)
            stepper = FrutosStepper(grid, dt)
            u, u_prev = state.u_curr, state.u_prev
            for _ in range(steps):
                u, u_prev = stepper.step_arrays(u, u_prev), u
        else:
            state = bootstrap(prob, dt, mode="exact", params=p)
            stepper = ProposedStepper(grid, dt, power)
            u, psi, u_prev = state.u_curr, state.psi_curr, state.u_prev
            for _ in range(steps):
                u, psi, u_prev = (*stepper.step_arrays(u, psi, u_prev), u)
            assert np.max(np.abs(result.psi_curr - psi)) <= 1e-10
        assert np.max(np.abs(result.u_curr - u)) <= 1e-10
        assert np.max(np.abs(result.u_prev - u_prev)) <= 1e-10

    def test_mass_grows_linearly_with_mean_velocity(self):
        # the k = 0 mode obeys mass(t) = mass(0) + t * mass(psi), and the
        # mass of psi never changes
        grid = benchmark_grid(64)
        theta = 2 * np.pi * (grid.nodes + 40) / 80
        u0 = 1.0 + np.exp(np.sin(theta))
        psi0 = 0.3 + 0.2 * np.cos(2 * theta)
        prob = GBProblem(grid, u0, psi0)
        result = run(prob, dt=1e-3, T=0.999)
        m0, rate = mass(grid, u0), mass(grid, psi0)
        assert abs(mass(grid, result.u_curr) - m0 - 0.999 * rate) <= 1e-12 * abs(m0)
        assert abs(mass(grid, result.psi_curr) - rate) <= 1e-14 * abs(rate)

    def test_frutos_blow_up_step(self):
        # the three-level scheme's published divergence at N = 512, dt = 0.1
        grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
        p = params_from_amplitude(0.5)
        result = run(
            solitary_problem(p, grid), 0.1, 100.0, scheme="frutos", params=p,
            bootstrap_mode="exact",
        )
        assert result.diverged
        assert result.blowup_step == 762
        assert result.step_index == 762

    @pytest.mark.parametrize(
        "schemes",
        [("proposed",), ("frutos",), ("proposed", "frutos")],
        ids=["proposed", "frutos", "mixed"],
    )
    def test_one_rfft_and_one_irfft_per_step(self, monkeypatch, schemes):
        # one Grid.forward and one Grid.inverse per step, the pair that
        # Grid.rfft/irfft adapt, on a grid that transforms by matrix
        # products (N = 16) and on one that calls np.fft (N = 256); a mixed
        # batch alternates the schemes by row.  The blow-up check reads the
        # sum of u^2 from the carried F = forward(u^2): no np.vdot
        p = params_from_amplitude(0.5)
        counts = {}

        def counted(owner, name, key):
            fn = getattr(owner, name)
            counts[key] = 0

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("forward", "inverse"):
            counted(Grid, name, name)
        for name in ("rfft", "irfft", "fft", "ifft"):
            counted(np.fft, name, f"np.fft.{name}")
        counted(np, "mean", "mean")
        counted(np, "vdot", "vdot")

        def calls(prob, steps, rows):
            counts.update(dict.fromkeys(counts, 0))
            runs = [(schemes[row % len(schemes)], 0.01) for row in range(rows)]
            run_batch((prob,), runs, steps * 0.01, params=p, bootstrap_mode="exact")
            return dict(counts)

        for n, ffts in ((16, 0), (256, 1)):
            grid = benchmark_grid(n)
            assert (grid.num_points <= DENSE_MAX_POINTS) == (ffts == 0)
            prob = solitary_problem(p, grid)
            # a batch of one is what run() steps; a batch of three steps together
            for rows in (1, 3):
                short, long = calls(prob, 10, rows), calls(prob, 30, rows)
                per_step = {key: (long[key] - short[key]) / 20 for key in counts}
                assert per_step == {
                    "forward": 1, "inverse": 1, "mean": 0, "vdot": 0,
                    "np.fft.rfft": ffts, "np.fft.irfft": ffts, "np.fft.fft": 0, "np.fft.ifft": 0,
                }

    def test_zero_steps_returns_initial_state(self):
        prob = zero_problem(benchmark_grid(16))
        result = run(prob, dt=0.1, T=0.0)
        assert result.step_index == 0
        assert not result.diverged

    def test_non_multiple_final_time_rejected(self):
        prob = zero_problem(benchmark_grid(16))
        with pytest.raises(ValueError):
            run(prob, dt=0.3, T=1.0)

    def test_positive_final_time_that_no_whole_step_reaches_is_rejected(self):
        # zero steps of 1.0 would return the t = 0 state labelled t = 1e-12
        prob = zero_problem(benchmark_grid(16))
        with pytest.raises(ValueError, match="not an integer multiple of dt"):
            run(prob, dt=1.0, T=1e-12)

    def test_step_count_that_overflows_is_rejected(self):
        with pytest.raises(ValueError, match="not a finite number of steps"):
            run(zero_problem(benchmark_grid(16)), dt=1e-100, T=1e300)

    @pytest.mark.parametrize("dt", [0.0, float("nan"), float("inf"), -0.1])
    def test_bad_time_step_rejected_before_dividing(self, dt):
        prob = zero_problem(benchmark_grid(16))
        with pytest.raises(ValueError, match="time step must be positive"):
            run(prob, dt, 1.0)
        with pytest.raises(ValueError, match="time step must be positive"):
            run_batch((prob,), (("proposed", 0.1), ("proposed", dt)), 1.0)

    def test_a_step_or_final_time_that_is_not_a_real_is_rejected(self):
        prob = zero_problem(benchmark_grid(16))
        for dt, T in (("0.05", 0.1), (0.05, "0.1"), (True, 1.0), (0.05, True)):
            with pytest.raises(ValueError, match="must be a real number"):
                run(prob, dt, T)

    @pytest.mark.parametrize("T", [-1.0, float("nan"), float("inf")])
    def test_bad_final_time_rejected_before_dividing(self, T):
        prob = zero_problem(benchmark_grid(16))
        with pytest.raises(ValueError, match="final time must be nonnegative and finite"):
            run(prob, 0.1, T)
        with pytest.raises(ValueError, match="final time must be nonnegative and finite"):
            run_batch((prob,), (("proposed", 0.1), ("proposed", 0.2)), T)

    def test_zero_data_observers_see_zero_norms(self):
        grid = benchmark_grid(16)
        prob = zero_problem(grid)
        norms = []
        result = run(
            prob,
            dt=1e-3,
            T=1.0,
            observers=[lambda s: norms.append(l2_norm(grid, s.u_curr))],
            stride=100,
        )
        assert not result.diverged
        assert len(norms) > 1
        assert all(v == 0.0 for v in norms)

    @pytest.mark.parametrize("stride", [0, -1, True, 1.5, None])
    def test_stride_not_a_positive_integer_rejected_before_observing(self, stride):
        prob = zero_problem(benchmark_grid(16))
        seen = []
        with pytest.raises(ValueError, match="observer stride must be an integer >= 1"):
            run(prob, 0.05, 0.1, observers=(seen.append,), stride=stride)
        with pytest.raises(ValueError, match="observer stride must be an integer >= 1"):
            run_batch((prob,), (("proposed", 0.05),), 0.1, observers=(seen.append,),
                      stride=stride)
        assert seen == []

    def test_crest_travels_at_wave_speed(self):
        grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
        p = params_from_amplitude(0.5)
        prob = solitary_problem(p, grid)
        result = run(prob, 4e-3, 4.0, params=p, bootstrap_mode="exact")
        assert not result.diverged
        assert crest_position(grid, result.u_curr) == pytest.approx(
            p.speed * 4.0, abs=grid.spacing
        )

    def test_blow_up_flagged_not_raised(self):
        # seeded divergence: gigantic initial data explodes through the
        # explicit nonlinearity within a few steps
        grid = benchmark_grid(64)
        u0 = 1e4 * np.sin(2 * np.pi * (grid.nodes + 40) / 80)
        prob = GBProblem(grid, u0, np.zeros(grid.num_points))
        result = run(prob, dt=0.1, T=10.0)
        assert result.diverged
        assert result.blowup_step is not None

    def test_observers_see_the_callers_floating_point_settings(self):
        # the steps run without numpy's overflow warnings; observers do not
        prob = solitary_problem(params_from_amplitude(0.5), benchmark_grid(16))
        seen = []
        with np.errstate(over="raise", invalid="warn"):
            run(prob, 0.1, 0.3, observers=[lambda s: seen.append(np.geterr())])
        assert [(x["over"], x["invalid"]) for x in seen] == [("raise", "warn")] * 4

    @pytest.mark.parametrize("amplitude", [1e148, 1e150, 1e160, np.nan])
    def test_initial_u_too_large_to_watch_is_rejected_before_observing(self, amplitude):
        # n (1e6 rms)^2 must be finite: one error, no OverflowError and no numpy warning
        grid = Grid(16, 80.0, -40.0)
        u0 = amplitude * np.cos(2 * np.pi * grid.nodes / 80)
        seen = []
        with pytest.raises(ValueError, match="initial u must be finite, with an rms small"):
            run(GBProblem(grid, u0, np.zeros(grid.num_points)), 0.1, 1.0, observers=[seen.append])
        assert seen == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_initial_ut_is_rejected_before_observing(self, value):
        # as a non-finite u is: one error, not a run marked diverged at step 1
        grid = Grid(16, 80.0, -40.0)
        ut0 = np.zeros(grid.num_points)
        ut0[3] = value
        seen = []
        with pytest.raises(ValueError, match="initial u_t must be finite"):
            run(GBProblem(grid, np.zeros(grid.num_points), ut0), 0.1, 1.0, observers=[seen.append])
        assert seen == []


def batch_problem(n=64):
    grid = Grid(half_modes=n, length=80.0, x_left=-40.0)
    p = params_from_amplitude(0.5)
    return solitary_problem(p, grid), p


def assert_same_result(got, want):
    assert got.diverged == want.diverged and got.blowup_step == want.blowup_step
    assert got.step_index == want.step_index
    assert got.time == want.time
    for field in ("u_curr", "psi_curr", "u_prev"):
        want_field = getattr(want, field)
        if want_field is None:  # the three-level scheme has no psi
            assert getattr(got, field) is None
        else:
            assert np.array_equal(getattr(got, field), want_field)


class TestRunBatch:
    # the equation is p = 2; the power column only keeps each row's id
    @pytest.mark.parametrize(
        "scheme, power, mode",
        [
            ("proposed", 2, "exact"),
            ("proposed", 2, "self_start"),
            ("frutos", 2, "exact"),
        ],
    )
    def test_rows_equal_solo_runs_bit_for_bit(self, scheme, power, mode, n=64):
        prob, p = batch_problem(n)
        dts, T = (0.02, 0.01, 0.005, 0.0025), 0.4
        batch = run_batch((prob,), [(scheme, dt) for dt in dts], T, bootstrap_mode=mode,
                          params=p)
        assert len(batch) == len(dts)
        for dt, got in zip(dts, batch):
            assert_same_result(got, run(prob, dt, T, scheme, bootstrap_mode=mode, params=p))

    def test_rows_equal_solo_runs_bit_for_bit_on_an_fft_grid(self):
        # batch_problem's N = 64 transforms by matrix products; N = 256 by np.fft
        assert benchmark_grid(256).num_points > DENSE_MAX_POINTS
        self.test_rows_equal_solo_runs_bit_for_bit("proposed", 2, "exact", n=256)

    @pytest.mark.parametrize(
        "scheme, mode", [("proposed", "exact"), ("proposed", "self_start"), ("frutos", "exact")]
    )
    def test_rows_equal_solo_runs_bit_for_bit_on_a_two_stage_grid(self, scheme, mode):
        # N = 361 (723 = 3 * 241 points) transforms in two stages, a stack row by row
        assert benchmark_grid(361)._two_stage is not None
        self.test_rows_equal_solo_runs_bit_for_bit(scheme, 2, mode, n=361)

    @pytest.mark.parametrize("n", [32, 256, 361])
    @pytest.mark.parametrize(
        "runs",
        [
            (("proposed", 0.05),),
            (("frutos", 0.05),),
            (("proposed", 0.05), ("frutos", 0.05), ("frutos", 0.1), ("proposed", 0.1)),
        ],
        ids=["proposed", "three-level", "mixed"],
    )
    def test_rows_equal_the_complex_update_bit_for_bit(self, runs, n):
        # LinearStepper's update in complex arithmetic through Grid.rfft/irfft,
        # in delta form and in advance's order: dY = m' Y + f0 F + f1 F_prev + c Z,
        # Y' = Y + dY and Z' = q dY - s Z, with F = rfft(u^2), on a grid that
        # transforms by matrix products (N = 32), on one that calls np.fft
        # (N = 256) and on one that transforms in two stages (N = 361)
        assert (benchmark_grid(n).num_points <= DENSE_MAX_POINTS) == (n == 32)
        assert (benchmark_grid(n)._two_stage is not None) == (n == 361)
        prob, p = batch_problem(n)
        grid, T = prob.grid, 1.0
        batch = run_batch((prob,), runs, T, params=p, bootstrap_mode="exact")
        for (scheme, dt), got in zip(runs, batch):
            stepper = (ProposedStepper if scheme == "proposed" else FrutosStepper)(grid, dt)
            # a mode's real coefficient, read from its Re slot, as the complex number
            m, f0, f1, c, q, s = (x[::2] + 0j for x in (stepper.m, stepper.f0, stepper.f1,
                                                        stepper.c, stepper.q, stepper.s))
            start = bootstrap(prob, dt, "exact", p)
            u, u_prev = start.u_curr, start.u_prev
            y = grid.rfft(u)
            z = grid.rfft(start.psi_curr) if scheme == "proposed" else q * (y - grid.rfft(u_prev))
            f, f_prev = grid.rfft(u**2), grid.rfft(u_prev**2)
            steps = round(T / dt)
            for _ in range(steps):
                dy = m * y + f0 * f + f1 * f_prev + c * z
                y = y + dy
                z = q * dy - s * z
                u, u_prev = grid.irfft(y), u
                f, f_prev = grid.rfft(u**2), f
            assert got.step_index == steps and not got.diverged
            assert np.array_equal(got.u_curr, u) and np.array_equal(got.u_prev, u_prev)
            if scheme == "proposed":
                assert np.array_equal(got.psi_curr, grid.irfft(z))
            else:
                assert got.psi_curr is None

    @pytest.mark.parametrize("amplitude", [1e4, 1e100], ids=["past-the-limit", "to-inf"])
    @pytest.mark.parametrize("n", [64, 256, 361])
    def test_a_row_blowing_up_leaves_a_mixed_batch_at_its_solo_step(self, n, amplitude):
        # the data of test_blow_up_flagged_not_raised, which passes the limit
        # finite, and at 1e100, whose u^2 overflows to inf at step 1 (and
        # F = forward(u^2) to inf and NaN) with no numpy warning; a batch
        # watches the sum over its rows of F's mode 0, and a row's own only
        # when that sum fails, on a dense (N = 64), an FFT (N = 256) and a
        # two-stage grid (N = 361)
        grid = benchmark_grid(n)
        assert (grid.num_points <= DENSE_MAX_POINTS) == (n == 64)
        assert (grid._two_stage is not None) == (n == 361)
        u0 = amplitude * np.sin(2 * np.pi * (grid.nodes + 40) / 80)
        prob = GBProblem(grid, u0, np.zeros(grid.num_points))
        runs = (("proposed", 0.1), ("frutos", 0.1), ("proposed", 0.01), ("frutos", 0.02),
                ("proposed", 1.0))
        kwargs = dict(params=params_from_amplitude(0.5), bootstrap_mode="exact")
        batch = run_batch((prob,), runs, 10.0, **kwargs)
        for (scheme, dt), got in zip(runs, batch):
            assert got.diverged
            assert_same_result(got, run(prob, dt, 10.0, scheme, **kwargs))

    def test_results_come_back_in_input_order(self):
        prob, p = batch_problem()
        dts, T = (0.005, 0.02, 0.0025, 0.01), 0.2
        runs = [("proposed", dt) for dt in dts]
        batch = run_batch((prob,), runs, T, params=p, bootstrap_mode="exact")
        assert [r.step_index for r in batch] == [40, 10, 80, 20]
        for dt, got in zip(dts, batch):
            assert_same_result(got, run(prob, dt, T, params=p, bootstrap_mode="exact"))

    def test_diverged_row_dropped_and_others_finish(self):
        # frutos at N = 512 diverges at dt = 0.1 (step 762) and stays
        # bounded at dt = 0.05 over the same horizon
        prob, p = batch_problem(n=512)
        kwargs = dict(params=p, bootstrap_mode="exact")
        runs = (("frutos", 0.1), ("frutos", 0.05))
        diverged, bounded = run_batch((prob,), runs, 100.0, **kwargs)
        assert diverged.diverged and diverged.blowup_step == 762
        assert diverged.step_index == 762
        assert_same_result(diverged, run(prob, 0.1, 100.0, "frutos", **kwargs))
        assert not bounded.diverged and bounded.step_index == 2000
        assert_same_result(bounded, run(prob, 0.05, 100.0, "frutos", **kwargs))

    def test_observers_see_every_row_as_solo_runs_do(self):
        prob, p = batch_problem(n=16)
        dts, T = (0.05, 0.1), 1.0

        def seen_by(runner):
            seen = []
            runner(lambda s: seen.append((s.step_index, s.time, s.u_curr.copy())))
            return sorted(seen, key=lambda x: (x[1], x[0]))

        batch = seen_by(
            lambda obs: run_batch(
                (prob,), [("proposed", dt) for dt in dts], T, params=p, observers=(obs,), stride=3
            )
        )
        solo = seen_by(
            lambda obs: [run(prob, dt, T, params=p, observers=(obs,), stride=3) for dt in dts]
        )
        assert [(n, t) for n, t, _ in batch] == [(n, t) for n, t, _ in solo]
        assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(batch, solo))

    @pytest.mark.parametrize("n", [16, 256])
    def test_mixed_schemes_equal_solo_runs_bit_for_bit(self, n):
        # N = 16 transforms by matrix products, N = 256 by np.fft
        prob, p = batch_problem(n)
        runs, T = (("proposed", 0.05), ("frutos", 0.05), ("frutos", 0.1), ("proposed", 0.1)), 1.0
        batch = run_batch((prob,), runs, T, params=p, bootstrap_mode="exact")
        for (scheme, dt), got in zip(runs, batch):
            assert (got.psi_curr is None) == (scheme == "frutos")
            assert_same_result(got, run(prob, dt, T, scheme, params=p, bootstrap_mode="exact"))

    def test_three_level_row_leaves_a_mixed_batch_at_its_blow_up(self):
        # the published stability point: the three-level row diverges at
        # step 762, and the proposed row goes on to T as it would alone
        prob, p = batch_problem(n=512)
        kwargs = dict(params=p, bootstrap_mode="exact")
        proposed, frutos = run_batch((prob,), (("proposed", 0.1), ("frutos", 0.1)), 100.0,
                                     **kwargs)
        assert frutos.diverged and frutos.blowup_step == 762
        assert_same_result(frutos, run(prob, 0.1, 100.0, "frutos", **kwargs))
        assert not proposed.diverged and proposed.step_index == 1000
        assert_same_result(proposed, run(prob, 0.1, 100.0, "proposed", **kwargs))

    def test_rows_on_three_transform_paths_equal_solo_runs_bit_for_bit(self):
        # one batch over a dense (N = 16), an FFT (N = 256) and a two-stage
        # grid (N = 361): each grid transforms its own rows with its own pair
        assert benchmark_grid(16).num_points <= DENSE_MAX_POINTS < benchmark_grid(256).num_points
        assert benchmark_grid(256)._two_stage is None
        assert benchmark_grid(361)._two_stage is not None
        p = params_from_amplitude(0.5)
        problems = [solitary_problem(p, benchmark_grid(n)) for n in (16, 256, 361)]
        runs, T = (("proposed", 0.05), ("frutos", 0.1)), 1.0
        kwargs = dict(params=p, bootstrap_mode="exact", stride=3)
        seen = []
        batch = run_batch(problems, runs, T, observers=(seen.append,), **kwargs)
        solo_seen, solos = [], []
        for prob in problems:
            for scheme, dt in runs:
                solos.append(run(prob, dt, T, scheme, observers=(solo_seen.append,), **kwargs))
        assert len(batch) == len(solos) == 6
        for got, want in zip(batch, solos):
            assert_same_result(got, want)
        # the rows' states, problem by problem and in the order of runs: a
        # proposed row has psi and a three-level row has none
        index = {prob.grid: i for i, prob in enumerate(problems)}
        seen.sort(key=lambda s: (index[s.grid], s.psi_curr is None))
        # steps 0, 3, ..., 18 and 20 of a dt = 0.05 row; 0, 3, 6, 9 and 10 of dt = 0.1
        assert len(seen) == len(solo_seen) == 3 * (8 + 5)
        for got, want in zip(seen, solo_seen):
            assert_same_result(got, want)

    def test_three_level_row_beside_another_grid_diverges_at_its_solo_step(self):
        # the published blow-up at N = 512 is unmoved by an N = 64 row, whose
        # problem has a lower limit, and the N = 64 row goes on to T
        p = params_from_amplitude(0.5)
        problems = [solitary_problem(p, benchmark_grid(n)) for n in (64, 512)]
        kwargs = dict(params=p, bootstrap_mode="exact")
        bounded, diverged = run_batch(problems, (("frutos", 0.1),), 100.0, **kwargs)
        assert diverged.diverged and diverged.blowup_step == 762
        assert_same_result(diverged, run(problems[1], 0.1, 100.0, "frutos", **kwargs))
        assert not bounded.diverged and bounded.step_index == 1000
        assert_same_result(bounded, run(problems[0], 0.1, 100.0, "frutos", **kwargs))

    def test_unknown_scheme_and_cubic_three_level_row_rejected(self):
        prob, p = batch_problem(n=16)
        with pytest.raises(ValueError, match="unknown scheme"):
            run_batch((prob,), (("proposed", 0.1), ("bogus", 0.1)), 1.0, params=p)

    def test_runs_may_be_an_iterator(self):
        prob, p = batch_problem(n=16)
        runs = (("proposed", 0.1), ("proposed", 0.05))
        got = run_batch((prob,), (x for x in runs), 0.2, "exact", p)
        want = run_batch((prob,), runs, 0.2, "exact", p)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert_same_result(g, w)

    def test_zero_step_rows_and_empty_batch(self):
        prob, p = batch_problem(n=16)
        assert run_batch((prob,), (), 1.0) == ()
        (result,) = run_batch((prob,), (("proposed", 0.1),), 0.0)
        assert result.step_index == 0 and not result.diverged
        assert np.array_equal(result.psi_curr, prob.initial_ut)

    def test_stack_rows_equal_the_steppers_built_alone(self):
        grid = benchmark_grid(16)
        steppers = [ProposedStepper(grid, dt) for dt in (0.1, 0.05, 0.025)]
        steppers.append(FrutosStepper(grid, 0.05))
        batch = LinearStepper.stack(steppers)
        assert batch.matrix.shape == (4 * (grid.half_modes + 1), 2, 2)
        # every array is in the carry layout: the rows' (2h,) spectra end to end
        for name in ("m", "f0", "f1", "c", "q", "s"):
            assert getattr(batch, name).shape == (4 * 2 * (grid.half_modes + 1),)
            # each mode's coefficient stands beside both its Re and Im
            assert np.array_equal(getattr(batch, name)[::2], getattr(batch, name)[1::2])
        names = ("m", "f0", "f1", "c", "q", "s")
        rows = {name: getattr(batch, name).reshape(4, -1) for name in names}
        rows.update(dt=batch.dt, has_psi=batch.has_psi)
        for row, solo in enumerate(steppers):
            for name in ("dt", "m", "f0", "f1", "c", "q", "s", "has_psi"):
                assert np.array_equal(rows[name][row], getattr(solo, name))
        # each row's weights w0 and w1 of u^2 and u_prev^2 are folded into its
        # f0 = w0 f and f1 = w1 f, with f = -k^2/lam < 0 above mode 0
        assert np.all(rows["f0"][:, 2:] < 0)
        for row, (w0, w1) in enumerate([(1.5, -0.5)] * 3 + [(1.0, 0.0)]):
            assert np.allclose(w0 * rows["f1"][row], w1 * rows["f0"][row], rtol=1e-15, atol=0)

    def test_stack_refuses_a_batch_it_cannot_step(self):
        # a batch has a row to step; rows on any grids may share it
        with pytest.raises(ValueError, match="one or more steppers"):
            LinearStepper.stack([])

    def test_a_stack_of_one_is_that_stepper(self):
        stepper = ProposedStepper(benchmark_grid(16), 0.1)
        assert LinearStepper.stack([stepper]) is stepper

    @pytest.mark.parametrize("build", [ProposedStepper, FrutosStepper, build_implicit_diagonal])
    def test_an_array_of_step_sizes_is_rejected(self, build):
        # a stepper is built for one run; a batch is the stack of its rows' steppers
        with pytest.raises(ValueError, match="a float"):
            build(benchmark_grid(16), np.array([0.1, 0.05]))


class TestStepBuffers:
    """A step writes into the stepper's own buffers: one-run steppers step 1-D arrays."""

    @staticmethod
    def steppers(n, rows):
        grid = benchmark_grid(n)
        return [ProposedStepper(grid, 0.01 * (row + 1)) for row in range(rows)]

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n", [128, 256, 361])
    def test_a_step_allocates_no_array(self, rng, n, rows):
        # N = 128 transforms by matrix products, N = 256 by np.fft and N = 361
        # in two stages; after warm-up only Python objects may come and go,
        # less than one nodal row
        assert (benchmark_grid(n).num_points <= DENSE_MAX_POINTS) == (n == 128)
        assert (benchmark_grid(n)._two_stage is not None) == (n == 361)
        steppers = self.steppers(n, rows)
        stepper = LinearStepper.stack(steppers)
        width = steppers[0].grid.num_points
        # the carry run_batch builds: each row starts with its own stepper
        u = 1e-3 * rng.standard_normal((rows, width))
        carry = [x.start(v, 0.5 * v, 0.9 * v) for x, v in zip(steppers, u)]
        carry = tuple(map(np.concatenate, zip(*carry)))
        for _ in range(3):
            carry = stepper.advance(carry)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                carry = stepper.advance(carry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 8 * width

    def test_one_run_arrays_are_one_dimensional(self):
        (stepper,) = self.steppers(16, 1)
        assert stepper.m.shape == stepper.f0.shape == stepper.f1.shape == (2 * 17,)
        u = np.zeros(stepper.grid.num_points)
        carry = stepper.advance(stepper.start(u, u, u))
        # (u, u_prev, Y, Z, F, F_prev)
        assert [x.shape for x in carry] == [(33,), (33,), (34,), (34,), (34,), (34,)]

    def test_step_arrays_refuses_a_stacked_stepper(self):
        steppers = self.steppers(16, 2)
        stepper = LinearStepper.stack(steppers)
        u = np.zeros(steppers[0].grid.num_points)
        with pytest.raises(ValueError, match="step_arrays steps a one-run stepper"):
            stepper.step_arrays(u, u, u)

    def test_start_and_state_refuse_a_stacked_stepper(self):
        # a stack only advances: its rows start and are read by their own steppers
        steppers = self.steppers(16, 2)
        u = np.zeros((2, steppers[0].grid.num_points))
        carry = tuple(map(np.concatenate, zip(*(x.start(v, v, v) for x, v in zip(steppers, u)))))
        stepper = LinearStepper.stack(steppers)
        with pytest.raises(ValueError, match="step_arrays steps a one-run stepper"):
            stepper.start(u, u, u)
        with pytest.raises(ValueError, match="step_arrays steps a one-run stepper"):
            stepper.state(stepper.advance(carry), 1)

    @pytest.mark.parametrize("scheme", ["proposed", "frutos"])
    def test_step_arrays_results_do_not_alias(self, rng, scheme):
        # u' lives in a stepper buffer; step_arrays returns copies of it
        grid = benchmark_grid(16)
        u, psi, u_prev = 1e-2 * rng.standard_normal((3, grid.num_points))
        if scheme == "proposed":
            stepper = ProposedStepper(grid, 0.01)
            first = stepper.step_arrays(u, psi, u_prev)
            kept = [x.copy() for x in first]
            second = stepper.step_arrays(*first, u)
        else:
            stepper = FrutosStepper(grid, 0.01)
            first = (stepper.step_arrays(u, u_prev),)
            kept = [first[0].copy()]
            second = (stepper.step_arrays(first[0], u),)
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))
        assert not any(np.shares_memory(a, b) for a in first for b in second)

    def test_a_lone_run_is_not_stacked(self, monkeypatch):
        # run() steps with the run's own stepper, and so does a batch once
        # one row is left: stack returns a lone stepper, whose carry is one row
        prob, p = batch_problem(n=16)
        n = prob.grid.num_points
        stepper = ProposedStepper(prob.grid, 0.05)
        assert LinearStepper.stack([stepper]) is stepper
        shapes = []
        advance = LinearStepper.advance
        monkeypatch.setattr(LinearStepper, "advance",
                            lambda self, c: shapes.append(c[0].shape) or advance(self, c))
        run(prob, 0.05, 0.5, params=p)
        assert shapes == [(n,)] * 10
        shapes.clear()
        run_batch((prob,), (("proposed", 0.05), ("proposed", 0.1)), 0.5, params=p)
        # the dt = 0.1 row finishes after 5 steps; the dt = 0.05 row takes 5 more alone
        assert shapes == [(2 * n,)] * 5 + [(n,)] * 5
