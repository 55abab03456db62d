"""Acceptance suite: the full published-scale experiments.

Each criterion prints one PASS/FAIL line.  Expected total runtime is a
couple of minutes, dominated by the spatial sweep (13 runs of 40000 steps).

Criterion 7 note: the literal formulation asks the three-level scheme to
blow up before T = 4.  Its frozen-coefficient growth rate is capped near
exp(t/2) (the quarter-weighted implicit fourth-derivative average limits
every mode's amplification), so by T = 4 no perturbation can grow by more
than ~e^2, far below the 1e6 divergence threshold; no (N, dt) choice can
satisfy the criterion as stated and the corresponding test fails honestly.
The underlying stability contrast is real and is verified at the
pilot-calibrated horizon T = 100 in criterion 7b.
"""

import sys

import numpy as np
import pytest

from boussinesq.diagnostics import crest_position, mass
from boussinesq.spectral import (
    Grid,
    derivative,
    evaluate_interpolant,
    inner_product,
    sobolev_norm,
)
from boussinesq.stepping import ProposedStepper, bootstrap, build_implicit_diagonal, run
from boussinesq.sweeps import run_sweep, spatial_spec, stability_spec, temporal_spec
from boussinesq.waves import (
    GBProblem,
    params_from_amplitude,
    solitary_problem,
    solitary_wave,
)


def report(criterion, passed, detail=""):
    # write through to the real stdout so the line survives pytest capture
    line = f"CRITERION {criterion}: {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    return passed


@pytest.fixture(scope="module")
def temporal_result():
    return run_sweep(temporal_spec())


@pytest.fixture(scope="module")
def spatial_result():
    return run_sweep(spatial_spec())


@pytest.fixture(scope="module")
def stability_result():
    return run_sweep(stability_spec())


def test_criterion_1_temporal_second_order(temporal_result):
    orders = temporal_result.fitted_orders
    ok = 1.8 <= orders["err_psi_l2"] <= 2.2 and 1.8 <= orders["err_u_h2"] <= 2.2
    assert report(
        1,
        ok,
        f"fitted orders psi={orders['err_psi_l2']:.3f} uH2={orders['err_u_h2']:.3f}",
    )
    # pure dt^2 scaling: tenfold step refinement cuts the error ~100x
    first, last = temporal_result.rows[0], temporal_result.rows[-1]
    for a, b in [(first.err_psi_l2, last.err_psi_l2), (first.err_u_h2, last.err_u_h2)]:
        ratio = b / a
        assert 1e-2 / 3 < ratio < 1e-2 * 3


def test_criterion_2_spatial_spectral_accuracy(spatial_result):
    rows = {row.N: row for row in spatial_result.rows}
    decays = (
        rows[64].err_psi_l2 < rows[32].err_psi_l2 / 10
        and rows[64].err_u_h2 < rows[32].err_u_h2 / 10
    )
    saturated = True
    for errs in (
        [row.err_psi_l2 for row in spatial_result.rows],
        [row.err_u_h2 for row in spatial_result.rows],
    ):
        floor = min(errs)
        in_floor = False
        for err in errs:
            if in_floor and err > 5 * floor:
                saturated = False
            if err <= 5 * floor:
                in_floor = True
    assert report(
        2,
        decays and saturated,
        f"err(32)/err(64): psi={rows[32].err_psi_l2 / rows[64].err_psi_l2:.1f}x "
        f"uH2={rows[32].err_u_h2 / rows[64].err_u_h2:.1f}x; floor reached and held",
    )


def test_criterion_3_operator_identities():
    # residuals are measured relative to the operand magnitude: the
    # fourth-derivative pairings reach O(1e4) at N = 256, where an absolute
    # 1e-12 would sit below double-precision round-off
    rng = np.random.default_rng(7)

    def match(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    ok = True
    for n in (16, 64, 256):
        grid = Grid(half_modes=n, length=80.0, x_left=-40.0)
        f = rng.standard_normal(grid.num_points)
        g = rng.standard_normal(grid.num_points)
        ok &= float(np.max(np.abs(grid.irfft(grid.rfft(f)) - f))) <= 1e-12
        # Parseval on the half spectrum: weight 1 at l = 0, 2 for each l > 0 (and -l)
        energy = np.abs(grid.rfft(f) / grid.num_points) ** 2
        ok &= match(inner_product(grid, f, f), float(energy[0] + 2.0 * np.sum(energy[1:])))
        ok &= match(
            inner_product(grid, f, derivative(grid, g, 1)),
            -inner_product(grid, derivative(grid, f, 1), g),
        )
        ok &= match(
            inner_product(grid, f, derivative(grid, g, 2)),
            -inner_product(grid, derivative(grid, f, 1), derivative(grid, g, 1)),
        )
        ok &= match(
            inner_product(grid, f, derivative(grid, g, 4)),
            inner_product(grid, derivative(grid, f, 2), derivative(grid, g, 2)),
        )
    assert report(3, ok, "round trip, Parseval, summation by parts at N=16,64,256")


def test_criterion_4_aliasing_bound():
    rng = np.random.default_rng(11)
    n = 20
    worst = -np.inf
    ok = True
    for p in (2, 3):
        fine = Grid(half_modes=p * n, length=80.0, x_left=-40.0)
        coarse = Grid(half_modes=n, length=80.0, x_left=-40.0)
        for _ in range(100):
            phi = rng.standard_normal(fine.num_points)
            coarse_vals = evaluate_interpolant(fine, phi, coarse.nodes)
            for k in range(3):
                excess = sobolev_norm(coarse, coarse_vals, k) - np.sqrt(
                    p
                ) * sobolev_norm(fine, phi, k)
                worst = max(worst, excess)
                ok &= excess <= 1e-10
    assert report(4, ok, f"200 random fields, worst excess {worst:.2e}")


def test_criterion_5_mass_conservation():
    rng = np.random.default_rng(13)
    grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
    # random smooth periodic field with a handful of low modes
    theta = 2 * np.pi * (grid.nodes + 40.0) / 80.0
    u0 = 1.0 + sum(
        rng.standard_normal() * np.cos(m * theta)
        + rng.standard_normal() * np.sin(m * theta)
        for m in range(1, 6)
    )
    problem = GBProblem(grid, u0, np.zeros(grid.num_points))
    m0 = mass(grid, u0)
    state = bootstrap(problem, dt=1e-3)
    stepper = ProposedStepper(grid, 1e-3, 2)
    u, psi, u_prev = state.u_curr, state.psi_curr, state.u_prev
    for _ in range(1000):
        u, psi, u_prev = (*stepper.step_arrays(u, psi, u_prev), u)
    drift = abs(mass(grid, u) - m0) / abs(m0)
    assert report(5, drift <= 1e-12, f"relative mass drift {drift:.2e} over 1000 steps")


def test_criterion_6_unconditional_solvability():
    ok = True
    for dt in np.geomspace(1e-6, 1.0, 13):
        for n in (16, 32, 64, 128, 256, 512, 1024):
            lam = build_implicit_diagonal(Grid(half_modes=n, length=80.0), float(dt))
            ok &= bool(np.all(lam > 0))
    assert report(6, ok, "implicit diagonal positive over dt in [1e-6,1], N in [16,1024]")


def test_criterion_7_stability_contrast_at_T4():
    # literal criterion: contrast must appear by T = 4; see module docstring
    # for why the three-level scheme cannot reach the blow-up threshold
    # that early (amplification capped near e^2 by T = 4)
    spec = stability_spec(T=4.0)
    result = run_sweep(spec)
    frutos = [row for row in result.rows if row.scheme == "frutos"]
    proposed = [row for row in result.rows if row.scheme == "proposed"]
    contrast_ns = [
        f.N
        for f, p in zip(frutos, proposed)
        if f.diverged and not p.diverged
    ]
    ref = proposed[0].err_u_h2
    bounded = all(
        not p.diverged and p.err_u_h2 <= 2.0 * ref for p in proposed
    )
    ok = bool(contrast_ns) and bounded
    report(
        7,
        ok,
        f"T=4: frutos divergent at N in {contrast_ns or 'none'}; "
        "growth-rate cap exp(t/2) makes divergence by T=4 unreachable",
    )
    assert ok


def test_criterion_7b_stability_contrast_calibrated(stability_result):
    frutos = [row for row in stability_result.rows if row.scheme == "frutos"]
    proposed = [row for row in stability_result.rows if row.scheme == "proposed"]
    contrast_ns = [
        f.N for f, p in zip(frutos, proposed) if f.diverged and not p.diverged
    ]
    ref = proposed[0].err_u_h2
    bounded = all(not p.diverged and p.err_u_h2 <= 2.0 * ref for p in proposed)
    never_diverges = not any(p.diverged for p in proposed)
    ok = bool(contrast_ns) and bounded and never_diverges
    assert report(
        "7b",
        ok,
        f"T=100 dt=0.1: frutos divergent at N in {contrast_ns}, "
        f"proposed bounded (err ratio to smallest N <= 2)",
    )


def test_criterion_8_traveling_wave_fidelity():
    grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
    params = params_from_amplitude(0.5)
    problem = solitary_problem(params, grid)
    result = run(problem, 4e-3, 4.0, params=params, bootstrap_mode="exact")
    assert not result.diverged
    crest = crest_position(grid, result.u_curr)
    target = params.speed * 4.0
    ok = abs(crest - target) <= grid.spacing
    assert report(
        8, ok, f"crest {crest:.5f} vs c0*T {target:.5f} (h={grid.spacing:.4f})"
    )


def test_criterion_9_exact_solution_residual():
    grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
    params = params_from_amplitude(0.5)
    u = solitary_wave(params, grid.nodes, 0.0)
    residual = params.u_tt(grid.nodes, 0.0) - (
        -derivative(grid, u, 4)
        + derivative(grid, u, 2)
        + derivative(grid, u**2, 2)
    )
    r = np.sqrt(inner_product(grid, residual, residual))
    assert report(9, r <= 1e-6, f"discrete PDE residual {r:.2e}")
