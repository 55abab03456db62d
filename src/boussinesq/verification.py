"""Fast self-checks of the core operator identities and scheme invariants.

Backs the ``verify`` CLI subcommand.  Each check is cheap (N <= 256) and
independent; the whole suite runs in seconds.
"""

from __future__ import annotations

import numpy as np

from . import spectral
from .diagnostics import mass
from .spectral import Grid, inner_product, sobolev_norm
from .stepping import ProposedStepper, run, run_batch
from .waves import GBProblem, SolitaryWaveParams, solitary_problem

__all__ = ["run_checks"]


def _round_trip(rng) -> bool:
    # the grid's own pair transforms by matrix products at N = 16 and 64,
    # by np.fft at N = 256 and in two stages at N = 361, as the steppers do
    for n in (16, 64, 256, 361):
        grid = Grid(half_modes=n, length=80.0, x_left=-40.0)
        f = rng.standard_normal(grid.num_points)
        back = grid.irfft(grid.rfft(f))
        if np.max(np.abs(back - f)) > 1e-12 * max(1.0, np.max(np.abs(f))):
            return False
    return True


def _summation_by_parts(rng) -> bool:
    grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
    f = rng.standard_normal(grid.num_points)
    g = rng.standard_normal(grid.num_points)
    lhs = inner_product(grid, f, spectral.derivative(grid, g, 2))
    rhs = -inner_product(grid, spectral.derivative(grid, f, 1), spectral.derivative(grid, g, 1))
    return abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def _aliasing_sample(rng) -> bool:
    # phi in B^{2N} sampled onto the 2N+1 grid must satisfy the sqrt(2)
    # interpolation bound in H^k, k = 0..2
    n, p = 16, 2
    fine = Grid(half_modes=p * n, length=80.0, x_left=-40.0)
    coarse = Grid(half_modes=n, length=80.0, x_left=-40.0)
    phi = rng.standard_normal(fine.num_points)
    coarse_vals = spectral.evaluate_interpolant(fine, phi, coarse.nodes)
    for k in range(3):
        if sobolev_norm(coarse, coarse_vals, k) > np.sqrt(p) * sobolev_norm(fine, phi, k) + 1e-10:
            return False
    return True


def _mass_short_run() -> bool:
    grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
    u0 = np.exp(np.sin(2 * np.pi * (grid.nodes + 40.0) / 80.0))
    problem = GBProblem(grid, u0, np.zeros(grid.num_points))
    m0 = mass(grid, u0)
    final = run(problem, dt=1e-3, T=0.1)
    if final.diverged:
        return False
    return abs(mass(grid, final.u_curr) - m0) <= 1e-12 * abs(m0)


def _zero_fixed_point() -> bool:
    grid = Grid(half_modes=32, length=80.0, x_left=-40.0)
    z = np.zeros(grid.num_points)
    stepper = ProposedStepper(grid, dt=0.01)
    after = stepper.state(stepper.advance(stepper.start(z, z, z)), 1)
    return np.all(after.u_curr == 0.0) and np.all(after.psi_curr == 0.0)


def _linear_update_non_amplifying() -> bool:
    # the trapezoidal rule makes each mode's linear map of (U, Q)
    # area-preserving (det 1) with both eigenvalues on the unit circle, at the
    # angles +-2 atan(omega dt / 2) of the equation's omega^2 = k^4 + k^2
    grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
    dts = np.array([1e-3, 0.05, 1.0])
    update = np.stack([ProposedStepper(grid, dt).matrix for dt in dts])
    mu = np.linalg.eigvals(update)
    k2 = grid.wavenumbers**2
    phase = 2.0 * np.arctan(np.sqrt(k2 * k2 + k2) * dts[:, None] / 2.0)
    return (
        np.max(np.abs(np.linalg.det(update) - 1.0)) <= 1e-12
        and np.max(np.abs(mu)) <= 1.0 + 1e-12
        and np.max(np.abs(np.abs(np.angle(mu)) - phase[..., None])) <= 1e-12
    )


def _batch_matches_solo() -> bool:
    # rows of one batch, of either scheme, must step exactly as runs of
    # their own: same transform per row, same coefficients, same blow-up test
    grid = Grid(half_modes=16, length=80.0, x_left=-40.0)
    params = SolitaryWaveParams(0.5)
    problem = solitary_problem(params, grid)
    runs, T = (("proposed", 0.1), ("proposed", 0.05), ("frutos", 0.05), ("proposed", 0.025)), 0.2
    batch = run_batch(problem, runs, T, bootstrap_mode="exact", params=params)
    for (scheme, dt), got in zip(runs, batch):
        solo = run(problem, dt, T, scheme, bootstrap_mode="exact", params=params)
        for field in ("u_curr", "psi_curr", "u_prev"):
            if not np.array_equal(getattr(got, field), getattr(solo, field)):
                return False
    return True


def run_checks() -> list[tuple[str, bool]]:
    """Run the invariant suite; returns (name, passed) pairs.

    Each check gets only what it uses.  The first three draw random fields
    from one generator seeded by 0.  Only "summation by parts"
    differentiates, so a fault in ``spectral.derivative`` fails it alone.
    """
    rng = np.random.default_rng(0)
    checks = [
        ("transform round-trip", lambda: _round_trip(rng)),
        ("summation by parts", lambda: _summation_by_parts(rng)),
        ("aliasing bound sample", lambda: _aliasing_sample(rng)),
        ("mass conservation short run", _mass_short_run),
        ("zero fixed point", _zero_fixed_point),
        ("linear update non-amplifying", _linear_update_non_amplifying),
        ("batched step equals solo steps", _batch_matches_solo),
    ]
    results = []
    for name, check in checks:
        try:
            passed = bool(check())
        except Exception:
            passed = False
        results.append((name, passed))
    return results
