"""Fast self-checks of the core operator identities and scheme invariants.

Backs the ``verify`` CLI subcommand.  Each check is cheap (N <= 256) and
independent; the whole suite runs in seconds.
"""

from __future__ import annotations

import random

import numpy as np

from . import spectral
from .diagnostics import mass
from .spectral import Grid, inner_product, sobolev_norm
from .stepping import ProposedStepper, run, run_batch
from .waves import GBProblem, SolitaryWaveParams, solitary_problem

__all__ = ["measure_checks", "run_checks"]


def _normal(rng: random.Random, size: int) -> np.ndarray:
    return np.array([rng.gauss(0.0, 1.0) for _ in range(size)])


def _eigenvalues(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., 2) and det of each 2x2 map [[a, b], [c, d]] in (..., 2, 2)."""
    (a, b), (c, d) = np.moveaxis(matrix, (-2, -1), (0, 1))
    root = np.sqrt(((a - d) / 2.0) ** 2 + b * c + 0j)  # (tr/2)^2 - det cancels at small k dt
    return ((a + d) / 2.0)[..., None] + np.stack([-root, root], axis=-1), a * d - b * c


def _round_trip(rng) -> float:
    # the grid's own pair transforms by matrix products at N = 16 and 64,
    # by np.fft at N = 256 and in two stages at N = 361, as the steppers do
    worst = 0.0
    for n in (16, 64, 256, 361):
        grid = Grid(half_modes=n, length=80.0, x_left=-40.0)
        f = _normal(rng, grid.num_points)
        back = grid.irfft(grid.rfft(f))
        worst = np.maximum(worst, np.max(np.abs(back - f)) / np.maximum(1.0, np.max(np.abs(f))))
    return worst


def _summation_by_parts(rng) -> float:
    grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
    f = _normal(rng, grid.num_points)
    g = _normal(rng, grid.num_points)
    lhs = inner_product(grid, f, spectral.derivative(grid, g, 2))
    rhs = -inner_product(grid, spectral.derivative(grid, f, 1), spectral.derivative(grid, g, 1))
    return abs(lhs - rhs) / np.maximum(1.0, abs(lhs))


def _aliasing_sample(rng) -> float:
    # phi in B^{2N} sampled onto the 2N+1 grid must satisfy the sqrt(2)
    # interpolation bound in H^k, k = 0..2
    n, p = 16, 2
    fine = Grid(half_modes=p * n, length=80.0, x_left=-40.0)
    coarse = Grid(half_modes=n, length=80.0, x_left=-40.0)
    phi = _normal(rng, fine.num_points)
    coarse_vals = spectral.evaluate_interpolant(fine, phi, coarse.nodes)
    return np.max([sobolev_norm(coarse, coarse_vals, k) / sobolev_norm(fine, phi, k)
                   for k in range(3)])


def _mass_short_run() -> float:
    grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
    u0 = np.exp(np.sin(2 * np.pi * (grid.nodes + 40.0) / 80.0))
    problem = GBProblem(grid, u0, np.zeros(grid.num_points))
    m0 = mass(grid, u0)
    final = run(problem, dt=1e-3, T=0.1)
    return np.inf if final.diverged else abs(mass(grid, final.u_curr) - m0) / abs(m0)


def _zero_fixed_point() -> float:
    grid = Grid(half_modes=32, length=80.0, x_left=-40.0)
    z = np.zeros(grid.num_points)
    stepper = ProposedStepper(grid, dt=0.01)
    after = stepper.state(stepper.advance(stepper.start(z, z, z)), 1)
    return np.max(np.abs([after.u_curr, after.psi_curr]))


def _linear_update_non_amplifying() -> float:
    # the trapezoidal rule makes each mode's linear map of (U, Q)
    # area-preserving (det 1) with both eigenvalues on the unit circle, at the
    # angles +-2 atan(omega dt / 2) of the equation's omega^2 = k^4 + k^2
    grid = Grid(half_modes=64, length=80.0, x_left=-40.0)
    dts = np.array([1e-3, 0.05, 1.0])
    update = np.stack([ProposedStepper(grid, dt).matrix for dt in dts])
    mu, det = _eigenvalues(update)
    k2 = grid.wavenumbers**2
    phase = 2.0 * np.arctan(np.sqrt(k2 * k2 + k2) * dts[:, None] / 2.0)
    return np.max([
        np.max(np.abs(det - 1.0)),
        np.max(np.abs(mu)) - 1.0,
        np.max(np.abs(np.abs(np.angle(mu)) - phase[..., None])),
    ])


def _batch_matches_solo() -> int:
    # rows of one batch, of either scheme and on two grids, must step exactly
    # as runs of their own: same transform per row, same coefficients, same
    # blow-up test
    params = SolitaryWaveParams(0.5)
    problems = [solitary_problem(params, Grid(half_modes=n, length=80.0, x_left=-40.0))
                for n in (16, 24)]
    runs, T = (("proposed", 0.1), ("proposed", 0.05), ("frutos", 0.05), ("proposed", 0.025)), 0.2
    batch = run_batch(problems, runs, T, bootstrap_mode="exact", params=params)
    solos = (run(problem, dt, T, scheme, bootstrap_mode="exact", params=params)
             for problem in problems for scheme, dt in runs)
    return sum(not np.array_equal(getattr(got, field), getattr(solo, field))
               for got, solo in zip(batch, solos) for field in ("u_curr", "psi_curr", "u_prev"))


def measure_checks() -> list[tuple[str, float, float, bool]]:
    """Run the invariant suite; returns (name, value, bound, passed) per check.

    Each check gets only what it uses and returns what it measured, NaN if it
    raises; ``value <= bound`` passes it, so NaN fails.  The first three draw
    normal probes from one ``random.Random(0)``.  Only "summation by parts" differentiates.
    """
    rng = random.Random(0)
    checks = [
        ("transform round-trip", lambda: _round_trip(rng), 1e-12),
        ("summation by parts", lambda: _summation_by_parts(rng), 1e-12),
        ("aliasing bound sample", lambda: _aliasing_sample(rng), np.sqrt(2.0)),
        ("mass conservation short run", _mass_short_run, 1e-12),
        ("zero fixed point", _zero_fixed_point, 0.0),
        ("linear update non-amplifying", _linear_update_non_amplifying, 1e-12),
        ("batched step equals solo steps", _batch_matches_solo, 0),
    ]
    results = []
    for name, check, bound in checks:
        try:
            value = float(check())
        except Exception:
            value = np.nan
        results.append((name, value, bound, value <= bound))
    return results


def run_checks() -> list[tuple[str, bool]]:
    """The (name, passed) pairs of :func:`measure_checks`, in its order."""
    return [(name, passed) for name, _, _, passed in measure_checks()]
