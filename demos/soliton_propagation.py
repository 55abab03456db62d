"""Propagate a solitary wave across the periodic box and watch the crest.

The amplitude-0.5 wave travels at c0 = sqrt(1 - P^2) ~ 0.8165; after T = 4
the crest should sit at x = c0*T.  The discrete mass moves only by t times
the (conserved) mass of psi, which is not quite 0 because the box cuts the
wave's tails: about 8e-12 relative by T = 4.  The "energy" column is
`modified_energy(u, psi)`, the convergence proof's error functional
(1/2)(||psi||^2 + ||D^2 u||^2 + ||D u||^2) applied to the solution itself.
The scheme does not conserve it: it drifts by about 1.7e-6 relative over
T = 4.  Both relative drifts are printed at the end.  Run with
`python demos/soliton_propagation.py`.
"""

import numpy as np

from boussinesq.diagnostics import crest_position, error_norms, mass, modified_energy
from boussinesq.spectral import Grid
from boussinesq.stepping import run
from boussinesq.waves import params_from_amplitude, solitary_problem

grid = Grid(half_modes=512, length=80.0, x_left=-40.0)
params = params_from_amplitude(0.5)
problem = solitary_problem(params, grid)

print(f"amplitude {params.amplitude}, speed {params.speed:.6f}")
print(f"grid: {grid.num_points} points, h = {grid.spacing:.4f}")

snapshots = []


def watch(state):
    snapshots.append(
        (
            state.time,
            crest_position(grid, state.u_curr),
            mass(grid, state.u_curr),
            modified_energy(grid, state.u_curr, state.psi_curr),
        )
    )


result = run(
    problem, dt=4e-3, T=4.0, params=params, bootstrap_mode="exact",
    observers=(watch,), stride=200,
)
assert not result.diverged

print(f"\n{'t':>6} {'crest':>10} {'mass':>14} {'energy':>14}")
for t, crest, m, e in snapshots:
    print(f"{t:6.2f} {crest:10.5f} {m:14.10f} {e:14.10f}")

(_, _, m0, e0), (_, _, m1, e1) = snapshots[0], snapshots[-1]
print(f"\nrelative drift over T = 4: mass {abs(m1 - m0) / abs(m0):.2e}, "
      f"energy {abs(e1 - e0) / abs(e0):.2e}")

rec = error_norms(result.state, params)
print(f"\nfinal errors: |psi|_2 = {rec.err_psi_l2:.3e}, |u|_H2 = {rec.err_u_h2:.3e}")
print(f"crest at {crest_position(grid, result.state.u_curr):.5f}, "
      f"exact c0*T = {params.speed * 4.0:.5f}")
