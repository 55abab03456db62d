"""Propagate a solitary wave across the periodic box and watch the crest.

The amplitude-0.5 wave travels at c0 = sqrt(1 - P^2) ~ 0.8165; after T = 4
the crest should sit at x = c0*T.  The discrete mass moves by exactly t
times the (conserved) mass of psi, which is not quite 0 because the box
cuts the wave's tails.  The last lines print the residual of that law,
|mass(T) - mass(0) - T*mass(psi_0)| / |mass(0)|, the `mass_drift` of
README's table, which is 0 to round-off, and the final errors and crest.
Run with `python demos/soliton_propagation.py`.
"""

from boussinesq.diagnostics import crest_position, error_norms, mass
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
    snapshots.append((state.time, crest_position(grid, state.u_curr), mass(grid, state.u_curr)))


final = run(
    problem, dt=4e-3, T=4.0, params=params, bootstrap_mode="exact",
    observers=(watch,), stride=200,
)
assert not final.diverged

print(f"\n{'t':>6} {'crest':>10} {'mass':>14}")
for t, crest, m in snapshots:
    print(f"{t:6.2f} {crest:10.5f} {m:14.10f}")

(_, _, m0), (t1, _, m1) = snapshots[0], snapshots[-1]
residual = abs(m1 - m0 - t1 * mass(grid, problem.initial_ut)) / abs(m0)
print(f"\nmass-law residual over T = 4: {residual:.2e}")

rec = error_norms(final, params)
print(f"\nfinal errors: |psi|_2 = {rec.err_psi_l2:.3e}, |u|_H2 = {rec.err_u_h2:.3e}")
print(f"crest at {crest_position(grid, final.u_curr):.5f}, "
      f"exact c0*T = {params.speed * 4.0:.5f}")
