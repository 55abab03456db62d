"""Tour of the spectral building blocks on a 33-point grid.

Shows the grid's half-spectrum transform pair, spectral differentiation, the discrete inner
product identities, and the interpolation aliasing bound.  The packaged
self-checks are ``boussinesq verify``.
"""

import numpy as np

from boussinesq.spectral import (
    Grid,
    derivative,
    evaluate_interpolant,
    inner_product,
    sobolev_norm,
)

grid = Grid(half_modes=16, length=2 * np.pi)
f = np.exp(np.sin(grid.nodes))

# the grid's pair is the one transform path: rfft gives the half spectrum
# l = 0..N (each l > 0 also stands for -l), irfft brings it back
half = grid.rfft(f)
print("half spectrum:", half.shape, "wavenumbers:", grid.wavenumbers.shape)
print("round trip error:", np.max(np.abs(grid.irfft(half) - f)))
df_exact = np.cos(grid.nodes) * f
print("derivative error:", np.max(np.abs(derivative(grid, f, 1) - df_exact)))

# summation by parts: <f, g'> = -<f', g>
g = np.sin(2 * grid.nodes)
lhs = inner_product(grid, f, derivative(grid, g, 1))
rhs = -inner_product(grid, derivative(grid, f, 1), g)
print("summation by parts residual:", abs(lhs - rhs))

# interpolating fine-grid data onto a coarse grid inflates Sobolev norms
# by at most sqrt(p); sample the bound with random data
rng = np.random.default_rng(3)
p = 2
fine = Grid(half_modes=p * 16, length=2 * np.pi)
phi = rng.standard_normal(fine.num_points)
coarse_vals = evaluate_interpolant(fine, phi, grid.nodes)
for k in range(3):
    ratio = sobolev_norm(grid, coarse_vals, k) / sobolev_norm(fine, phi, k)
    print(f"H^{k} norm ratio {ratio:.4f} (bound sqrt({p}) = {np.sqrt(p):.4f})")
