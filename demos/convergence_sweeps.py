"""Reproduce the two convergence experiments and write their CSV files.

Temporal: N = 512 fixed, K from 100 to 1000 steps over T = 4; the fitted
slope of error vs dt should be 2.  Spatial: dt = 1e-4 fixed, N from 32 to
128; the error falls spectrally until it hits the O(dt^2) floor.

The temporal sweep takes a few seconds; the spatial one a half minute or
so.  Pass --quick to shrink both.
"""

import sys

from boussinesq.reporting import write_csv
from boussinesq.sweeps import run_sweep, spatial_spec, temporal_spec

quick = "--quick" in sys.argv[1:]

t_spec = temporal_spec(nk_list=(100, 200, 400)) if quick else temporal_spec()
temporal = run_sweep(t_spec)
print("temporal sweep (N = 512, T = 4):")
for row in temporal.rows:
    print(f"  K={row.K:5d} dt={row.dt:.4e}  err_psi={row.err_psi_l2:.6e}  "
          f"err_uH2={row.err_u_h2:.6e}")
print("fitted orders:", {k: round(v, 4) for k, v in temporal.fitted_orders.items()})
write_csv(temporal, "temporal_sweep.csv")

s_spec = spatial_spec(N_list=(32, 48, 64), T=1.0, dt=1e-3) if quick else spatial_spec()
spatial = run_sweep(s_spec)
print("\nspatial sweep (dt fixed):")
for row in spatial.rows:
    print(f"  N={row.N:4d}  err_psi={row.err_psi_l2:.6e}  err_uH2={row.err_u_h2:.6e}")
write_csv(spatial, "spatial_sweep.csv")

print("\nwrote temporal_sweep.csv / spatial_sweep.csv")
