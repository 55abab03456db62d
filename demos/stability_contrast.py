"""Contrast the two time schemes at a deliberately large step.

At dt = 0.1 the classical three-level scheme slowly amplifies high-mode
round-off (growth rate capped near exp(t/2), so the blow-up threshold is
only reached on long horizons) and diverges at the finest grid well before
T = 100.  The two-variable scheme runs the same ladder without incident:
its per-mode update is a trapezoidal rotation with spectral radius 1.
"""

from boussinesq.reporting import write_csv
from boussinesq.sweeps import run_sweep, stability_spec

spec = stability_spec()  # N in {64, 128, 256, 512}, dt = 0.1, T = 100
print(f"dt = {spec.dt}, T = {spec.T}, N in {spec.N_list}\n")

result = run_sweep(spec)
for row in result.rows:
    status = "DIVERGED" if row.diverged else f"err_uH2 = {row.err_u_h2:.3e}"
    print(f"{row.scheme:9s} N={row.N:4d}  {status}")

write_csv(result, "stability_map.csv")
print("\nwrote stability_map.csv")
