#!/usr/bin/env python3
"""The fractional Laplacian as a Fourier multiplier and the density flow.

Diagonal in frequency, the operator costs two FFTs; the linear equation
has an exact solution we use as an oracle for the explicit stepper.
The nonlinear flux |sigma(., p)|^alpha p turns the same machinery into
a solver for the measure-flow density equation, here with the smoothed
power coefficient, which makes the equation a regularized fractional
porous-medium model.
"""

import numpy as np

from levymv import (Constant, FractionalParams, SmoothedDensityPower,
                    fractional_laplacian, gaussian_grid, solve_fp,
                    stable_heat_kernel_grid)
from levymv.fokker_planck import linear_oracle

params = FractionalParams(alpha=1.5, diffusivity=1.0)

grid = gaussian_grid(8.0, 256, std=0.7)
flat = fractional_laplacian(np.full(grid.m, 1.0), grid, params)
print(f"constant function maps to zero: sup = {np.max(np.abs(flat)):.1e}")

# the order study that `levymv pde` runs for a linear_oracle block (preset AC7)
print("\nlinear flow vs the explicit stepper (constant coefficient):")
(row,), checks = linear_oracle([(grid, FractionalParams(1.2, 1.0), 0.01)], 1.0, Constant(1.0),
                               1e-6, (12.0, 20.0), boundary_density_tol=1e-2)
print(f"  dt={row['dt']}: sup error = {row['sup_error']:.2e}")
print(f"  dt={row['dt'] / 2}: sup error = {row['sup_error_half_dt']:.2e}")
print(f"  error ratio {row['order_ratio']:.1f} (16 for a fourth-order scheme): "
      f"{'pass' if all(c.passed for c in checks) else 'FAIL'}")

print("\nself-similar spreading of the fractional heat kernel:")
t0, t1 = 0.5, 0.75
p0 = stable_heat_kernel_grid(40.0, 2048, t0, params)
res = solve_fp(p0, t1 - t0, 0.00125, Constant(1.0), params,
               boundary_density_tol=1e-3)
r = (t0 / t1) ** (1.0 / params.alpha)
rescaled = r * np.interp(r * p0.nodes, p0.nodes, p0.values)
print(f"  kernel at t={t1} vs rescaled kernel at t={t0}: "
      f"sup gap = {np.max(np.abs(res.final().values - rescaled)):.2e}")

print("\nnonlinear flow with the smoothed power coefficient:")
grid = gaussian_grid(20.0, 512, std=1.0)
res = solve_fp(grid, 0.25, 0.004, SmoothedDensityPower(0.5, 0.5), params,
               snapshots=5, boundary_density_tol=1e-3)
for t, g in zip(res.times, res.grids):
    peak = float(g.values.max())
    print(f"  t={t:5.3f}: peak density {peak:.4f}, mass {g.mass():.12f}")
print(f"  worst mass drift: {np.max(np.abs(res.mass_trace - 1.0)):.2e}")
