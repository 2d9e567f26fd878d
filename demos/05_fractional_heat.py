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
                    solve_linear_exact, stable_heat_kernel_grid)

params = FractionalParams(alpha=1.5, diffusivity=1.0)

grid = gaussian_grid(8.0, 256, std=0.7)
flat = fractional_laplacian(np.full(grid.m, 1.0), grid, params)
print(f"constant function maps to zero: sup = {np.max(np.abs(flat)):.1e}")

print("\nlinear flow vs the explicit stepper (constant coefficient):")
exact = solve_linear_exact(grid, 1.0, FractionalParams(1.2, 1.0))
for dt in (0.01, 0.005):
    res = solve_fp(grid, 1.0, dt, Constant(1.0), FractionalParams(1.2, 1.0),
                   boundary_density_tol=1e-2)
    err = np.max(np.abs(res.final().values - exact.values))
    print(f"  dt={dt}: sup error = {err:.2e}")

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
