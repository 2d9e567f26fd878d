#!/usr/bin/env python3
"""Two routes to the same law: particles vs the spectral density solver.

The interacting system's marginal converges to the density evolved by
the nonlinear fractional equation when the multiplier constant is
calibrated to the driver's characteristic-function constant.  Here both
routes run on the smoothed power coefficient and the L1 gap between the
particle kernel-density estimate (the binned smoothing table that
`levymv compare` reads, preset AC8) and the solver output shrinks with n.
"""

from levymv import (FractionalParams, GaussianLaw, SmoothedDensityPower,
                    StableDriverSpec, gaussian_grid, solve_fp)
from levymv.particles import SimulationConfig, kde_l1_table

alpha, horizon = 1.5, 0.5
sigma = SmoothedDensityPower(eps=0.5, s=0.5)
driver = StableDriverSpec(alpha=alpha, scale=1.0)

res = solve_fp(gaussian_grid(30.0, 1024, std=1.0), horizon, 0.004, sigma,
               FractionalParams(alpha=alpha, diffusivity=driver.scale),
               boundary_density_tol=1e-3)
pde = res.final()
print(f"solver: m={pde.m}, final peak {pde.values.max():.4f}, "
      f"mass {pde.mass():.10f}")

cfg = SimulationConfig(n_particles=1000, dt=0.005, horizon_T=horizon, seed=66,
                       driver=driver, sigma=sigma, initial_law=GaussianLaw(0.0, 1.0))
table, checks = kde_l1_table(cfg, (1000, 10_000, 100_000), res, kde_eps=0.01)
for row in table["rows"]:
    print(f"  n={row['n']:6d}: L1(particle KDE, solver density) = {row['l1_distance']:.4f}")
print(f"  L1 falls with each step up in n: {all(c.passed for c in checks)}")
