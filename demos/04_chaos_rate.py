#!/usr/bin/env python3
"""Convergence rate of particles to the measure-flow limit.

Couple the n-particle interacting system to n independent copies driven
by the same increments but reading a frozen high-resolution reference
flow.  The mean-square sup-deviation over the horizon decays with n;
the log-log slope distinguishes the linear-interaction structure
(slope near -1) from what a merely Lipschitz coefficient guarantees
in general.
"""

from levymv import (GaussianLaw, LinearInteraction, SineKernel,
                    SmoothedDensityPower, StableDriverSpec, truncated)
from levymv.particles import SimulationConfig, chaos_rate_experiment

common = dict(dt=0.02, horizon_T=1.0, seed=515,
              driver=truncated(StableDriverSpec(alpha=1.5, scale=0.5), 2.0),
              initial_law=GaussianLaw(0.0, 1.0))
ladder = [25, 50, 100, 200, 400]

for label, sigma in (
        ("linear sine interaction", LinearInteraction(SineKernel(1.0, 0.5))),
        ("smoothed density power", SmoothedDensityPower(0.5, 0.5))):
    cfg = SimulationConfig(n_particles=ladder[-1], sigma=sigma, **common)
    table = chaos_rate_experiment(cfg, ladder, reps=10, n_ref=4000, threads=2)
    print(f"{label}:")
    for row in table["rows"]:
        print(f"  n={row['n']:4d}: mean sq sup-gap = {row['mean_sq_gap']:.3e}"
              f" +/- {row['stderr']:.1e}")
    print(f"  fitted log-log slope: {table['fitted_slope']:.3f}"
          f" +/- {table['slope_stderr']:.3f}\n")
