#!/usr/bin/env python3
"""Exact alpha-stable increments and their two defining properties.

The polar transform turns one uniform and one exponential draw into one
stable variate, so increments are exact in law at any step size.  Two
consequences we can see numerically: the empirical characteristic
function matches exp(-c dt |xi|^alpha), and rescaled small-step
increments are indistinguishable from unit-step ones.
"""

import numpy as np
from scipy.stats import ks_2samp

from levymv import StableDriverSpec, sample_increment_array
from levymv.drivers import cf
from levymv.rng import substream

n = 400_000

# the CF battery that `levymv validate-sampler` runs (preset AC1 at 10^6 draws)
print("empirical CF vs exp(-|xi|^alpha), %d draws per alpha" % n)
battery, checks = cf(alphas=[0.8, 1.2, 1.5, 1.9, 2.0], scale=1.0, n_samples=n,
                     xi_grid=[0.25, 0.5, 1.0, 2.0, 4.0], tolerance=5e-3, seed=1)
for row, check in zip(battery["rows"], checks):
    print(f"  alpha={row['alpha']:3.1f}: sup CF gap = {row['max_abs_cf_gap']:.2e} "
          f"({'within' if check.passed else 'beyond'} {check.limit:g})")

print("\nself-similarity: increments over dt, divided by dt^(1/alpha),")
print("against unit-step increments (two-sample KS)")
for alpha in (0.9, 1.5):
    spec = StableDriverSpec(alpha=alpha, scale=1.0)
    dt = 0.2
    a = sample_increment_array(spec, dt, 100_000, substream(2, 0))
    b = sample_increment_array(spec, 1.0, 100_000, substream(2, 1))
    p = ks_2samp(a / dt ** (1.0 / alpha), b).pvalue
    print(f"  alpha={alpha}: KS p-value = {p:.3f}")

print("\nalpha = 2 endpoint is Gaussian: CF exp(-c xi^2) means variance 2c")
z = sample_increment_array(StableDriverSpec(2.0, 0.7), 1.0, n, substream(3))
print(f"  sample variance = {z.var():.4f}, expected {2 * 0.7:.4f}")
print(f"  sample kurtosis = {np.mean(z ** 4) / z.var() ** 2:.4f}, expected 3")
