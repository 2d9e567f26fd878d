#!/usr/bin/env python3
"""Transport distances between empirical measures on the line.

For quadratic cost the sorted pairing is the optimal coupling, so the
distance is exact and O(n log n).  The truncated cost |x-y|^2 ^ 1 is not
convex, so the same pairing only gives an upper bound; for tiny n we can
afford the factorial search and see how tight it is.  Finally, the rate
at which an i.i.d. empirical measure approaches its law: the mean-square
distance stays below four second moments at every n and decays as n
grows.
"""

import itertools
import math

import numpy as np

from levymv import (EmpiricalMeasure, check_empirical_distance_bound,
                    empirical_gap_experiment, truncated_wasserstein2_upper,
                    wasserstein2)
from levymv.rng import substream

rng = substream(7)

print("exact quadratic transport vs brute-force assignment (n = 6)")
for _ in range(3):
    xs, ys = rng.normal(0, 1, 6), rng.normal(0.5, 2, 6)
    sorted_val = wasserstein2(EmpiricalMeasure(xs), EmpiricalMeasure(ys))
    brute = min(math.sqrt(np.mean((np.asarray(p) - ys) ** 2))
                for p in itertools.permutations(xs))
    print(f"  sorted {sorted_val:.6f}   brute-force {brute:.6f}")

print("\ntruncated-cost upper bound vs brute force")
for spread in (0.3, 3.0):
    xs, ys = rng.normal(0, spread, 6), rng.normal(0, spread, 6)
    upper = truncated_wasserstein2_upper(EmpiricalMeasure(xs), EmpiricalMeasure(ys))
    brute = min(math.sqrt(np.mean(np.minimum((np.asarray(p) - ys) ** 2, 1.0)))
                for p in itertools.permutations(xs))
    print(f"  spread {spread}: upper {upper:.6f} vs optimal {brute:.6f}"
          + ("  (tight: all gaps below 1)" if spread < 1 else ""))

print("\npaired-configuration bound: d(emp(x), emp(y)) <= |x - y|/sqrt(n)")
ok = all(check_empirical_distance_bound(rng.normal(0, 2, 32),
                                        rng.normal(0, 2, 32))
         for _ in range(1000))
print(f"  1000 random pairs, violations: {0 if ok else '>0'}")

print("\nmean-square distance of an i.i.d. n-sample to its law (standard normal)")
for n in (10, 100, 1000):
    mean, _ = empirical_gap_experiment(lambda r, size: r.standard_normal(size),
                                       n, 100, substream(8, n), n_ref=200_000)
    print(f"  n={n:5d}: E d^2 = {mean:.4f}"
          f"  (bound 4 E X^2 = 4)")
