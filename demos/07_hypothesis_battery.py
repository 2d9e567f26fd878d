#!/usr/bin/env python3
"""The jump-amplitude perturbation profile and its admissibility checks.

The density machinery needs an even C^1 profile on the jump band that
vanishes at the edges, stays small against 1/(4(1+K1)), keeps its square
integrable against the stable band density, and displaces the band
density by at most a factor-1/2 relative change.  All of that is
checkable numerically; this demo prints the battery and emits the
profile as plot data.
"""

import numpy as np

from levymv.exports import curve_to_csv
from levymv.perturbation import (PerturbationParams, perturbation_profile,
                                 verify_h1)

params = PerturbationParams(gamma=1.0, eps=0.01, alpha=1.5, k1_bound=1.0)
print(f"profile parameters: gamma={params.gamma}, eps={params.eps}, "
      f"alpha={params.alpha}, blending constant c={params.c_coeff:.6f}")
print(f"profile(1.0) = {perturbation_profile(1.0, params)!r} (exact zero)")

ys = np.linspace(-1.0, 1.0, 4001)
curve_to_csv(ys, perturbation_profile(ys, params), "perturbation_profile.csv",
             names=("y", "k"))
print("wrote perturbation_profile.csv for plotting")

report, checks = verify_h1(params)
print(f"\nbattery ({'all pass' if report['all_passed'] else 'FAILURES'}):")
for chk in checks:
    flag = "pass" if chk.passed else "FAIL"
    print(f"  {chk.name:42s} {flag}   margin {chk.margin:+.3e}")

print("\nthe sufficiency threshold is strict; sitting exactly on it is flagged:")
at_threshold = PerturbationParams(gamma=1.0, eps=0.25, alpha=1.5, k1_bound=1.0)
chk = {c.name: c for c in verify_h1(at_threshold)[1]}["eps_below_profile_threshold"]
print(f"  eps=0.25 -> {chk.name}: {'pass' if chk.passed else 'flagged'}")
