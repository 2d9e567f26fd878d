"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 4, 5 and 11 drive the CLI presets; the rest call
the library directly with the shipped preset parameters.
"""

import json
import math
import time

import numpy as np
import pytest

import levymv as lm
from levymv.cli import main as cli_main
from levymv.measures import empirical_gap_experiment, smoothed_density
from levymv.particles import SimulationConfig, simulate
from levymv.perturbation import PerturbationParams, perturbation_profile, verify_h1
from levymv.rng import substream


def report(name, detail):
    print(f"\n{name}: PASS  ({detail})")


@pytest.fixture(scope="session")
def ac4_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ac4") / "threads1"
    t0 = time.time()
    code = cli_main(["chaos-rate", "--preset", "AC4", "--threads", "1",
                     "--out", str(out)])
    return out, code, time.time() - t0


def test_ac1_stable_sampler_cf_match():
    t0 = time.time()
    xi = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    worst = 0.0
    for i, alpha in enumerate((0.8, 1.2, 1.5, 1.9, 2.0)):
        spec = lm.StableDriverSpec(alpha=alpha, scale=1.0)
        z = lm.sample_increment_array(spec, 1.0, 1_000_000, substream(20240801, 10, i))
        emp = np.exp(1j * xi[:, None] * z[None, :]).mean(axis=1)
        gap = float(np.max(np.abs(emp - np.exp(-np.abs(xi) ** alpha))))
        assert gap <= 5e-3, (alpha, gap)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report("AC1 stable sampler CF match",
           f"sup gap {worst:.2e} <= 5e-3 over 5 alphas, {elapsed:.1f}s < 30s")


def test_ac2_empirical_measure_gap_bound():
    t0 = time.time()
    ests = []
    for i, n in enumerate((10, 100, 1000)):
        est = empirical_gap_experiment(lambda r, size: r.standard_normal(size),
                                       n, 200, substream(20240802, 40, i),
                                       n_ref=10 ** 6)
        assert est.mean_sq_distance <= 4.0, (n, est.mean_sq_distance)
        ests.append(est)
    for a, b in zip(ests, ests[1:]):
        assert b.mean_sq_distance < a.mean_sq_distance \
            + 2.0 * math.hypot(a.stderr, b.stderr)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    vals = ", ".join(f"n={e.n}:{e.mean_sq_distance:.3f}" for e in ests)
    report("AC2 mean-square empirical gap bound",
           f"{vals} all <= 4.0 and decreasing, {elapsed:.1f}s < 60s")


def test_ac3_paired_configuration_distance_bound():
    rng = substream(20240803, 50)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 65))
        xs = rng.normal(0.0, 1.0 + 3.0 * rng.random(), n)
        ys = xs + rng.normal(0.0, 2.0 * rng.random(), n)
        if not lm.check_empirical_distance_bound(xs, ys, tol=1e-12):
            violations += 1
    assert violations == 0
    report("AC3 sorted-coupling distance bound",
           "0 violations in 10^4 randomized pairs, n in 2..64, tol 1e-12")


def test_ac4_linear_interaction_chaos_rate(ac4_run):
    out, code, elapsed = ac4_run
    assert code == 0
    payload = json.loads((out / "slope.json").read_text())
    slope = payload["fitted_slope"]
    assert slope <= -0.8, slope
    assert elapsed < 600.0
    report("AC4 linear-interaction chaos rate",
           f"fitted slope {slope:.3f} <= -0.8 at n_ref=8000, {elapsed:.0f}s < 600s")


def test_ac5_generic_coefficient_chaos_rate(tmp_path):
    t0 = time.time()
    out = tmp_path / "ac5"
    code = cli_main(["chaos-rate", "--preset", "AC5", "--threads", "2",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "slope.json").read_text())
    slope = payload["fitted_slope"]
    assert slope <= -0.3, slope
    assert payload["monotone_within_2se"] is True
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report("AC5 smoothed-coefficient chaos rate",
           f"fitted slope {slope:.3f} <= -0.3, curve monotone within 2 SE, "
           f"{elapsed:.0f}s")


def test_ac6_mass_conservation_every_step():
    grid = lm.gaussian_grid(20.0, 512, std=1.0)
    res = lm.solve_fp(grid, 0.25, 0.004, lm.SmoothedDensityPower(0.5, 0.5),
                      lm.FractionalParams(1.5, 1.0), snapshots=5,
                      boundary_density_tol=1e-3)
    drift = float(np.max(np.abs(res.mass_trace - 1.0)))
    assert drift <= 1e-9
    report("AC6 mass conservation",
           f"max |mass - 1| = {drift:.2e} <= 1e-9 over {res.mass_trace.size - 1} steps")


def test_ac7_linear_oracle_and_rk4_order():
    lines = []
    for alpha, dt in ((1.2, 0.02), (1.8, 0.004)):
        grid = lm.gaussian_grid(8.0, 128, std=0.5)
        params = lm.FractionalParams(alpha, 1.0)
        exact = lm.solve_linear_exact(grid, 1.0, params)
        errs = []
        for d in (dt, dt / 2.0):
            res = lm.solve_fp(grid, 1.0, d, lm.Constant(1.0), params,
                              boundary_density_tol=1e-2)
            errs.append(float(np.max(np.abs(res.final().values - exact.values))))
        ratio = errs[0] / errs[1]
        assert errs[0] <= 1e-6, (alpha, errs[0])
        assert 12.0 <= ratio <= 20.0, (alpha, ratio)
        lines.append(f"alpha={alpha}: sup={errs[0]:.1e}, ratio={ratio:.1f}")
    report("AC7 linear oracle agreement and scheme order", "; ".join(lines))


def test_ac8_particle_pde_consistency():
    t0 = time.time()
    alpha, eps, s, horizon = 1.5, 0.5, 0.5, 0.5
    sig = lm.SmoothedDensityPower(eps, s)
    params = lm.FractionalParams(alpha, 1.0)  # calibrated to the driver scale
    p0 = lm.gaussian_grid(30.0, 1024, std=1.0)
    pde = lm.solve_fp(p0, horizon, 0.004, sig, params,
                      boundary_density_tol=1e-3).final()
    l1s = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        cfg = SimulationConfig(n_particles=n, dt=0.005, horizon_T=horizon,
                               seed=20240808, driver=lm.StableDriverSpec(alpha, 1.0),
                               sigma=sig, initial_law=lm.GaussianLaw(0.0, 1.0))
        flow = simulate(cfg, record_every=cfg.n_steps)
        kde = smoothed_density(flow.final(), 0.01, p0.nodes)
        l1s.append(float(np.sum(np.abs(kde - pde.values)) * p0.dx))
    assert l1s[0] > l1s[1] > l1s[2]
    assert l1s[-1] <= 0.05
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report("AC8 particle-PDE consistency",
           f"L1 = {l1s[0]:.3f} > {l1s[1]:.3f} > {l1s[2]:.3f} <= 0.05, "
           f"{elapsed:.0f}s < 300s")


def test_ac9_adjoint_identity_presets():
    nu = lm.gaussian_grid(8.0, 1024, std=1.0)
    params = lm.FractionalParams(1.5, 1.0)
    cases = [
        (lm.Constant(1.0), lm.bump(0.0, 2.5), lm.bump(0.0, 2.5)),
        (lm.Constant(1.7), lm.bump(-1.0, 2.5), lm.bump(1.2, 2.2)),
        (lm.SmoothedDensityPower(0.5, 0.5), lm.bump(-1.0, 2.5), lm.bump(1.2, 2.2)),
    ]
    worst = 0.0
    for sigma, phi, psi in cases:
        rep = lm.adjoint_identity_check(sigma, nu, phi, psi, params)
        assert rep.rel_error <= 1e-4
        worst = max(worst, rep.rel_error)
    report("AC9 generator-multiplier duality",
           f"worst relative error {worst:.1e} <= 1e-4 over 3 presets")


def test_ac10_small_jump_hypothesis_battery():
    params = PerturbationParams(gamma=1.0, eps=0.01, alpha=1.5, k1_bound=1.0)
    assert perturbation_profile(1.0, params) == 0.0
    rep = verify_h1(params)
    assert rep.all_passed
    for name in ("sup_profile_bound", "sup_deriv_bound", "profile_over_y_bound"):
        assert rep[name].margin >= 0.0, name
    report("AC10 perturbation-profile battery",
           f"all {len(rep.checks)} checks pass; profile(1) == 0 exactly")


def test_ac11_thread_count_determinism(ac4_run, tmp_path):
    out1, code, _ = ac4_run
    assert code == 0
    out8 = tmp_path / "threads8"
    assert cli_main(["chaos-rate", "--preset", "AC4", "--threads", "8",
                     "--out", str(out8)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out8.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name
    report("AC11 determinism across worker counts",
           f"--threads 1 and --threads 8 write byte-identical files ({', '.join(names)})")
