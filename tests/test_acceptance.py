"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 1 to 10 each run their shipped preset through the
CLI, as ``levymv <command> --preset AC<k>`` does: the run must exit 0
having decided exactly the checks listed for it in ``CRITERIA``, every
one passed, within the criterion's time budget.  The preset holds every
seed, size and tolerance, so the test restates none.  Criterion 11 reruns
AC4 at another thread count and compares the bytes.
"""

import json
import time

import pytest

from levymv.cli import main as cli_main
from levymv.presets import PRESETS

# preset: (what it shows, time budget in seconds or None, the checks it decides)
CRITERIA = {
    "AC1": ("stable sampler CF match", 30.0,
            ["cf_gap_0", "cf_gap_1", "cf_gap_2", "cf_gap_3", "cf_gap_4"]),
    "AC2": ("mean-square empirical gap bound", 60.0,
            ["lemma4_bound_0", "lemma4_bound_1", "lemma4_bound_2",
             "lemma4_monotone_1", "lemma4_monotone_2"]),
    "AC3": ("sorted-coupling distance bound", None, ["distance_bound_violations"]),
    "AC4": ("linear-interaction chaos rate", 600.0, ["slope"]),
    "AC5": ("smoothed-coefficient chaos rate", 600.0,
            ["slope", "monotone_1", "monotone_2", "monotone_3", "monotone_4"]),
    "AC6": ("mass conservation", None, ["mass_drift", "boundary_density"]),
    "AC7": ("linear oracle agreement and scheme order", None,
            ["sup_error_0", "order_ratio_lo_0", "order_ratio_hi_0",
             "sup_error_1", "order_ratio_lo_1", "order_ratio_hi_1"]),
    "AC8": ("particle-PDE consistency", 300.0,
            ["l1_decreasing_1", "l1_decreasing_2", "l1_at_largest", "pde_mass_drift"]),
    "AC9": ("generator-multiplier duality", None,
            ["duality_rel_error_0", "duality_rel_error_1", "duality_rel_error_2"]),
    "AC10": ("perturbation-profile battery", None,
             ["vanishes_at_band_edge", "first_knot_value", "c1_patching",
              "profile_nonnegative", "sup_profile_bound", "sup_deriv_bound",
              "profile_over_y_bound", "profile_smallness", "deriv_smallness",
              "eps_below_profile_threshold", "square_integral_converges",
              "square_integral_decreasing_r1024", "square_integral_decreasing_r2048",
              "square_integral_finite", "displacement_ratio_bound",
              "log_deriv_integrand_square_integrable", "log_deriv_integrand_converges",
              "log_deriv_integrand_finite"]),
}


def _run(preset, out, threads=1):
    t0 = time.time()
    code = cli_main([PRESETS[preset]["command"], "--preset", preset,
                     "--threads", str(threads), "--out", str(out)])
    return code, time.time() - t0


def _assert_criterion(preset, out, code, elapsed):
    what, budget, expected = CRITERIA[preset]
    assert code == 0
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert [c["name"] for c in checks] == expected
    assert all(c["passed"] for c in checks)
    assert budget is None or elapsed < budget
    values = ", ".join(f"{c['name']} {c['value']:.3g} {c['sense']} {c['limit']:.3g}"
                       for c in checks)
    limit = "" if budget is None else f" < {budget:.0f}s"
    print(f"\n{preset} {what}: PASS  ({values}; {elapsed:.1f}s{limit})")


def _passes(preset, tmp_path):
    out = tmp_path / preset
    _assert_criterion(preset, out, *_run(preset, out))


@pytest.fixture(scope="session")
def ac4_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ac4") / "threads1"
    return out, *_run("AC4", out)


def test_every_preset_has_a_criterion():
    assert sorted(CRITERIA) == sorted(PRESETS)


def test_ac1_stable_sampler_cf_match(tmp_path):
    _passes("AC1", tmp_path)


def test_ac2_empirical_measure_gap_bound(tmp_path):
    _passes("AC2", tmp_path)


def test_ac3_paired_configuration_distance_bound(tmp_path):
    _passes("AC3", tmp_path)


def test_ac4_linear_interaction_chaos_rate(ac4_run):
    _assert_criterion("AC4", *ac4_run)


def test_ac5_generic_coefficient_chaos_rate(tmp_path):
    _passes("AC5", tmp_path)


def test_ac6_mass_conservation_every_step(tmp_path):
    _passes("AC6", tmp_path)


def test_ac7_linear_oracle_and_rk4_order(tmp_path):
    _passes("AC7", tmp_path)


def test_ac8_particle_pde_consistency(tmp_path):
    _passes("AC8", tmp_path)


def test_ac9_adjoint_identity_presets(tmp_path):
    _passes("AC9", tmp_path)


def test_ac10_small_jump_hypothesis_battery(tmp_path):
    _passes("AC10", tmp_path)


def test_ac11_thread_count_determinism(ac4_run, tmp_path):
    out1, code, _ = ac4_run
    assert code == 0
    out8 = tmp_path / "threads8"
    assert _run("AC4", out8, threads=8)[0] == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out8.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name
    print(f"\nAC11 determinism across worker counts: PASS  (--threads 1 and --threads 8 "
          f"write byte-identical files: {', '.join(names)})")
