"""CLI front end: config handling, outputs, exit codes, reproducibility."""

import copy
import json
import math
import os

import numpy as np
import pytest

from levymv import cli, coefficients, drivers
from levymv.cli import SCHEMAS, main
from levymv.presets import PRESETS


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SIM_CFG = {
    "command": "simulate",
    "seed": 5,
    "n_particles": 5000,
    "dt": 0.1,
    "horizon": 0.5,
    "driver": {"kind": "stable", "alpha": 1.5, "scale": 1.0},
    "sigma": {"kind": "constant", "value": 1.0},
    "initial": {"kind": "point", "x0": 0.0},
    "record_every": 5,
}


class TestArgumentHandling:
    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 2

    def test_missing_config_and_preset(self, capsys):
        assert main(["simulate"]) == 2

    def test_unknown_preset(self, capsys):
        assert main(["simulate", "--preset", "nope"]) == 2

    def test_config_and_preset_conflict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CFG)
        assert main(["simulate", cfg, "--preset", "AC1"]) == 2

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CFG)
        assert main(["pde", cfg]) == 2

    def test_thread_count_below_one_rejected(self, tmp_path, capsys):
        for threads in ("0", "-2"):
            out = tmp_path / f"t{threads}"
            assert main(["chaos-rate", "--preset", "AC4", "--threads", threads,
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and "--threads" in err and "Traceback" not in err
            assert not out.exists()

    def test_truncated_config_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "truncated.json"
        cfg.write_text(json.dumps(SIM_CFG)[:40])
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(cfg) in err and "Traceback" not in err

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        cfg = str(tmp_path / "missing.json")
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and cfg in err and "Traceback" not in err

    def test_seed_required(self, tmp_path, capsys):
        payload = dict(SIM_CFG)
        del payload["seed"]
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", cfg]) == 2


class TestSimulateCommand:
    def test_outputs_and_cf_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CFG)
        out = str(tmp_path / "run")
        assert main(["simulate", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "flow.csv"))
        assert os.path.exists(os.path.join(out, "final_kde.csv"))
        resolved = json.load(open(os.path.join(out, "config.resolved.json")))
        assert resolved["seed"] == 5 and resolved["command"] == "simulate"
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert [(c["name"], c["passed"]) for c in summary["checks"]] == [("cf_gap", True)]
        assert summary["pass"] is True

    def test_cf_check_for_every_closed_form_initial_law(self, tmp_path, capsys):
        for init in ({"kind": "gaussian", "mean": 0.5, "std": 0.7},
                     {"kind": "uniform", "lo": -1.0, "hi": 2.0}):
            cfg = write_config(tmp_path, {**SIM_CFG, "initial": init})
            out = str(tmp_path / init["kind"])
            assert main(["simulate", cfg, "--out", out]) == 0
            summary = json.load(open(os.path.join(out, "summary.json")))
            assert [(c["name"], c["passed"]) for c in summary["checks"]] \
                == [("cf_gap", True)], init

    def test_cf_tolerance_without_a_cf_test_rejected(self, tmp_path, capsys):
        # the CF test needs a constant sigma, a stable driver and an initial
        # law with a closed-form CF; a tolerance given without one is not read
        (tmp_path / "init.csv").write_text("0.0\n1.0\n")
        cases = {"sigma": {"kind": "linear_sine"},
                 "driver": {"kind": "triplet", "gaussian_a": 1.0},
                 "initial": {"kind": "file", "path": str(tmp_path / "init.csv")}}
        for key, block in cases.items():
            cfg = write_config(tmp_path, {**SIM_CFG, key: block, "cf_tolerance": 1e-12})
            out = tmp_path / key
            assert main(["simulate", cfg, "--out", str(out)]) == 2, key
            err = capsys.readouterr().err
            assert "error:" in err and "'cf_tolerance'" in err and "Traceback" not in err
            assert not (out / "summary.json").exists()

    def test_cf_xi_grid_without_a_cf_test_rejected(self, tmp_path, capsys):
        # the key has a default, so it counts as given only when the file gives it
        cfg = write_config(tmp_path, {**SIM_CFG, "sigma": {"kind": "linear_sine"},
                                      "cf_xi_grid": [0.5, 1.0]})
        out = tmp_path / "xi"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'cf_xi_grid'" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()
        cfg = write_config(tmp_path, {**SIM_CFG, "sigma": {"kind": "linear_sine"},
                                      "n_particles": 50})
        assert main(["simulate", cfg, "--out", str(tmp_path / "default")]) == 0

    def test_truncated_stable_driver_decides_no_cf_gap(self, tmp_path, capsys):
        # a finite truncation cuts the stable driver's big jumps, so the
        # terminal law is not stable and no CF test runs; at alpha = 2 there
        # are no jumps to cut, and it runs
        decided = {}
        for alpha in (1.5, 2.0):
            cfg = write_config(tmp_path, {**SIM_CFG, "n_particles": 2000, "truncation": 2.0,
                                          "driver": {"kind": "stable", "alpha": alpha}})
            out = tmp_path / f"alpha{alpha}"
            assert main(["simulate", cfg, "--out", str(out)]) == 0, alpha
            summary = json.loads((out / "summary.json").read_text())
            decided[alpha] = [c["name"] for c in summary["checks"]]
            assert ("cf_test" in summary) == bool(decided[alpha]), alpha
        assert decided == {1.5: [], 2.0: ["cf_gap"]}

    def test_nan_truncation_rejected(self, tmp_path, capsys):
        # json reads NaN, so a config file can carry one
        cfg = write_config(tmp_path, {**SIM_CFG, "truncation": float("nan")})
        assert "NaN" in open(cfg).read()
        assert main(["simulate", cfg, "--out", str(tmp_path / "nan")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'truncation'" in err

    def test_non_numeric_truncation_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SIM_CFG, "truncation": "2.0"})
        assert main(["simulate", cfg, "--out", str(tmp_path / "str")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_driver_key_not_read_by_its_kind_rejected(self, tmp_path, capsys):
        triplet = {"kind": "triplet", "gaussian_a": 1.0, "delta": 0.1}
        stable = {"kind": "stable", "alpha": 1.5, "scael": 2.0}
        for driver, key in ((triplet, "delta"), (stable, "scael")):
            cfg = write_config(tmp_path, {**SIM_CFG, "driver": driver})
            assert main(["simulate", cfg, "--out", str(tmp_path / key)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and repr(key) in err, key

    def test_block_key_not_read_by_its_kind_rejected(self, tmp_path, capsys):
        sigma = {"kind": "linear_sine", "c0": 1.0, "c_1": 0.5}
        initial = {"kind": "gaussian", "mean": 0.0, "sd": 2.0}
        for block, key in (({"sigma": sigma}, "c_1"), ({"initial": initial}, "sd")):
            cfg = write_config(tmp_path, {**SIM_CFG, **block})
            assert main(["simulate", cfg, "--out", str(tmp_path / key)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and repr(key) in err and "Traceback" not in err, key

    def test_missing_required_key_rejected(self, tmp_path, capsys):
        cases = (("driver", {"kind": "stable", "scale": 1.0}, "alpha"),
                 ("sigma", {"kind": "smoothed_power", "eps": 0.5}, "s"),
                 ("sigma", {"kind": "constant"}, "value"),
                 ("initial", {"kind": "file"}, "path"))
        no_horizon = {k: v for k, v in SIM_CFG.items() if k != "horizon"}
        configs = [({**SIM_CFG, block: value}, key) for block, value, key in cases]
        for payload, key in configs + [(no_horizon, "horizon")]:
            cfg = write_config(tmp_path, payload)
            assert main(["simulate", cfg, "--out", str(tmp_path / key)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and repr(key) in err and "Traceback" not in err, key

    def test_unloadable_initial_file_rejected(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("x\n1.0\n")
        for name in ("missing.csv", "bad.csv"):
            initial = {"kind": "file", "path": str(tmp_path / name)}
            cfg = write_config(tmp_path, {**SIM_CFG, "initial": initial})
            assert main(["simulate", cfg, "--out", str(tmp_path / "file")]) == 2, name
            err = capsys.readouterr().err
            assert "error:" in err and "key 'initial': cannot load" in err and name in err \
                and "Traceback" not in err, name

    def test_non_numeric_sizes_rejected(self, tmp_path, capsys):
        for key, value in (("n_particles", "100"), ("n_particles", 100.0),
                           ("n_particles", True), ("dt", "0.1"), ("horizon", None),
                           ("kde_points", "401"), ("record_every", 0),
                           ("kde_eps", "0.05"), ("seed", "5"), ("seed", 5.0),
                           ("record_evry", 1), ("flow_format", "cvs")):
            cfg = write_config(tmp_path, {**SIM_CFG, key: value})
            assert main(["simulate", cfg, "--out", str(tmp_path / key)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and repr(key) in err and "Traceback" not in err, \
                (key, value)

    def test_triplet_driver(self, tmp_path, capsys):
        # pure drift plus one atom above the level: the truncated driver is
        # Gaussian with mean b T and variance a T
        driver = {"kind": "triplet", "gaussian_a": 0.5, "drift_b": 0.4,
                  "big_jump_atoms": [[3.0, 2.0]]}
        cfg = write_config(tmp_path, {**SIM_CFG, "driver": driver,
                                      "truncation": 2.0})
        out = str(tmp_path / "triplet")
        assert main(["simulate", cfg, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        final = summary["moments"][-1]
        n, t = SIM_CFG["n_particles"], SIM_CFG["horizon"]
        sd = (0.5 * t) ** 0.5
        assert abs(final["mean"] - 0.4 * t) < 4.0 * sd / n ** 0.5
        var = final["second_moment"] - final["mean"] ** 2
        assert abs(var - 0.5 * t) < 4.0 * 0.5 * t * (2.0 / n) ** 0.5
        assert "cf_test" not in summary and summary["pass"] is True

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CFG)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["simulate", cfg, "--out", out1]) == 0
        assert main(["simulate", cfg, "--out", out2]) == 0
        for name in ("flow.csv", "final_kde.csv", "summary.json"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_seed_override_changes_draws(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_CFG)
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert main(["simulate", cfg, "--out", out1]) == 0
        assert main(["simulate", cfg, "--seed", "6", "--out", out2]) == 0
        a = open(os.path.join(out1, "flow.csv")).read()
        b = open(os.path.join(out2, "flow.csv")).read()
        assert a != b


class TestPdeCommand:
    def test_zero_coefficient_keeps_snapshots_at_initial(self, tmp_path, capsys):
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 128},
            "initial": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "alpha": 1.5, "diffusivity": 1.0,
            "sigma": {"kind": "constant", "value": 0.0},
            "dt": 0.01, "horizon": 0.1, "snapshots": 2,
        }
        cfg = write_config(tmp_path, payload)
        out = str(tmp_path / "pde0")
        assert main(["pde", cfg, "--out", out]) == 0
        from levymv.exports import density_stack_from_binary
        times, rows = density_stack_from_binary(os.path.join(out, "snapshots.bin"))
        for row in rows[1:]:
            assert np.array_equal(row, rows[0])
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["mass_max_drift"] <= 1e-9

    def test_linear_config_reports_error_vs_exact(self, tmp_path, capsys):
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 128},
            "initial": {"kind": "gaussian", "mean": 0.0, "std": 0.5},
            "alpha": 1.2, "diffusivity": 1.0,
            "sigma": {"kind": "constant", "value": 1.0},
            "dt": 0.01, "horizon": 0.5, "snapshots": 2,
            "boundary_density_tol": 1e-2,
        }
        cfg = write_config(tmp_path, payload)
        out = str(tmp_path / "pdelin")
        assert main(["pde", cfg, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["max_error_vs_exact"] < 1e-6

    def test_snapshots_counts_the_snapshots_after_t0(self, tmp_path, capsys):
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 128},
            "alpha": 1.5, "sigma": {"kind": "constant", "value": 1.0},
            "dt": 0.01, "horizon": 0.11, "snapshots": 5, "boundary_density_tol": 1e-2,
        }
        out = tmp_path / "five"
        assert main(["pde", write_config(tmp_path, payload), "--out", str(out)]) == 0
        times = json.loads((out / "summary.json").read_text())["snapshot_times"]
        assert len(times) == 6 and times[-1] == pytest.approx(0.11)
        # more snapshots than the 11 steps
        out = tmp_path / "twelve"
        payload["snapshots"] = 12
        assert main(["pde", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'snapshots'" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_non_numeric_keys_rejected(self, tmp_path, capsys):
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 128},
            "initial": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "alpha": 1.5, "diffusivity": 1.0,
            "sigma": {"kind": "constant", "value": 1.0},
            "dt": 0.01, "horizon": 0.1, "snapshots": 2,
        }
        cases = (("snapshots", "5"), ("snapshots", 0), ("dt", "0.002"),
                 ("alpha", "1.5"), ("boundary_density_tol", "1e-3"),
                 ("points", {"half_width": 8.0, "points": "128"}),
                 ("half_width", {"half_width": None, "points": 128}))
        for key, value in cases:
            block = "grid" if key in ("points", "half_width") else key
            cfg = write_config(tmp_path, {**payload, block: value})
            assert main(["pde", cfg, "--out", str(tmp_path / key)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and repr(key) in err and "Traceback" not in err, \
                (key, value)

    def test_config_that_runs_nothing_rejected(self, tmp_path, capsys):
        # no horizon to solve to, no adjoint checks and no linear oracle
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 128},
            "alpha": 1.5, "dt": 0.01,
            "sigma": {"kind": "constant", "value": 1.0},
        }
        out = tmp_path / "idle"
        assert main(["pde", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'horizon'" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("key", ["dt", "alpha"])
    def test_solve_keys_beside_the_linear_oracle_rejected(self, tmp_path, capsys, key):
        # the oracle's cases give their own alpha and dt, so a given one would
        # be ignored; it is rejected before anything runs
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 128},
            "sigma": {"kind": "constant", "value": 1.0},
            "horizon": 0.2, "snapshots": 4, key: {"dt": 0.01, "alpha": 1.5}[key],
            "linear_oracle": {"cases": [{"alpha": 1.5, "dt": 0.02}]},
        }
        out = tmp_path / "oracle"
        assert main(["pde", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"'{key}'" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("runs", ["linear_oracle", "adjoint_checks"])
    def test_snapshots_without_a_solve_rejected(self, tmp_path, capsys, monkeypatch, runs):
        # only a solve reads snapshots, and none runs beside the oracle or
        # without a horizon; the resolved config would hold the default 5
        def no_run(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli.fp, "solve_fp", no_run)
        monkeypatch.setattr(cli.fp, "adjoint_identity_check", no_run)
        case = {"sigma": {"kind": "constant", "value": 1.0},
                "phi": {"center": 0.0, "width": 2.5}, "psi": {"center": 0.0, "width": 2.5}}
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 128},
            "sigma": {"kind": "constant", "value": 1.0}, "snapshots": 4,
            **({"horizon": 0.2, "linear_oracle": {"cases": [{"alpha": 1.5, "dt": 0.02}]}}
               if runs == "linear_oracle" else
               {"alpha": 1.5, "adjoint_checks": {"cases": [case]}}),
        }
        out = tmp_path / runs
        assert main(["pde", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'snapshots'" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("key,value", [("scheme", "if-rk4"), ("mass_tolerance", 1e-9),
                                           ("boundary_density_tol", 1e-4)])
    def test_solve_keys_without_a_horizon_rejected(self, tmp_path, capsys, monkeypatch,
                                                   key, value):
        # AC9 runs the duality checks only, and no solve reads these keys
        def no_run(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli.fp, "adjoint_identity_check", no_run)
        out = tmp_path / key
        payload = {**PRESETS["AC9"], key: value}
        assert main(["pde", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"'{key}'" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_alpha_beside_the_linear_oracle_read_by_adjoint_checks(self, tmp_path, capsys):
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 128},
            "sigma": {"kind": "constant", "value": 1.0},
            "horizon": 0.2, "alpha": 1.5, "boundary_density_tol": 1e-2,
            "linear_oracle": {"cases": [{"alpha": 1.5, "dt": 0.004}]},
            "adjoint_checks": {"cases": [{"sigma": {"kind": "constant", "value": 1.0},
                                          "phi": {"center": 0.0, "width": 2.5},
                                          "psi": {"center": 0.0, "width": 2.5}}]},
        }
        out = tmp_path / "both"
        assert main(["pde", write_config(tmp_path, payload), "--out", str(out)]) != 2
        summary = json.load(open(out / "summary.json"))
        assert "adjoint_checks" in summary and "linear_oracle" in summary

    def test_linear_oracle_solves_against_its_own_coefficient(self, tmp_path, capsys):
        # sigma = 2 speeds the flow up by 2^alpha; the exact flow must too
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 128},
            "initial": {"kind": "gaussian", "std": 0.5},
            "sigma": {"kind": "constant", "value": 2.0},
            "horizon": 0.2, "boundary_density_tol": 1e-2,
            "linear_oracle": {"cases": [{"alpha": 1.5, "dt": 0.002}]},
        }
        out = tmp_path / "two"
        assert main(["pde", write_config(tmp_path, payload), "--out", str(out)]) == 0
        (row,) = json.load(open(out / "summary.json"))["linear_oracle"]
        assert row["sup_error"] < 1e-9 and 12.0 <= row["order_ratio"] <= 20.0

    def test_stability_failure_exits_nonzero(self, tmp_path, capsys):
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 8.0, "points": 256},
            "initial": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "alpha": 1.8, "diffusivity": 1.0,
            "sigma": {"kind": "constant", "value": 1.0},
            "dt": 0.05, "horizon": 0.5, "snapshots": 2,
        }
        cfg = write_config(tmp_path, payload)
        assert main(["pde", cfg, "--out", str(tmp_path / "bad")]) == 1

    def test_if_rk4_negative_density_exits_1(self, tmp_path, capsys):
        # the positivity monitor runs under both schemes; this integrating-
        # factor solve drives the density below its floor
        payload = {
            "command": "pde", "seed": 1,
            "grid": {"half_width": 20.0, "points": 1024},
            "initial": {"kind": "gaussian", "std": 0.3},
            "alpha": 1.9, "sigma": {"kind": "smoothed_power", "eps": 0.05, "s": 1.0},
            "dt": 0.05, "horizon": 1.0, "scheme": "if-rk4",
        }
        cfg = write_config(tmp_path, payload)
        assert main(["pde", cfg, "--out", str(tmp_path / "negative")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: positivity monitor tripped") and "Traceback" not in err


class TestChaosCommand:
    def test_degenerate_constant_sigma(self, tmp_path, capsys):
        # a pair kernel with c1 = 0 is the constant c0
        payload = {
            "command": "chaos-rate", "seed": 2,
            "driver": {"kind": "stable", "alpha": 1.5, "scale": 0.5},
            "truncation": 2.0,
            "initial": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "dt": 0.1, "horizon": 0.3,
            "n_list": [10, 20, 40, 80], "reps": 3, "n_ref": 800,
        }
        for sigma in ({"kind": "constant", "value": 1.0},
                      {"kind": "linear_sine", "c0": 1.0, "c1": 0.0},
                      {"kind": "linear_cauchy", "c0": 0.7, "c1": 0}):
            cfg = write_config(tmp_path, {**payload, "sigma": sigma})
            out = str(tmp_path / sigma["kind"])
            assert main(["chaos-rate", cfg, "--out", out]) == 0
            slope = json.load(open(os.path.join(out, "slope.json")))
            assert slope["status"] == "degenerate: all-zero", sigma
            assert slope["fitted_slope"] is None
            # zero, up to the roundoff of the pairwise mean of c0 over the
            # reference marginal and over the system
            assert all(r["mean_sq_gap"] < 1e-24 for r in slope["rows"]), sigma
            table = open(os.path.join(out, "table.csv")).read().splitlines()
            assert table[0] == "n,mean_sq_gap,stderr" and len(table) == 5

    def test_each_object_is_built_once(self, tmp_path, capsys, monkeypatch):
        # resolution builds the truncated driver and the pair-kernel sigma,
        # and the run reuses them
        builds = []
        cut = drivers.truncated
        probe = coefficients.LinearInteraction.__init__
        monkeypatch.setattr(drivers, "truncated",
                            lambda *args: builds.append("driver") or cut(*args))
        monkeypatch.setattr(coefficients.LinearInteraction, "__init__",
                            lambda self, kernel: builds.append("sigma") or probe(self, kernel))
        cfg = SMALL_CONFIGS["chaos-rate"]
        assert main(["chaos-rate", write_config(tmp_path, cfg), "--out",
                     str(tmp_path / "run")]) == 1
        assert sorted(builds) == ["driver", "sigma"]

    def test_failed_slope_criterion_exits_nonzero(self, tmp_path, capsys):
        payload = {
            "command": "chaos-rate", "seed": 3,
            "driver": {"kind": "stable", "alpha": 1.5, "scale": 0.5},
            "truncation": 2.0,
            "sigma": {"kind": "linear_sine", "c0": 1.0, "c1": 0.5},
            "initial": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "dt": 0.1, "horizon": 0.3,
            "n_list": [10, 20, 40, 80], "reps": 3, "n_ref": 800,
            "slope_max": -5.0,
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "chaosf"
        assert main(["chaos-rate", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().out.strip() == f"FAIL {out}: slope"
        summary = json.loads((out / "summary.json").read_text())
        assert [(c["name"], c["passed"]) for c in summary["checks"]] == [("slope", False)]

    def test_jump_draw_beyond_memory_exits_1_without_a_traceback(self, tmp_path, capsys):
        # at scale 1e12 the cut driver's mean jump count per step is one a
        # Poisson draw takes, but the jumps it counts do not fit in memory
        cfg = write_config(tmp_path, {**SMALL_CONFIGS["chaos-rate"],
                                      "driver": {"kind": "stable", "alpha": 1.5, "scale": 1e12}})
        assert main(["chaos-rate", cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_numeric_keys_rejected(self, tmp_path, capsys):
        payload = {
            "command": "chaos-rate", "seed": 2,
            "driver": {"kind": "stable", "alpha": 1.5, "scale": 0.5},
            "sigma": {"kind": "constant", "value": 1.0},
            "dt": 0.1, "horizon": 0.3,
            "n_list": [10, 20, 40, 80], "reps": 3, "n_ref": 800,
        }
        for key, value in (("reps", "3"), ("reps", 2.5), ("n_ref", "800"),
                           ("slope_max", "-0.8"), ("horizon", "0.3"),
                           ("n_list", [10, "20", 40, 80])):
            cfg = write_config(tmp_path, {**payload, key: value})
            assert main(["chaos-rate", cfg, "--out", str(tmp_path / key)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and repr(key) in err and "Traceback" not in err, \
                (key, value)

    def test_smoothed_power_thread_count_determinism(self, tmp_path, capsys):
        payload = {
            "command": "chaos-rate", "seed": 4,
            "driver": {"kind": "stable", "alpha": 1.5, "scale": 0.5},
            "truncation": 2.0,
            "sigma": {"kind": "smoothed_power", "eps": 0.5, "s": 0.5},
            "initial": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "dt": 0.1, "horizon": 0.3,
            "n_list": [10, 20, 40, 80], "reps": 3, "n_ref": 800,
        }
        cfg = write_config(tmp_path, payload)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert main(["chaos-rate", cfg, "--out", str(out), "--threads", threads]) == 0
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestCompareCommand:
    def test_l1_table_over_snapshots(self, tmp_path, capsys):
        payload = {
            "command": "compare", "seed": 9,
            "driver": {"kind": "stable", "alpha": 1.5, "scale": 1.0},
            "sigma": {"kind": "smoothed_power", "eps": 0.5, "s": 0.5},
            "initial": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "horizon": 0.2,
            "particles": {"n_list": [500, 4000], "dt": 0.01},
            "pde": {"grid": {"half_width": 20.0, "points": 512}, "dt": 0.005,
                    "boundary_density_tol": 1e-3},
            "kde_eps": 0.02,
            "snapshots": 2,
        }
        cfg = write_config(tmp_path, payload)
        out = str(tmp_path / "cmp")
        assert main(["compare", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "l1_by_n.csv")).read().splitlines()
        assert lines[0] == "n,time,l1_distance"
        assert len(lines) == 1 + 2 * 2  # two sizes x two snapshot times
        summary = json.load(open(os.path.join(out, "summary.json")))
        checks = {c["name"]: c for c in summary["checks"]}
        assert checks["l1_decreasing_1"]["passed"] is True
        assert checks["pde_mass_drift"]["limit"] == 1e-9

    @pytest.mark.parametrize("n_list", [[2000, 200], [200, 200], [100, 400, 300]])
    def test_n_list_not_ascending_rejected_before_solving(
            self, tmp_path, capsys, monkeypatch, n_list):
        # the l1_decreasing checks compare the L1s in list order
        def no_run(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli.fp, "solve_fp", no_run)
        monkeypatch.setattr(cli.particles, "_recorded", no_run)
        payload = {
            "command": "compare", "seed": 9,
            "driver": {"kind": "stable", "alpha": 1.5},
            "sigma": {"kind": "smoothed_power", "eps": 0.5, "s": 0.5},
            "initial": {"kind": "gaussian"},
            "horizon": 0.1,
            "particles": {"n_list": n_list, "dt": 0.01},
            "pde": {"grid": {"half_width": 30.0, "points": 256}, "dt": 0.01},
        }
        out = tmp_path / "cmp"
        assert main(["compare", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'n_list' in particles" in err and "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_snapshots_off_the_particle_steps_rejected_before_solving(
            self, tmp_path, capsys, monkeypatch):
        # 11 particle steps of 0.045 and PDE snapshots every 10 of 50 steps of
        # 0.01: no snapshot after t = 0 falls on a particle step
        def no_run(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(cli.fp, "solve_fp", no_run)
        monkeypatch.setattr(cli.particles, "_recorded", no_run)
        payload = {
            "command": "compare", "seed": 9,
            "driver": {"kind": "stable", "alpha": 1.5},
            "sigma": {"kind": "constant", "value": 1.0},
            "initial": {"kind": "gaussian"},
            "horizon": 0.5,
            "particles": {"n_list": [100, 1000], "dt": 0.045},
            "pde": {"grid": {"half_width": 30.0, "points": 256}, "dt": 0.01},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["compare", cfg, "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "0.045" in err and "0.01" in err
        assert "Traceback" not in err

    def test_non_gaussian_initial_rejected(self, tmp_path, capsys):
        payload = {
            "command": "compare", "seed": 9,
            "driver": {"kind": "stable", "alpha": 1.5, "scale": 1.0},
            "sigma": {"kind": "smoothed_power", "eps": 0.5, "s": 0.5},
            "initial": {"kind": "point", "x0": 0.0},
            "horizon": 0.2,
            "particles": {"n_list": [100, 200], "dt": 0.01},
            "pde": {"grid": {"half_width": 20.0, "points": 512}, "dt": 0.005},
        }
        # the other cases start from a gaussian law, so only their own key is bad
        gaussian = {"initial": {"kind": "gaussian"}}
        pde = {**payload["pde"], "dt": "0.004"}
        triplet = {"kind": "triplet", "gaussian_a": 1.0}
        for key, block in (("kind", {}), ("dt", {**gaussian, "pde": pde}),
                           ("kind", {**gaussian, "driver": triplet})):
            cfg = write_config(tmp_path, {**payload, **block})
            assert main(["compare", cfg, "--out", str(tmp_path / "cmpbad")]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and repr(key) in err and "Traceback" not in err, block


class TestValidateAndH1Commands:
    def test_sampler_battery_small(self, tmp_path, capsys):
        payload = {
            "command": "validate-sampler", "seed": 4,
            "batteries": ["cf", "gaussian_moments", "distance_bound"],
            "cf": {"alphas": [1.5], "scale": 1.0, "n_samples": 100000,
                   "xi_grid": [0.5, 1.0, 2.0], "tolerance": 0.02},
            "gaussian_moments": {"scale": 1.0, "n_samples": 200000},
            "distance_bound": {"trials": 500, "n_min": 2, "n_max": 16,
                               "tolerance": 1e-12},
        }
        cfg = write_config(tmp_path, payload)
        out = str(tmp_path / "val")
        assert main(["validate-sampler", cfg, "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        checks = {c["name"]: c for c in summary["checks"]}
        assert checks["cf_gap_0"]["passed"] is True
        assert checks["gaussian_variance"]["passed"] is True
        assert checks["gaussian_kurtosis"]["passed"] is True
        assert (checks["gaussian_variance"]["limit"], checks["gaussian_kurtosis"]["limit"]) \
            == (0.02, 0.05)
        assert summary["distance_bound"]["violations"] == 0

    def test_sampler_battery_config_rejected(self, tmp_path, capsys):
        # a battery name that is not one, a listed battery without its block,
        # and no battery at all, which would run nothing
        base = {"command": "validate-sampler", "seed": 4,
                "gaussian_moments": {"n_samples": 1000}}
        for key, batteries in (("batteries", ["lemma 4"]), ("lemma4", ["lemma4"]),
                               ("batteries", [])):
            cfg = write_config(tmp_path, {**base, "batteries": batteries})
            assert main(["validate-sampler", cfg, "--out", str(tmp_path / key)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and repr(key) in err and "Traceback" not in err, key

    def test_battery_parameters_are_its_block_keys(self):
        # validate-sampler calls each battery with its block's keys and the seed
        import inspect
        for name, (battery, keys) in cli._BATTERIES.items():
            assert list(inspect.signature(battery).parameters) == [*keys, "seed"], name

    def test_check_h1_pass_and_fail_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, {
            "command": "check-h1", "seed": 1, "alpha": 1.5, "gamma": 1.0,
            "eps": 0.01, "k1_bound": 1.0}, name="good.json")
        assert main(["check-h1", good, "--out", str(tmp_path / "h1ok")]) == 0
        bad = write_config(tmp_path, {
            "command": "check-h1", "seed": 1, "alpha": 1.5, "gamma": 1.0,
            "eps": 0.25, "k1_bound": 1.0}, name="bad.json")
        assert main(["check-h1", bad, "--out", str(tmp_path / "h1bad")]) == 1
        report = json.load(open(os.path.join(str(tmp_path / "h1bad"),
                                             "report.json")))
        assert report["all_passed"] is False


class TestResolvedConfig:
    def test_resolved_config_holds_every_default(self, tmp_path, capsys):
        minimal = {"command": "simulate", "seed": 5, "n_particles": 2000, "dt": 0.1,
                   "horizon": 0.5, "driver": {"kind": "stable", "alpha": 1.5},
                   "sigma": {"kind": "constant", "value": 1.0}}
        no_cf = {**minimal, "n_particles": 200, "sigma": {"kind": "linear_sine"}}
        # rerunning from the resolved config reproduces the whole output directory
        codes = {}
        for name, cfg in {"minimal": minimal, "no-cf": no_cf, **SMALL_CONFIGS}.items():
            out1, out2 = tmp_path / name, tmp_path / f"{name}-rerun"
            codes[name] = main([cfg["command"], write_config(tmp_path, cfg), "--out", str(out1)])
            assert codes[name] != 2 and main([cfg["command"], str(out1 / "config.resolved.json"),
                                              "--out", str(out2)]) == codes[name], name
            names = sorted(os.listdir(out1))
            assert names == sorted(os.listdir(out2)), name
            for file in names:
                assert (out1 / file).read_bytes() == (out2 / file).read_bytes(), (name, file)
        assert codes["minimal"] == codes["no-cf"] == 0
        resolved = json.loads((tmp_path / "minimal" / "config.resolved.json").read_text())
        assert resolved["record_every"] == 1 and resolved["kde_points"] == 401
        assert resolved["flow_format"] == "csv" and resolved["truncation"] is None
        assert resolved["initial"] == {"kind": "gaussian", "mean": 0.0, "std": 1.0}
        assert resolved["driver"] == {"kind": "stable", "alpha": 1.5, "scale": 1.0}
        # without a CF test, the resolved config leaves out the keys only it reads
        resolved = json.loads((tmp_path / "no-cf" / "config.resolved.json").read_text())
        assert "cf_xi_grid" not in resolved and "cf_tolerance" not in resolved

    def test_every_preset_resolves(self):
        for name, preset in PRESETS.items():
            resolved = SCHEMAS[preset["command"]](preset)
            assert {key: resolved[key] for key in preset} == preset, name
            assert SCHEMAS[preset["command"]](resolved) == resolved, name


# small configs that reach every check of every command; chaos-rate's slope
# limit is out of reach, so one of them fails
SMALL_CONFIGS = {
    "simulate": {**SIM_CFG, "n_particles": 500},
    "pde-solve": {"command": "pde", "seed": 1, "grid": {"half_width": 8.0, "points": 128},
                  "alpha": 1.5, "sigma": {"kind": "constant", "value": 1.0},
                  "dt": 0.01, "horizon": 0.1, "snapshots": 2,
                  "boundary_density_tol": 1e-2},
    "pde-checks": {"command": "pde", "seed": 1, "grid": {"half_width": 8.0, "points": 128},
            "initial": {"kind": "gaussian", "std": 0.5}, "alpha": 1.5,
            "sigma": {"kind": "constant", "value": 1.0}, "horizon": 0.2,
            "boundary_density_tol": 1e-2,
            "linear_oracle": {"cases": [{"alpha": 1.2, "dt": 0.02},
                                        {"alpha": 1.2, "dt": 0.01}]},
            "adjoint_checks": {"cases": [{"sigma": {"kind": "constant", "value": 1.0},
                                          "phi": {"center": 0.0, "width": 2.5},
                                          "psi": {"center": 0.0, "width": 2.5}}]}},
    "chaos-rate": {"command": "chaos-rate", "seed": 3,
                   "driver": {"kind": "stable", "alpha": 1.5, "scale": 0.5},
                   "truncation": 2.0, "sigma": {"kind": "linear_sine"},
                   "dt": 0.1, "horizon": 0.3, "n_list": [10, 20, 40, 80], "reps": 3,
                   "n_ref": 800, "slope_max": -5.0, "require_monotone": True},
    "compare": {"command": "compare", "seed": 9, "driver": {"kind": "stable", "alpha": 1.5},
                "sigma": {"kind": "smoothed_power", "eps": 0.5, "s": 0.5},
                "initial": {"kind": "gaussian"}, "horizon": 0.1,
                "particles": {"n_list": [200, 2000], "dt": 0.01},
                "pde": {"grid": {"half_width": 20.0, "points": 256}, "dt": 0.01},
                "snapshots": 2, "kde_eps": 0.02, "l1_max_at_largest": 0.5},
    "validate-sampler": {
        "command": "validate-sampler", "seed": 4,
        "batteries": ["cf", "self_similarity", "gaussian_moments", "lemma4",
                      "distance_bound"],
        "cf": {"alphas": [1.5, 1.5], "n_samples": 20000, "xi_grid": [0.5, 1.0],
               "tolerance": 0.05},
        "self_similarity": {"alphas": [1.5], "n_samples": 2000},
        "gaussian_moments": {"n_samples": 20000},
        "lemma4": {"n_values": [10, 20], "reps": 5, "n_ref": 2000},
        "distance_bound": {"trials": 20}},
    "check-h1": {"command": "check-h1", "seed": 1, "alpha": 1.5, "gamma": 1.0,
                 "eps": 0.01},
}


# the value sweep also runs a triplet driver, cut between its two atoms; it
# reaches no check, so it is not one of SMALL_CONFIGS
SWEPT_CONFIGS = {**SMALL_CONFIGS, "simulate-triplet": {
    **SMALL_CONFIGS["simulate"], "truncation": 2.0,
    "driver": {"kind": "triplet", "gaussian_a": 0.5, "drift_b": 0.4,
               "big_jump_atoms": [[3.0, 2.0], [-1.5, 1.0]]}}}


def _numeric_leaves(cfg, path=()):
    """The path of each number in ``cfg`` (a bool is not one), but the seed's."""
    if isinstance(cfg, (dict, list)):
        items = cfg.items() if isinstance(cfg, dict) else enumerate(cfg)
        return [p for k, v in items if k != "seed" for p in _numeric_leaves(v, path + (k,))]
    return [path] if type(cfg) in (int, float) else []


def _with_value(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


class TestValueSweep:
    @staticmethod
    def _sweep(tmp_path, capsys, cfg, values):
        # a value the schema or a constructor rejects exits 2 naming its key,
        # or the block that holds it, before the output directory exists; any
        # other runs to a verdict or aborts, without a traceback
        for i, (path, value) in enumerate((path, value) for path in _numeric_leaves(cfg)
                                          for value in values):
            out = tmp_path / f"run{i}"
            code = main([cfg["command"], write_config(tmp_path, _with_value(cfg, path, value)),
                         "--out", str(out)])
            err = capsys.readouterr().err
            # the keys among the last two; a number two list levels down (an
            # atom's) is named by the last two keys above it
            named = [key for key in path[-2:] if isinstance(key, str)] or \
                [key for key in path if isinstance(key, str)][-2:]
            assert "Traceback" not in err and code in (0, 1, 2), (path, value, err)
            if code == 2:
                assert err.startswith("error:") and any(key in err for key in named), \
                    (path, value, err)
                assert not out.exists(), (path, value)

    @pytest.mark.parametrize("name", sorted(SWEPT_CONFIGS))
    def test_each_number_set_to_0_minus_1_and_nan(self, tmp_path, capsys, monkeypatch,
                                                 name):
        # and no command meets a value that the library rejects
        cfg = SWEPT_CONFIGS[name]
        command, rejected = cli._COMMANDS[cfg["command"]], []

        def run(*args):
            try:
                return command(*args)
            except ValueError as exc:
                rejected.append(exc)
                raise

        monkeypatch.setitem(cli._COMMANDS, cfg["command"], run)
        self._sweep(tmp_path, capsys, cfg, (0, -1, math.nan))
        assert not rejected

    @pytest.mark.parametrize("name", sorted(SWEPT_CONFIGS))
    def test_each_number_set_to_huge_and_infinite(self, tmp_path, capsys, name):
        # a run may still find a finite value too large for it (exit 1)
        self._sweep(tmp_path, capsys, SWEPT_CONFIGS[name], (1e308, math.inf, -math.inf))


class TestChecks:
    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_pass_is_the_verdict_of_every_check(self, tmp_path, capsys, name):
        cfg = SMALL_CONFIGS[name]
        out = tmp_path / "run"
        code = main([cfg["command"], write_config(tmp_path, cfg), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        checks = summary["checks"]
        names = [c["name"] for c in checks]
        assert checks and len(set(names)) == len(names), names
        assert summary["pass"] == all(c["passed"] for c in checks)
        assert code == (0 if summary["pass"] else 1)
        failing = [c["name"] for c in checks if not c["passed"]]
        assert capsys.readouterr().out.strip() == (
            f"FAIL {out}: {', '.join(failing)}" if failing else f"OK   {out}")
        for c in checks:
            assert set(c) == {"name", "value", "limit", "sense", "passed", "margin"}
            upper = c["sense"] in ("<=", "<")
            assert c["margin"] == (c["limit"] - c["value"] if upper
                                   else c["value"] - c["limit"])

    def test_every_mass_limit_is_one_constant(self):
        import inspect
        from levymv import fokker_planck as fp
        default = inspect.signature(fp.solve_fp).parameters["mass_tolerance"].default
        given = {key: value for key, value in PRESETS["AC6"].items()
                 if key != "mass_tolerance"}
        resolved = SCHEMAS["pde"](given)
        assert default is fp.MASS_TOLERANCE == 1e-9
        assert resolved["mass_tolerance"] is fp.MASS_TOLERANCE


class _ReadRecorder(dict):
    """A dict that records the keys read from it by indexing; it stands in
    for the resolved block, so it also holds the block's built object."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestReach:
    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_every_resolved_key_is_read(self, tmp_path, capsys, monkeypatch, name):
        # the resolved config holds exactly the keys the run reads: the
        # constructor of the command's run, which resolution calls once the
        # keys are resolved, and then the command; "command" picks the
        # schema, and "seed" is required of every command, also of those
        # that draw nothing
        cfg = SMALL_CONFIGS[name]
        command = cli._COMMANDS[cfg["command"]]
        recorders = []

        def recording(resolved, *args):
            recorders.append(resolved)
            return command(resolved, *args)

        monkeypatch.setattr(cli, "_Resolved", _ReadRecorder)
        monkeypatch.setitem(cli._COMMANDS, cfg["command"], recording)
        main([cfg["command"], write_config(tmp_path, cfg), "--out", str(tmp_path / "run")])
        (recorder,) = recorders
        assert set(recorder) - recorder.read <= {"command", "seed"}, name
        # writing the config out does not count as reading it
        written = _ReadRecorder(recorder)
        cli._write_json(str(tmp_path / "written.json"), written)
        assert not written.read


REJECT = os.path.join(os.path.dirname(__file__), "configs", "reject")
# one line per config: file name, command, and the text its error must hold
# (the key it names, or the name of a file that cannot be parsed)
with open(os.path.join(REJECT, "index.txt")) as fh:
    REJECT_CASES = [line.split(None, 2) for line in fh.read().splitlines()]


class TestRejectCorpus:
    @pytest.mark.parametrize("name,command,names", REJECT_CASES,
                             ids=[case[0] for case in REJECT_CASES])
    def test_config_exits_2_naming_its_key(self, tmp_path, capsys, name, command, names):
        out = tmp_path / "out"
        assert main([command, os.path.join(REJECT, name), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and names in err and "Traceback" not in err, err
        assert not out.exists()

    def test_every_config_is_indexed(self):
        indexed = sorted(case[0] for case in REJECT_CASES)
        assert indexed == sorted(set(os.listdir(REJECT)) - {"index.txt"})
