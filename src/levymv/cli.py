"""Batch experiment front end.

Subcommands: simulate | pde | chaos-rate | compare | validate-sampler |
check-h1.  Each takes a single JSON config file or a shipped ``--preset``
name, writes every artifact into ``--out`` (tables as CSV, summaries as
JSON, two-column plot-data files for curves), embeds the fully resolved
config including the seed in ``config.resolved.json``, and exits nonzero
if any internal check fails.  ``--threads`` may parallelize independent
repetitions; it never changes results, and outputs contain no
timestamps, so reruns of the same resolved config are byte-identical.
"""

import argparse
import json
import math
import numbers
import os
import sys

import numpy as np

from . import coefficients, exports, fokker_planck as fp, measures, particles
from .drivers import JumpAtoms, LevyTripletSpec, StableDriverSpec, sample_stable_increment
from .particles import (FileLaw, GaussianLaw, PointMass, SimulationConfig,
                        UniformLaw, chaos_rate_experiment, simulate)
from .perturbation import PerturbationParams, verify_h1
from .presets import PRESETS
from .rng import substream


# the keys each kind of a config block reads, as (required, optional)
_BLOCK_KEYS = {
    "driver": {"stable": ({"alpha"}, {"scale"}),
               "triplet": (set(), {"gaussian_a", "drift_b", "big_jump_atoms"})},
    "sigma": {"constant": ({"value"}, set()),
              "linear_sine": (set(), {"c0", "c1"}),
              "linear_cauchy": (set(), {"c0", "c1"}),
              "smoothed_power": ({"eps", "s"}, set())},
    "initial law": {"point": (set(), {"x0"}),
                    "gaussian": (set(), {"mean", "std"}),
                    "uniform": (set(), {"lo", "hi"}),
                    "file": ({"path"}, set())},
    "pde initial law": {"point": (set(), {"warmup"}),
                        "gaussian": (set(), {"mean", "std"})},
}


def _checked_kind(block, d):
    """The kind of config block ``d``; a missing or unread key is an error."""
    kind = d.get("kind")
    if kind not in _BLOCK_KEYS[block]:
        raise ValueError(f"unknown {block} kind {kind!r}")
    required, optional = _BLOCK_KEYS[block][kind]
    for problem, keys in (("needs", required - set(d)),
                          ("does not read", set(d) - required - optional - {"kind"})):
        if keys:
            raise ValueError(f"{block} kind {kind!r} {problem} key(s) "
                             + ", ".join(repr(k) for k in sorted(keys)))
    return kind


def _check_numbers(d, counts, reals, where="", nullable=()):
    """Keys of ``d`` read as a count must hold a positive integer, those read
    as a real a number; absent keys are skipped, and so are ``nullable``
    keys set to null (the default)."""
    for key in sorted(counts | reals):
        value = d.get(key)
        if key not in d or (value is None and key in nullable):
            continue
        if key in counts:
            ok = isinstance(value, numbers.Integral) and value >= 1
        else:
            ok = isinstance(value, numbers.Real)
        if isinstance(value, bool) or not ok:
            kind = "a positive integer" if key in counts else "a number"
            raise ValueError(f"{where}key {key!r} must be {kind}, got {value!r}")


def _build_driver(d):
    if _checked_kind("driver", d) == "stable":
        return StableDriverSpec(alpha=d["alpha"], scale=d.get("scale", 1.0))
    big = None
    if d.get("big_jump_atoms"):
        big = JumpAtoms(d["big_jump_atoms"])
    return LevyTripletSpec(gaussian_a=d.get("gaussian_a", 0.0),
                           drift_b=d.get("drift_b", 0.0),
                           big_jumps=big)


def _build_sigma(d):
    kind = _checked_kind("sigma", d)
    if kind == "constant":
        return coefficients.Constant(d["value"], check_nonzero=d["value"] != 0.0)
    if kind == "linear_sine":
        return coefficients.LinearInteraction(
            coefficients.SineKernel(d.get("c0", 1.0), d.get("c1", 0.5)))
    if kind == "linear_cauchy":
        return coefficients.LinearInteraction(
            coefficients.CauchyKernel(d.get("c0", 1.0), d.get("c1", 0.5)))
    return coefficients.SmoothedDensityPower(eps=d["eps"], s=d["s"])


def _build_initial(d):
    kind = _checked_kind("initial law", d)
    if kind == "point":
        return PointMass(d.get("x0", 0.0))
    if kind == "gaussian":
        return GaussianLaw(d.get("mean", 0.0), d.get("std", 1.0))
    if kind == "uniform":
        return UniformLaw(d.get("lo", -1.0), d.get("hi", 1.0))
    return FileLaw(d["path"])


def _build_sim_config(cfg, n, threads):
    return SimulationConfig(
        n_particles=n,
        dt=cfg["dt"],
        horizon_T=cfg["horizon"],
        seed=cfg["seed"],
        driver=_build_driver(cfg["driver"]),
        sigma=_build_sigma(cfg["sigma"]),
        initial_law=_build_initial(cfg.get("initial", {"kind": "gaussian"})),
        truncation_N=cfg.get("truncation"),
        threads=threads,
    )


def _grid_from_config(cfg):
    g = cfg["grid"]
    _check_numbers(g, {"points"}, {"half_width"}, where="grid ")
    init = cfg.get("initial", {"kind": "gaussian"})
    if _checked_kind("pde initial law", init) == "gaussian":
        return fp.gaussian_grid(g["half_width"], g["points"],
                                mean=init.get("mean", 0.0), std=init.get("std", 1.0))
    return fp.stable_heat_kernel_grid(
        g["half_width"], g["points"], t=init.get("warmup", 1e-3),
        params=fp.FractionalParams(alpha=cfg["alpha"],
                                   diffusivity=cfg.get("diffusivity", 1.0)))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(outdir, cfg, summary, failed):
    _write_json(os.path.join(outdir, "config.resolved.json"), cfg)
    summary["pass"] = not failed
    _write_json(os.path.join(outdir, "summary.json"), summary)
    print(("FAIL " if failed else "OK   ") + outdir)
    return 1 if failed else 0


def cmd_simulate(cfg, outdir, threads):
    _check_numbers(cfg, {"n_particles", "record_every", "kde_points"},
                   {"dt", "horizon", "kde_half_width", "kde_eps", "cf_tolerance"})
    sim = _build_sim_config(cfg, cfg["n_particles"], threads)
    flow = simulate(sim, record_every=cfg.get("record_every", 1))
    fmt = cfg.get("flow_format", "csv")
    if fmt == "csv":
        exports.flow_to_csv(flow, os.path.join(outdir, "flow.csv"))
    else:
        exports.flow_to_binary(flow, os.path.join(outdir, "flow.bin"))
    moments = [{"time": float(t),
                "mean": float(np.mean(m.samples)),
                "second_moment": measures.second_moment(m)}
               for t, m in zip(flow.times, flow.marginals)]
    kde_grid = np.linspace(-cfg.get("kde_half_width", 10.0),
                           cfg.get("kde_half_width", 10.0),
                           cfg.get("kde_points", 401))
    kde = measures.read_table(
        measures.smoothing_table(flow.final(), cfg.get("kde_eps", 0.05)), kde_grid)
    exports.curve_to_csv(kde_grid, kde, os.path.join(outdir, "final_kde.csv"),
                         names=("x", "density"))
    summary = {"config": cfg, "moments": moments}
    failed = False
    # for a constant coefficient over a stable driver, the terminal law is
    # exactly stable: check its empirical CF
    sigma_cfg = cfg["sigma"]
    if sigma_cfg["kind"] == "constant" and cfg["driver"]["kind"] == "stable":
        alpha = cfg["driver"]["alpha"]
        c_tot = (cfg["driver"].get("scale", 1.0) * cfg["horizon"]
                 * abs(sigma_cfg["value"]) ** alpha)
        xi = np.array(cfg.get("cf_xi_grid", [0.25, 0.5, 1.0, 2.0]))
        emp = np.exp(1j * xi[:, None] * flow.final().samples[None, :]).mean(axis=1)
        base = sim.initial_law.cf(xi)
        if base is not None:
            expected = base * np.exp(-c_tot * np.abs(xi) ** alpha)
            gap = float(np.max(np.abs(emp - expected)))
            tol = cfg.get("cf_tolerance", 4.0 / math.sqrt(sim.n_particles) + 1e-3)
            summary["cf_test"] = {"max_abs_gap": gap, "tolerance": tol,
                                  "pass": gap <= tol}
            failed = failed or gap > tol
    return _finish(outdir, cfg, summary, failed)


def cmd_pde(cfg, outdir, threads):
    _check_numbers(cfg, {"snapshots"}, {"alpha", "diffusivity", "dt", "horizon",
                                        "boundary_density_tol", "mass_tolerance"})
    summary = {"config": cfg}
    failed = False
    sigma = _build_sigma(cfg["sigma"])
    mass_tol = cfg.get("mass_tolerance", 1e-9)

    if "adjoint_checks" in cfg:
        grid = _grid_from_config(cfg)
        params = fp.FractionalParams(alpha=cfg["alpha"],
                                     diffusivity=cfg.get("diffusivity", 1.0))
        tol = cfg["adjoint_checks"].get("tolerance", 1e-4)
        rows = []
        for case in cfg["adjoint_checks"]["cases"]:
            rep = fp.adjoint_identity_check(
                _build_sigma(case["sigma"]), grid,
                fp.bump(case["phi"]["center"], case["phi"]["width"]),
                fp.bump(case["psi"]["center"], case["psi"]["width"]), params)
            rows.append({"sigma": case["sigma"], "lhs": rep.lhs, "rhs": rep.rhs,
                         "rel_error": rep.rel_error, "pass": rep.rel_error <= tol})
            failed = failed or rep.rel_error > tol
        summary["adjoint_checks"] = {"tolerance": tol, "cases": rows}

    if "linear_oracle" in cfg:
        oracle = cfg["linear_oracle"]
        lo_ratio, hi_ratio = oracle.get("order_ratio_range", [12.0, 20.0])
        rows = []
        for case in oracle["cases"]:
            params = fp.FractionalParams(alpha=case["alpha"],
                                         diffusivity=cfg.get("diffusivity", 1.0))
            grid = _grid_from_config({**cfg, "alpha": case["alpha"]})
            exact = fp.solve_linear_exact(grid, cfg["horizon"], params)
            errs = []
            for dt in (case["dt"], case["dt"] / 2.0):
                res = fp.solve_fp(grid, cfg["horizon"], dt, sigma, params,
                                  scheme=cfg.get("scheme", "rk4"),
                                  boundary_density_tol=cfg.get(
                                      "boundary_density_tol", 1e-4))
                errs.append(float(np.max(np.abs(res.final().values - exact.values))))
                drift = float(np.max(np.abs(res.mass_trace - 1.0)))
                failed = failed or drift > mass_tol
            ratio = errs[0] / max(errs[1], 1e-300)
            ok = (errs[0] <= oracle.get("sup_tolerance", 1e-6)
                  and lo_ratio <= ratio <= hi_ratio)
            rows.append({"alpha": case["alpha"], "dt": case["dt"],
                         "sup_error": errs[0], "sup_error_half_dt": errs[1],
                         "order_ratio": ratio, "pass": ok})
            failed = failed or not ok
        summary["linear_oracle"] = rows

    if "horizon" in cfg and "linear_oracle" not in cfg:
        grid = _grid_from_config(cfg)
        params = fp.FractionalParams(alpha=cfg["alpha"],
                                     diffusivity=cfg.get("diffusivity", 1.0))
        n_steps = max(1, int(round(cfg["horizon"] / cfg["dt"])))
        every = max(1, n_steps // cfg.get("snapshots", 5))
        res = fp.solve_fp(grid, cfg["horizon"], cfg["dt"], sigma, params,
                          snapshot_every=every, scheme=cfg.get("scheme", "rk4"),
                          boundary_density_tol=cfg.get("boundary_density_tol", 1e-4))
        exports.density_stack_to_binary(res.times, res.grids,
                                        os.path.join(outdir, "snapshots.bin"))
        res.final().to_csv(os.path.join(outdir, "final_density.csv"))
        steps = np.arange(res.mass_trace.size)
        exports.curve_to_csv(steps, res.mass_trace,
                             os.path.join(outdir, "mass_trace.csv"),
                             names=("step", "mass"))
        exports.curve_to_csv(steps, res.boundary_trace,
                             os.path.join(outdir, "boundary_trace.csv"),
                             names=("step", "boundary_density"))
        drift = float(np.max(np.abs(res.mass_trace - 1.0)))
        summary["mass_max_drift"] = drift
        summary["boundary_density_max"] = float(res.boundary_trace.max())
        summary["snapshot_times"] = [float(t) for t in res.times]
        failed = failed or drift > mass_tol
        sigma_cfg = cfg["sigma"]
        if sigma_cfg["kind"] == "constant" and sigma_cfg["value"] != 0.0:
            exact = fp.solve_linear_exact(
                grid, cfg["horizon"],
                fp.FractionalParams(alpha=cfg["alpha"],
                                    diffusivity=cfg.get("diffusivity", 1.0)
                                    * abs(sigma_cfg["value"]) ** cfg["alpha"]))
            sup = float(np.max(np.abs(res.final().values - exact.values)))
            summary["max_error_vs_exact"] = sup

    return _finish(outdir, cfg, summary, failed)


def cmd_chaos_rate(cfg, outdir, threads):
    _check_numbers(cfg, {"reps", "n_ref"}, {"dt", "horizon", "slope_max"},
                   nullable={"n_ref", "slope_max"})
    base = _build_sim_config(cfg, max(cfg["n_list"]), threads)
    table = chaos_rate_experiment(base, cfg["n_list"], cfg["reps"],
                                  n_ref=cfg.get("n_ref"))
    exports.chaos_table_to_csv(table, os.path.join(outdir, "table.csv"))
    payload = table.to_json_dict()
    failed = False
    if table.status.startswith("degenerate"):
        payload["criterion"] = "degenerate measure-independent coefficient"
    else:
        slope_max = cfg.get("slope_max")
        if slope_max is not None:
            ok = table.fitted_slope <= slope_max
            payload["criterion"] = {"slope_max": slope_max,
                                    "fitted": table.fitted_slope, "pass": ok}
            failed = failed or not ok
        if cfg.get("require_monotone"):
            rows = table.rows
            mono = all(rows[i + 1].mean_sq_gap <= rows[i].mean_sq_gap
                       + 2.0 * math.hypot(rows[i].stderr, rows[i + 1].stderr)
                       for i in range(len(rows) - 1))
            payload["monotone_within_2se"] = mono
            failed = failed or not mono
    _write_json(os.path.join(outdir, "slope.json"), payload)
    return _finish(outdir, cfg, {"config": cfg, "result": payload}, failed)


def cmd_compare(cfg, outdir, threads):
    driver = _build_driver(cfg["driver"])
    if not isinstance(driver, StableDriverSpec):
        raise ValueError("compare requires a stable driver")
    initial = _build_initial(cfg["initial"])
    if not isinstance(initial, GaussianLaw):
        raise ValueError("compare requires a gaussian initial law so both "
                         "descriptions start from the same density")
    pde_cfg = cfg["pde"]
    grid = fp.gaussian_grid(pde_cfg["grid"]["half_width"], pde_cfg["grid"]["points"],
                            mean=initial.mean, std=initial.std)
    # the multiplier constant is calibrated to the driver's CF constant:
    # with a constant coefficient both descriptions then share one law
    params = fp.FractionalParams(alpha=driver.alpha, diffusivity=driver.scale)
    sigma = _build_sigma(cfg["sigma"])
    n_snapshots = cfg.get("snapshots", 5)
    pde_steps = max(1, int(round(cfg["horizon"] / pde_cfg["dt"])))
    res = fp.solve_fp(grid, cfg["horizon"], pde_cfg["dt"], sigma, params,
                      snapshot_every=max(1, pde_steps // n_snapshots),
                      boundary_density_tol=pde_cfg.get("boundary_density_tol", 1e-3))
    kde_eps = cfg.get("kde_eps", 0.01)
    rows = []
    for n in cfg["particles"]["n_list"]:
        sim = SimulationConfig(
            n_particles=n, dt=cfg["particles"]["dt"], horizon_T=cfg["horizon"],
            seed=cfg["seed"], driver=driver, sigma=sigma, initial_law=initial,
            threads=threads)
        flow = simulate(sim, record_every=max(1, sim.n_steps // n_snapshots))
        for t, p_t in zip(res.times[1:], res.grids[1:]):
            marg = flow.marginal_at(t + 0.5 * sim.dt_effective)
            kde = measures.read_table(measures.smoothing_table(marg, kde_eps), p_t.nodes)
            l1 = float(np.sum(np.abs(kde - p_t.values)) * p_t.dx)
            rows.append({"n": n, "time": float(t), "l1_distance": l1})
    with open(os.path.join(outdir, "l1_by_n.csv"), "w") as fh:
        fh.write("n,time,l1_distance\n")
        for r in rows:
            fh.write(f"{r['n']},{r['time']:.17g},{r['l1_distance']:.17g}\n")
    failed = False
    t_final = res.times[-1]
    l1s = [r["l1_distance"] for r in rows if r["time"] == t_final]
    decreasing = all(b < a for a, b in zip(l1s, l1s[1:]))
    failed = failed or not decreasing
    limit = cfg.get("l1_max_at_largest")
    if limit is not None:
        failed = failed or l1s[-1] > limit
    summary = {"config": cfg, "rows": rows, "decreasing_in_n_at_horizon": decreasing,
               "l1_at_largest": l1s[-1], "l1_max_at_largest": limit,
               "pde_mass_max_drift": float(np.max(np.abs(res.mass_trace - 1.0)))}
    return _finish(outdir, cfg, summary, failed)


def cmd_validate_sampler(cfg, outdir, threads):
    report = {"config": cfg}
    failed = False
    seed = cfg["seed"]

    if "cf" in cfg.get("batteries", []):
        c = cfg["cf"]
        rows = []
        for i, alpha in enumerate(c["alphas"]):
            spec = StableDriverSpec(alpha=alpha, scale=c.get("scale", 1.0))
            z = sample_stable_increment(spec, 1.0, substream(seed, 10, i),
                                        size=c["n_samples"])
            xi = np.asarray(c["xi_grid"])
            emp = np.exp(1j * xi[:, None] * z[None, :]).mean(axis=1)
            exact = np.exp(-c.get("scale", 1.0) * np.abs(xi) ** alpha)
            gap = float(np.max(np.abs(emp - exact)))
            ok = gap <= c["tolerance"]
            rows.append({"alpha": alpha, "max_abs_cf_gap": gap, "pass": ok})
            failed = failed or not ok
        report["cf"] = {"tolerance": c["tolerance"], "rows": rows}

    if "self_similarity" in cfg.get("batteries", []):
        from scipy.stats import ks_2samp
        c = cfg["self_similarity"]
        rows = []
        for i, alpha in enumerate(c["alphas"]):
            spec = StableDriverSpec(alpha=alpha, scale=1.0)
            dt = c.get("dt", 0.25)
            a = sample_stable_increment(spec, dt, substream(seed, 20, i),
                                        size=c["n_samples"]) / dt ** (1.0 / alpha)
            b = sample_stable_increment(spec, 1.0, substream(seed, 21, i),
                                        size=c["n_samples"])
            p = float(ks_2samp(a, b).pvalue)
            ok = p > c.get("level", 0.01)
            rows.append({"alpha": alpha, "ks_pvalue": p, "pass": ok})
            failed = failed or not ok
        report["self_similarity"] = rows

    if "gaussian_moments" in cfg.get("batteries", []):
        c = cfg["gaussian_moments"]
        spec = StableDriverSpec(alpha=2.0, scale=c.get("scale", 1.0))
        z = sample_stable_increment(spec, 1.0, substream(seed, 30), size=c["n_samples"])
        var = float(np.var(z))
        kurt = float(np.mean(z ** 4) / var ** 2)
        ok = (abs(var - 2.0 * c.get("scale", 1.0)) < 0.02
              and abs(kurt - 3.0) < 0.05)
        report["gaussian_moments"] = {"variance": var, "expected": 2.0 * c.get("scale", 1.0),
                                      "kurtosis": kurt, "pass": ok}
        failed = failed or not ok

    if "lemma4" in cfg.get("batteries", []):
        c = cfg["lemma4"]
        rows = []
        prev = None
        for i, n in enumerate(c["n_values"]):
            est = measures.empirical_gap_experiment(
                lambda r, size: r.standard_normal(size), n, c["reps"],
                substream(seed, 40, i), n_ref=c.get("n_ref", 10 ** 6))
            ok = est.mean_sq_distance <= c.get("bound", 4.0)
            if prev is not None:
                ok = ok and (est.mean_sq_distance
                             < prev.mean_sq_distance
                             + 2.0 * math.hypot(prev.stderr, est.stderr))
            rows.append({"n": n, "mean_sq_distance": est.mean_sq_distance,
                         "stderr": est.stderr, "pass": ok})
            failed = failed or not ok
            prev = est
        report["lemma4"] = {"bound": c.get("bound", 4.0), "rows": rows}

    if "distance_bound" in cfg.get("batteries", []):
        c = cfg["distance_bound"]
        rng = substream(seed, 50)
        violations = 0
        for _ in range(c["trials"]):
            n = int(rng.integers(c.get("n_min", 2), c.get("n_max", 64) + 1))
            xs = rng.normal(0.0, 1.0 + rng.random() * 3.0, n)
            ys = xs + rng.normal(0.0, rng.random() * 2.0, n)
            if not measures.check_empirical_distance_bound(
                    xs, ys, tol=c.get("tolerance", 1e-12)):
                violations += 1
        report["distance_bound"] = {"trials": c["trials"], "violations": violations,
                                    "pass": violations == 0}
        failed = failed or violations > 0

    return _finish(outdir, cfg, report, failed)


def cmd_check_h1(cfg, outdir, threads):
    params = PerturbationParams(gamma=cfg["gamma"], eps=cfg["eps"],
                                alpha=cfg["alpha"],
                                k1_bound=cfg.get("k1_bound", 1.0),
                                levy_k=cfg.get("levy_k", 1.0))
    report = verify_h1(params, resolutions=tuple(cfg.get("resolutions",
                                                         (256, 512, 1024, 2048))))
    payload = report.to_json_dict()
    _write_json(os.path.join(outdir, "report.json"), payload)
    return _finish(outdir, cfg, {"config": cfg, "report": payload},
                   not report.all_passed)


_COMMANDS = {
    "simulate": cmd_simulate,
    "pde": cmd_pde,
    "chaos-rate": cmd_chaos_rate,
    "compare": cmd_compare,
    "validate-sampler": cmd_validate_sampler,
    "check-h1": cmd_check_h1,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="levymv",
        description="Batch experiments: particle systems, spectral Fokker-Planck "
                    "solves, convergence-rate studies and validation batteries.")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", help="JSON config file")
        p.add_argument("--preset", help="name of a shipped preset (AC1..AC10)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for independent repetitions; "
                            "never changes results")
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    if args.config and args.preset:
        print("error: give either a config file or --preset, not both", file=sys.stderr)
        return 2
    if args.preset:
        if args.preset not in PRESETS:
            print(f"error: unknown preset {args.preset!r}; "
                  f"available: {', '.join(sorted(PRESETS))}", file=sys.stderr)
            return 2
        cfg = json.loads(json.dumps(PRESETS[args.preset]))
        label = args.preset
    elif args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        label = os.path.splitext(os.path.basename(args.config))[0]
    else:
        print("error: a config file or --preset is required", file=sys.stderr)
        return 2
    declared = cfg.get("command", args.command)
    if declared != args.command:
        print(f"error: config declares command {declared!r}, "
              f"invoked as {args.command!r}", file=sys.stderr)
        return 2
    cfg["command"] = declared
    if args.seed is not None:
        cfg["seed"] = args.seed
    seed = cfg.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        print(f"error: config key 'seed' must be an integer, got {seed!r}", file=sys.stderr)
        return 2
    cfg["threads"] = args.threads
    outdir = args.out or os.path.join("runs", f"{args.command}-{label}")
    os.makedirs(outdir, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, outdir, args.threads)
    except (ValueError, fp.StabilityError, particles.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
