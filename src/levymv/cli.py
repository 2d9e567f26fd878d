"""Batch experiment front end.

Subcommands: simulate | pde | chaos-rate | compare | validate-sampler |
check-h1.  Each reads one JSON config file or a shipped ``--preset`` and
writes its artifacts into ``--out``.  ``SCHEMAS`` holds one table per
command with every key's type, value domain and default, the condition
under which a key is read, the rules that relate keys and the
constructors of the library objects; ``main`` resolves the config against
it before the output directory is made.  Resolution builds the run: each
kind of sigma, driver and initial law, each duality test function and
each command's run (its particle ``SimulationConfig``, its initial
densities, its ``PerturbationParams``) is built once, as its block
resolves, and a value its constructor rejects is rejected there, naming
the block.  The resolved config holds every default the run uses and
exactly the keys it reads; commands index it directly and read the built
objects from it, and ``config.resolved.json`` records it, so rerunning
from that file reproduces the run.  A config that breaks the schema (an
unknown, missing or ill-typed key, a value outside its domain or one that
a constructor rejects, a key given where the run would not read it, keys
that do not fit together, such as a horizon with no finite step count at
its dt or a sigma too narrow for the grid it is solved on), a config file
that cannot be read or parsed and a ``--threads`` below 1 print
``error: ...`` naming the key, file or flag and exit 2; a check that
does not pass, or a run that aborts, exits 1.  A command makes one
library call per experiment, writes its files and hands its checks to
``_finish``: the experiments live next to what
they test (the sampler batteries in ``drivers`` and ``measures``, the
linear oracle, the duality table and a solve's health checks in
``fokker_planck``, the CF test, the chaos-rate table and its checks and
the L1 table of ``compare`` in ``particles``, the H1 battery in
``perturbation``), and each returns its payload, the plain data the
command writes, and its checks.  Every gate is a ``CheckResult``;
``_finish`` writes the list as the summary's ``checks`` and derives
``pass`` from it.
``--threads`` is not part of the config and never changes results,
and outputs hold no timestamps, so the whole output directory is
byte-identical across reruns and thread counts.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import drivers, exports, fokker_planck as fp, measures, particles
from .coefficients import (CauchyKernel, Constant, LinearInteraction, SineKernel,
                           SmoothedDensityPower)
from .drivers import JumpAtoms, LevyTripletSpec, StableDriverSpec, _step_count
from .particles import (FileLaw, GaussianLaw, PointMass, SimulationConfig,
                        UniformLaw, chaos_rate_experiment, simulate)
from .perturbation import CheckResult, PerturbationParams, verify_h1
from .presets import PRESETS


class ConfigError(Exception):
    """A config key is unknown, missing, ill-typed, outside its domain, given
    where the run would not read it, or at odds with another key, or a
    block holds values that its constructor rejects."""


class _Resolved(dict):
    """A resolved block: its keys, as the resolved config holds them, and
    ``built``, the object its constructor built from them."""


_REQUIRED = object()


def _name(path):
    """How an error message names the key at ``path`` (keys and list indices;
    the empty path is the config itself)."""
    if not path:
        return "the config"
    if isinstance(path[-1], int):
        return f"item {path[-1]} of {_name(path[:-1])}"
    where = ".".join(map(str, path[:-1]))
    return f"key {path[-1]!r}" + (f" in {where}" if where else "")


def _named(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a constructor or a library call on the
    values of the key at ``path``: a ``ValueError`` it raises is that key's
    error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{_name(path)}: {exc}") from exc


def _scalar(what, ok):
    def check(value, path):
        if not ok(value):
            raise ConfigError(f"{_name(path)} must be {what}, got {value!r}")
        return value
    return check


# JSON numbers load as int or float; true and false load as bool, which is not int.
# Python's parser also reads NaN, which no comparison rejects, and Infinity,
# which stands for inf (a truncation level may be one)
NUMBER = _scalar("a number other than NaN",
                 lambda v: type(v) in (int, float) and not math.isnan(v))
POSITIVE = _scalar("a finite number above 0",
                   lambda v: type(v) in (int, float) and 0 < v < math.inf)
NONNEGATIVE = _scalar("a finite number at least 0",
                      lambda v: type(v) in (int, float) and 0 <= v < math.inf)
ALPHA = _scalar("a number in (0, 2]", lambda v: type(v) in (int, float) and 0 < v <= 2)
INTEGER = _scalar("an integer", lambda v: type(v) is int)
COUNT = _scalar("a positive integer", lambda v: type(v) is int and v >= 1)
STRING = _scalar("a string", lambda v: isinstance(v, str))
FLAG = _scalar("true or false", lambda v: isinstance(v, bool))


def _one_of(*allowed):
    return _scalar("one of " + ", ".join(map(repr, allowed)), lambda v: v in allowed)


def _list_of(item, least=1, most=math.inf, ascending=False):
    """A list of ``least`` to ``most`` entries, each checked by ``item``, and
    strictly ascending if ``ascending``."""
    def check(value, path):
        if not (isinstance(value, list) and least <= len(value) <= most):
            size = least if least == most else f"at least {least}"
            raise ConfigError(f"{_name(path)} must be a list of {size} item(s), got {value!r}")
        items = [item(v, path + (i,)) for i, v in enumerate(value)]
        if ascending and any(a >= b for a, b in zip(items, items[1:])):
            raise ConfigError(f"{_name(path)} must be strictly ascending, got {value!r}")
        return items
    return check


def _block(schema, *rules, build=None):
    """A JSON object.  Each ``schema`` entry is a bare type (a required key),
    a (type, default) pair, where a null default lets the key be null, or a
    (type, default, (runs, what)) triple for a key read only by ``what``,
    which runs where ``runs(resolved block)`` holds.  There the key is
    required if its default is ``_REQUIRED``; elsewhere it is left out of
    the resolved block, and a given one is an error.  Each rule is called
    on the resolved block once every key is typed and present where read,
    and raises ``ConfigError`` for keys that do not fit together; only then
    are the keys that the run would not read rejected or left out.  Last,
    ``build``, the block's constructor, is called on the resolved block and
    its object kept as the block's ``built``; a ``ValueError`` it raises
    becomes a ``ConfigError`` naming the block.  A block nested at any
    depth resolves the same way, and is built before the block that holds
    it."""
    reach = {key: spec[2] for key, spec in schema.items()
             if isinstance(spec, tuple) and len(spec) == 3}

    def check(value, path=()):
        if not isinstance(value, dict):
            raise ConfigError(f"{_name(path)} must be a JSON object, got {value!r}")
        resolved = {}
        for key, spec in schema.items():
            key_type, default = spec[:2] if isinstance(spec, tuple) else (spec, _REQUIRED)
            given = value.get(key, default)
            if given is not _REQUIRED:
                nullable = given is None and default is None
                resolved[key] = given if nullable else key_type(given, path + (key,))
            elif key not in reach:
                raise ConfigError(f"{_name(path + (key,))} is required")
        for key in value:
            if key not in schema:
                raise ConfigError(f"{_name(path + (key,))} is unknown")
        for key, (runs, what) in reach.items():
            if runs(resolved) and key not in resolved:
                raise ConfigError(f"{_name(path + (key,))} is required by {what}")
        for rule in rules:
            rule(resolved)
        for key, (runs, what) in reach.items():
            if not runs(resolved):
                if key in value:
                    raise ConfigError(f"{_name(path + (key,))} is read only by {what}")
                resolved.pop(key, None)
        resolved = _Resolved(resolved)
        if build is not None:
            resolved.built = _named(path, build, resolved)
        return resolved
    return check


def _kinds(kinds):
    """A block whose ``kind`` key picks a (constructor, schema) pair: the
    schema of its other keys, and the constructor that takes them as
    keyword arguments (None for a kind that builds nothing)."""
    def check(value, path):
        picked = value.get("kind") if isinstance(value, dict) else None
        make, keys = kinds.get(picked, (None, {})) if isinstance(picked, str) else (None, {})
        build = None if make is None else (
            lambda c: make(**{k: v for k, v in c.items() if k != "kind"}))
        return _block({"kind": _one_of(*kinds), **keys}, build=build)(value, path)
    return check


def _triplet(gaussian_a, drift_b, big_jump_atoms):
    jumps = None if big_jump_atoms is None else JumpAtoms(big_jump_atoms)
    return LevyTripletSpec(gaussian_a=gaussian_a, drift_b=drift_b, jumps=jumps)


_SCALE, _SNAPSHOTS, _STANDARD_NORMAL = (NUMBER, 1.0), (COUNT, 5), {"kind": "gaussian"}
_GAUSSIAN = (GaussianLaw, {"mean": (NUMBER, 0.0), "std": (NUMBER, 1.0)})
_STABLE = (StableDriverSpec, {"alpha": ALPHA, "scale": _SCALE})
_LINEAR = {"c0": (NUMBER, 1.0), "c1": (NUMBER, 0.5)}
_SIGMA = _kinds({"constant": (Constant, {"value": NUMBER}),
                 "linear_sine": (lambda **k: LinearInteraction(SineKernel(**k)), _LINEAR),
                 "linear_cauchy": (lambda **k: LinearInteraction(CauchyKernel(**k)), _LINEAR),
                 "smoothed_power": (SmoothedDensityPower, {"eps": NUMBER, "s": NUMBER})})
# the uniform density on the grid: its geometry, on which initial densities are laid
_GRID = _block({"half_width": NUMBER, "points": COUNT},
               build=lambda c: fp.DensityGrid(c["half_width"], np.ones(c["points"])))
_BUMP = _block({"center": NUMBER, "width": NUMBER}, build=lambda c: fp.bump(**c))
# _SIZES: system sizes along which checks compare results in list order
_PAIR, _NUMBERS, _SIZES = _list_of(NUMBER, 2, 2), _list_of(NUMBER), _list_of(COUNT, ascending=True)

# the keys of one particle run, shared by simulate and chaos-rate
_PARTICLE_RUN = {
    "dt": POSITIVE, "horizon": POSITIVE, "sigma": _SIGMA, "truncation": (NUMBER, None),
    "driver": _kinds({"stable": _STABLE,
                      "triplet": (_triplet, {"gaussian_a": (NUMBER, 0.0), "drift_b": (NUMBER, 0.0),
                                             "big_jump_atoms": (_list_of(_PAIR), None)})}),
    "initial": (_kinds({"point": (PointMass, {"x0": (NUMBER, 0.0)}), "gaussian": _GAUSSIAN,
                        "uniform": (UniformLaw, {"lo": (NUMBER, -1.0), "hi": (NUMBER, 1.0)}),
                        "file": (FileLaw, {"path": STRING})}), _STANDARD_NORMAL),
}


def _particles(c, n, dt, truncation=None):
    """The particle run of config ``c`` with ``n`` particles and step ``dt``,
    its driver cut once at the ``truncation`` level; ``n`` is the largest
    system the command steps, whose jump count per step, over all its
    particles, must be one a Poisson draw takes."""
    driver = _named(("truncation",), drivers.truncated, c["driver"].built, truncation)
    sim = SimulationConfig(n_particles=n, dt=dt, horizon_T=c["horizon"], seed=c["seed"],
                           driver=driver, sigma=c["sigma"].built, initial_law=c["initial"].built)
    _named(("driver",), driver.check_step, sim.dt_effective, n)
    return sim


def _cf_test(c):
    # for a coefficient that does not depend on the measure, over a stable
    # driver that no finite truncation cuts (alpha = 2 has no jumps to cut),
    # the terminal law is exactly stable: its CF is known when the initial
    # law's is
    driver, level = c["driver"], c["truncation"]
    return c["sigma"].built.constant_value is not None and driver["kind"] == "stable" \
        and (level in (None, math.inf) or driver["alpha"] == 2) and c["initial"]["kind"] != "file"


_CF_TEST = (_cf_test, "the CF test, which runs given a constant sigma, a stable driver "
                      "that no finite truncation cuts and an initial law with a "
                      "closed-form CF (not a file law)")


def _n_ref_covers_n_list(c):
    if c["n_ref"] is not None and c["n_ref"] < 10 * max(c["n_list"]):
        raise ConfigError(f"{_name(('n_ref',))} = {c['n_ref']} must be at least 10 times "
                          f"the largest of {_name(('n_list',))}, {max(c['n_list'])}")


def _steps(horizon, dt):
    """The step count of ``horizon`` at ``dt``."""
    return _named(("horizon",), _step_count, horizon, dt)


def _solves(c):
    # a horizon asks for a solve, unless the linear oracle runs its own solves to it
    return c["horizon"] is not None and c["linear_oracle"] is None


def _pde_runs(c):
    if c["horizon"] is None and (c["linear_oracle"] is not None or c["adjoint_checks"] is None):
        raise ConfigError(f"{_name(('horizon',))} is required by linear_oracle, and without "
                          "adjoint_checks, where a pde config would run nothing")
    if _solves(c) and c["snapshots"] > _steps(c["horizon"], c["dt"]):
        raise ConfigError(f"{_name(('snapshots',))} = {c['snapshots']} exceeds the "
                          f"{_step_count(c['horizon'], c['dt'])} steps of {_name(('dt',))} = "
                          f"{c['dt']!r} to {_name(('horizon',))} = {c['horizon']!r}")
    for case in c["linear_oracle"]["cases"] if c["linear_oracle"] is not None else ():
        _steps(c["horizon"], case["dt"] / 2.0)   # the oracle solves at dt and dt / 2


def _snapshots_on_both_grids(c):
    # compare pairs, by index, the PDE snapshot every pde_steps / snapshots
    # steps with the particle marginal every particle_steps / snapshots steps
    steps = {grid: _steps(c["horizon"], c[grid]["dt"]) for grid in ("pde", "particles")}
    if any(n % c["snapshots"] for n in steps.values()):
        raise ConfigError(f"{_name(('snapshots',))} = {c['snapshots']} must divide the steps "
                          f"to {_name(('horizon',))} = {c['horizon']!r} on both grids: " +
                          ", ".join(f"{n} steps of {_name((grid, 'dt'))} = {c[grid]['dt']!r}"
                                    for grid, n in steps.items()))


def _fits_the_grid(c):
    # each sigma that a pde run solves or checks duality with builds its grid
    # evaluator as the run will (a smoothing too narrow for the spacing is
    # its error), and each duality test function vanishes off the support
    # that the check needs
    grid = c["grid"].built
    if c["horizon"] is not None:
        _named(("sigma",), c["sigma"].built.on_grid, grid)
    adjoint = c["adjoint_checks"]
    for i, case in enumerate(adjoint["cases"] if adjoint is not None else ()):
        path = ("adjoint_checks", "cases", i)
        _named(path + ("sigma",), case["sigma"].built.on_grid, grid)
        for key in ("phi", "psi"):
            _named(path + (key,), fp._check_support, key, case[key].built, grid.half_width)


def _oracle_has_an_exact_flow(c):
    # the oracle's exact flow at each case's alpha is the linear one with its
    # diffusivity scaled by |value|^alpha of a nonzero constant sigma, and
    # the scaled diffusivity must be finite
    for case in c["linear_oracle"]["cases"] if c["linear_oracle"] is not None else ():
        _named(("sigma",), fp._constant_params, c["sigma"].built,
               fp.FractionalParams(case["alpha"], c["diffusivity"]))


# a constant sigma steps the system and its frozen-flow copies alike, so
# its chaos table is degenerate and no gate reads it
_CHAOS_GATES = (lambda c: c["sigma"].built.constant_value is None,
                "the chaos-rate gates, which run given a sigma that depends on the measure")


def _duality_case(c):
    """An adjoint case as the duality table takes it: (label, sigma, phi, psi)."""
    sigma = c["sigma"].built
    if sigma.constant_value == 0.0:
        raise ValueError("its sigma is identically zero; the duality check needs |sigma| > 0")
    return c["sigma"], sigma, c["phi"].built, c["psi"].built


def _laid_on(grid, law):
    """The gaussian initial ``law`` laid on ``grid``."""
    return _named(("initial",), fp.gaussian_grid, grid.half_width, grid.m, mean=law.mean,
                  std=law.std)


def _pde_starts(c):
    """The initial density and the params of each alpha that a solve, a
    linear-oracle case or the adjoint checks run at, by alpha."""
    grid, initial, oracle = c["grid"].built, c["initial"], c["linear_oracle"]
    alphas = [c["alpha"]] if "alpha" in c else []
    alphas += [case["alpha"] for case in oracle["cases"]] if oracle is not None else []

    def start(alpha):
        params = fp.FractionalParams(alpha=alpha, diffusivity=c["diffusivity"])
        if initial["kind"] == "gaussian":
            return _laid_on(grid, initial.built), params
        # a point mass, warmed up under the run's own params
        return fp.stable_heat_kernel_grid(grid.half_width, grid.m, t=initial["warmup"],
                                          params=params), params
    return {alpha: start(alpha) for alpha in dict.fromkeys(alphas)}


def _compare_run(c):
    """The particle run at the largest size, the initial density of the
    solve and the solve's params."""
    driver = c["driver"].built
    start = _laid_on(c["pde"]["grid"].built, c["initial"].built)
    # the multiplier constant is calibrated to the driver's CF constant:
    # with a constant coefficient both descriptions then share one law
    params = fp.FractionalParams(alpha=driver.alpha, diffusivity=driver.scale)
    return _particles(c, max(c["particles"]["n_list"]), c["particles"]["dt"]), start, params
_SOLVE = "a solve, which runs given 'horizon' and no 'linear_oracle'"
_HORIZON_SOLVES = (lambda c: c["horizon"] is not None, "the solves, which run given 'horizon'")

# validate-sampler runs each battery listed in "batteries", in this order, on
# the block of its name: the block's keys and "seed" are the battery's parameters
_BATTERIES = {
    "cf": (drivers.cf, {"alphas": _list_of(ALPHA), "scale": _SCALE, "n_samples": COUNT,
                        "xi_grid": _NUMBERS, "tolerance": NUMBER}),
    "self_similarity": (drivers._self_similarity, {
        "alphas": _list_of(ALPHA), "n_samples": COUNT, "dt": (NUMBER, 0.25),
        "level": (NUMBER, 0.01)}),
    "gaussian_moments": (drivers._gaussian_moments, {"scale": _SCALE, "n_samples": COUNT}),
    # the lemma4_monotone checks read the means in list order
    "lemma4": (measures._lemma4, {"n_values": _SIZES, "reps": COUNT,
                                  "n_ref": (COUNT, 10 ** 6), "bound": (NUMBER, 4.0)}),
    "distance_bound": (measures._distance_bound, {
        "trials": COUNT, "n_min": (COUNT, 2), "n_max": (COUNT, 64),
        "tolerance": (NUMBER, 1e-12)}),
}

_COMMAND_KEYS = {
    "simulate": ({
        **_PARTICLE_RUN, "n_particles": COUNT, "record_every": (COUNT, 1),
        "flow_format": (_one_of("csv", "binary"), "csv"),
        "kde_half_width": (NUMBER, 10.0), "kde_points": (COUNT, 401),
        "kde_eps": (POSITIVE, 0.05),
        "cf_xi_grid": (_NUMBERS, [0.25, 0.5, 1.0, 2.0], _CF_TEST),
        # null: 4 / sqrt(n_particles) + 1e-3
        "cf_tolerance": (NUMBER, None, _CF_TEST),
    }, lambda c: _particles(c, c["n_particles"], c["dt"], c["truncation"])),
    "chaos-rate": ({
        **_PARTICLE_RUN, "n_list": _list_of(COUNT, 4, ascending=True), "reps": COUNT,
        "n_ref": (COUNT, None), "slope_max": (NUMBER, None, _CHAOS_GATES),
        "require_monotone": (FLAG, False, _CHAOS_GATES),
        # the largest system is the reference run's, n_ref (by default 10
        # times the largest of n_list)
    }, lambda c: _particles(c, c["n_ref"] or 10 * max(c["n_list"]), c["dt"], c["truncation"]),
        _n_ref_covers_n_list),
    "pde": ({
        "grid": _GRID, "sigma": _SIGMA,
        # a point mass is warmed up on the grid by _pde_starts
        "initial": (_kinds({"point": (None, {"warmup": (NONNEGATIVE, 1e-3)}),
                            "gaussian": _GAUSSIAN}),
                    _STANDARD_NORMAL),
        # the linear oracle's cases give their own alpha and dt
        "alpha": (ALPHA, _REQUIRED, (lambda c: _solves(c) or c["adjoint_checks"] is not None,
                                     f"adjoint_checks or {_SOLVE}")),
        "dt": (POSITIVE, _REQUIRED, (_solves, _SOLVE)), "horizon": (POSITIVE, None),
        "diffusivity": (POSITIVE, 1.0), "snapshots": (*_SNAPSHOTS, (_solves, _SOLVE)),
        "scheme": (_one_of("rk4", "if-rk4"), "rk4", _HORIZON_SOLVES),
        "boundary_density_tol": (POSITIVE, 1e-4, _HORIZON_SOLVES),
        "mass_tolerance": (POSITIVE, fp.MASS_TOLERANCE, _HORIZON_SOLVES),
        "adjoint_checks": (_block({
            "tolerance": (NUMBER, 1e-4),
            "cases": _list_of(_block({"sigma": _SIGMA, "phi": _BUMP, "psi": _BUMP},
                                     build=_duality_case))}), None),
        "linear_oracle": (_block({
            "cases": _list_of(_block({"alpha": ALPHA, "dt": POSITIVE})),
            "sup_tolerance": (NUMBER, 1e-6), "order_ratio_range": (_PAIR, [12.0, 20.0])}),
            None),
    }, _pde_starts, _pde_runs, _oracle_has_an_exact_flow, _fits_the_grid),
    "compare": ({
        # both descriptions must start from one density and share one law
        "driver": _kinds({"stable": _STABLE}), "initial": _kinds({"gaussian": _GAUSSIAN}),
        "sigma": _SIGMA, "horizon": POSITIVE,
        # the l1_decreasing checks read the L1s in list order
        "particles": _block({"n_list": _SIZES, "dt": POSITIVE}),
        "pde": _block({"grid": _GRID, "dt": POSITIVE, "boundary_density_tol": (POSITIVE, 1e-3)}),
        "snapshots": _SNAPSHOTS, "kde_eps": (POSITIVE, 0.01),
        "l1_max_at_largest": (NUMBER, None),
    }, _compare_run, _snapshots_on_both_grids,
        lambda c: _named(("sigma",), c["sigma"].built.on_grid, c["pde"]["grid"].built)),
    "validate-sampler": ({
        "batteries": _list_of(_one_of(*_BATTERIES)),
        **{name: (_block(keys), _REQUIRED,
                  (lambda c, name=name: name in c["batteries"],
                   f"the {name} battery, which runs where 'batteries' lists it"))
           for name, (_, keys) in _BATTERIES.items()},
    }, None),
    "check-h1": ({
        "alpha": NUMBER, "gamma": NUMBER, "eps": NUMBER,
        "k1_bound": (NUMBER, 1.0), "levy_k": (NUMBER, 1.0),
        "resolutions": (_list_of(COUNT), [256, 512, 1024, 2048]),
    }, lambda c: PerturbationParams(gamma=c["gamma"], eps=c["eps"], alpha=c["alpha"],
                                    k1_bound=c["k1_bound"], levy_k=c["levy_k"])),
}

# one schema per command: every key it reads, with its type, domain, default
# and reach, the constructor of its run and the rules that relate its keys
SCHEMAS = {command: _block({"command": (_one_of(command), command), "seed": INTEGER, **keys},
                           *rules, build=build)
           for command, (keys, build, *rules) in _COMMAND_KEYS.items()}


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(outdir, cfg, summary, checks):
    """Write the resolved config and the summary, whose ``checks`` list holds
    every gate the run decided and whose ``pass`` is the verdict of them all."""
    _write_json(os.path.join(outdir, "config.resolved.json"), cfg)
    failing = [c.name for c in checks if not c.passed]
    summary["checks"] = [c.to_json_dict() for c in checks]
    summary["pass"] = not failing
    _write_json(os.path.join(outdir, "summary.json"), summary)
    print(f"FAIL {outdir}: {', '.join(failing)}" if failing else f"OK   {outdir}")
    return 1 if failing else 0


def cmd_simulate(cfg, outdir, threads):
    sim = cfg.built
    flow = simulate(sim, record_every=cfg["record_every"])
    if cfg["flow_format"] == "csv":
        exports.flow_to_csv(flow, os.path.join(outdir, "flow.csv"))
    else:
        exports.flow_to_binary(flow, os.path.join(outdir, "flow.bin"))
    kde_grid = np.linspace(-cfg["kde_half_width"], cfg["kde_half_width"], cfg["kde_points"])
    kde = measures.read_table(measures.smoothing_table(flow.final(), cfg["kde_eps"]), kde_grid)
    exports.curve_to_csv(kde_grid, kde, os.path.join(outdir, "final_kde.csv"),
                         names=("x", "density"))
    summary = {"config": cfg, "moments": [
        {"time": float(t), "mean": float(np.mean(m.samples)),
         "second_moment": measures.second_moment(m)} for t, m in zip(flow.times, flow.marginals)]}
    checks = []
    if _cf_test(cfg):
        summary["cf_test"], checks = particles._terminal_cf_test(
            flow, sim, cfg["cf_xi_grid"], cfg["cf_tolerance"])
    return _finish(outdir, cfg, summary, checks)


def cmd_pde(cfg, outdir, threads):
    summary = {"config": cfg}
    checks = []
    sigma, starts = cfg["sigma"].built, cfg.built

    if cfg["adjoint_checks"] is not None:
        adjoint = cfg["adjoint_checks"]
        summary["adjoint_checks"], found = fp._duality_table(
            [case.built for case in adjoint["cases"]], *starts[cfg["alpha"]],
            adjoint["tolerance"])
        checks += found

    if cfg["horizon"] is not None:
        # every solve aborts once its mass drifts beyond mass_tolerance
        options = {key: cfg[key] for key in ("scheme", "boundary_density_tol", "mass_tolerance")}
        if cfg["linear_oracle"] is not None:
            oracle = cfg["linear_oracle"]
            cases = [(*starts[case["alpha"]], case["dt"]) for case in oracle["cases"]]
            summary["linear_oracle"], found = fp.linear_oracle(
                cases, cfg["horizon"], sigma, oracle["sup_tolerance"],
                oracle["order_ratio_range"], **options)
        else:
            grid, p = starts[cfg["alpha"]]
            res = fp.solve_fp(grid, cfg["horizon"], cfg["dt"], sigma, p,
                              snapshots=cfg["snapshots"], **options)
            exports.density_stack_to_binary(res.times, res.grids,
                                            os.path.join(outdir, "snapshots.bin"))
            res.final().to_csv(os.path.join(outdir, "final_density.csv"))
            steps = np.arange(res.mass_trace.size)
            exports.curve_to_csv(steps, res.mass_trace, os.path.join(outdir, "mass_trace.csv"),
                                 names=("step", "mass"))
            exports.curve_to_csv(steps, res.boundary_trace,
                                 os.path.join(outdir, "boundary_trace.csv"),
                                 names=("step", "boundary_density"))
            health, found = fp._health_checks(res, cfg["mass_tolerance"],
                                              cfg["boundary_density_tol"])
            summary.update(health)
            if sigma.constant_value:  # a nonzero constant has an exact flow
                exact = fp._constant_flow(grid, cfg["horizon"], sigma, p)
                summary["max_error_vs_exact"] = fp._sup_error(res.final(), exact)
        checks += found
    return _finish(outdir, cfg, summary, checks)


def cmd_chaos_rate(cfg, outdir, threads):
    table = chaos_rate_experiment(cfg.built, cfg["n_list"], cfg["reps"], n_ref=cfg["n_ref"],
                                  threads=threads)
    gates = {key: cfg[key] for key in ("slope_max", "require_monotone") if key in cfg}
    payload, checks = particles._chaos_checks(table, **gates)
    exports.chaos_table_to_csv(table, os.path.join(outdir, "table.csv"))
    _write_json(os.path.join(outdir, "slope.json"), payload)
    return _finish(outdir, cfg, {"config": cfg, "result": payload}, checks)


def cmd_compare(cfg, outdir, threads):
    sim, start, params = cfg.built
    res = fp.solve_fp(start, cfg["horizon"], cfg["pde"]["dt"], sim.sigma, params,
                      snapshots=cfg["snapshots"],
                      boundary_density_tol=cfg["pde"]["boundary_density_tol"])
    # the schema has checked that the snapshots divide the particle steps
    payload, checks = particles.kde_l1_table(sim, cfg["particles"]["n_list"], res,
                                             cfg["kde_eps"], cfg["l1_max_at_largest"])
    with open(os.path.join(outdir, "l1_by_n.csv"), "w") as fh:
        fh.write("n,time,l1_distance\n")
        for r in payload["rows"]:
            fh.write(f"{r['n']},{r['time']:.17g},{r['l1_distance']:.17g}\n")
    drift = float(np.max(np.abs(res.mass_trace - 1.0)))
    checks.append(CheckResult("pde_mass_drift", drift, fp.MASS_TOLERANCE))
    return _finish(outdir, cfg, {"config": cfg, **payload, "pde_mass_max_drift": drift}, checks)


def cmd_validate_sampler(cfg, outdir, threads):
    report = {"config": cfg}
    checks = []
    for name, (battery, _) in _BATTERIES.items():
        if name in cfg["batteries"]:
            report[name], found = battery(seed=cfg["seed"], **cfg[name])
            checks += found
    return _finish(outdir, cfg, report, checks)


def cmd_check_h1(cfg, outdir, threads):
    payload, checks = verify_h1(cfg.built, resolutions=tuple(cfg["resolutions"]))
    _write_json(os.path.join(outdir, "report.json"), payload)
    return _finish(outdir, cfg, {"config": cfg, "report": payload}, checks)


_COMMANDS = {"simulate": cmd_simulate, "pde": cmd_pde, "chaos-rate": cmd_chaos_rate,
             "compare": cmd_compare, "validate-sampler": cmd_validate_sampler,
             "check-h1": cmd_check_h1}


def _reject(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


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
    if args.threads < 1:
        return _reject(f"--threads must be at least 1, got {args.threads}")
    if args.config and args.preset:
        return _reject("give either a config file or --preset, not both")
    if args.preset:
        if args.preset not in PRESETS:
            return _reject(f"unknown preset {args.preset!r}; "
                                f"available: {', '.join(sorted(PRESETS))}")
        cfg, label = PRESETS[args.preset], args.preset
    elif args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            return _reject(f"cannot read config file {args.config!r}: {exc}")
        label = os.path.splitext(os.path.basename(args.config))[0]
    else:
        return _reject("a config file or --preset is required")
    if args.seed is not None and isinstance(cfg, dict):
        cfg = {**cfg, "seed": args.seed}
    try:
        resolved = SCHEMAS[args.command](cfg)
    except ConfigError as exc:
        return _reject(exc)
    outdir = args.out or os.path.join("runs", f"{args.command}-{label}")
    os.makedirs(outdir, exist_ok=True)
    try:
        return _COMMANDS[args.command](resolved, outdir, args.threads)
    except (ValueError, MemoryError, fp.StabilityError, particles.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
