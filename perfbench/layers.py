"""Per-layer tracing from outside the program.

Each target is a public (or, where no public boundary exists, private)
function of a ``levymv`` module, wrapped under the name its caller looks
it up by: ``levymv.particles.simulate`` is wrapped in the ``particles``
namespace because ``chaos_rate_experiment`` calls it through the module
globals, while ``levymv.cli.simulate`` is the binding ``cmd_compare``
uses.  Only boundary calls are wrapped, never per-element callbacks, so
the overhead stays small.

Every wrapped call records a span (id, parent id, target, run id, start,
end) in memory.  Spans belong to an accounting unit; a unit's self time
is the time its outermost spans cover minus the time of child spans of
other units, so the units' self times add up to the traced wall time.
Counts come from the wrapped calls' arguments and repeat exactly.
"""

import importlib
import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter


def _one(args, kwargs):
    return 1


def _arg(index, name):
    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[index]
    return get


def _particle_steps(copies):
    def count(args, kwargs):
        cfg = args[0]
        return copies * cfg.n_particles * cfg.n_steps
    return count


def _kernel_evals(args, kwargs):
    mu, x = args[0], (kwargs["x"] if "x" in kwargs else args[2])
    return len(mu) * np.size(x)


def _driver_key(args, kwargs):
    return (repr(args[0]), args[1], kwargs.get("delta"))


def _samples_key(args, kwargs):
    # summary_stats(self, samples): a cheap content fingerprint of the
    # marginal, so no reference to it is held
    s = np.asarray(args[1])
    return (s.size, s[:4].tobytes(), s[-4:].tobytes(), float(s.sum()))


_SIMULATE = {"particles.particle_steps": _particle_steps(1)}

# (target, unit, {metric: count}); a metric starting "distinct." collects
# the keys its function returns instead of summing them
TARGETS = [
    ("levymv.cli.main", "cli", {}),
    ("levymv.cli._write_json", "exports", {}),
    ("levymv.exports.chaos_table_to_csv", "exports", {}),
    ("levymv.exports.curve_to_csv", "exports", {}),
    ("levymv.exports.density_stack_to_binary", "exports", {}),
    ("levymv.exports.flow_to_csv", "exports", {}),
    ("levymv.exports.flow_to_binary", "exports", {}),
    ("levymv.fokker_planck.DensityGrid.to_csv", "exports", {}),
    ("levymv.particles.truncated_stable_triplet", "drivers.build",
     {"drivers.build_calls": _one, "distinct.drivers.build": _driver_key}),
    ("levymv.particles.sample_increment_array", "drivers.sample",
     {"drivers.sample_calls": _one, "drivers.draws": _arg(2, "n")}),
    ("levymv.particles.substream", "rng", {"rng.substream_calls": _one}),
    ("levymv.particles.EmpiricalMeasure", "measures.sort",
     {"measures.sort_calls": _one,
      "measures.sorted_samples": lambda a, k: np.size(a[0])}),
    ("levymv.particles.wasserstein2", "measures.w2", {"measures.w2_calls": _one}),
    ("levymv.measures.smoothed_density", "measures.smooth",
     {"measures.smooth_calls": _one, "measures.kernel_evals": _kernel_evals}),
    ("levymv.coefficients.smoothed_density", "measures.smooth",
     {"measures.smooth_calls": _one, "measures.kernel_evals": _kernel_evals}),
    ("levymv.coefficients.LinearInteraction.evaluate", "coefficients.sigma_eval",
     {"coefficients.sigma_eval_calls": _one}),
    ("levymv.coefficients.SmoothedDensityPower.evaluate", "coefficients.sigma_eval",
     {"coefficients.sigma_eval_calls": _one}),
    ("levymv.coefficients.SineKernel.mean_from_stats", "coefficients.sigma_eval",
     {"coefficients.sigma_eval_calls": _one}),
    ("levymv.coefficients.SineKernel.summary_stats", "coefficients.sine_summary",
     {"coefficients.sine_summary_calls": _one,
      "distinct.coefficients.sine_summary": _samples_key}),
    ("levymv.coefficients.sigma_on_grid_values", "coefficients.grid_sigma",
     {"coefficients.grid_sigma_calls": _one}),
    ("levymv.coefficients.evaluate_on_density", "coefficients.grid_sigma",
     {"coefficients.grid_sigma_calls": _one}),
    ("levymv.particles.chaos_rate_experiment", "particles", {}),
    ("levymv.particles.simulate", "particles", _SIMULATE),
    ("levymv.cli.simulate", "particles", _SIMULATE),
    ("levymv.particles.simulate_coupled", "particles",
     {"particles.particle_steps": _particle_steps(2)}),
    ("levymv.particles._SigmaEvaluator.density_table", "particles.sigma_binned",
     {"particles.sigma_binned_calls": _one}),
    ("levymv.fokker_planck.solve_fp", "fokker_planck.solve", {}),
    ("levymv.fokker_planck.step_fp", "fokker_planck.step",
     {"fokker_planck.steps": _one, "fokker_planck.grid_point_steps": lambda a, k: a[0].m}),
    ("levymv.fokker_planck._step_lawson", "fokker_planck.step",
     {"fokker_planck.steps": _one, "fokker_planck.grid_point_steps": lambda a, k: a[0].m}),
    ("levymv.fokker_planck.adjoint_identity_check", "fokker_planck.duality", {}),
    ("levymv.fokker_planck.solve_linear_exact", "fokker_planck.oracle", {}),
]

# count-only targets: no span, their time stays with the enclosing unit
COUNTERS = [
    ("levymv.fokker_planck.fractional_laplacian", {"fokker_planck.laplacian_calls": _one}),
]

UNIT_TIME = {
    "cli": "cli.self_s",
    "exports": "exports.write_s",
    "drivers.build": "drivers.build_s",
    "drivers.sample": "drivers.sample_s",
    "rng": "rng.substream_s",
    "measures.sort": "measures.sort_s",
    "measures.w2": "measures.w2_s",
    "measures.smooth": "measures.smooth_s",
    "coefficients.sigma_eval": "coefficients.sigma_eval_s",
    "coefficients.sine_summary": "coefficients.sine_summary_s",
    "coefficients.grid_sigma": "coefficients.grid_sigma_s",
    "particles": "particles.self_s",
    "particles.sigma_binned": "particles.sigma_binned_s",
    "fokker_planck.solve": "fokker_planck.solve_s",
    "fokker_planck.step": "fokker_planck.step_s",
    "fokker_planck.duality": "fokker_planck.duality_s",
    "fokker_planck.oracle": "fokker_planck.oracle_s",
}

# derived metrics: name -> (numerator, denominator, scale)
RATIOS = {
    "drivers.build_reuse": ("distinct.drivers.build", "drivers.build_calls", 1.0),
    "coefficients.summary_reuse": ("distinct.coefficients.sine_summary",
                                   "coefficients.sine_summary_calls", 1.0),
    "drivers.ns_per_draw": ("drivers.sample_s", "drivers.draws", 1e9),
    "measures.ns_per_kernel_eval": ("measures.smooth_s", "measures.kernel_evals", 1e9),
    "particles.ns_per_particle_step": ("particles.self_s", "particles.particle_steps", 1e9),
    "fokker_planck.ns_per_grid_point_step": ("fokker_planck.step_s",
                                             "fokker_planck.grid_point_steps", 1e9),
}

COUNT_METRICS = sorted({m for _, _, c in TARGETS for m in c if not m.startswith("distinct.")}
                       | {m for _, c in COUNTERS for m in c})


def _resolve(target):
    """(owner, attribute, value) for a dotted path, or None if absent."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1], getattr(owner, parts[-1])
    return None


class Tracer:
    """Holds the spans and counts of one traced process in memory."""

    def __init__(self):
        self.spans = []          # (id, parent id, target, run, start, end)
        self.stack = []          # open spans: [id, unit, foreign seconds]
        self.unit_s = defaultdict(float)
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.count_errors = Counter()
        self.absent = []
        self.run = 0
        self._next_id = 0
        self._installed = []

    def _count(self, target, counts, args, kwargs):
        for metric, fn in counts.items():
            try:
                value = fn(args, kwargs)
            except Exception:  # a changed signature must not break the program
                self.count_errors[f"{target}:{metric}"] += 1
                continue
            if metric.startswith("distinct."):
                self.distinct[metric].add(value)
            else:
                self.counts[metric] += value

    def spanned(self, target, unit, fn, counts):
        def wrapper(*args, **kwargs):
            self._count(target, counts, args, kwargs)
            frame = [self._next_id, unit, 0.0]
            self._next_id += 1
            self.stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                self.stack.pop()
                parent = self.stack[-1] if self.stack else None
                dur = end - start
                if parent is None or parent[1] != unit:
                    self.unit_s[unit] += dur - frame[2]
                    if parent is not None:
                        parent[2] += dur
                else:
                    parent[2] += frame[2]
                self.spans.append((frame[0], parent and parent[0], target,
                                   self.run, start, end))
        return wrapper

    def counted(self, target, fn, counts):
        def wrapper(*args, **kwargs):
            self._count(target, counts, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every target that exists; record the others in ``absent``."""
        wraps = [(t, lambda fn, t=t, u=u, c=c: self.spanned(t, u, fn, c)) for t, u, c in TARGETS]
        wraps += [(t, lambda fn, t=t, c=c: self.counted(t, fn, c)) for t, c in COUNTERS]
        for target, wrap in wraps:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, name, fn = found
            self._installed.append((owner, name, vars(owner).get(name, fn)))
            setattr(owner, name, wrap(fn))

    def uninstall(self):
        """Put every wrapped name back as it was."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def metrics(self):
        """Per-layer metrics as {name: value}; a metric with no target reads 0."""
        out = {m: float(self.counts.get(m, 0)) for m in COUNT_METRICS}
        for unit, metric in UNIT_TIME.items():
            out[metric] = self.unit_s.get(unit, 0.0)
        values = dict(out)
        values.update({k: float(len(v)) for k, v in self.distinct.items()})
        for name, (num, den, scale) in RATIOS.items():
            d = values.get(den, 0.0)
            out[name] = scale * values.get(num, 0.0) / d if d else 0.0
        return out

    def absent_metrics(self):
        """Metrics every contributing target of which is absent."""
        sources = defaultdict(list)
        for target, unit, counts in TARGETS:
            sources[UNIT_TIME[unit]].append(target)
            for metric in counts:
                sources[metric].append(target)
        for target, counts in COUNTERS:
            for metric in counts:
                sources[metric].append(target)
        for name, (num, den, _) in RATIOS.items():
            sources[name] = sources[num] + sources[den]
        return {m: ts for m, ts in sorted(sources.items())
                if not m.startswith("distinct.") and all(t in self.absent for t in ts)}
