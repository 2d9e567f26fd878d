"""Time-discretized interacting particle systems.

Fixed-step Euler scheme for
    X^i_{t+dt} = X^i_t + sigma(X^i_t, mu_t) * dZ^i
with the coefficient frozen at the step start (left-limit convention)
and driver increments drawn exactly per step.  Every run is stepped by
one loop over ``(runs, n)`` arrays, one run per row: each step draws the
rows' increments in one call and advances up to two parts with them,
evaluating sigma through the coefficient's ``summarize``/``from_summary``
pair (see :mod:`levymv.coefficients`):

* the interacting part -- sigma sees the system's own empirical measure,
  row by row, summarized afresh at every step from the sorted positions;
  a pointwise sigma is then read in place, a table read-back in sorted
  particle order (one argsort per step, values scattered back; see
  ``sorted_reads`` in :mod:`levymv.coefficients`),
* the frozen-flow part -- sigma sees an externally supplied marginal
  flow, summarized once per marginal, which turns the system into n
  independent copies of a linear equation.

:func:`simulate` is the interacting part on one row, a
:func:`picard_flow` iterate the frozen-flow part on one row against the
previous iterate's flow, and a coupled run (:func:`simulate_coupled`,
:func:`chaos_rate_experiment`) both parts at once with shared increments
per particle index, which is the construction behind the pathwise
convergence-rate experiments; it keeps only what those read, each
particle's running sup gap.  The repetitions of one system size are
stepped together; each row keeps its own substreams and its own system
sigma, so a run's result does not depend on which runs share its array.

Randomness comes from counter-based substreams keyed by
(seed, role, step), drawn in particle-major order, so runs are
reproducible bit-for-bit regardless of worker count or of how
repetitions are chunked among workers, and particle permutations act on
trajectories exactly as they act on the streams.

The experiments on the engine return their payload and their checks:
:func:`kde_l1_table` holds the system's marginals against a density
solve in L1, scoring each as it is stepped, the chaos-rate table gets
its slope and monotone checks, and a constant-coefficient stable run its
terminal CF test.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .drivers import _step_count, sample_increment_array
from .measures import (EmpiricalMeasure, _cf_gap, _mean_stderr, _within_2se, read_table,
                       smoothing_table, wasserstein2)
from .perturbation import CheckResult
from .rng import SubstreamRows, derive_key, substream

__all__ = [
    "PointMass",
    "GaussianLaw",
    "UniformLaw",
    "FileLaw",
    "SimulationConfig",
    "MarginalFlow",
    "PicardResult",
    "SimulationError",
    "simulate",
    "kde_l1_table",
    "picard_flow",
    "simulate_coupled",
    "chaos_rate_experiment",
]

# substream roles
_ROLE_INIT = 0
_ROLE_STEP = 1


class SimulationError(RuntimeError):
    pass


def _check_count(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class PointMass:
    x0: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0!r}")

    def sample(self, n, rng):
        return np.full(n, self.x0)

    def cf(self, xi):
        return np.exp(1j * xi * self.x0)


@dataclass(frozen=True)
class GaussianLaw:
    """A normal law; a std of 0 is a point mass, which is its own law."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not 0.0 < self.std < math.inf:
            raise ValueError(f"std must be above 0 and finite, got {self.std!r}")

    def sample(self, n, rng):
        return self.mean + self.std * rng.standard_normal(n)

    def cf(self, xi):
        return np.exp(1j * xi * self.mean - 0.5 * (xi * self.std) ** 2)


@dataclass(frozen=True)
class UniformLaw:
    """The uniform law on [lo, hi]: both bounds finite, hi above lo."""

    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError(f"hi must be above lo, both finite, got lo = {self.lo!r} "
                             f"and hi = {self.hi!r}")

    def sample(self, n, rng):
        return rng.uniform(self.lo, self.hi, n)

    def cf(self, xi):
        return (np.exp(1j * xi * self.hi) - np.exp(1j * xi * self.lo)) \
            / (1j * xi * (self.hi - self.lo))


@dataclass(frozen=True)
class FileLaw:
    """Empirical law of a single-column CSV, loaded once at construction (a
    file that cannot be loaded raises ``ValueError``); draws resample it."""

    path: str
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "samples", EmpiricalMeasure.from_csv(self.path).samples)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load path {self.path!r}: {exc}") from exc

    def sample(self, n, rng):
        return self.samples[rng.integers(0, self.samples.size, n)]

    def cf(self, xi):
        """None: a resampled file has no closed-form characteristic function."""
        return None


@dataclass
class SimulationConfig:
    """Everything one particle run depends on; seed included.

    ``horizon_T`` is snapped to a whole number of steps of length ``dt``
    at construction and the effective step recorded in ``dt_effective``.
    The run steps ``driver`` as it is given; a truncated driver is cut
    beforehand, once, by :func:`levymv.drivers.truncated`.  A driver is
    any object with the three methods of the driver classes of
    :mod:`levymv.drivers`: ``rows(dt, n, rngs)``, one row of n increments
    over dt per generator, each row drawn from its own generator alone;
    ``within(level)``, the driver without its jumps above ``level``; and
    ``check_step(dt, n)``, which raises ``ValueError`` when a row of n
    increments over dt cannot be drawn.  Stepping reads only ``rows``.
    """

    n_particles: int
    dt: float
    horizon_T: float
    seed: int
    driver: object
    sigma: object
    initial_law: object = field(default_factory=GaussianLaw)

    def __post_init__(self):
        _check_count("n_particles", self.n_particles)
        for name in ("dt", "horizon_T"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (self.dt > 0.0 and self.horizon_T > 0.0):
            raise ValueError("dt and horizon must be positive")
        self.n_steps = _step_count(self.horizon_T, self.dt)
        self.dt_effective = self.horizon_T / self.n_steps

    def times(self):
        return self.dt_effective * np.arange(self.n_steps + 1)


@dataclass
class MarginalFlow:
    """Discretized marginal flow: one empirical measure per time point."""

    times: np.ndarray
    marginals: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if len(self.marginals) != self.times.size:
            raise ValueError("one marginal per time point required")
        sizes = {len(m) for m in self.marginals}
        if len(sizes) != 1:
            raise ValueError("all marginals must hold the same sample count")

    def final(self):
        return self.marginals[-1]


def _check_finite(positions, step_index, time):
    if not np.all(np.isfinite(positions)):
        bad = int(np.count_nonzero(~np.isfinite(positions)))
        raise SimulationError(
            f"{bad} particle position(s) left the finite range at step "
            f"{step_index} (t={time:.6g}); the run is unusable past this point")


def _ranks(x):
    """The argsort of each row of ``x`` as indices into the flattened array,
    for ``x.take`` and ``out.put``."""
    ranks = np.argsort(x, axis=-1)
    ranks += np.arange(0, x.size, x.shape[-1]).reshape(x.shape[:-1] + (1,))
    return ranks


def _sigma_in_order(sigma, ranked, ranks, summary):
    """sigma against ``summary`` at positions read in the order ``ranks``
    (:func:`_ranks` of some array of the same shape), scattered back to the
    order they were read from.

    ``ranked`` holds the positions so read, one system or one system per
    row.  They are queried in that order, so a table read-back walks its
    nodes forward when they are sorted or nearly so; sigma is pointwise in
    the positions, so each gets the same number as in place.  A non-finite
    sample gives non-finite sigma, which the finiteness check on the
    advanced positions reports (the smoothed-density table rejects it with
    ``ValueError`` instead).
    """
    vals = sigma.from_summary(ranked, summary)
    out = np.empty(ranked.shape)
    out.put(ranks, vals)
    return out


def _advance(positions, sigma_values, increments):
    # overflow to inf is caught right after by the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        return positions + sigma_values * increments


def initial_positions(cfg):
    return cfg.initial_law.sample(cfg.n_particles, substream(cfg.seed, _ROLE_INIT))


def _steps(cfg, streams, xs, parts, kept=None):
    """Step lockstep runs through ``cfg``'s time grid; yield each step's number.

    ``xs`` holds one ``(rows, n)`` position array per part, one run per
    row, and is updated in place: after step k it holds the positions at
    time (k + 1) dt and ``k + 1`` is yielded, so a caller that reads
    ``xs`` keeps no past step alive.  Parts may start from one shared
    array, as no step writes into one.  ``parts[i]`` is None for the
    interacting part, which comes first, sigma on each row's own empirical
    measure, or the frozen-flow part's list of summaries, ``parts[i][k]``
    being read at step k.  Step k draws every row's increments in one call,
    from ``streams.at(k)``, and all parts consume them; each advanced part
    is checked for finiteness before the next is advanced.

    The interacting part's summary at step k is sigma's summary of the
    system's sorted positions (the measure is order-free, and one
    reduction order keeps interacting and frozen-flow stepping
    bit-identical), one per row, or one measure's summary for a single
    row (which rows of copies can read too); ``kept``, when a list,
    receives it, step after step.  Where sigma's ``sorted_reads``
    is False, sigma is pointwise in the positions given the summary, so
    the rows are sorted for it by ``np.sort`` and every part is read in
    place.  Where it is True (a table read-back), every part is evaluated
    in the order of the argsort that the step takes of the system's
    positions (:func:`_sigma_in_order`), and the positions so read are the
    sorted ones: the coupled copies stay close to the system, so in that
    order they come nearly sorted too, and the read-back walks the
    reference table forward instead of jumping about it.  The argsort
    lives from the step's draws to its end: held across the next step's
    draws, it made compare's n = 1e5 runs fault in about twice the pages.
    A frozen-flow part alone (a Picard iterate) is read in place.
    """
    sigma = cfg.sigma
    for k in range(cfg.n_steps):
        dz = sample_increment_array(cfg.driver, cfg.dt_effective, cfg.n_particles, streams.at(k))
        ranks = ordered = own = None
        if parts[0] is None:
            ranks = _ranks(xs[0]) if sigma.sorted_reads else None
            ordered = np.sort(xs[0], axis=-1) if ranks is None else xs[0].take(ranks)
            own = sigma.summarize(ordered[0] if len(ordered) == 1 else ordered)
            if kept is not None:
                kept.append(own)
        for i, summaries in enumerate(parts):
            summary = own if summaries is None else summaries[k]
            if ranks is None:
                sig = sigma.from_summary(xs[i], summary)
            else:
                sig = _sigma_in_order(sigma, ordered if i == 0 else xs[i].take(ranks), ranks,
                                      summary)
            xs[i] = _advance(xs[i], sig, dz)
            _check_finite(xs[i], k + 1, (k + 1) * cfg.dt_effective)
        del ranks, ordered
        yield k + 1


def _recorded(cfg, record_every):
    """Run the interacting system; yield (time, marginal) at step 0, every
    ``record_every`` steps and at the horizon, each as it is stepped."""
    xs = [initial_positions(cfg)[None]]
    yield 0.0, EmpiricalMeasure(xs[0])
    for step in _steps(cfg, SubstreamRows([cfg.seed], _ROLE_STEP), xs, [None]):
        if step % record_every == 0 or step == cfg.n_steps:
            yield step * cfg.dt_effective, EmpiricalMeasure(xs[0])


def simulate(cfg, record_every=1):
    """Run the interacting system, recording the marginal at step 0, every
    ``record_every`` steps and at the horizon."""
    _check_count("record_every", record_every)
    times, marginals = zip(*_recorded(cfg, record_every))
    return MarginalFlow(times=np.asarray(times), marginals=list(marginals))


def _terminal_cf_test(flow, cfg, xi_grid, tolerance):
    """The CF test of a run of ``cfg`` whose coefficient has a
    ``constant_value`` and whose driver is stable (not truncated), whose
    law at the horizon is the initial law convolved with a stable law: the
    sup over ``xi_grid`` of the gap between the two CFs,
    the final marginal's empirical one and the exact one, at most
    ``tolerance`` (None: 4 / sqrt(n) + 1e-3).  Returns the payload and the
    check."""
    xi = np.array(xi_grid)
    alpha = cfg.driver.alpha
    c_tot = cfg.driver.scale * cfg.horizon_T * abs(cfg.sigma.constant_value) ** alpha
    expected = cfg.initial_law.cf(xi) * np.exp(-c_tot * np.abs(xi) ** alpha)
    gap = _cf_gap(flow.final().samples, xi, expected)
    tol = tolerance if tolerance is not None else 4.0 / math.sqrt(cfg.n_particles) + 1e-3
    return {"max_abs_gap": gap, "tolerance": tol}, [CheckResult("cf_gap", gap, tol)]


def kde_l1_table(cfg, n_list, pde, kde_eps, l1_max_at_largest=None):
    """The particle system against the density solver, by L1 distance.

    ``pde`` is a solve to ``cfg``'s horizon (an ``FpResult``) whose
    snapshot count divides ``cfg.n_steps`` (any other raises
    ``ValueError`` before a step is taken); ``cfg`` gives everything but
    the system size.  For each n of ``n_list``, in ascending order, the
    system is stepped with its marginal taken every ``cfg.n_steps /
    snapshots`` steps, so that the k-th marginal taken after t = 0 falls
    on the solve's k-th snapshot after t = 0, and its
    :func:`smoothing_table` KDE of width ``kde_eps`` is read on the
    snapshot's nodes as the marginal arrives: no run keeps its past
    marginals.  Returns the payload, one row of (n, time, L1 distance) per
    pair and the last n's L1 at the horizon against ``l1_max_at_largest``,
    and the checks: at the horizon L1 falls strictly with each step up in
    n, and the last is at most ``l1_max_at_largest`` unless that is None.
    """
    snapshots = len(pde.times) - 1
    if cfg.n_steps % snapshots:
        raise ValueError(f"the solve's {snapshots} snapshots must divide the particle "
                         f"run's {cfg.n_steps} steps")
    rows = []
    for n in n_list:
        recorded = _recorded(replace(cfg, n_particles=n), cfg.n_steps // snapshots)
        next(recorded)  # t = 0, which both routes start from
        for t, p_t, (_, marg) in zip(pde.times[1:], pde.grids[1:], recorded, strict=True):
            kde = read_table(smoothing_table(marg, kde_eps), p_t.nodes)
            l1 = float(np.sum(np.abs(kde - p_t.values)) * p_t.dx)
            rows.append({"n": n, "time": float(t), "l1_distance": l1})
    l1s = [r["l1_distance"] for r in rows if r["time"] == pde.times[-1]]
    checks = [CheckResult(f"l1_decreasing_{i}", b, a, "<")
              for i, (a, b) in enumerate(zip(l1s, l1s[1:]), 1)]
    if l1_max_at_largest is not None:
        checks.append(CheckResult("l1_at_largest", l1s[-1], l1_max_at_largest))
    return {"rows": rows, "l1_at_largest": l1s[-1],
            "l1_max_at_largest": l1_max_at_largest}, checks


@dataclass
class PicardResult:
    flows: list
    successive_gaps: list


def picard_flow(cfg, iterations, common_increments=True):
    """Fixed-point iteration on marginal flows.

    Iterate j simulates the linear equation against flow j-1 (starting
    from the constant-in-time initial law), sharing one initial sample
    across iterations.  With ``common_increments`` every iterate reuses
    the same increment streams, so successive-flow distances measure the
    contraction of the flow map rather than Monte-Carlo noise; otherwise
    iterate j draws from its own, keyed by (seed, step role, j, step).
    """
    _check_count("iterations", iterations)
    x0 = initial_positions(cfg)
    times = cfg.times()
    flat = MarginalFlow(times=times,
                        marginals=[EmpiricalMeasure(x0)] * (cfg.n_steps + 1))
    sigma = cfg.sigma
    flows = [flat]
    gaps = []
    for j in range(1, iterations + 1):
        prev = flows[-1]
        summaries = [sigma.summarize(m.samples) for m in prev.marginals[:-1]]
        prefix = (_ROLE_STEP,) if common_increments else (_ROLE_STEP, j)
        xs = [x0[None]]
        marginals = [EmpiricalMeasure(x0)]
        for _ in _steps(cfg, SubstreamRows([cfg.seed], *prefix), xs, [summaries]):
            marginals.append(EmpiricalMeasure(xs[0]))
        flow = MarginalFlow(times=times, marginals=marginals)
        gaps.append(max(wasserstein2(a, b)
                        for a, b in zip(flow.marginals, prev.marginals)))
        flows.append(flow)
    return PicardResult(flows=flows[1:], successive_gaps=gaps)


def simulate_coupled(cfg, reference_flow):
    """Couple the interacting system to frozen-flow copies; return each
    particle's sup over the run of |system - copy|, one array of n.

    Both systems start from the same initial sample and consume the same
    increment vector per step, so for measure-independent coefficients
    the gaps vanish identically.

    At step k the copies read the reference marginal of step k, so the
    reference flow must be recorded at every time of ``cfg.times()``
    (``simulate`` with ``record_every=1`` on the same dt and horizon);
    any other flow raises ``ValueError``.  The run is the one-row case of
    the lockstep loop :func:`chaos_rate_experiment` steps its repetitions
    with, so it gives what that experiment gives for the same config.
    """
    if not np.array_equal(reference_flow.times, cfg.times()):
        raise ValueError(
            f"reference flow must be recorded at the run's {cfg.n_steps + 1} step times "
            f"up to {cfg.horizon_T:.6g}; it has {reference_flow.times.size} up to "
            f"{reference_flow.times[-1]:.6g}")
    summaries = [cfg.sigma.summarize(m.samples) for m in reference_flow.marginals[:-1]]
    return _simulate_coupled([cfg], summaries)[0]


def _simulate_coupled(cfgs, summaries):
    """Step coupled runs of one system size in lockstep; return their sup
    gaps, one row of ``(len(cfgs), n)`` per run.

    ``cfgs`` share the particle count, the time grid, the driver and sigma
    and differ in their seeds.  Run
    r is row r of the ``(len(cfgs), n)`` position arrays of both parts of
    :func:`_steps`, the system and the copies, which start from one array;
    it draws its increments and initial sample from its own substreams
    (the batch's own :class:`~levymv.rng.SubstreamRows`) and its system
    sigma from its own row.  The running sup of the gaps acts on all rows
    at once.
    No row reads another, so a run's result does not depend on which runs
    share its batch.  ``summaries[k]`` is ``sigma.summarize`` of the
    reference marginal at step k, for each step (the final marginal is
    read by none); it is only read here, so one list can serve many
    batches, concurrent ones included.
    """
    xs = [np.stack([initial_positions(c) for c in cfgs])] * 2  # system, copies
    sup_gap = np.zeros(xs[0].shape)
    streams = SubstreamRows([c.seed for c in cfgs], _ROLE_STEP)
    for _ in _steps(cfgs[0], streams, xs, [None, summaries]):
        sup_gap = np.maximum(sup_gap, np.abs(xs[0] - xs[1]))
    return sup_gap


def _loglog_slope(ns, vals):
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(vals, dtype=float))
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(a, ly, rcond=None)
    dof = max(len(ns) - 2, 1)
    s2 = float(res[0]) / dof if res.size else 0.0
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    return float(coef[0]), math.sqrt(s2 / sxx) if sxx > 0 else math.inf


def chaos_rate_experiment(cfg_base, n_list, reps, n_ref=None, threads=1):
    """Mean-square pathwise gaps for a ladder of system sizes.

    A run's mean-square gap is the mean over its particles of the squared
    sup gap that :func:`simulate_coupled` returns.

    One reference flow is built at ``n_ref`` (>= 10x the largest system)
    and reused as the frozen law for every coupled run: the sigma
    summaries its own steps take of its marginals are kept and read by
    every copy, the bits :func:`simulate_coupled` reads; each (size,
    repetition) pair gets fresh substreams, including a fresh initial
    sample.  The reference error adds a size-independent floor, so keep
    the largest requested size well below ``n_ref``.

    The repetitions of one size are stepped in lockstep as the rows of one
    ``(reps, n)`` array.  ``threads`` (at least 1) worker threads share the
    batches: each size's repetitions are cut into up to ``threads`` chunks
    of consecutive rows, one batch each.
    A row's seed derives from its (size, repetition) pair alone and no row
    reads another, so neither the chunking nor the scheduling can change a
    result: each run's result equals that of ``simulate_coupled`` on the
    same config, bit for bit.  What is fixed per experiment is built once
    and shared read-only by every batch, across threads too: the driver
    and sigma of ``cfg_base`` and the sigma summaries of the reference
    marginals.  A coefficient with a
    ``constant_value`` steps the systems and their copies alike, so its
    table is degenerate: its gaps are zero up to roundoff, and no slope is
    fitted.

    Returns the table's payload: ``rows``, one ``{n, mean_sq_gap, stderr}``
    per size, the ``fitted_slope`` of log mean square gap against log n
    with its ``slope_stderr`` and ``slope_ci95`` (all three None for a
    degenerate table), the ``status`` ("ok" or "degenerate: all-zero"),
    ``reference_n`` and ``reps``.
    """
    n_list = list(n_list)
    if sorted(n_list) != n_list or len(n_list) < 4:
        raise ValueError("need an ascending list of at least 4 system sizes")
    if n_ref is None:
        n_ref = 10 * max(n_list)
    if n_ref < 10 * max(n_list):
        raise ValueError("reference size must be at least 10x the largest system")
    _check_count("threads", threads)
    ref = replace(cfg_base, n_particles=n_ref, seed=derive_key(cfg_base.seed, 0xFEED))
    summaries = []  # the reference run's own, step by step
    for _ in _steps(ref, SubstreamRows([ref.seed], _ROLE_STEP), [initial_positions(ref)[None]],
                    [None], summaries):
        pass

    def one_batch(task):
        i, n, batch_reps = task
        cfgs = [replace(cfg_base, n_particles=n, seed=derive_key(cfg_base.seed, i + 1, r))
                for r in batch_reps]
        return [float(np.mean(gaps ** 2)) for gaps in _simulate_coupled(cfgs, summaries)]

    chunk = -(-reps // threads)
    tasks = [(i, n, range(lo, min(lo + chunk, reps)))
             for i, n in enumerate(n_list) for lo in range(0, reps, chunk)]
    if threads > 1:
        # partials land in task order regardless of completion order
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(one_batch, tasks))
    else:
        batches = [one_batch(t) for t in tasks]
    flat = [v for batch in batches for v in batch]
    rows = []
    for i, n in enumerate(n_list):
        mean, se = _mean_stderr(np.asarray(flat[i * reps:(i + 1) * reps]))
        rows.append({"n": n, "mean_sq_gap": mean, "stderr": se})
    if cfg_base.sigma.constant_value is not None:
        slope = slope_se = ci = None
    else:
        slope, slope_se = _loglog_slope(n_list, [max(r["mean_sq_gap"], 1e-300) for r in rows])
        ci = [slope - 1.96 * slope_se, slope + 1.96 * slope_se]
    return {"rows": rows, "fitted_slope": slope, "slope_stderr": slope_se, "slope_ci95": ci,
            "status": "ok" if slope is not None else "degenerate: all-zero",
            "reference_n": n_ref, "reps": reps}


def _chaos_checks(table, slope_max=None, require_monotone=False):
    """A chaos-rate table's payload and checks: the table, a
    :func:`chaos_rate_experiment` payload, with the gates' keys added, and
    the checks: the fitted slope at most ``slope_max`` unless that is None,
    and, if ``require_monotone``, each size's mean square gap at most the
    one before plus twice their combined standard error.  A degenerate
    table gets neither."""
    payload = dict(table)
    checks = []
    if table["fitted_slope"] is None:
        payload["criterion"] = "degenerate measure-independent coefficient"
        return payload, checks
    if slope_max is not None:
        slope = CheckResult("slope", table["fitted_slope"], slope_max)
        payload["criterion"] = {"slope_max": slope.limit, "fitted": slope.value,
                                "pass": slope.passed}
        checks.append(slope)
    if require_monotone:
        rows = table["rows"]
        monotone = _within_2se("monotone", [r["mean_sq_gap"] for r in rows],
                               [r["stderr"] for r in rows], "<=")
        payload["monotone_within_2se"] = all(c.passed for c in monotone)
        checks += monotone
    return payload, checks
