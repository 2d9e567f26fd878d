"""Sampling of Levy-process increments.

Three layers:

* exact symmetric alpha-stable increments via the polar
  (Chambers-Mallows-Stuck) transform,
* general drivers specified by a characteristic triplet, assembled per
  step as drift + diffusion + a symmetric jump band on |y| <= 1 + big
  jumps on |y| > 1,
* pathwise removal of the big jumps above a level ``N``, which turns a
  heavy-tailed driver into a square-integrable one; for the stable
  driver the cut triplet is built in closed form, with the jumps below
  ``DELTA`` replaced by a variance-matched Gaussian.

One sampler serves them all: :func:`sample_increment_array` takes one
generator, for one array of increments, or one generator per row of
lockstep runs.  Each row draws its variates from its own generator, in
the order it would draw them alone (stable: the uniforms, then the
exponentials; triplet: the normals, the band's jump counts and draws,
then the big jumps' counts and draws); the transforms to increments and
the per-particle jump sums then run once on all rows.  So a row's
increments do not depend on the other rows, and a one-row call gives
the bits of the same row drawn beside others.

Scale convention for the stable family: ``scale`` is the characteristic
function constant, one increment over ``dt`` has CF
``exp(-scale * dt * |xi|**alpha)``.  The equivalent jump-density constant
``K`` in ``K |y|**(-1-alpha)`` is related through
``scale = K * pi / (gamma(1+alpha) * sin(pi*alpha/2))``; both directions
are exposed below so the two parameterizations can be converted
explicitly instead of guessed.

The sampler's validation batteries (:func:`cf`, self-similarity and the
Gaussian endpoint) hold its draws against closed forms; each takes its
``validate-sampler`` config block and a seed, and returns its payload and
its checks.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .measures import _cf_gap
from .perturbation import CheckResult
from .rng import substream

__all__ = [
    "StableDriverSpec",
    "LevyTripletSpec",
    "JumpAtoms",
    "sample_increment_array",
    "truncated_stable_triplet",
    "cf_constant_from_levy_constant",
    "levy_constant_from_cf_constant",
    "cf",
]

# jumps of the truncated stable driver below this size are replaced by a
# Gaussian of the same variance
DELTA = 0.05


def cf_constant_from_levy_constant(levy_k, alpha):
    """CF constant c of exp(-c|xi|^alpha) for the jump density K|y|^(-1-alpha)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("jump representation requires 0 < alpha < 2")
    return levy_k * math.pi / (math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))


def levy_constant_from_cf_constant(scale, alpha):
    """Inverse of :func:`cf_constant_from_levy_constant`."""
    if not 0.0 < alpha < 2.0:
        raise ValueError("jump representation requires 0 < alpha < 2")
    return scale * math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0) / math.pi


@dataclass(frozen=True)
class StableDriverSpec:
    """Symmetric alpha-stable driver with CF exp(-scale * dt * |xi|^alpha)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


# pi/4 as the double math.pi/4 plus the rest, so pi/4 - |x|/2 keeps its
# relative accuracy as |x| -> pi/2
_QUARTER_PI_LO = 3.061616997868383e-17


def _sin_of_double(h, scratch):
    """sin 2h = 2t / (1 + t^2) with t = tan h, in place on h, for |h| < pi/2."""
    np.tan(h, out=h)
    np.multiply(h, h, out=scratch)
    scratch += 1.0
    h += h
    h /= scratch
    return h


def _cos_of(k, u, out, scratch):
    """cos(k u) = sin(pi/2 - k |u|) into ``out``, for 0 <= k |u| <= pi/2."""
    np.abs(u, out=out)
    out *= -0.5 * k
    out += math.pi / 4.0
    out += _QUARTER_PI_LO
    return _sin_of_double(out, scratch)


def _standard_symmetric_stable(alpha, u, w, c=1.0):
    """c times the Chambers-Mallows-Stuck draws of CF exp(-|xi|^alpha), in u.

    u uniform on (-pi/2, pi/2) and w unit exponential, both overwritten:
    sin(alpha u) / cos(u)^(1/alpha) * (cos((1-alpha) u) / w)^((1-alpha)/alpha),
    or 2 sin(u) sqrt(w) at alpha = 2.  Every sine comes from the tangent of
    the half angle, and every cosine is the sine of its complement to pi/2,
    so the transform's transcendental calls are three ``np.tan`` and two
    ``np.power``.  Its speed rests on numpy's ``tan`` being SIMD-dispatched
    (its float64 ``sin`` and ``cos`` may be scalar libm calls); the result
    does not depend on that beyond roundoff.
    """
    scratch = np.empty_like(u)
    if alpha == 2.0:
        np.sqrt(w, out=w)
        u *= 0.5
        _sin_of_double(u, scratch)
        u *= w
        u *= 2.0 * c
        return u
    a = _cos_of(abs(1.0 - alpha), u, np.empty_like(u), scratch)
    np.divide(a, w, out=w)
    np.power(w, (1.0 - alpha) / alpha, out=w)
    _cos_of(1.0, u, a, scratch)
    np.power(a, 1.0 / alpha, out=a)
    u *= 0.5 * alpha
    _sin_of_double(u, scratch)
    u /= a
    u *= w
    u *= c
    return u


def _stable_rows(spec, dt, n, rngs):
    # each row: n uniforms, then n exponentials, from its own generator
    u = np.empty((len(rngs), n))
    w = np.empty((len(rngs), n))
    for row, rng in enumerate(rngs):
        u[row] = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
        rng.standard_exponential(out=w[row])
    return _standard_symmetric_stable(spec.alpha, u, w, (spec.scale * dt) ** (1.0 / spec.alpha))


class JumpAtoms:
    """Finite jump measure made of atoms [(position, rate), ...], |position| > 1.

    Like every jump measure of a :class:`LevyTripletSpec`, it samples in
    two parts: ``draw(rng, size)`` takes the variates of ``size`` jumps,
    along the last axis, and ``amplitudes`` maps draws, of one generator or
    of several joined along that axis, to jump amplitudes elementwise.
    """

    def __init__(self, atoms):
        atoms = tuple((float(y), float(r)) for y, r in atoms)
        for y, r in atoms:
            if abs(y) <= 1.0:
                raise ValueError("big-jump atoms must sit at |y| > 1")
            if r <= 0.0:
                raise ValueError("atom rates must be positive")
        self.atoms = atoms
        self.total_rate = sum(r for _, r in atoms)
        self._positions = np.array([y for y, _ in atoms])
        rates = np.array([r for _, r in atoms])
        self._weights = rates / rates.sum()

    def draw(self, rng, size):
        """Atom indices."""
        return rng.choice(len(self.atoms), size=size, p=self._weights)

    def amplitudes(self, draws):
        return self._positions[draws]


class _PowerJumps:
    """Symmetric finite jump measure K|y|^(-1-alpha) on lo < |y| <= hi.

    Its total rate and inverse CDF are closed forms: a fraction v of the
    one-sided mass lies below |y| = (lo^-a - v (lo^-a - hi^-a))^(-1/a).
    A jump is drawn as one uniform for the magnitude and a second for the
    sign, or, ``by_halves``, as one uniform on [0, total_rate) whose lower
    half gives the positive jumps and upper half the negative ones.
    """

    def __init__(self, levy_k, alpha, lo, hi, by_halves=False):
        self.alpha = alpha
        self.lo = lo
        self.hi = hi
        self.by_halves = by_halves
        self.total_rate = 2.0 * levy_k * (lo ** -alpha - hi ** -alpha) / alpha

    def _magnitude(self, v):
        a = self.alpha
        return (self.lo ** -a - v * (self.lo ** -a - self.hi ** -a)) ** (-1.0 / a)

    def draw(self, rng, size):
        """The uniforms: ``size`` of them by halves, else a ``(2, size)``
        array, the magnitude uniforms drawn first, then the sign uniforms."""
        if self.by_halves:
            # the bits of rng.uniform(0.0, total_rate, size), which computes
            # 0.0 + total_rate * u, without its per-call broadcasting
            return self.total_rate * rng.random(size)
        return rng.random((2, size))

    def amplitudes(self, draws):
        if self.by_halves:
            half = 0.5 * self.total_rate
            on_pos = draws < half
            mag = self._magnitude(np.where(on_pos, draws, draws - half) / half)
            return np.where(on_pos, mag, -mag)
        return np.where(draws[1] < 0.5, 1.0, -1.0) * self._magnitude(draws[0])


class LevyTripletSpec:
    """Driver specified by (gaussian_a, drift_b, jump measure).

    The jump measure is an optional symmetric ``band`` on |y| <= 1, which
    needs no compensator (the one :func:`truncated_stable_triplet` builds),
    plus finite ``big_jumps`` on |y| > 1 (e.g. :class:`JumpAtoms`).  Each
    has a ``total_rate`` and samples by ``draw`` and ``amplitudes`` (see
    :class:`JumpAtoms`).
    """

    def __init__(self, gaussian_a=0.0, drift_b=0.0, band=None, big_jumps=None):
        if gaussian_a < 0.0:
            raise ValueError("gaussian coefficient must be nonnegative")
        self.gaussian_a = float(gaussian_a)
        self.drift_b = float(drift_b)
        self.band = band
        self.big_jumps = big_jumps
        self.band_rate = 0.0 if band is None else band.total_rate
        self.big_rate = 0.0 if big_jumps is None else big_jumps.total_rate


def _check_truncation(level):
    if level is None:
        return
    if isinstance(level, bool) or not isinstance(level, numbers.Real):
        raise ValueError(f"truncation level must be a number, got {level!r}")
    if not level > 0.0:
        raise ValueError(f"truncation level must be positive or inf, got {level}")


def _triplet_rows(spec, dt, n, rngs, level):
    """(totals, big_jump_sums) of ``len(rngs)`` rows of n triplet increments.

    ``totals`` include every jump; ``big_jump_sums`` collect each
    particle's jumps with |amplitude| > ``level``, and are 0 when ``level``
    is None, so ``totals - big_jump_sums`` is the truncated increment.
    """
    rows = len(rngs)
    sd = math.sqrt(spec.gaussian_a * dt)
    normal = np.empty((rows, n))
    # (measure, mean jump count per step, counts, draws) of the band, then
    # of the big jumps, each if its rate is positive
    parts = [(measure, rate * dt, np.empty((rows, n), dtype=np.int64), [])
             for measure, rate in ((spec.band, spec.band_rate),
                                   (spec.big_jumps, spec.big_rate)) if rate > 0.0]
    for row, rng in enumerate(rngs):
        if sd > 0.0:
            rng.standard_normal(out=normal[row])
        for measure, lam, counts, draws in parts:
            counts[row] = rng.poisson(lam, n)
            k = int(np.add.reduce(counts[row]))
            if k:
                draws.append(measure.draw(rng, k))
    totals = np.full((rows, n), spec.drift_b * dt)
    if sd > 0.0:
        totals += sd * normal
    big_sums = np.zeros((rows, n))
    for measure, _, counts, draws in parts:
        if not draws:
            continue
        # particle i of row r owns bin r * n + i; its jumps arrive in the
        # order the row drew them, so each bin sums as in a one-row call
        owners = np.repeat(np.arange(rows * n), counts.ravel())
        amps = measure.amplitudes(np.concatenate(draws, axis=-1))
        totals += np.bincount(owners, weights=amps, minlength=rows * n).reshape(rows, n)
        if measure is spec.big_jumps and level is not None:
            over = np.abs(amps) > level
            big_sums = np.bincount(owners[over], weights=amps[over],
                                   minlength=rows * n).reshape(rows, n)
    return totals, big_sums


def truncated_stable_triplet(spec, level):
    """Triplet representation of the stable driver with jumps > level removed.

    The density K|y|^(-1-alpha) is kept exactly on DELTA < |y| <= level,
    as a band up to 1 and big jumps above; the jumps below DELTA become a
    Gaussian of the same variance, 2K DELTA^(2-alpha)/(2-alpha)
    (Asmussen & Rosinski 2001).  For alpha = 2 the driver has no jumps and
    is returned unchanged.
    """
    if spec.alpha == 2.0:
        return spec
    if not level > 1.0:
        raise ValueError("truncation level must exceed 1 for this construction")
    alpha = spec.alpha
    levy_k = levy_constant_from_cf_constant(spec.scale, alpha)
    return LevyTripletSpec(gaussian_a=2.0 * levy_k * DELTA ** (2.0 - alpha) / (2.0 - alpha),
                           band=_PowerJumps(levy_k, alpha, DELTA, 1.0, by_halves=True),
                           big_jumps=_PowerJumps(levy_k, alpha, 1.0, level))


def sample_increment_array(driver, dt, n, rng, truncation=None):
    """Per-particle increments over a step of length dt, truncation applied.

    ``rng`` is one generator, for an array of n increments, or a sequence
    of generators, one per row of a ``(len(rng), n)`` array; row r is bit
    for bit what ``rng[r]`` alone gives, so the rows of lockstep runs are
    sampled in one call.

    Stable drivers are drawn exactly in law: one uniform and one
    exponential variate per increment are pushed through the polar
    transform, then scaled by (scale*dt)^(1/alpha).  The transform's sines
    and cosines are evaluated by the half-angle tangent, to double-precision
    roundoff; its speed depends on numpy's ``tan`` being SIMD-dispatched,
    which float64 ``sin`` and ``cos`` need not be.  A finite truncation on a
    stable driver must be materialized first with
    :func:`truncated_stable_triplet` (the engine does this once at
    configuration time).  A triplet driver's increments drop, per particle,
    the big jumps above a finite truncation level.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    _check_truncation(truncation)
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    level = truncation if truncation is not None and np.isfinite(truncation) else None
    if isinstance(driver, StableDriverSpec):
        if level is not None and driver.alpha < 2.0:
            raise ValueError("truncated stable sampling requires the triplet form; "
                             "build it once with truncated_stable_triplet()")
        totals = _stable_rows(driver, dt, n, rngs)
    else:
        totals, big_sums = _triplet_rows(driver, dt, n, rngs, level)
        if level is not None:
            totals -= big_sums
    return totals[0] if rngs is not rng else totals


def cf(*, alphas, scale, n_samples, xi_grid, tolerance, seed):
    """The CF battery: per alpha, the sup over ``xi_grid`` of the gap between
    the empirical CF of ``n_samples`` unit-step stable increments and
    exp(-scale |xi|^alpha), at most ``tolerance``."""
    xi = np.asarray(xi_grid)
    rows, checks = [], []
    for i, alpha in enumerate(alphas):
        spec = StableDriverSpec(alpha=alpha, scale=scale)
        z = sample_increment_array(spec, 1.0, n_samples, substream(seed, 10, i))
        gap = _cf_gap(z, xi, np.exp(-scale * np.abs(xi) ** alpha))
        rows.append({"alpha": alpha, "max_abs_cf_gap": gap})
        checks.append(CheckResult(f"cf_gap_{i}", gap, tolerance))
    return {"tolerance": tolerance, "rows": rows}, checks


def _self_similarity(*, alphas, n_samples, dt, level, seed):
    """The self-similarity battery: per alpha, the two-sample KS p-value of
    ``n_samples`` increments over ``dt`` scaled by dt^(-1/alpha) against
    unit-step ones, above ``level``."""
    from scipy.stats import ks_2samp  # scipy.stats is slow to import; only this reads it
    rows, checks = [], []
    for i, alpha in enumerate(alphas):
        spec = StableDriverSpec(alpha=alpha, scale=1.0)
        a = sample_increment_array(spec, dt, n_samples,
                                   substream(seed, 20, i)) / dt ** (1.0 / alpha)
        b = sample_increment_array(spec, 1.0, n_samples, substream(seed, 21, i))
        p = float(ks_2samp(a, b).pvalue)
        rows.append({"alpha": alpha, "ks_pvalue": p})
        checks.append(CheckResult(f"ks_pvalue_{i}", p, level, ">"))
    return rows, checks


# the gaussian_moments battery's limits on |variance - 2 scale| and |kurtosis - 3|
GAUSSIAN_VARIANCE_GAP = 0.02
GAUSSIAN_KURTOSIS_GAP = 0.05


def _gaussian_moments(*, scale, n_samples, seed):
    """The Gaussian-endpoint battery: ``n_samples`` alpha = 2 increments have
    variance 2 scale and kurtosis 3."""
    z = sample_increment_array(StableDriverSpec(alpha=2.0, scale=scale), 1.0, n_samples,
                               substream(seed, 30))
    var = float(np.var(z))
    kurt = float(np.mean(z ** 4) / var ** 2)
    return {"variance": var, "expected": 2.0 * scale, "kurtosis": kurt}, [
        CheckResult("gaussian_variance", abs(var - 2.0 * scale), GAUSSIAN_VARIANCE_GAP, "<"),
        CheckResult("gaussian_kurtosis", abs(kurt - 3.0), GAUSSIAN_KURTOSIS_GAP, "<")]


def _step_count(horizon, dt):
    """Whole steps of about ``dt`` covering ``horizon``, at least one.

    The one rule by which the particle engine and the spectral solver snap
    a horizon to their time grid; the step actually taken is
    ``horizon / _step_count(horizon, dt)``.  A count too large to be a
    finite number raises ``ValueError``.
    """
    count = horizon / dt
    if not math.isfinite(count):
        raise ValueError(f"horizon {horizon!r} over dt {dt!r} is not a finite step count")
    return max(1, int(round(count)))
