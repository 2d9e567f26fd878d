"""Sampling of Levy-process increments.

Each kind of driver is a class that carries its own sampler, its own cut
and its own step check: ``rows(dt, n, rngs)``, ``within(level)`` and
``check_step(dt, n)``.

* :class:`StableDriverSpec`, symmetric alpha-stable, is drawn exactly via
  the polar (Chambers-Mallows-Stuck) transform; its cut is the triplet
  built in closed form, its jumps below ``DELTA`` replaced by a
  variance-matched Gaussian.
* :class:`LevyTripletSpec`, given by a characteristic triplet, is
  assembled per step as drift + diffusion + the jumps of one finite jump
  measure, drawn as a compound-Poisson block; its cut restricts that
  measure.

No code asks which kind a driver is.  :func:`truncated` removes the jumps
above a level ``N`` from a driver's Levy measure, which turns a
heavy-tailed driver into a square-integrable one, by calling ``within``;
the cut is made once, on the driver, and sampling only ever draws the
driver it is given.  :func:`sample_increment_array` takes one generator,
for one array of increments, or one generator per row of lockstep runs,
and calls ``rows``.  Each row draws its variates from its own generator,
in the order it would draw them alone; the transforms to increments and
the per-particle jump sums then run once on all rows.  So a row's
increments do not depend on the other rows, and a one-row call gives the
bits of the same row drawn beside others.  The stable transform's sines
and cosines come from the half-angle tangent, through the one helper that
the sine kernel and the empirical CF gap use too,
:func:`levymv.measures._sin_cos_of_half_tan`.

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

from .measures import _cf_gap, _sin_cos_of_half_tan
from .perturbation import CheckResult
from .rng import substream

__all__ = [
    "StableDriverSpec",
    "LevyTripletSpec",
    "JumpAtoms",
    "sample_increment_array",
    "truncated",
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

    def rows(self, dt, n, rngs):
        """``len(rngs)`` rows of n increments over dt, exact in law.

        Each row draws n uniforms, then n exponentials, from its own
        generator; the polar transform maps them to increments, scaled by
        (scale*dt)^(1/alpha).  The transform's sines and cosines are
        evaluated by the half-angle tangent, to double-precision roundoff;
        its speed depends on numpy's ``tan`` being SIMD-dispatched, which
        float64 ``sin`` and ``cos`` need not be.
        """
        u, w = np.empty((len(rngs), n)), np.empty((len(rngs), n))
        for row, rng in enumerate(rngs):
            u[row] = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
            rng.standard_exponential(out=w[row])
        return _standard_symmetric_stable(self.alpha, u, w,
                                          (self.scale * dt) ** (1.0 / self.alpha))

    def within(self, level):
        """The driver without its jumps above ``level``, which must exceed 1.

        The triplet whose one jump measure is the density K|y|^(-1-alpha)
        kept exactly on DELTA < |y| <= level, with the jumps below DELTA
        replaced by a Gaussian of the same variance,
        2K DELTA^(2-alpha)/(2-alpha) (Asmussen & Rosinski 2001).  At
        alpha = 2 there are no jumps to cut, and the driver is its own cut.
        """
        if self.alpha == 2.0:
            return self
        if not level > 1.0:
            raise ValueError("truncation level must exceed 1 for this construction")
        alpha, levy_k = self.alpha, levy_constant_from_cf_constant(self.scale, self.alpha)
        return LevyTripletSpec(gaussian_a=2.0 * levy_k * DELTA ** (2.0 - alpha) / (2.0 - alpha),
                               jumps=_PowerJumps(levy_k, alpha, DELTA, level))

    def check_step(self, dt, n):
        """Nothing to check: a row draws 2n variates at any ``dt``."""


# pi/4 as the double math.pi/4 plus the rest, so pi/4 - |x|/2 keeps its
# relative accuracy as |x| -> pi/2
_QUARTER_PI_LO = 3.061616997868383e-17


def _sin_of_double(h, scratch):
    """sin 2h, in place on h, for |h| < pi/2."""
    return _sin_cos_of_half_tan(np.tan(h, out=h), cos=False, out=h, scratch=scratch)


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


class JumpAtoms:
    """Finite jump measure made of atoms [(position, rate), ...], |position| > 1,
    each position and rate finite.

    Like every jump measure of a :class:`LevyTripletSpec`, it has a
    ``total_rate``; ``amplitudes(v)`` maps uniforms v on [0, 1), one per
    jump, elementwise to jump amplitudes distributed as the measure
    normalized by its total rate; and ``within(level)`` is the measure
    restricted to |y| <= level, None when nothing is left.
    """

    def __init__(self, atoms):
        atoms = tuple((float(y), float(r)) for y, r in atoms)
        for y, r in atoms:
            if not 1.0 < abs(y) < math.inf:
                raise ValueError(f"big-jump atoms must sit at a finite |y| > 1, got {y}")
            if not 0.0 < r < math.inf:
                raise ValueError(f"atom rates must be positive and finite, got {r}")
        self.atoms = atoms
        self._positions = np.array([y for y, _ in atoms])
        self._cumulative = np.cumsum([r for _, r in atoms])
        self.total_rate = float(self._cumulative[-1])

    def amplitudes(self, v):
        """The first atom whose cumulative rate exceeds v * total_rate."""
        picked = np.searchsorted(self._cumulative, v * self.total_rate, side="right")
        return self._positions[np.minimum(picked, len(self.atoms) - 1)]

    def within(self, level):
        kept = [(y, r) for y, r in self.atoms if abs(y) <= level]
        return JumpAtoms(kept) if kept else None


class _PowerJumps:
    """Symmetric finite jump measure K|y|^(-1-alpha) on lo < |y| <= hi.

    Its total rate and inverse CDF are closed forms: a fraction w of the
    one-sided mass lies below |y| = (lo^-a - w (lo^-a - hi^-a))^(-1/a).
    A uniform v gives its jump by halves: v below 1/2 the positive jump at
    w = 2v, and v above it the negative jump at w = 2v - 1.
    """

    def __init__(self, levy_k, alpha, lo, hi):
        self.levy_k = levy_k
        self.alpha = alpha
        self.lo = lo
        self.hi = hi
        self.total_rate = 2.0 * levy_k * (lo ** -alpha - hi ** -alpha) / alpha

    def within(self, level):
        """The same density on lo < |y| <= min(hi, level)."""
        return _PowerJumps(self.levy_k, self.alpha, self.lo,
                           min(self.hi, level)) if level > self.lo else None

    def amplitudes(self, v):
        a, lo_a = self.alpha, self.lo ** -self.alpha
        w = 2.0 * v
        negative = w >= 1.0
        w -= negative
        w *= self.hi ** -a - lo_a
        w += lo_a
        np.power(w, -1.0 / a, out=w)
        return np.negative(w, out=w, where=negative)


# Generator.poisson rejects a mean above this (numpy's POISSON_LAM_MAX)
_POISSON_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


class LevyTripletSpec:
    """Driver specified by (gaussian_a, drift_b, jump measure).

    ``gaussian_a`` is finite and nonnegative and ``drift_b`` finite.  The
    jump measure, ``jumps``, is optional and finite, and needs no
    compensator: atoms on |y| > 1 (:class:`JumpAtoms`), or the power law
    that :meth:`StableDriverSpec.within` builds, symmetric about 0.  Its
    ``total_rate`` is the driver's ``jump_rate`` (0 without jumps); it
    maps uniforms to amplitudes and restricts itself by ``within`` (see
    :class:`JumpAtoms`).
    """

    def __init__(self, gaussian_a=0.0, drift_b=0.0, jumps=None):
        if not 0.0 <= gaussian_a < math.inf:
            raise ValueError(f"gaussian_a must be finite and nonnegative, got {gaussian_a}")
        if not math.isfinite(drift_b):
            raise ValueError(f"drift_b must be finite, got {drift_b}")
        self.gaussian_a = float(gaussian_a)
        self.drift_b = float(drift_b)
        self.jumps = jumps
        self.jump_rate = 0.0 if jumps is None else jumps.total_rate

    def rows(self, dt, n, rngs):
        """``len(rngs)`` rows of n increments over dt, assembled from the parts.

        Each row makes three calls on its own generator: its n normals, a
        Poisson total k of mean n * jump_rate * dt, and one ``(2, k)``
        uniform block whose first row places each jump on particle
        floor(u n) and whose second gives its amplitude, every jump of the
        measure included.  By the colouring theorem (Kingman 1993) the
        particles' counts are then independent Poisson of mean
        jump_rate * dt.
        """
        rows = len(rngs)
        sd = math.sqrt(self.gaussian_a * dt)
        lam = self.jump_rate * dt * n
        normal = np.empty((rows, n))
        blocks = []
        for row, rng in enumerate(rngs):
            if sd > 0.0:
                rng.standard_normal(out=normal[row])
            if lam > 0.0:
                blocks.append(rng.random((2, rng.poisson(lam))))
        totals = np.full((rows, n), self.drift_b * dt)
        if sd > 0.0:
            totals += sd * normal
        if blocks:
            u = np.concatenate(blocks, axis=1)
            # particle i of row r owns bin r * n + i; its jumps arrive in the
            # order the row drew them, so each bin sums as in a one-row call
            owners = np.minimum(u[0] * n, n - 1).astype(np.intp)
            owners += np.repeat(np.arange(0, rows * n, n), [b.shape[1] for b in blocks])
            amps = self.jumps.amplitudes(u[1])
            totals += np.bincount(owners, weights=amps, minlength=rows * n).reshape(rows, n)
        return totals

    def within(self, level):
        """The driver without its jumps above ``level``.

        The Gaussian part and drift stay, and the jump measure restricts
        itself (``within``): atoms above the level go, a power law lowers
        its upper edge.  Big jumps carry no compensator, so removing them
        from the measure gives the law that removing them from each path
        gives.
        """
        return LevyTripletSpec(self.gaussian_a, self.drift_b,
                               self.jumps and self.jumps.within(level))

    def check_step(self, dt, n):
        """``ValueError`` unless a row of ``n`` particles has a mean jump count
        per step of ``dt`` that ``Generator.poisson`` can draw: finite and at
        most ``_POISSON_MAX``."""
        mean = self.jump_rate * dt * n
        if not mean <= _POISSON_MAX:
            raise ValueError(f"its jump rate {self.jump_rate:.6g} gives a mean jump count of "
                             f"{mean:.6g} per step of {dt:.6g} over {n} particles, above the "
                             f"{_POISSON_MAX:.6g} that a Poisson draw takes")


def _check_truncation(level):
    if level is None:
        return
    if isinstance(level, bool) or not isinstance(level, numbers.Real):
        raise ValueError(f"truncation level must be a number, got {level!r}")
    if not level > 0.0:
        raise ValueError(f"truncation level must be positive or inf, got {level}")


def truncated(driver, level):
    """``driver`` with its Levy measure restricted to |y| <= ``level``.

    A level of None or inf gives the driver itself; any other positive
    level is the driver's own cut, ``driver.within(level)``.
    """
    _check_truncation(level)
    if level is None or math.isinf(level):
        return driver
    return driver.within(level)


def sample_increment_array(driver, dt, n, rng):
    """Per-particle increments of ``driver`` over a step of length dt.

    ``rng`` is one generator, for an array of n increments, or a sequence
    of generators, one per row of a ``(len(rng), n)`` array; row r is bit
    for bit what ``rng[r]`` alone gives, so the rows of lockstep runs are
    sampled in one call.  The driver draws the rows, by its ``rows``; a
    truncated driver is cut beforehand, by :func:`truncated`.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    totals = driver.rows(dt, n, rngs)
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
