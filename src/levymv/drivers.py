"""Sampling of Levy-process increments.

Three layers:

* exact symmetric alpha-stable increments via the polar
  (Chambers-Mallows-Stuck) transform,
* general drivers specified by a characteristic triplet, assembled per
  step as drift + diffusion + compensated mid-size jumps + big jumps,
  with jumps below a cutoff ``delta`` replaced by a variance-matched
  Gaussian (or dropped),
* pathwise removal of the big jumps above a level ``N``, which turns a
  heavy-tailed driver into a square-integrable one.

Scale convention for the stable family: ``scale`` is the characteristic
function constant, one increment over ``dt`` has CF
``exp(-scale * dt * |xi|**alpha)``.  The equivalent jump-density constant
``K`` in ``K |y|**(-1-alpha)`` is related through
``scale = K * pi / (gamma(1+alpha) * sin(pi*alpha/2))``; both directions
are exposed below so the two parameterizations can be converted
explicitly instead of guessed.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StableDriverSpec",
    "LevyTripletSpec",
    "JumpAtoms",
    "JumpDensity",
    "sample_stable_increment",
    "sample_triplet_increments",
    "sample_increment_array",
    "truncated_stable_triplet",
    "cf_constant_from_levy_constant",
    "levy_constant_from_cf_constant",
]


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
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def second_moment_rate(self):
        """Var(Z_t)/t, finite only for the Gaussian endpoint alpha = 2."""
        if self.alpha == 2.0:
            return 2.0 * self.scale
        return math.inf


def _standard_symmetric_stable(alpha, u, w):
    # u uniform on (-pi/2, pi/2), w unit exponential; CF exp(-|xi|^alpha).
    if alpha == 2.0:
        return 2.0 * np.sin(u) * np.sqrt(w)
    t = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    return t * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)


def sample_stable_increment(spec, dt, rng, size=None):
    """Draw increment(s) of the stable driver over a step of length dt.

    Exact in law: one uniform and one exponential variate per draw are
    pushed through the polar transform, then scaled by (scale*dt)^(1/alpha).
    Returns a scalar when ``size`` is None, else an array of that shape.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n = 1 if size is None else size
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = rng.standard_exponential(n)
    z = (spec.scale * dt) ** (1.0 / spec.alpha) * _standard_symmetric_stable(spec.alpha, u, w)
    if size is None:
        return float(z[0])
    return z


class JumpAtoms:
    """Finite jump measure made of atoms [(position, rate), ...], |position| > 1."""

    def __init__(self, atoms):
        atoms = tuple((float(y), float(r)) for y, r in atoms)
        for y, r in atoms:
            if abs(y) <= 1.0:
                raise ValueError("big-jump atoms must sit at |y| > 1")
            if r <= 0.0:
                raise ValueError("atom rates must be positive")
        self.atoms = atoms
        self.total_rate = sum(r for _, r in atoms)

    def sample(self, rng, size):
        if not self.atoms:
            return np.empty(0)
        positions = np.array([y for y, _ in self.atoms])
        rates = np.array([r for _, r in self.atoms])
        idx = rng.choice(len(positions), size=size, p=rates / rates.sum())
        return positions[idx]


class JumpDensity:
    """Finite jump measure with a density on 1 < |y| <= y_max.

    A cumulative table built at construction provides inverse-CDF
    sampling.  An analytic ``sampler(rng, size)`` may be supplied
    instead, together with the measure's ``total_rate``; no table is
    built then.
    """

    def __init__(self, density, y_max, table_size=4096, sampler=None, total_rate=None):
        if not y_max > 1.0:
            raise ValueError("y_max must exceed 1")
        if (sampler is None) != (total_rate is None):
            raise ValueError("an analytic sampler and its total_rate go together")
        self.density = density
        self.y_max = float(y_max)
        self._sampler = sampler
        if sampler is None:
            grid = np.geomspace(1.0, self.y_max, table_size)
            pos = np.asarray([max(density(y), 0.0) for y in grid])
            neg = np.asarray([max(density(-y), 0.0) for y in grid])
            pos_cum = np.concatenate(
                [[0.0], np.cumsum(0.5 * (pos[1:] + pos[:-1]) * np.diff(grid))])
            neg_cum = np.concatenate(
                [[0.0], np.cumsum(0.5 * (neg[1:] + neg[:-1]) * np.diff(grid))])
            self._grid = grid
            self._pos_cum = pos_cum
            self._neg_cum = neg_cum
            total_rate = pos_cum[-1] + neg_cum[-1]
        self.total_rate = float(total_rate)
        if not np.isfinite(self.total_rate):
            raise ValueError("big-jump density has non-finite mass on (1, y_max]")

    def sample(self, rng, size):
        if self._sampler is not None:
            return self._sampler(rng, size)
        u = rng.uniform(0.0, self.total_rate, size)
        out = np.empty(size)
        on_pos = u < self._pos_cum[-1]
        out[on_pos] = np.interp(u[on_pos], self._pos_cum, self._grid)
        rest = u[~on_pos] - self._pos_cum[-1]
        out[~on_pos] = -np.interp(rest, self._neg_cum, self._grid)
        return out


def _shell_integral(fn, lo, hi, points_per_shell=64):
    """Trapezoid integral of fn on [lo, hi] over geometric shells (lo > 0)."""
    if hi <= lo:
        return 0.0
    n_shell = max(1, int(math.ceil(math.log(hi / lo) / math.log(2.0))))
    edges = np.geomspace(lo, hi, n_shell * points_per_shell + 1)
    vals = np.asarray([fn(y) for y in edges])
    return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(edges)))


def _head_integral(fn, hi, n_shells=46):
    """int_0^hi of an integrable power-like fn: dyadic shells down to
    hi*2^-n_shells, remainder extrapolated geometrically from the last
    shell ratio.  Returns (value, shells) so callers can also judge
    convergence; raises if the shell sums do not converge."""
    shells = np.array([_shell_integral(fn, hi * 2.0 ** -(k + 1), hi * 2.0 ** -k, 24)
                       for k in range(n_shells)])
    if not np.all(np.isfinite(shells)):
        raise ValueError("shell quadrature produced non-finite values near 0")
    total = float(shells.sum())
    if shells[-2] > 0.0 and shells[-1] > 0.0:
        r = shells[-1] / shells[-2]
        if r >= 0.97:
            raise ValueError("integral does not converge at the origin "
                             f"(shell ratio {r:.3f})")
        total += float(shells[-1]) * r / (1.0 - r)
    return total, shells


class LevyTripletSpec:
    """Driver specified by (gaussian_a, drift_b, jump measure).

    The jump measure splits into an evaluatable density ``beta1`` on
    [-1, 1] and a finite big-jump part on |y| > 1.  Jumps below
    ``delta`` are replaced according to ``small_jump_scheme``:
    ``"gaussian"`` substitutes a Gaussian with the matching variance,
    ``"drop"`` discards them (both keep the increment centered, the
    density is assumed symmetric enough that the sub-delta compensator
    is negligible; the delta..1 band is compensated exactly).

    Construction integrates ``(1 ^ y^2) beta(dy)`` numerically and
    rejects specs for which it does not converge, as well as ``delta``
    choices whose mid-band intensity is not finite-computable.
    """

    def __init__(self, gaussian_a=0.0, drift_b=0.0, small_jump_density=None,
                 big_jumps=None, delta=0.1, small_jump_scheme="gaussian",
                 table_size=4096):
        if gaussian_a < 0.0:
            raise ValueError("gaussian coefficient must be nonnegative")
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if small_jump_scheme not in ("gaussian", "drop"):
            raise ValueError("small_jump_scheme must be 'gaussian' or 'drop'")
        self.gaussian_a = float(gaussian_a)
        self.drift_b = float(drift_b)
        self.small_jump_density = small_jump_density
        self.big_jumps = big_jumps
        self.delta = float(delta)
        self.small_jump_scheme = small_jump_scheme

        beta1 = small_jump_density
        if beta1 is None:
            self.small_jump_var = 0.0
            self.mid_rate = 0.0
            self.mid_compensator = 0.0
            self._mid_grid = None
        else:
            # int_{|y|<=delta} y^2 beta1(y) dy; _head_integral also verifies
            # that int (1 ^ y^2) beta(dy) converges at the origin
            self.small_jump_var, _ = _head_integral(
                lambda y: y * y * (beta1(y) + beta1(-y)), delta)
            if delta < 1.0:
                grid = np.geomspace(delta, 1.0, table_size)
                pos = np.asarray([max(beta1(y), 0.0) for y in grid])
                neg = np.asarray([max(beta1(-y), 0.0) for y in grid])
                pos_cum = np.concatenate(
                    [[0.0], np.cumsum(0.5 * (pos[1:] + pos[:-1]) * np.diff(grid))])
                neg_cum = np.concatenate(
                    [[0.0], np.cumsum(0.5 * (neg[1:] + neg[:-1]) * np.diff(grid))])
                self.mid_rate = float(pos_cum[-1] + neg_cum[-1])
                self.mid_compensator = float(
                    np.trapezoid(grid * pos, grid) - np.trapezoid(grid * neg, grid))
                self._mid_grid = grid
                self._mid_pos_cum = pos_cum
                self._mid_neg_cum = neg_cum
            else:
                self.mid_rate = 0.0
                self.mid_compensator = 0.0
                self._mid_grid = None
            if not (np.isfinite(self.mid_rate) and np.isfinite(self.small_jump_var)):
                raise ValueError("mid-band intensity not finite-computable for this delta")
        self.big_rate = 0.0 if big_jumps is None else big_jumps.total_rate

    def _sample_mid(self, rng, size):
        u = rng.uniform(0.0, self.mid_rate, size)
        out = np.empty(size)
        on_pos = u < self._mid_pos_cum[-1]
        out[on_pos] = np.interp(u[on_pos], self._mid_pos_cum, self._mid_grid)
        rest = u[~on_pos] - self._mid_pos_cum[-1]
        out[~on_pos] = -np.interp(rest, self._mid_neg_cum, self._mid_grid)
        return out


def _check_truncation(level):
    if level is not None and not level > 0.0:
        raise ValueError(f"truncation level must be positive or inf, got {level}")


def sample_triplet_increments(spec, dt, n, rng, truncation=None):
    """Vectorized triplet increments for n particles over one step.

    Returns (totals, big_jump_sums) where big_jump_sums[i] collects this
    particle's jumps with |amplitude| > truncation (0 when truncation is
    None or inf); totals always include every jump, so
    ``totals - big_jump_sums`` is the truncated-driver increment.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    _check_truncation(truncation)
    totals = np.full(n, spec.drift_b * dt)
    small_var = spec.gaussian_a * dt
    if spec.small_jump_scheme == "gaussian":
        small_var += spec.small_jump_var * dt
    if small_var > 0.0:
        totals += math.sqrt(small_var) * rng.standard_normal(n)
    if spec.mid_rate > 0.0:
        counts = rng.poisson(spec.mid_rate * dt, n)
        k = int(counts.sum())
        if k:
            amps = spec._sample_mid(rng, k)
            owners = np.repeat(np.arange(n), counts)
            totals += np.bincount(owners, weights=amps, minlength=n)
        totals -= spec.mid_compensator * dt
    big_sums = np.zeros(n)
    if spec.big_rate > 0.0:
        counts = rng.poisson(spec.big_rate * dt, n)
        k = int(counts.sum())
        if k:
            amps = spec.big_jumps.sample(rng, k)
            owners = np.repeat(np.arange(n), counts)
            totals += np.bincount(owners, weights=amps, minlength=n)
            if truncation is not None and np.isfinite(truncation):
                over = np.abs(amps) > truncation
                if over.any():
                    big_sums += np.bincount(owners[over], weights=amps[over], minlength=n)
    return totals, big_sums


def truncated_stable_triplet(spec, level, delta=0.05):
    """Triplet representation of the stable driver with jumps > level removed.

    Exact at the level of the Levy measure: the density K|y|^(-1-alpha)
    is kept on |y| <= 1 (sub-``delta`` part Gaussian-matched), carried as
    a finite measure on 1 < |y| <= level, and cut above ``level``.  For
    alpha = 2 the driver has no jumps and is returned unchanged.
    """
    if spec.alpha == 2.0:
        return spec
    if not level > 1.0:
        raise ValueError("truncation level must exceed 1 for this construction")
    alpha = spec.alpha
    levy_k = levy_constant_from_cf_constant(spec.scale, alpha)
    beta1 = lambda y: levy_k * abs(y) ** (-1.0 - alpha) if y != 0.0 else math.inf

    tail_rate_one_side = levy_k * (1.0 - level ** -alpha) / alpha

    def tail_sampler(rng, size):
        u = rng.uniform(0.0, 1.0, size)
        mag = (1.0 - u * (1.0 - level ** -alpha)) ** (-1.0 / alpha)
        sign = np.where(rng.uniform(0.0, 1.0, size) < 0.5, 1.0, -1.0)
        return sign * mag

    big = JumpDensity(lambda y: levy_k * abs(y) ** (-1.0 - alpha),
                      y_max=level, sampler=tail_sampler,
                      total_rate=2.0 * tail_rate_one_side)
    return LevyTripletSpec(gaussian_a=0.0, drift_b=0.0, small_jump_density=beta1,
                           big_jumps=big, delta=delta, small_jump_scheme="gaussian")


def sample_increment_array(driver, dt, n, rng, truncation=None):
    """Per-particle increments for one engine step, truncation applied.

    Stable drivers are drawn exactly; a finite truncation on a stable
    driver must be materialized first with :func:`truncated_stable_triplet`
    (the engine does this once at configuration time).
    """
    if isinstance(driver, StableDriverSpec):
        _check_truncation(truncation)
        if truncation is not None and np.isfinite(truncation) and driver.alpha < 2.0:
            raise ValueError("truncated stable sampling requires the triplet form; "
                             "build it once with truncated_stable_triplet()")
        return sample_stable_increment(driver, dt, rng, size=n)
    totals, big_sums = sample_triplet_increments(driver, dt, n, rng, truncation=truncation)
    if truncation is not None and np.isfinite(truncation):
        return totals - big_sums
    return totals
