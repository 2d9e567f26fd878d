"""Jump-amplitude perturbation profile and its admissibility battery.

The absolute-continuity machinery shifts small jump amplitudes by a
C^1, even, nonnegative profile that vanishes at the band edges and is
small enough that the shifted jump density stays comparable to the
original.  This module carries the explicit three-piece profile (power
growth near zero, a C^1 blending piece, linear decay to the edge) and
verifies numerically, for the stable-band density
beta1(y) = K |y|^(-1-alpha) on [-1, 1], every condition the
construction needs:

* exact vanishing at |y| = 1 and C^1 patching at the knots,
* the three closed-form sup bounds on the profile, its derivative and
  profile/|y|,
* the absolute small-ness thresholds |k| and |k'| < 1/(4(1+K1)),
* convergence of int k^2 beta1 under grid refinement, with the
  singularity at 0 handled through its analytic exponent,
* the shifted-density ratio bound (<= 1/2 uniformly over displacement
  size and slope parameters), together with square-integrability spot
  checks of the logarithmic-derivative and second-derivative integrands.

Each condition is a :class:`CheckResult`, a value against a limit, whose
verdict and margin come from that one comparison; a composite condition
is one check per comparison it makes.
"""

import operator
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PerturbationParams",
    "perturbation_profile",
    "perturbation_profile_deriv",
    "verify_h1",
    "CheckResult",
]


@dataclass(frozen=True)
class PerturbationParams:
    """Shape parameters of the profile and the band density it is tested on.

    ``gamma`` must exceed alpha/2 so that k^2 beta1 is integrable at the
    origin; ``eps`` fixes the knots at eps and 2*eps; ``k1_bound`` is the
    Lipschitz bound of the coefficient's x-derivative entering the
    smallness thresholds; ``levy_k``, the band density's constant K, must
    be above 0.  Every parameter is finite.  ``c_coeff`` is the unique
    blending constant that makes the profile vanish exactly at the band
    edge.
    """

    gamma: float
    eps: float
    alpha: float
    k1_bound: float = 1.0
    levy_k: float = 1.0
    c_coeff: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if not self.alpha / 2.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must exceed alpha/2 = {self.alpha / 2.0} and be finite, "
                             f"got {self.gamma!r}")
        if not 0.0 < self.eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")
        if not 0.0 <= self.k1_bound < np.inf:
            raise ValueError(f"k1_bound must be nonnegative and finite, got {self.k1_bound!r}")
        if not 0.0 < self.levy_k < np.inf:
            raise ValueError(f"levy_k must be above 0 and finite, got {self.levy_k!r}")
        g, e = self.gamma, self.eps
        c = (1.0 + g) * e / ((1.0 + g) - e * (1.0 + 2.0 * g))
        if not (np.isfinite(c) and c > 0.0):
            raise ValueError(f"the blending constant of gamma = {g!r} and eps = {e!r} is not "
                             "finite and positive")
        object.__setattr__(self, "c_coeff", c)
        if perturbation_profile(1.0, self) != 0.0:
            raise AssertionError("profile must vanish exactly at the band edge")

    def band_density(self, y):
        return self.levy_k * np.abs(y) ** (-1.0 - self.alpha)


def perturbation_profile(y, params):
    """The even three-piece profile on [-1, 1].

    y^(1+gamma) on [0, eps]; a C^1 concave blend on [eps, 2 eps]; then
    linear decay written as c (1+gamma) eps^gamma (1 - y), which is
    algebraically identical to the blend's continuation and hits zero at
    y = 1 exactly (no cancellation).
    """
    y_arr = np.abs(np.asarray(y, dtype=float))
    if np.any(y_arr > 1.0):
        raise ValueError("profile is only defined on [-1, 1]")
    g, e, c = params.gamma, params.eps, params.c_coeff
    out = np.empty_like(y_arr)
    a = y_arr <= e
    b = (y_arr > e) & (y_arr <= 2.0 * e)
    d = y_arr > 2.0 * e
    out[a] = y_arr[a] ** (1.0 + g)
    yb = y_arr[b]
    out[b] = e ** (1.0 + g) + (1.0 + g) * e ** g * (yb - e) \
        - (1.0 + c) * (yb - e) ** (1.0 + g)
    out[d] = c * (1.0 + g) * e ** g * (1.0 - y_arr[d])
    if np.ndim(y) == 0:
        return float(out)
    return out


def perturbation_profile_deriv(y, params):
    """Analytic derivative; odd, with one-sided limits equal at the knots."""
    y_in = np.asarray(y, dtype=float)
    y_arr = np.abs(y_in)
    if np.any(y_arr > 1.0):
        raise ValueError("profile is only defined on [-1, 1]")
    g, e, c = params.gamma, params.eps, params.c_coeff
    out = np.empty_like(y_arr)
    a = y_arr <= e
    b = (y_arr > e) & (y_arr <= 2.0 * e)
    d = y_arr > 2.0 * e
    out[a] = (1.0 + g) * y_arr[a] ** g
    out[b] = (1.0 + g) * e ** g - (1.0 + c) * (1.0 + g) * (y_arr[b] - e) ** g
    out[d] = -c * (1.0 + g) * e ** g
    out = out * np.sign(y_in)
    if np.ndim(y) == 0:
        return float(out)
    return out


_SENSES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class CheckResult:
    """One gate: ``value sense limit``, with ``sense`` one of <=, <, >=, >.

    ``passed`` and ``margin`` both come from that one comparison.  The
    margin is limit - value for an upper limit and value - limit for a
    lower one, so it is >= 0 exactly when a non-strict check passes (and
    > 0 when a strict one does).  A NaN value fails every sense.
    """

    name: str
    value: float
    limit: float
    sense: str = "<="
    details: dict | None = None

    def __post_init__(self):
        if self.sense not in _SENSES:
            raise ValueError(f"sense must be one of {', '.join(_SENSES)}, got {self.sense!r}")

    @property
    def passed(self):
        return bool(_SENSES[self.sense](self.value, self.limit))

    @property
    def margin(self):
        return self.limit - self.value if self.sense[0] == "<" else self.value - self.limit

    def to_json_dict(self):
        return {"name": self.name, "value": self.value, "limit": self.limit,
                "sense": self.sense, "passed": self.passed, "margin": self.margin}


def _profile_sq_band_integral(params, resolution):
    """int_{-1}^{1} k^2 beta1 at a given grid resolution.

    The piece below eps is y^(2+2gamma-1-alpha), integrated analytically;
    the rest is trapezoid quadrature on a log-spaced grid.
    """
    g, e, a, K = params.gamma, params.eps, params.alpha, params.levy_k
    expo = 2.0 + 2.0 * g - a
    head = K * e ** expo / expo
    grid = np.geomspace(e, 1.0, resolution)
    vals = perturbation_profile(grid, params) ** 2 * params.band_density(grid)
    body = float(np.trapezoid(vals, grid))
    return 2.0 * (head + body)


def _displacement_ratio(y, a, lam, params):
    """|V - 1| / |lam| for the shifted band density, vectorized.

    V(y) = beta1(y + lam (1+a y) k(y)) / beta1(y) * (1 + lam (a k + (1+a y) k')).
    """
    k = perturbation_profile(y, params)
    kp = perturbation_profile_deriv(y, params)
    shift = y + lam * (1.0 + a * y) * k
    jac = 1.0 + lam * (a * k + (1.0 + a * y) * kp)
    ratio = np.abs(y / shift) ** (1.0 + params.alpha) * jac
    return np.abs(ratio - 1.0) / np.abs(lam)


def verify_h1(params, resolutions=(256, 512, 1024, 2048)):
    """Run the full admissibility battery, one :class:`CheckResult` per
    comparison; returns the payload and the checks.

    Each margin comes from the comparison that decides its check, in the
    natural units of that inequality: limit - value for an upper limit,
    value - limit for a lower one.  It is >= 0 exactly when a non-strict
    check passed, and > 0 when a strict one did.  A convergence study
    gives one check per comparison: each step down in its corrections,
    the last relative correction, and the finiteness of the last value.

    The payload holds the ``params`` (with the blending constant), whether
    ``all_passed``, and per check its name, verdict, margin and details.
    """
    g, e, c = params.gamma, params.eps, params.c_coeff
    a, k1 = params.alpha, params.k1_bound
    checks = []

    # exact zero at the band edge and knot values
    edge = perturbation_profile(1.0, params)
    checks.append(CheckResult(
        "vanishes_at_band_edge", abs(edge), 0.0,
        details={"value_at_1": edge, "value_at_minus_1": perturbation_profile(-1.0, params)}))
    knot = perturbation_profile(e, params)
    checks.append(CheckResult(
        "first_knot_value", abs(knot - e ** (1.0 + g)), 1e-15 * max(knot, 1e-300), "<",
        {"value": knot, "expected": e ** (1.0 + g)}))

    # C^1 patching: one-sided difference quotients at both knots
    h = 1e-7 * max(e, 1e-3)
    quot_details = {}
    worst = 0.0
    for name, knot_y in (("eps", e), ("two_eps", 2.0 * e)):
        right = (perturbation_profile(knot_y + h, params)
                 - perturbation_profile(knot_y, params)) / h
        left = (perturbation_profile(knot_y, params)
                - perturbation_profile(knot_y - h, params)) / h
        worst = max(worst, abs(right - left))
        quot_details[name] = {"left": left, "right": right}
    checks.append(CheckResult("c1_patching", worst, 1e-6, details=quot_details))

    # closed-form sup bounds on a fine grid, each with a 1e-12 relative allowance
    ygrid = np.concatenate([np.geomspace(1e-12, e, 2000),
                            np.linspace(e, 2.0 * e, 2000)[1:],
                            np.linspace(2.0 * e, 1.0, 2000)[1:]])
    kv = perturbation_profile(ygrid, params)
    kd = perturbation_profile_deriv(ygrid, params)
    sup_k, sup_kp = float(kv.max()), float(np.abs(kd).max())
    sup_over_y = float((kv / ygrid).max())
    bound_k = (2.0 + g) * e ** (1.0 + g)
    bound_kp = (1.0 + g) * max(1.0, c) * e ** g
    bound_ratio = (1.0 + g) * e ** g
    checks.append(CheckResult(
        "profile_nonnegative", float(kv.min()), 0.0, ">=", {"min": float(kv.min())}))
    checks.append(CheckResult(
        "sup_profile_bound", sup_k, bound_k * (1.0 + 1e-12),
        details={"sup": sup_k, "bound": bound_k}))
    # the derivative bound is attained exactly at the first knot
    checks.append(CheckResult(
        "sup_deriv_bound", sup_kp, bound_kp * (1.0 + 1e-12),
        details={"sup": sup_kp, "bound": bound_kp}))
    checks.append(CheckResult(
        "profile_over_y_bound", sup_over_y, bound_ratio * (1 + 1e-12),
        details={"sup": sup_over_y, "bound": bound_ratio}))

    # absolute smallness thresholds
    thresh = 1.0 / (4.0 * (1.0 + k1))
    checks.append(CheckResult(
        "profile_smallness", sup_k, thresh, "<", {"sup": sup_k, "threshold": thresh}))
    checks.append(CheckResult(
        "deriv_smallness", sup_kp, thresh, "<", {"sup": sup_kp, "threshold": thresh}))

    # eps below the closed-form sufficiency threshold (strict)
    eps_threshold = ((1.0 + k1) * (1.0 + g)) ** (-1.0 / g)
    checks.append(CheckResult(
        "eps_below_profile_threshold", e, eps_threshold, "<",
        {"eps": e, "threshold": eps_threshold,
         "note": "equality is flagged: the sufficiency estimate is strict"}))

    # square integral of the profile against the band density converges
    vals = [_profile_sq_band_integral(params, r) for r in resolutions]
    corrections = [abs(b - a_) for a_, b in zip(vals, vals[1:])]
    checks.append(CheckResult(
        "square_integral_converges", corrections[-1] / max(abs(vals[-1]), 1e-300), 1e-3,
        "<", {"values": vals, "corrections": corrections,
              "head_exponent": 2.0 + 2.0 * g - a}))
    checks += [CheckResult(f"square_integral_decreasing_r{r}", b, a_ * 0.9 + 1e-300)
               for r, a_, b in zip(resolutions[2:], corrections, corrections[1:])]
    # |value| <= the largest float exactly when the value is finite
    checks.append(CheckResult("square_integral_finite", abs(vals[-1]), sys.float_info.max))

    # shifted-density ratio bound, sampled over (y, a, lambda)
    ny, na, nl = 400, 21, 25
    ys = np.concatenate([np.geomspace(1e-10, e, ny // 2),
                         np.linspace(e, 1.0, ny - ny // 2)[1:]])
    avals = np.linspace(-k1, k1, na)
    lvals = np.concatenate([-np.geomspace(1e-3, 1.0, nl // 2)[::-1],
                            np.geomspace(1e-3, 1.0, nl - nl // 2)])
    ratio = _displacement_ratio(ys[:, None, None], avals[None, :, None],
                                lvals[None, None, :], params)
    sup_ratio = float(np.nanmax(ratio))
    checks.append(CheckResult(
        "displacement_ratio_bound", sup_ratio, 0.5,
        details={"sup": sup_ratio, "bound": 0.5,
                 "grid": {"y": ny, "a": na, "lambda": nl}}))

    # spot checks: the log-derivative and second-derivative integrands stay
    # square integrable against the band density (local exponent > -1)
    def _log_deriv_integrand(y):
        k = perturbation_profile(y, params)
        kp = perturbation_profile_deriv(y, params)
        worst_case = (np.abs((1.0 + a) / y * (1.0 + k1 * y) * k)
                      + k1 * k + (1.0 + k1 * y) * np.abs(kp))
        return worst_case ** 2 * params.band_density(y)

    grids = [np.geomspace(1e-10, 1.0, r) for r in resolutions]
    spot_vals = [2.0 * float(np.trapezoid(_log_deriv_integrand(grid), grid)) for grid in grids]
    spot_corr = [abs(b - a_) for a_, b in zip(spot_vals, spot_vals[1:])]
    exponent = 2.0 * g - a - 1.0  # local growth of the integrand at 0 is y^exponent
    checks.append(CheckResult(
        "log_deriv_integrand_square_integrable", exponent, -1.0, ">",
        {"values": spot_vals, "local_exponent": exponent}))
    checks.append(CheckResult(
        "log_deriv_integrand_converges", spot_corr[-1],
        1e-2 * max(abs(spot_vals[-1]), 1e-300), "<"))
    checks.append(CheckResult("log_deriv_integrand_finite", abs(spot_vals[-1]),
                              sys.float_info.max))

    return {
        "params": {"gamma": g, "eps": e, "alpha": a, "k1_bound": k1,
                   "levy_k": params.levy_k, "c_coeff": c},
        "all_passed": all(chk.passed for chk in checks),
        "checks": [{"name": chk.name, "passed": chk.passed, "margin": chk.margin,
                    "details": chk.details} for chk in checks],
    }, checks


