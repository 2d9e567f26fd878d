"""Fourier-spectral solver for the nonlinear fractional Fokker-Planck
equation  d/dt p = Dalpha(|sigma(., p)|^alpha p)  on a periodic grid.

``Dalpha`` is the fractional Laplacian realized as the Fourier
multiplier -diffusivity * |xi_k|^alpha, xi_k = pi k / L.  The sign is
fixed negative semi-definite, matching the singular-integral form that
is negative on peaks; the equivalent singular-integral constant is
``diffusivity / C(alpha)`` with C from drivers.cf_constant_from_levy_constant.

The zero mode is multiplied by exactly zero, so total mass is invariant
under every scheme here; drift beyond ``mass_tolerance`` (by default
``MASS_TOLERANCE``, 1e-9) signals a bug and aborts.  Positivity is
monitored under both schemes, never enforced by clipping.

:func:`solve_fp` builds what a solve holds fixed once: the multiplier and
sigma's grid evaluator ``sigma.on_grid(grid)`` (nodes, and a kernel
transform, matrix or cos/sin table).  The state it steps is the density's
rfft spectrum, transformed forward once per solve.  A stage's input is a
linear combination of spectra; the stage makes one inverse transform (the
evaluator's, which gives the stage's nodal values and sigma on the nodes
together) and one forward transform of |sigma|^alpha times the values.
Explicit RK4 and the integrating-factor RK4 share that stage; the
integrating factor freezes |sigma|^alpha at the first stage's sigma, and
RK4's stability check reads the same sigma.  Either scheme's step
returns the spectrum's change, and :func:`solve_fp` makes one inverse
transform of it per step, which updates the nodal values that the
per-step drift and positivity monitors, the mass, minimum and boundary
traces and the snapshots read (so a step that changes nothing keeps the
density's bits); a step of either scheme makes 9 transform calls.

Two checks hold the solver to closed forms: :func:`linear_oracle`, the
order study against the exact linear flow, and the weak-form duality of
the jump generator and the multiplier (:func:`adjoint_identity_check`).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .drivers import _step_count, cf_constant_from_levy_constant
from .measures import _row_block
from .perturbation import CheckResult

__all__ = [
    "DensityGrid",
    "FractionalParams",
    "FpResult",
    "StabilityError",
    "fractional_laplacian",
    "solve_linear_exact",
    "solve_fp",
    "adjoint_identity_check",
    "linear_oracle",
    "bump",
    "gaussian_grid",
    "stable_heat_kernel_grid",
]

RK4_REAL_AXIS = 2.7853  # |R(z)| <= 1 on the negative real axis down to -2.7853
MASS_TOLERANCE = 1e-9  # the default bound on |mass - 1|, for every solve and check


class StabilityError(RuntimeError):
    pass


class DensityGrid:
    """Probability density on the uniform periodic grid [-L, L).

    Mass is renormalized to one at construction (and only there);
    evolved densities are handed back with ``renormalize=False`` so a
    mass defect can never be papered over silently.
    """

    def __init__(self, half_width, values, renormalize=True):
        values = np.asarray(values, dtype=float).copy()
        m = values.size
        if m < 4 or (m & (m - 1)) != 0:
            raise ValueError("point count must be a power of two (>= 4)")
        if not 0.0 < 2.0 * half_width < math.inf:
            raise ValueError(f"half_width must be positive, with a finite period 2 half_width, "
                             f"got {half_width!r}")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        tol = 1e-8 * max(float(values.max()), 1e-300)
        if float(values.min()) < -tol:
            raise ValueError(f"density has negative values below -{tol:.3g}")
        self.half_width = float(half_width)
        self.m = m
        self.dx = 2.0 * self.half_width / m
        mass = float(values.sum()) * self.dx
        if renormalize:
            if mass <= 0.0:
                raise ValueError("density must have positive mass")
            values /= mass
        elif abs(mass - 1.0) > 1e-6:
            raise ValueError(f"unnormalized density handed in with mass {mass}")
        self.values = values

    @property
    def nodes(self):
        return -self.half_width + self.dx * np.arange(self.m)

    def mass(self):
        return float(self.values.sum()) * self.dx

    def boundary_density(self):
        """Max density within the outer 5% of the domain per side."""
        k = max(1, int(self.m * 0.05))
        return float(max(self.values[:k].max(), self.values[-k:].max()))

    def with_values(self, values, renormalize=False):
        return DensityGrid(self.half_width, values, renormalize=renormalize)

    def _unchecked(self, values):
        """This grid's nodes holding ``values`` as they are: not validated,
        copied or renormalized (the solver's steps check what they hand back)."""
        out = DensityGrid.__new__(DensityGrid)
        out.half_width, out.m, out.dx = self.half_width, self.m, self.dx
        out.values = values
        return out

    def to_csv(self, path):
        np.savetxt(path, np.column_stack([self.nodes, self.values]),
                   fmt="%.17g", delimiter=",", header="x,p", comments="")

    @classmethod
    def from_csv(cls, path, renormalize=False):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        x, p = data[:, 0], data[:, 1]
        half_width = float(-x[0])
        return cls(half_width, p, renormalize=renormalize)

    @classmethod
    def from_function(cls, half_width, m, fn, wrap_images=0):
        dx = 2.0 * half_width / m
        x = -half_width + dx * np.arange(m)
        vals = np.asarray(fn(x), dtype=float)
        for j in range(1, wrap_images + 1):
            vals = vals + fn(x + 2.0 * half_width * j) + fn(x - 2.0 * half_width * j)
        return cls(half_width, vals, renormalize=True)


def gaussian_grid(half_width, m, mean=0.0, std=1.0, wrap_images=1):
    """Periodically wrapped Gaussian density."""
    def fn(x):
        return np.exp(-(x - mean) ** 2 / (2.0 * std * std)) / (std * math.sqrt(2.0 * math.pi))
    return DensityGrid.from_function(half_width, m, fn, wrap_images=wrap_images)


@dataclass(frozen=True)
class FractionalParams:
    """Order and multiplier constant of the fractional Laplacian."""

    alpha: float
    diffusivity: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must lie in (0, 2]")
        if not 0.0 < self.diffusivity < math.inf:
            raise ValueError(f"diffusivity must be positive and finite, got {self.diffusivity!r}")

    def singular_integral_constant(self):
        """K with Dalpha f = K int (f(x+y)-f(x)-1{|y|<=1} f'(x) y)|y|^(-1-alpha) dy."""
        return self.diffusivity / cf_constant_from_levy_constant(1.0, self.alpha)


def _multiplier(grid, params):
    """-diffusivity |xi_k|^alpha on the grid's rfft modes; exactly 0 at k = 0."""
    xi = math.pi * np.arange(grid.m // 2 + 1) / grid.half_width
    return -params.diffusivity * xi ** params.alpha


def fractional_laplacian(values, grid, params):
    """Apply the multiplier -diffusivity |xi_k|^alpha; zero mode -> 0."""
    return np.fft.irfft(np.fft.rfft(values) * _multiplier(grid, params), n=grid.m)


def solve_linear_exact(p0, t, params):
    """Exact solution of d/dt p = Dalpha p for the discretized operator."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    decay = np.exp(_multiplier(p0, params) * t)
    vals = np.fft.irfft(np.fft.rfft(p0.values) * decay, n=p0.m)
    return p0.with_values(vals)


def stable_heat_kernel_grid(half_width, m, t, params):
    """Fractional heat kernel at time t on the grid (point mass evolved)."""
    grid = DensityGrid(half_width, np.full(m, 0.5 / half_width), renormalize=True)
    delta = np.zeros(m)
    delta[m // 2] = 1.0 / grid.dx
    return solve_linear_exact(grid.with_values(delta, renormalize=True), t, params)


def stable_step_limit(grid, sigma_max, params):
    """The largest dt the explicit scheme takes: half its stability bound.

    The stiffest mode carries |multiplier| = diffusivity (pi/dx)^alpha
    times the sup of |sigma|^alpha; the classical four-stage explicit
    scheme is stable on the real axis down to -2.7853.  A |sigma|^alpha
    beyond the float range (inf) leaves no step.
    """
    lam = params.diffusivity * (math.pi / grid.dx) ** params.alpha \
        * float(np.abs(sigma_max) ** params.alpha)
    if lam <= 0.0:
        return math.inf  # vanishing coefficient: nothing moves at any dt
    return 0.5 * RK4_REAL_AXIS / lam


class _Operator:
    """The right-hand side of the spectral system, U -> multiplier *
    rfft(|sigma(., u)|^alpha u) with u = irfft(U), on one grid, with the
    multiplier and sigma's grid evaluator built once."""

    def __init__(self, grid, sigma, params):
        self.params = params
        self.multiplier = _multiplier(grid, params)
        self.sigma = sigma.on_grid(grid)

    def stage(self, u_hat):
        """|sigma| on the nodes and the right-hand side at the stage spectrum
        ``u_hat``: one inverse and one forward transform."""
        values, sigma = self.sigma(u_hat)
        abs_sigma = np.abs(sigma)
        w = abs_sigma ** self.params.alpha * values
        return abs_sigma, np.fft.rfft(w) * self.multiplier


def _step_rk4(p, v, dt, op):
    """One explicit RK4 step of the spectral system from the density ``p``
    and its spectrum ``v``; returns the spectrum's change and the new
    spectrum.

    Raises :class:`StabilityError` when dt exceeds the spectral-radius
    bound, which only this scheme has.
    """
    s1, k1 = op.stage(v)
    limit = stable_step_limit(p, float(s1.max()), op.params)
    if dt > limit * (1.0 + 1e-12):
        raise StabilityError(f"dt={dt:.3g} exceeds stability bound {limit:.3g} "
                             f"(alpha={op.params.alpha}, dx={p.dx:.3g})")
    k2 = op.stage(v + 0.5 * dt * k1)[1]
    k3 = op.stage(v + 0.5 * dt * k2)[1]
    k4 = op.stage(v + dt * k3)[1]
    dv = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return dv, v + dv


def _step_lawson(p, v, dt, op):
    """Integrating-factor RK4 on the linearization with |sigma|^alpha frozen
    at its maximum over the first stage; it takes what :func:`_step_rk4`
    takes (the density unread) and returns what it returns.

    Exact for measure-independent coefficients; removes the stiff step
    limit when alpha is close to 2.
    """
    s1, f1 = op.stage(v)
    lam = op.multiplier * float(s1.max())
    e_half = np.exp(0.5 * dt * lam)
    e_full = e_half * e_half

    def n_hat(u_hat):
        return op.stage(u_hat)[1] - lam * u_hat

    k1 = f1 - lam * v
    k2 = n_hat(e_half * (v + 0.5 * dt * k1))
    k3 = n_hat(e_half * v + 0.5 * dt * k2)
    k4 = n_hat(e_full * v + dt * e_half * k3)
    v_new = e_full * v + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return v_new - v, v_new


@dataclass
class FpResult:
    """Snapshots plus per-step health traces of one solve."""

    times: list
    grids: list
    mass_trace: np.ndarray
    min_trace: np.ndarray
    boundary_trace: np.ndarray
    dt: float
    scheme: str

    def final(self):
        return self.grids[-1]


def solve_fp(p0, horizon, dt, sigma, params, snapshots=1, scheme="rk4",
             boundary_density_tol=1e-4, mass_tolerance=MASS_TOLERANCE):
    """March the density to ``horizon`` recording snapshots and health logs.

    Besides the initial density, ``snapshots`` densities are recorded, at
    steps j * N // snapshots for j = 1..snapshots of the N steps, so the
    last is the horizon; more snapshots than steps raise ``ValueError``.
    Heavy-tailed dynamics push mass toward the periodic seam; the run
    aborts once the boundary density exceeds ``boundary_density_tol``
    rather than silently wrapping significant mass.  It also aborts once
    mass leaves one by more than ``mass_tolerance``, and, under either
    scheme, once one step moves it by more than that (the zero mode is
    invariant, so any drift is a bug, not a modeling error) or makes a
    value below -1e-8 times the step's largest (the positivity monitor;
    negative values are reported, never clipped).
    """
    if scheme not in ("rk4", "if-rk4"):
        raise ValueError("scheme must be 'rk4' or 'if-rk4'")
    n_steps = _step_count(horizon, dt)
    dt = horizon / n_steps
    if not 1 <= snapshots <= n_steps:
        raise ValueError(f"snapshots must lie in 1..{n_steps}, the step count, "
                         f"got {snapshots}")
    record = {j * n_steps // snapshots for j in range(1, snapshots + 1)}
    times = [0.0]
    grids = [p0]
    mass, mins, bdry = [p0.mass()], [float(p0.values.min())], [p0.boundary_density()]
    p, v = p0, np.fft.rfft(p0.values)
    op = _Operator(p0, sigma, params)
    step = _step_rk4 if scheme == "rk4" else _step_lawson
    for k in range(n_steps):
        change, v = step(p, v, dt, op)
        new = p.values + np.fft.irfft(change, n=p.m)
        drift = abs(float(new.sum()) - float(p.values.sum())) * p.dx
        if drift > mass_tolerance:
            raise StabilityError(f"mass drifted by {drift:.3g} in one step; "
                                 "zero-mode invariance is broken")
        low, floor = float(new.min()), -1e-8 * max(float(new.max()), 1e-300)
        if low < floor:
            raise StabilityError(f"positivity monitor tripped: min {low:.3g} "
                                 f"< {floor:.3g}; reduce dt or refine the grid")
        p = p._unchecked(new)
        t = (k + 1) * dt
        mass.append(p.mass())
        mins.append(low)
        bdry.append(p.boundary_density())
        if abs(mass[-1] - 1.0) > mass_tolerance:
            raise StabilityError(f"mass left unity at t={t:.4g}: {mass[-1]!r}")
        if bdry[-1] > boundary_density_tol:
            raise StabilityError(
                f"boundary density {bdry[-1]:.3g} exceeds {boundary_density_tol:.3g} "
                f"at t={t:.4g}; enlarge the domain for this horizon")
        if k + 1 in record:
            times.append(t)
            grids.append(p)
    return FpResult(times=times, grids=grids, mass_trace=np.asarray(mass),
                    min_trace=np.asarray(mins), boundary_trace=np.asarray(bdry),
                    dt=dt, scheme=scheme)


def _health_checks(res, mass_tolerance, boundary_density_tol):
    """A solve's health payload (its largest mass drift and boundary density,
    and its snapshot times) and the checks of the first two."""
    payload = {"mass_max_drift": float(np.max(np.abs(res.mass_trace - 1.0))),
               "boundary_density_max": float(res.boundary_trace.max()),
               "snapshot_times": [float(t) for t in res.times]}
    return payload, [CheckResult("mass_drift", payload["mass_max_drift"], mass_tolerance),
                     CheckResult("boundary_density", payload["boundary_density_max"],
                                 boundary_density_tol)]


def bump(center=0.0, width=1.0):
    """Smooth bump supported on (center-width, center+width), peak value 1;
    ``center`` must be finite and ``width`` finite and above 0."""
    if not (math.isfinite(center) and math.isfinite(width) and width > 0.0):
        raise ValueError(f"a bump needs a finite center and width above 0, got {center}, {width}")

    def fn(x):
        t = (np.asarray(x, dtype=float) - center) / width
        out = np.zeros(np.shape(t))
        inside = np.abs(t) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
        return out if np.ndim(x) else float(out)
    return fn


def _fd_second(fn, x, h):
    return (-fn(x + 2 * h) + 16 * fn(x + h) - 30 * fn(x)
            + 16 * fn(x - h) - fn(x - 2 * h)) / (12.0 * h * h)


def _gauss_legendre_panels(breaks, nodes_per_panel):
    """Gauss-Legendre nodes/weights on a sequence of panels (vectorized)."""
    gx, gw = np.polynomial.legendre.leggauss(nodes_per_panel)
    los = breaks[:-1][:, None]
    his = breaks[1:][:, None]
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    return (mid + half * gx[None, :]).ravel(), (half * gw[None, :]).ravel()


# the duality check's test functions must vanish outside this share of the domain
SUPPORT_FRACTION = 0.8
# its jump quadrature: the Taylor head below HEAD_CUT, then LOG_PANELS
# log-graded panels of NODES_PER_PANEL Gauss-Legendre nodes over one period
HEAD_CUT = 0.01
LOG_PANELS = 20
NODES_PER_PANEL = 24


def _check_support(name, fn, half_width):
    """Raise ``ValueError`` unless the test function ``fn`` vanishes outside
    |x| <= SUPPORT_FRACTION * half_width, as the duality check needs."""
    L = half_width
    edge = np.max(np.abs(fn(np.concatenate([np.linspace(-L, -SUPPORT_FRACTION * L, 64),
                                            np.linspace(SUPPORT_FRACTION * L, L, 64)]))))
    if edge > 1e-12:
        raise ValueError(f"{name} must vanish outside |x| <= {SUPPORT_FRACTION} L")


def adjoint_identity_check(sigma, nu_grid, phi, psi, params):
    """Weak-form duality check of the jump generator against the multiplier.

    Left side: the generator applied to ``phi`` by direct singular
    quadrature in the jump variable (Taylor head below ``HEAD_CUT``,
    ``LOG_PANELS`` log-graded Gauss-Legendre panels over one period of the
    wrapped test function, with the periodic tail summed exactly through
    the Hurwitz zeta), integrated against ``psi``.  Right side: the same
    pairing with the multiplier form moved onto ``|sigma|^alpha psi``
    spectrally.  Returns ``{lhs, rhs, rel_error}``, the relative error
    being |lhs - rhs| / (|lhs| + |rhs|).
    Both test functions must be compactly supported away from the seam, and
    ``nu_grid`` must be a probability density: sigma reads it as the measure.

    The quadrature is built once per distinct |sigma| value, chunk by chunk
    under the block budget of :mod:`levymv.measures`, so its working set
    stays a few MiB at any grid size; the result does not depend on the
    budget.
    """
    L, dx = nu_grid.half_width, nu_grid.dx
    x, nu = nu_grid.nodes, nu_grid.values
    for name, fn in (("phi", phi), ("psi", psi)):
        _check_support(name, fn, L)
    if np.any(nu < -1e-8 * max(nu.max(), 1e-300)):
        raise ValueError("grid density must be nonnegative")
    if abs(nu_grid.mass() - 1.0) > 1e-6:
        raise ValueError("grid density must carry unit mass")

    s = np.abs(sigma.on_grid(nu_grid)(np.fft.rfft(nu))[1])
    if float(s.min()) <= 0.0:
        raise ValueError("coefficient must be nonvanishing for the duality check")
    alpha = params.alpha
    k_sing = params.singular_integral_constant()

    def phi_wrapped(u):
        return phi((u + L) % (2.0 * L) - L)

    # Taylor head: G(y) ~ (s y)^2 phi'' + (s y)^4 phi'''' / 12 below HEAD_CUT
    h = 0.01
    phi2 = _fd_second(phi, x, h)
    phi2_p = _fd_second(phi, x + 5 * h, h)
    phi2_m = _fd_second(phi, x - 5 * h, h)
    phi4 = (phi2_p - 2.0 * phi2 + phi2_m) / (25.0 * h * h)
    head = (s ** 2 * phi2 * HEAD_CUT ** (2.0 - alpha) / (2.0 - alpha)
            + s ** 4 * phi4 * HEAD_CUT ** (4.0 - alpha) / (12.0 * (4.0 - alpha)))

    # one full period [HEAD_CUT, HEAD_CUT + p(x)] with the Hurwitz-zeta
    # weight folding in every later period exactly; the quadrature depends
    # on x only through |sigma(x)|, so it is built once per distinct value
    # (row) and each node reads its value's row.  The distinct values are
    # walked in chunks of as many rows as the block budget holds, and a
    # chunk's nodes are summed in blocks of as many nodes: each node's sum
    # is one reduction over its own row.
    s_distinct, row = np.unique(s, return_inverse=True)
    by_row = np.argsort(row, kind="stable")            # the nodes, row by row
    row_starts = np.concatenate(([0], np.cumsum(np.bincount(row))))
    tau_breaks = np.linspace(0.0, 1.0, LOG_PANELS + 1)
    tau, tau_w = _gauss_legendre_panels(tau_breaks, NODES_PER_PANEL)
    step = _row_block(tau.size)
    phi_x = phi(x)
    body = np.empty(x.size)
    for lo in range(0, s_distinct.size, step):
        period = 2.0 * L / s_distinct[lo:lo + step]
        ratio = (HEAD_CUT + period) / HEAD_CUT
        y = HEAD_CUT * np.power.outer(ratio, tau)        # (rows, nq)
        dy = y * np.log(ratio)[:, None] * tau_w[None, :]
        weight = period[:, None] ** (-1.0 - alpha) * hurwitz_zeta(
            1.0 + alpha, y / period[:, None])
        nodes = by_row[row_starts[lo]:row_starts[lo + period.size]]
        for first in range(0, nodes.size, step):
            b = nodes[first:first + step]
            r = row[b] - lo
            xb, sb, yb = x[b, None], s[b, None], y[r]
            big_g = (phi_wrapped(xb + sb * yb) + phi_wrapped(xb - sb * yb)
                     - 2.0 * phi_x[b, None])
            body[b] = np.sum(big_g * weight[r] * dy[r], axis=1)

    gen_phi = k_sing * (head + body)
    lhs = float(np.sum(gen_phi * psi(x)) * dx)

    w = s ** alpha * psi(x)
    rhs = float(np.sum(phi_x * fractional_laplacian(w, nu_grid, params)) * dx)
    return {"lhs": lhs, "rhs": rhs,
            "rel_error": abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)}


def _duality_table(cases, nu_grid, params, tolerance):
    """:func:`adjoint_identity_check` on ``nu_grid`` for each (label, sigma,
    phi, psi) case: the payload, a row per case of its label (as ``sigma``),
    its two sides and its relative error, and the checks, each relative
    error at most ``tolerance``."""
    rows, checks = [], []
    for i, (label, sigma, phi, psi) in enumerate(cases):
        sides = adjoint_identity_check(sigma, nu_grid, phi, psi, params)
        rows.append({"sigma": label, **sides})
        checks.append(CheckResult(f"duality_rel_error_{i}", sides["rel_error"], tolerance))
    return {"tolerance": tolerance, "cases": rows}, checks


def _sup_error(density, exact):
    """sup over the nodes of |density - exact|."""
    return float(np.max(np.abs(density.values - exact.values)))


def _constant_params(sigma, params):
    """The params of the linear flow that a coefficient ``sigma`` with a
    nonzero ``constant_value`` follows: the diffusivity scaled by
    |value|^alpha, which must be positive and finite; any other
    coefficient, or a scaled diffusivity out of that range, raises
    ``ValueError``."""
    if not sigma.constant_value:
        raise ValueError("the linear oracle needs a nonzero constant coefficient, "
                         "the only one with an exact flow")
    with np.errstate(over="ignore"):
        scale = float(np.abs(sigma.constant_value) ** params.alpha)
    return FractionalParams(params.alpha, params.diffusivity * scale)


def _constant_flow(p0, t, sigma, params):
    """The exact flow of :func:`solve_fp` under a coefficient ``sigma`` with a
    nonzero ``constant_value``."""
    return solve_linear_exact(p0, t, _constant_params(sigma, params))


def linear_oracle(cases, horizon, sigma, sup_tolerance, order_ratio_range, **solve_options):
    """The order study of :func:`solve_fp` against its exact flow.

    Each case is (initial grid, params, dt): the sup error of the solve to
    ``horizon`` at dt, at most ``sup_tolerance``, and at dt / 2; their ratio,
    16 for a fourth-order scheme, lies in ``order_ratio_range``.  Returns a
    row per case and the checks.  ``sigma`` has a nonzero ``constant_value``,
    so its exact flow is the linear one with the diffusivity scaled by
    |value|^alpha (any other coefficient raises ``ValueError``);
    ``solve_options`` go to every solve.
    """
    lo_ratio, hi_ratio = order_ratio_range
    rows, checks = [], []
    for i, (grid, params, dt) in enumerate(cases):
        exact = _constant_flow(grid, horizon, sigma, params)
        errs = [_sup_error(solve_fp(grid, horizon, d, sigma, params, **solve_options).final(),
                           exact)
                for d in (dt, dt / 2.0)]
        ratio = errs[0] / max(errs[1], 1e-300)
        rows.append({"alpha": params.alpha, "dt": dt, "sup_error": errs[0],
                     "sup_error_half_dt": errs[1], "order_ratio": ratio})
        checks += [CheckResult(f"sup_error_{i}", errs[0], sup_tolerance),
                   CheckResult(f"order_ratio_lo_{i}", ratio, lo_ratio, ">="),
                   CheckResult(f"order_ratio_hi_{i}", ratio, hi_ratio)]
    return rows, checks
