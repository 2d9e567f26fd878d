"""The interaction coefficient sigma(x, measure).

Three families:

* ``Constant`` -- measure-independent control case,
* ``LinearInteraction`` -- averaged pair kernel
  sigma(x, mu) = (1/n) sum_i kernel(x, x_i), the classical linear
  (McKean-Vlasov) structure; built-in kernels are bounded with bounded
  first and second x-derivatives,
* ``SmoothedDensityPower`` -- (g_eps * mu (x))^s, a porous-medium-type
  coefficient built from Gaussian smoothing of the measure, nonlinear in
  the measure.

Every family has the same methods, so a new family is one class, and
one structural fact, ``constant_value``: the value sigma takes at every x
and every measure, or None when sigma depends on either.  Where it is not
None the nonlinear equation is the linear one, whose law is exactly
stable, whose Fokker-Planck equation is the fractional heat equation and
whose chaos gaps vanish identically; the checks that rest on that read it.
``evaluate(x, mu)`` is the exact sigma against an empirical measure or its
samples (the oracle of the tests).
``summarize(samples)`` reduces a sorted sample array once and
``from_summary(x, summary)`` evaluates many points from that reduction;
the particle engine calls only these two.  They work on rows: a 2-D
sample array, one measure per row sorted along the last axis, gives one
summary per row, and ``from_summary`` evaluates each row of a 2-D ``x``
against its own row's summary, or every point of ``x`` against a
one-measure summary.  Either way each point gets the value a one-row
call would give it, so lockstep runs evaluate sigma in one call.
``on_grid(grid)`` returns the grid evaluator: a function from the rfft
spectrum of a periodic grid density (the spectral solver's state) to the
pair (the density's values on the grid's nodes, sigma on the nodes), with
one inverse transform per call (duck-typed grid: any object with .nodes,
.dx, .half_width, .m); what depends only on the grid (the constant array,
the nodes' cos/sin, a kernel matrix, the Gaussian kernel's transform) is
built once, so the spectral solver builds it once per solve.  Gaussian
smoothing is one kernel transform,
:func:`levymv.measures.periodic_gaussian_transform`: the grid evaluator
multiplies the solver's spectrum by it, and the samples are binned and
convolved with it through :func:`levymv.measures.smoothing_table`.
Exact pairwise sums over samples, a pair kernel's and the Gaussian
smoothing's, are the one blocked kernel mean of :mod:`levymv.measures`.
"""

import numpy as np

from .measures import (EmpiricalMeasure, _pair_mean, periodic_gaussian_transform,
                       read_table, smoothed_density, smoothing_table)

__all__ = [
    "Constant",
    "LinearInteraction",
    "SmoothedDensityPower",
    "SineKernel",
    "CauchyKernel",
]


class Constant:
    """sigma = value everywhere.

    A vanishing coefficient freezes the dynamics and breaks the
    nondegeneracy the density results rely on; the checks that need a
    nonzero value (the linear oracle, the exact flow, the duality check)
    reject zero themselves.
    """

    def __init__(self, value):
        self.value = self.constant_value = float(value)

    def evaluate(self, x, mu):
        return np.broadcast_to(self.value, np.shape(x)).copy() if np.ndim(x) else self.value

    def summarize(self, samples):
        return None

    def from_summary(self, x, summary):
        return np.full(np.shape(x), self.value)

    def on_grid(self, grid):
        m = grid.m
        out = np.full(m, self.value)
        out.flags.writeable = False  # handed out on every call
        return lambda spectrum: (np.fft.irfft(spectrum, n=m), out)


class SineKernel:
    """kernel(x, y) = c0 + c1 * sin(x - y); bounded, smooth, separable."""

    def __init__(self, c0=1.0, c1=0.5):
        self.c0 = float(c0)
        self.c1 = float(c1)

    def __call__(self, x, y):
        return self.c0 + self.c1 * np.sin(x - y)

    def summary_stats(self, samples):
        """Per-measure reduction reused across many query points; the
        means of a 2-D array's rows come as columns, to broadcast against
        the rows of the query points."""
        # sin(x - y) = sin x cos y - cos x sin y: one pass over samples
        rows = np.ndim(samples) > 1
        return (np.mean(np.cos(samples), axis=-1, keepdims=rows),
                np.mean(np.sin(samples), axis=-1, keepdims=rows))

    def mean_from_stats(self, x, stats):
        mc, ms = stats
        return self.c0 + self.c1 * (np.sin(x) * mc - np.cos(x) * ms)


class CauchyKernel:
    """kernel(x, y) = c0 + c1 / (1 + (x - y)^2); bounded with bounded derivatives."""

    def __init__(self, c0=1.0, c1=0.5):
        self.c0 = float(c0)
        self.c1 = float(c1)

    def __call__(self, x, y):
        d = x - y
        return self.c0 + self.c1 / (1.0 + d * d)


class LinearInteraction:
    """sigma(x, mu) = mean of kernel(x, y) over the samples of mu.

    The kernel must be bounded with bounded first and second
    x-derivatives; construction probes those bounds by finite
    differences on 201 x 201 grids of half width 10 and 30 and rejects
    kernels whose probes grow with the window.  A kernel with
    ``summary_stats`` and ``mean_from_stats`` (``SineKernel``) is
    summarized by those; any other kernel by the samples, against which it
    is summed pairwise, each point in one reduction over every sample.  A
    built-in kernel with ``c1 == 0`` is the constant ``c0``.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        sups = []
        for hw in (10.0, 30.0):
            xs = np.linspace(-hw, hw, 201)
            xx, yy = np.meshgrid(xs, xs, indexing="ij")
            h = 1e-4 * max(1.0, hw / 10.0)
            v = kernel(xx, yy)
            vp = kernel(xx + h, yy)
            vm = kernel(xx - h, yy)
            d1 = (vp - vm) / (2.0 * h)
            d2 = (vp - 2.0 * v + vm) / (h * h)
            sups.append((float(np.max(np.abs(v))),
                         float(np.max(np.abs(d1))),
                         float(np.max(np.abs(d2)))))
        for small, big in zip(sups[0], sups[-1]):
            if big > 1.5 * small + 1e-9:
                raise ValueError("kernel bound probe grows with the window; "
                                 "interaction kernels must be bounded with "
                                 "bounded x-derivatives")
        self.sup_bound, self.k1_bound, self.k2_bound = sups[-1]
        built_in = isinstance(kernel, (SineKernel, CauchyKernel))
        self.constant_value = kernel.c0 if built_in and kernel.c1 == 0.0 else None

    def evaluate(self, x, mu):
        samples = mu.samples if isinstance(mu, EmpiricalMeasure) else np.asarray(mu)
        return self.from_summary(x, self.summarize(samples))

    def summarize(self, samples):
        if hasattr(self.kernel, "summary_stats"):
            return self.kernel.summary_stats(samples)
        return samples

    def from_summary(self, x, summary):
        if hasattr(self.kernel, "mean_from_stats"):
            return self.kernel.mean_from_stats(x, summary)
        if np.ndim(summary) > 1:
            return np.stack([_pair_mean(self.kernel, xr, sr) for xr, sr in zip(x, summary)])
        return _pair_mean(self.kernel, x, summary)

    def on_grid(self, grid):
        nodes, dx, m = grid.nodes, grid.dx, grid.m
        if isinstance(self.kernel, SineKernel):
            # separable path: one weighted reduction instead of an m x m matrix
            cos, sin = np.cos(nodes), np.sin(nodes)
            c0, c1 = self.kernel.c0, self.kernel.c1

            def reduce(w):
                mc = float(np.sum(w * cos))
                ms = float(np.sum(w * sin))
                return c0 + c1 * (sin * mc - cos * ms)
        else:
            mat = self.kernel(nodes[:, None], nodes[None, :])

            def reduce(w):
                return mat @ w

        def sigma(spectrum):
            values = np.fft.irfft(spectrum, n=m)
            return values, reduce(values * dx)
        return sigma


class SmoothedDensityPower:
    """sigma(x, mu) = (g_eps * mu (x))^s, strictly positive by construction.

    ``evaluate`` is the exact pairwise sum.  The summary of any sample
    count is a :func:`levymv.measures.smoothing_table`, read back by linear
    interpolation: among and near the samples within about 1e-4 relative
    of the exact smoothed density, and 0 beyond 8 sqrt(eps) of every
    sample.
    """

    constant_value = None

    def __init__(self, eps, s):
        if not eps > 0.0:
            raise ValueError("eps must be positive")
        if not s > 0.0:
            raise ValueError("s must be positive")
        self.eps = float(eps)
        self.s = float(s)

    def evaluate(self, x, mu):
        base = smoothed_density(mu, self.eps, x)
        return base ** self.s

    def summarize(self, samples):
        return smoothing_table(samples, self.eps)

    def from_summary(self, x, summary):
        if isinstance(summary, list):
            return np.stack([read_table(t, xr) for xr, t in zip(x, summary)]) ** self.s
        return read_table(summary, x) ** self.s

    def on_grid(self, grid):
        dx = grid.dx
        if self.eps < 4.0 * dx ** 2:
            raise ValueError(f"grid too coarse for eps={self.eps}: "
                             f"need eps >= 4 dx^2 = {4.0 * dx ** 2:.3g}")
        m = grid.m
        kernel_hat = periodic_gaussian_transform(m, dx, 2.0 * grid.half_width, self.eps)
        block = np.empty((2, kernel_hat.size), dtype=complex)

        def sigma(spectrum):
            # the smoothed density and the density from one inverse transform
            # of [spectrum * kernel_hat, spectrum]; each row has the bits of a
            # 1-D call, as in periodic_convolution
            np.multiply(spectrum, kernel_hat, out=block[0])
            block[1] = spectrum
            smoothed, values = np.fft.irfft(block, n=m)
            smoothed *= dx
            # integrator stages may dip slightly negative; never feed a
            # negative base to a fractional power
            return values, np.maximum(smoothed, 0.0) ** self.s
        return sigma
