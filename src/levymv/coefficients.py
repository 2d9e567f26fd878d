"""The interaction coefficient sigma(x, measure).

Three families:

* ``Constant`` -- measure-independent control case,
* ``LinearInteraction`` -- averaged pair kernel
  sigma(x, mu) = (1/n) sum_i kernel(x, x_i), the classical linear
  (McKean-Vlasov) structure, over a ``SineKernel`` or a ``CauchyKernel``;
  each kernel carries its own reductions of a measure,
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
Exact pairwise sums over samples, the Cauchy kernel's and the Gaussian
smoothing's, are the one blocked kernel mean of :mod:`levymv.measures`.
"""

import math

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
    """sigma = value everywhere, a finite value.

    A vanishing coefficient freezes the dynamics and breaks the
    nondegeneracy the density results rely on; the checks that need a
    nonzero value (the linear oracle, the exact flow, the duality check)
    reject zero themselves.
    """

    def __init__(self, value):
        self.value = self.constant_value = float(value)
        if not np.isfinite(self.value):
            raise ValueError(f"value must be finite, got {value!r}")

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
    """kernel(x, y) = c0 + c1 * sin(x - y); separable, so a measure reduces
    to the means of cos and sin over its samples."""

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

    def on_nodes(self, nodes):
        """w -> sum_j kernel(nodes_i, nodes_j) w_j at each node, for weights
        w of sum 1, by one weighted cos/sin reduction of w."""
        cos, sin = np.cos(nodes), np.sin(nodes)

        def mean(w):
            mc, ms = float(np.sum(w * cos)), float(np.sum(w * sin))
            return self.c0 + self.c1 * (sin * mc - cos * ms)
        return mean


class CauchyKernel:
    """kernel(x, y) = c0 + c1 / (1 + (x - y)^2); a measure reduces only to
    its samples, against which each point is summed pairwise."""

    def __init__(self, c0=1.0, c1=0.5):
        self.c0 = float(c0)
        self.c1 = float(c1)

    def __call__(self, x, y):
        d = x - y
        return self.c0 + self.c1 / (1.0 + d * d)

    def summary_stats(self, samples):
        return samples

    def mean_from_stats(self, x, samples):
        """Each point's mean over every sample in one blocked reduction; a
        2-D ``x`` against 2-D samples row by row."""
        if np.ndim(samples) > 1:
            return np.stack([_pair_mean(self, xr, sr) for xr, sr in zip(x, samples)])
        return _pair_mean(self, x, samples)

    def on_nodes(self, nodes):
        """w -> sum_j kernel(nodes_i, nodes_j) w_j at each node, for weights
        w of sum 1, by the kernel's matrix on the nodes."""
        mat = self(nodes[:, None], nodes[None, :])
        return lambda w: mat @ w


class LinearInteraction:
    """sigma(x, mu) = mean of kernel(x, y) over the samples of mu.

    The kernel is a ``SineKernel`` or a ``CauchyKernel``, each of which
    carries the three reductions sigma delegates to: ``summary_stats`` and
    ``mean_from_stats`` (the ``summarize``/``from_summary`` pair) and
    ``on_nodes``, the nodal mean of the grid evaluator.  For every finite
    c0 and c1 both are bounded by |c0| + |c1|, with bounded x-derivatives:
    the sine kernel's first and second by |c1| and |c1|, the Cauchy
    kernel's by (3 sqrt(3) / 8) |c1| and 2 |c1|.  With ``c1 == 0`` sigma
    is the constant ``c0``.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.constant_value = kernel.c0 if kernel.c1 == 0.0 else None

    def evaluate(self, x, mu):
        samples = mu.samples if isinstance(mu, EmpiricalMeasure) else np.asarray(mu)
        return self.from_summary(x, self.summarize(samples))

    def summarize(self, samples):
        return self.kernel.summary_stats(samples)

    def from_summary(self, x, summary):
        return self.kernel.mean_from_stats(x, summary)

    def on_grid(self, grid):
        mean, dx, m = self.kernel.on_nodes(grid.nodes), grid.dx, grid.m

        def sigma(spectrum):
            values = np.fft.irfft(spectrum, n=m)
            return values, mean(values * dx)
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
        # the kernel's normalization sqrt(2 pi eps) must be finite too
        if not (eps > 0.0 and math.isfinite(2.0 * math.pi * float(eps))):
            raise ValueError(f"eps must be positive, with 2 pi eps finite, got {eps!r}")
        if not 0.0 < s < np.inf:
            raise ValueError("s must be positive and finite")
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
