"""Empirical probability measures on the line and transport distances.

In one dimension the quadratic-cost optimal coupling between two
equal-size empirical measures is the monotone (sorted) pairing, so the
Wasserstein-2 distance is exact and cheap.  For the bounded cost
|x-y|^2 ^ 1 the sorted pairing is no longer provably optimal (the cost
is not convex), so that quantity is shipped as an upper bound; tests
compare it against a brute-force assignment for small n.

Gaussian smoothing is exact in :func:`smoothed_density` (the oracle) and
binned in :func:`smoothing_table` (every hot path), which shares
:func:`periodic_convolution` with the PDE grid; the kernel's transform,
:func:`periodic_gaussian_transform`, is built once per grid.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmpiricalMeasure",
    "wasserstein2",
    "truncated_wasserstein2_upper",
    "check_empirical_distance_bound",
    "smoothed_density",
    "smoothing_table",
    "read_table",
    "periodic_gaussian_transform",
    "periodic_convolution",
    "second_moment",
    "empirical_gap_experiment",
    "GapEstimate",
]


class EmpiricalMeasure:
    """Uniformly weighted sample measure; samples are kept sorted."""

    __slots__ = ("samples",)

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("empirical measure needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        self.samples = np.sort(arr)

    def __len__(self):
        return self.samples.size

    def __repr__(self):
        return f"EmpiricalMeasure(n={len(self)})"

    def to_csv(self, path):
        """Single-column CSV dump."""
        np.savetxt(path, self.samples, fmt="%.17g")

    @classmethod
    def from_csv(cls, path):
        return cls(np.loadtxt(path, ndmin=1))


def wasserstein2(mu, nu):
    """Wasserstein-2 distance between equal-size empirical measures.

    sqrt((1/n) sum (x_(i) - y_(i))^2) over sorted samples; the monotone
    coupling is optimal for quadratic cost in one dimension.  Unequal
    sizes are rejected.
    """
    if len(mu) != len(nu):
        raise ValueError(f"sample counts differ: {len(mu)} vs {len(nu)}")
    d = mu.samples - nu.samples
    return math.sqrt(float(np.mean(d * d)))


def truncated_wasserstein2_upper(mu, nu):
    """Upper bound on transport with cost |x-y|^2 ^ 1, in [0, 1].

    Uses the monotone coupling, which is feasible but not provably
    optimal for the truncated (non-convex) cost.
    """
    if len(mu) != len(nu):
        raise ValueError(f"sample counts differ: {len(mu)} vs {len(nu)}")
    d = mu.samples - nu.samples
    return math.sqrt(float(np.mean(np.minimum(d * d, 1.0))))


def check_empirical_distance_bound(xs, ys, tol=1e-12):
    """d(emp(xs), emp(ys)) <= |xs - ys| / sqrt(n) + tol.

    The right side is the cost of the identity pairing, always feasible,
    so the optimal coupling can only do better.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("configurations must have equal length")
    n = xs.size
    lhs = wasserstein2(EmpiricalMeasure(xs), EmpiricalMeasure(ys))
    rhs = float(np.linalg.norm(xs - ys)) / math.sqrt(n)
    return lhs <= rhs + tol


def gaussian_kernel(u, eps):
    """exp(-u^2 / 2 eps) / sqrt(2 pi eps)."""
    return np.exp(-u * u / (2.0 * eps)) / math.sqrt(2.0 * math.pi * eps)


def smoothed_density(mu, eps, x, block=1 << 22):
    """Gaussian smoothing of the measure: (1/n) sum_i g_eps(x - x_i).

    Strictly positive and smooth in x.  ``mu`` is an EmpiricalMeasure or
    its array of samples; scalar or array x; the pairwise sum is blocked
    to bound memory and runs in sample order.
    """
    if not eps > 0.0:
        raise ValueError("smoothing width eps must be positive")
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    s = mu.samples if isinstance(mu, EmpiricalMeasure) else np.asarray(mu, dtype=float)
    out = np.zeros(xq.shape)
    step = max(1, block // max(1, xq.size))
    for lo in range(0, s.size, step):
        chunk = s[lo:lo + step]
        out += gaussian_kernel(xq[:, None] - chunk[None, :], eps).sum(axis=1)
    out /= s.size
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


# smoothing_table's lattice spacing h and kernel cut, in units of sqrt(eps):
# binning plus read-back is off by h^2 / (4 eps) ~ 6e-5 at a lone sample
_NODE_SPACING = 1.0 / 64.0
_KERNEL_CUT = 8.0


def smoothing_table(mu, eps):
    """(nodes, values): :func:`smoothed_density` tabulated for many queries.

    The samples are linearly binned on a lattice of spacing
    h = sqrt(eps)/64 and convolved with g_eps by one FFT.  Only the
    occupied part of the lattice is laid out: runs of occupied nodes,
    each padded by the kernel cut 8 sqrt(eps), end to end on one axis, so
    far-apart heavy-tailed samples cost nodes by their number, not by
    their span.  ``nodes`` increase; read the table with :func:`read_table`,
    which gives 0 beyond the cut.

    The samples are expected sorted, as every caller has them (an
    :class:`EmpiricalMeasure`, the particle engine's sorted positions):
    the lattice layout is then read off neighbouring samples.  Any other
    array is sorted first, so the table depends only on the measure.

    A 2-D array gives a list of tables, one per row, each equal to the
    row's own table; the kernel's transform is built once per FFT length
    among them.
    """
    if not eps > 0.0:
        raise ValueError("smoothing width eps must be positive")
    s = mu.samples if isinstance(mu, EmpiricalMeasure) else np.asarray(mu, dtype=float)
    transforms = {}
    if s.ndim > 1:
        return [_smoothing_table(row, eps, transforms) for row in s]
    return _smoothing_table(s, eps, transforms)


def _smoothing_table(s, eps, transforms):
    # transforms: FFT length -> the kernel's transform at this eps
    if not (s.size and np.all(np.isfinite(s))):
        raise ValueError("samples must be finite and nonempty")
    if np.any(s[1:] < s[:-1]):
        s = np.sort(s)
    h = _NODE_SPACING * math.sqrt(eps)
    pad = int(_KERNEL_CUT / _NODE_SPACING)
    lo = float(s[0])
    pos = (s - lo) / h
    left = pos.astype(np.int64)
    frac = pos - left
    # a sample loads lattice nodes left and left + 1, and left never decreases
    # along the samples: a step of more than two cuts between neighbours
    # starts a new run
    breaks = np.flatnonzero(np.diff(left) > 2 * pad + 1) + 1
    first = np.concatenate(([0], breaks))            # each run's first sample
    last = np.concatenate((breaks, [s.size])) - 1    # and its last
    starts = left[first] - pad
    lengths = left[last] + pad + 2 - starts
    ends = np.cumsum(lengths)
    shift = ends - lengths - starts                  # lattice -> axis, per run
    size = int(lengths.sum())
    at = left + np.repeat(shift, last + 1 - first)
    m = 1 << (size - 1).bit_length()                 # a fast FFT length
    weights = (np.bincount(at, 1.0 - frac, minlength=m)
               + np.bincount(at + 1, frac, minlength=m)) / (s.size * h)
    if m not in transforms:
        transforms[m] = periodic_gaussian_transform(m, h, m * h, eps)
    kernel_hat = transforms[m]
    values = np.maximum(periodic_convolution(weights, kernel_hat, h)[:size], 0.0)
    # a run's first and last nodes lie a full cut from its samples: the
    # table reads 0 there and in the gaps between runs
    values[ends - lengths] = 0.0
    values[ends - 1] = 0.0
    nodes = lo + h * (np.arange(size) - np.repeat(shift, lengths))
    return nodes, values


def read_table(table, x):
    """A :func:`smoothing_table` at x by linear interpolation; 0 outside it."""
    nodes, values = table
    return np.interp(x, nodes, values, left=0.0, right=0.0)


def periodic_gaussian_transform(m, dx, period, eps):
    """The rfft of g_eps on m periodic nodes of spacing dx, for
    :func:`periodic_convolution`; build it once per grid."""
    offsets = np.arange(m) * dx
    dist = np.minimum(offsets, period - offsets)
    return np.fft.rfft(gaussian_kernel(dist, eps))


def periodic_convolution(values, kernel_hat, dx):
    """g * p for p sampled with spacing dx on a periodic grid, by FFT, with
    ``kernel_hat`` from :func:`periodic_gaussian_transform`."""
    return np.fft.irfft(np.fft.rfft(values) * kernel_hat, n=values.size) * dx


def second_moment(mu):
    """Mean of squared samples."""
    return float(np.mean(mu.samples ** 2))


def _w2sq_sorted_unequal(x, y):
    """Exact squared W2 between sorted uniform-weight samples of sizes n, m.

    Integrates the squared gap of the two piecewise-constant quantile
    functions over (0, 1) using the merged breakpoints; reduces to the
    block formula when one size divides the other.
    """
    n, m = x.size, y.size
    if n == m:
        d = x - y
        return float(np.mean(d * d))
    if m % n == 0:
        d = y.reshape(n, m // n) - x[:, None]
        return float(np.mean(d * d))
    if n % m == 0:
        d = x.reshape(m, n // m) - y[:, None]
        return float(np.mean(d * d))
    breaks = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    edges = np.concatenate([[0.0], breaks, [1.0]])
    lengths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    xi = x[np.minimum((mids * n).astype(int), n - 1)]
    yi = y[np.minimum((mids * m).astype(int), m - 1)]
    return float(np.sum(lengths * (xi - yi) ** 2))


@dataclass(frozen=True)
class GapEstimate:
    """Monte-Carlo estimate of E d^2(nu^n, nu) with its standard error."""

    n: int
    reps: int
    mean_sq_distance: float
    stderr: float


def empirical_gap_experiment(law_sampler, n, reps, rng, n_ref=10 ** 6):
    """Estimate E d^2(nu^n, nu) against a large-sample stand-in for nu.

    ``law_sampler(rng, size)`` draws i.i.d. samples.  The reference law
    is represented by one i.i.d. sample of size ``n_ref`` (frozen across
    repetitions), which biases the estimate at the O(n_ref^-1/2) scale.
    """
    ref = np.sort(law_sampler(rng, n_ref))
    vals = np.empty(reps)
    for r in range(reps):
        xs = np.sort(law_sampler(rng, n))
        vals[r] = _w2sq_sorted_unequal(xs, ref)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
    return GapEstimate(n=n, reps=reps, mean_sq_distance=mean, stderr=stderr)
