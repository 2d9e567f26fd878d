"""Empirical probability measures on the line and transport distances.

In one dimension the quadratic-cost optimal coupling between two
equal-size empirical measures is the monotone (sorted) pairing, so the
Wasserstein-2 distance is exact and cheap.  For the bounded cost
|x-y|^2 ^ 1 the sorted pairing is no longer provably optimal (the cost
is not convex), so that quantity is shipped as an upper bound; tests
compare it against a brute-force assignment for small n.

Each sample statistic is computed in one place: the sorted pairing's
squared W2 and its excess over the paired-configuration bound serve
:func:`wasserstein2`, :func:`check_empirical_distance_bound` and the gap
experiment; the blocked
pairwise kernel mean serves :func:`smoothed_density` and the pair-kernel
coefficient; the Monte-Carlo mean with its standard error serves the gap
and chaos-rate experiments, and the step check of such means within two
standard errors serves the lemma-4 battery and the chaos-rate monotone
check; the empirical CF gap serves the sampler's CF battery and the
simulate command's CF test; sin x and cos x from the half-angle tangent
serve the CF gap, the stable sampler and the sine kernel.

Gaussian smoothing is exact in :func:`smoothed_density` (the oracle) and
binned in :func:`smoothing_table` (every hot path) and convolved by
:func:`periodic_convolution`; the kernel's transform,
:func:`periodic_gaussian_transform`, is built once per grid and is the one
the PDE grid's sigma multiplies the solver's spectrum by.

Every blocked reduction is sized by one block budget, ``_BLOCK_ELEMENTS``
float64 values per temporary: the pairwise kernel mean, the CF gap and
the duality check's jump quadrature in :mod:`levymv.fokker_planck` each
take as many rows (points, frequencies, nodes) per block as the budget
holds, and at least one.  The budget bounds their working set, not their
results: each row is one reduction over its own full length, whichever
rows share its block.

:func:`smoothing_table` is called once per step by the particle engine,
with the same shapes step after step, so it keeps its large temporaries,
the bins and FFT blocks, in arrays each thread holds across calls
(``_kept``) rather than asking the allocator for fresh pages every step.
Concurrent batches on worker threads each use their own; the tables it
returns are always fresh arrays.
"""

import functools
import math
import threading

import numpy as np

from .perturbation import CheckResult
from .rng import substream

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
    return math.sqrt(float(_sorted_pairing(mu.samples, nu.samples)[0]))


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
    _, excess = _sorted_pairing(EmpiricalMeasure(xs).samples, EmpiricalMeasure(ys).samples,
                                (xs - ys).ravel())
    return bool(excess <= tol)


def _distance_bound(*, trials, n_min, n_max, tolerance, seed):
    """The distance-bound battery: :func:`check_empirical_distance_bound` at
    ``tolerance`` on ``trials`` random pairs of n_min..n_max points, the
    second a noisy copy of the first; a failing pair is a violation."""
    rng = substream(seed, 50)
    violations = 0
    for _ in range(trials):
        n = int(rng.integers(n_min, n_max + 1))
        xs = rng.normal(0.0, 1.0 + rng.random() * 3.0, n)
        ys = xs + rng.normal(0.0, rng.random() * 2.0, n)
        violations += not check_empirical_distance_bound(xs, ys, tol=tolerance)
    return ({"trials": trials, "violations": violations},
            [CheckResult("distance_bound_violations", violations, 0)])


def _sorted_pairing(xs, ys, gap=None):
    """For two arrays of n sorted samples: (W2^2 between their empirical
    measures, the excess of W2 over the identity pairing's cost
    |gap| / sqrt(n)).

    W2^2 is the mean squared difference of the sorted samples, the
    monotone pairing being optimal for quadratic cost in one dimension.
    ``gap`` is the difference of the paired configurations that ``xs`` and
    ``ys`` sort; without it the excess is None.  Both reduce along the
    last axis, so rows of samples get one value each.
    """
    d = xs - ys
    w2sq = np.mean(d * d, axis=-1)
    if gap is None:
        return w2sq, None
    bound = np.sqrt(np.sum(gap * gap, axis=-1)) / math.sqrt(xs.shape[-1])
    return w2sq, np.sqrt(w2sq) - bound


def gaussian_kernel(u, eps):
    """exp(-u^2 / 2 eps) / sqrt(2 pi eps) of an array u, in one new array."""
    g = np.negative(u)
    g *= u
    g /= 2.0 * eps
    np.exp(g, out=g)
    g /= math.sqrt(2.0 * math.pi * eps)
    return g


def smoothed_density(mu, eps, x):
    """Gaussian smoothing of the measure: (1/n) sum_i g_eps(x - x_i).

    Strictly positive and smooth in x.  ``mu`` is an EmpiricalMeasure or
    its array of samples; scalar or array x; the pairwise sum is blocked
    over the points x, each point's value one reduction over every sample.
    """
    if not eps > 0.0:
        raise ValueError("smoothing width eps must be positive")
    s = mu.samples if isinstance(mu, EmpiricalMeasure) else np.asarray(mu, dtype=float)
    return _pair_mean(lambda xq, y: gaussian_kernel(xq - y, eps), x, s)


# the block budget, in float64 values per temporary: a blocked kernel holds
# ten or so temporaries of this size, 256 KiB each, within one core's L2
_BLOCK_ELEMENTS = 1 << 15


def _row_block(row_size):
    """How many rows of ``row_size`` values one block takes: as many as the
    budget holds, and at least one, so a row is never split."""
    return max(1, _BLOCK_ELEMENTS // max(1, row_size))


def _pair_mean(kernel, x, samples):
    """(1/n) sum_i kernel(x, samples_i) at each point of scalar or array x.

    Blocked over the points, as many as the block budget holds against
    every sample: each point's sum spans every sample in one reduction, so
    it does not depend on the points queried with it.
    """
    xq = np.asarray(x, dtype=float)
    flat = xq.ravel()
    out = np.empty(flat.size)
    step = _row_block(samples.size)
    for lo in range(0, flat.size, step):
        out[lo:lo + step] = kernel(flat[lo:lo + step, None], samples[None, :]).sum(axis=1)
    out /= samples.size
    if xq.ndim == 0:
        return float(out[0])
    return out.reshape(xq.shape)


# smoothing_table's lattice spacing h and kernel cut, in units of sqrt(eps):
# binning plus read-back is off by h^2 / (4 eps) ~ 6e-5 at a lone sample
_NODE_SPACING = 1.0 / 64.0
_KERNEL_CUT = 8.0
# and its range, in units of h: the nodes are h * lattice + the row's first
# sample, whose roundoff grows with |x| / h: the worst read of 15 sets of
# 3000 N(0, 1.5) samples is 5.3e-5 off the exact density near 0, 9.1e-5 at
# 2^45 h and 1.2e-4 at 2^45.5 h
_TABLE_RANGE = 2.0 ** 45


def smoothing_table(mu, eps):
    """(nodes, values): :func:`smoothed_density` tabulated for many queries.

    The samples are linearly binned on a lattice of spacing
    h = sqrt(eps)/64 and convolved with g_eps by one FFT.  Only the
    occupied part of the lattice is laid out: runs of occupied nodes,
    each padded by the kernel cut 8 sqrt(eps), end to end on one axis, so
    far-apart heavy-tailed samples cost nodes by their number, not by
    their span.  ``nodes`` increase; read the table with :func:`read_table`,
    which gives 0 beyond the cut.

    The table holds its accuracy for samples within 2^45 h of 0 (about
    3.9e11 at eps 0.5, 1.2e11 at eps 0.05); a sample beyond that range
    raises ``ValueError``.

    The samples are expected sorted, as every caller has them (an
    :class:`EmpiricalMeasure`, the particle engine's sorted positions):
    the lattice layout is then read off neighbouring samples.  Any other
    array is sorted first, so the table depends only on the measure.

    A 2-D array gives a list of tables, one per row, each bit for bit the
    row's own table; a 1-D array is the one-row case.  A call builds all
    its rows in one pass: the runs are laid out on the rows end to end,
    the rows of each FFT length are binned into one block, and each block
    is convolved with one FFT along its rows.  The kernel's transform is
    built once per (length, h, eps) and kept for later calls, which repeat
    those step after step.  So is the memory of each block's bins and of
    its transform, per thread (see :func:`_kept`): a step of the particle
    engine bins and convolves in the arrays the step before used, instead
    of asking the allocator for fresh pages each time.  Every returned
    array is fresh: a table never shares memory with the kept arrays or
    with another call's table.
    """
    if not eps > 0.0:
        raise ValueError("smoothing width eps must be positive")
    s = mu.samples if isinstance(mu, EmpiricalMeasure) else np.asarray(mu, dtype=float)
    if s.ndim not in (1, 2):
        raise ValueError("samples must be one row or a 2-D array of rows")
    rows = s[None, :] if s.ndim == 1 else s
    if not (rows.size and np.isfinite(rows).all()):
        raise ValueError("samples must be finite and nonempty")
    descents = rows[:, 1:] < rows[:, :-1]
    if descents.any():
        unsorted = descents.any(axis=1)
        rows = rows.copy()
        rows[unsorted] = np.sort(rows[unsorted], axis=1)
    r, n = rows.shape
    h = _NODE_SPACING * math.sqrt(eps)
    reach = float(np.abs(rows[:, [0, -1]]).max())   # each sorted row's extremes
    if reach > _TABLE_RANGE * h:
        raise ValueError(f"a sample at |x| = {reach:.3g} lies beyond the smoothing table's "
                         f"range 2^45 sqrt(eps) / 64 = {_TABLE_RANGE * h:.3g} for eps={eps!r}")
    pad = int(_KERNEL_CUT / _NODE_SPACING)
    lo = rows[:, :1]
    frac = rows - lo
    frac /= h                                        # lattice positions
    left = frac.astype(np.int64)
    frac -= left                                     # and their fractional parts
    # a sample loads lattice nodes left and left + 1, and left never decreases
    # along a row: a row's first sample opens a run, and so does a step of
    # more than two cuts between neighbours
    opens = np.empty((r, n), dtype=bool)
    opens[:, 0] = True
    np.greater(left[:, 1:] - left[:, :-1], 2 * pad + 1, out=opens[:, 1:])
    first = np.flatnonzero(opens)                    # each run's first sample
    left = left.ravel()
    last = np.append(first[1:], left.size) - 1       # and its last
    starts = left[first] - pad
    lengths = left[last] + pad + 2 - starts
    # the runs of all rows end to end on one axis, a row's table the stretch
    # from its first run to its last
    ends = np.cumsum(lengths)
    axis_starts = ends - lengths
    row_runs = np.searchsorted(first, np.arange(0, left.size, n))  # each row's first run
    offsets = axis_starts[row_runs]
    sizes = np.add.reduceat(lengths, row_runs)
    # the rows of one FFT length m, a fast one, are binned as one (rows, m)
    # block; a row's bins start past the block's earlier rows
    ffts = 1 << np.frexp(sizes - 1)[1]               # 2^bit_length(size - 1)
    block_shift = -offsets
    groups = []
    for m in np.unique(ffts).tolist():
        group = np.flatnonzero(ffts == m)
        block_shift[group] += m * np.arange(group.size)
        groups.append((m, group))
    at = (left + np.repeat(axis_starts - starts, last + 1 - first)).reshape(r, n)
    at += block_shift[:, None]
    values = np.empty(int(ends[-1]))
    offsets, sizes = offsets.tolist(), sizes.tolist()
    for m, group in groups:
        g = group.size
        at_g, frac_g = (at, frac) if g == r else (at[group], frac[group])
        # a sample loads its left node by 1 - frac and its right one by frac;
        # each node's two loads are summed apart, in sample order, then added
        loads = _kept("loads", (2, g * m), float)
        loads.fill(0.0)
        np.add.at(loads[0], at_g.ravel(), (1.0 - frac_g).ravel())
        np.add.at(loads[1], at_g.ravel() + 1, frac_g.ravel())
        weights = np.add(loads[0], loads[1], out=loads[0])
        weights /= n * h
        # a lone row goes through the 1-D transforms, which numpy runs faster;
        # the convolution overwrites the right loads, which are spent
        shape = (g, m) if g > 1 else (m,)
        block = periodic_convolution(weights.reshape(shape), _table_kernel(m, h, eps), h,
                                     spectrum=_kept("spectrum", shape[:-1] + (m // 2 + 1,),
                                                    complex),
                                     out=loads[1].reshape(shape))
        for row, conv in zip(group.tolist(), block.reshape(g, m)):
            a, z = offsets[row], sizes[row]
            np.maximum(conv[:z], 0.0, out=values[a:a + z])
    # the lattice: each run counts up from its start
    nodes = np.empty(values.size)
    for a, start, length in zip(axis_starts.tolist(), starts.tolist(), lengths.tolist()):
        nodes[a:a + length] = np.arange(start, start + length)
    nodes *= h
    tables = []
    for row, (a, z) in enumerate(zip(offsets, sizes)):
        row_nodes = nodes[a:a + z]
        row_nodes += lo[row, 0]
        tables.append((row_nodes, values[a:a + z]))
    # a run's first and last nodes lie a full cut from its samples: the
    # table reads 0 there and in the gaps between runs
    values[axis_starts] = 0.0
    values[ends - 1] = 0.0
    return tables if s.ndim == 2 else tables[0]


# smoothing_table's bins and FFT blocks are kept per thread, as lockstep
# batches on worker threads build their tables concurrently; an array of
# more than _KEPT_ELEMENTS values is not kept
_KEPT_ELEMENTS = 1 << 18
_kept_blocks = threading.local()


def _kept(name, shape, dtype):
    """A ``shape`` array of ``dtype`` over memory this thread keeps under
    ``name`` for its next call with that name, which overwrites it: what it
    holds must be copied out before then.  A thread's memory for a name is
    made once, for _KEPT_ELEMENTS values, and never made again as shapes
    change; numpy leaves the pages no call writes untouched, so they take
    no memory.  (Kept arrays that grew by reallocation made compare's
    n = 1e5 runs fault in about twice the pages.)  A larger array is fresh.
    """
    size = math.prod(shape)
    if size > _KEPT_ELEMENTS:
        return np.empty(shape, dtype)
    buf = getattr(_kept_blocks, name, None)
    if buf is None:
        buf = np.empty(_KEPT_ELEMENTS, dtype)
        setattr(_kept_blocks, name, buf)
    return buf[:size].reshape(shape)


@functools.lru_cache(maxsize=8)
def _table_kernel(m, h, eps):
    """:func:`smoothing_table`'s kernel transform on m nodes of spacing h,
    read-only, as it is shared by every call of that length."""
    kernel_hat = periodic_gaussian_transform(m, h, m * h, eps)
    kernel_hat.flags.writeable = False
    return kernel_hat


def read_table(table, x):
    """A :func:`smoothing_table` at x by linear interpolation; 0 outside it."""
    nodes, values = table
    return np.interp(x, nodes, values, left=0.0, right=0.0)


def periodic_gaussian_transform(m, dx, period, eps):
    """The rfft of g_eps on m periodic nodes of spacing dx, for
    :func:`periodic_convolution`; build it once per grid."""
    offsets = np.arange(m) * dx
    dist = period - offsets
    np.minimum(offsets, dist, out=dist)
    return np.fft.rfft(gaussian_kernel(dist, eps))


def periodic_convolution(values, kernel_hat, dx, spectrum=None, out=None):
    """g * p for p sampled with spacing dx on a periodic grid, by FFT, with
    ``kernel_hat`` from :func:`periodic_gaussian_transform`.  A 2-D
    ``values`` holds one grid per row; each row gets the bits a 1-D call
    would give it.  The transform is written into ``spectrum`` and the
    result into ``out`` when they are given (numpy's ``out=``), with the
    same bits as into fresh arrays."""
    spectrum = np.fft.rfft(values, out=spectrum)
    spectrum *= kernel_hat
    out = np.fft.irfft(spectrum, n=values.shape[-1], out=out)
    out *= dx
    return out


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
        return float(_sorted_pairing(x, y)[0])
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


def empirical_gap_experiment(law_sampler, n, reps, rng, n_ref=10 ** 6):
    """Estimate E d^2(nu^n, nu) against a large-sample stand-in for nu:
    (mean square distance, its standard error) over ``reps`` repetitions.

    ``law_sampler(rng, size)`` draws i.i.d. samples.  The reference law
    is represented by one i.i.d. sample of size ``n_ref`` (frozen across
    repetitions), which biases the estimate at the O(n_ref^-1/2) scale.
    """
    ref = np.sort(law_sampler(rng, n_ref))
    vals = np.empty(reps)
    for r in range(reps):
        xs = np.sort(law_sampler(rng, n))
        vals[r] = _w2sq_sorted_unequal(xs, ref)
    return _mean_stderr(vals)


def _lemma4(*, n_values, reps, n_ref, bound, seed):
    """The lemma-4 battery: :func:`empirical_gap_experiment` on the standard
    normal law at each n; each mean at most ``bound``, and each below the
    one before within twice their combined standard error."""
    ests = [empirical_gap_experiment(lambda r, size: r.standard_normal(size), n, reps,
                                     substream(seed, 40, i), n_ref=n_ref)
            for i, n in enumerate(n_values)]
    means, stderrs = zip(*ests)
    checks = [CheckResult(f"lemma4_bound_{i}", m, bound) for i, m in enumerate(means)]
    checks += _within_2se("lemma4_monotone", means, stderrs, "<")
    rows = [{"n": n, "mean_sq_distance": m, "stderr": se} for n, (m, se) in zip(n_values, ests)]
    return {"bound": bound, "rows": rows}, checks


def _mean_stderr(values):
    """(mean, standard error) of Monte-Carlo repetitions; the error is inf
    for one repetition."""
    reps = values.size
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
    return mean, stderr


def _within_2se(name, means, stderrs, sense):
    """One check per step along ``means``: the mean may rise over the one
    before by at most (``<=``) or by less than (``<``) twice their combined
    standard error."""
    return [CheckResult(f"{name}_{i}", b, a + 2.0 * math.hypot(sa, sb), sense)
            for i, (a, b, sa, sb) in enumerate(zip(means, means[1:], stderrs, stderrs[1:]), 1)]


def _sin_cos_of_half_tan(t, cos=True, out=None, scratch=None):
    """sin x and cos x from t = tan(x / 2): 2t / (1 + t^2) and
    (1 - t^2) / (1 + t^2).

    The stable sampler, the sine kernel's summaries and evaluations and
    the empirical CF gap take their sines and cosines from here.  numpy's
    float64 ``tan`` is SIMD-dispatched where its ``sin`` and ``cos`` may
    be scalar libm calls, several times slower; against libm the identity
    is off by at most about 2.2e-16 absolute over [-40, 40], multiples of
    pi/2 included.  ±0 stay ±0, and a non-finite x (whose tangent is nan)
    gives nan, as libm does.  t is an array or a scalar (0-d too).
    Returns (sin x, cos x), or sin x alone when ``cos`` is False.  For an
    array t, sin x is written into ``out`` when given (t itself may be
    it) and 1 + t^2 into ``scratch`` (not t), with the same bits as into
    fresh arrays.
    """
    q = np.multiply(t, t, out=scratch)
    c = 1.0 - q if cos else None
    q += 1.0
    s = np.add(t, t, out=out)
    s /= q
    if not cos:
        return s
    c /= q
    return s, c


def _cf_gap(samples, xi, expected):
    """max over xi of |empirical CF of the samples - expected CF|.

    Blocked over xi, as many as the block budget holds against every
    sample (one at a time for a large sample): each xi's mean is one
    reduction over every sample, of the cosines and of the sines of xi X
    apart, both from :func:`_sin_cos_of_half_tan`.
    """
    emp = np.empty(xi.size, dtype=complex)
    step = _row_block(samples.size)
    for lo in range(0, xi.size, step):
        t = xi[lo:lo + step, None] * samples[None, :]
        t *= 0.5
        sin, cos = _sin_cos_of_half_tan(np.tan(t, out=t), out=t)
        emp.real[lo:lo + step] = cos.mean(axis=1)
        emp.imag[lo:lo + step] = sin.mean(axis=1)
        del t, sin, cos                              # before the next block's
    return float(np.max(np.abs(emp - expected)))
