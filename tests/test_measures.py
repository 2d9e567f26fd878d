"""Transport distances against brute-force assignment oracles."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from levymv import measures
from levymv.coefficients import CauchyKernel, SmoothedDensityPower
from levymv.fokker_planck import FractionalParams, adjoint_identity_check, bump, gaussian_grid
from levymv.measures import (_KERNEL_CUT, _NODE_SPACING, _TABLE_RANGE, EmpiricalMeasure,
                             _cf_gap,
                             _pair_mean, _sorted_pairing, _w2sq_sorted_unequal, gaussian_kernel,
                             check_empirical_distance_bound,
                             empirical_gap_experiment, read_table,
                             second_moment, smoothed_density, smoothing_table,
                             truncated_wasserstein2_upper, wasserstein2)
from levymv.rng import substream


def brute_force_w2(xs, ys):
    return min(math.sqrt(np.mean((np.asarray(p) - ys) ** 2))
               for p in itertools.permutations(xs))


def brute_force_d1(xs, ys):
    return min(math.sqrt(np.mean(np.minimum((np.asarray(p) - ys) ** 2, 1.0)))
               for p in itertools.permutations(xs))


class TestWasserstein2:
    def test_identity_is_zero(self):
        mu = EmpiricalMeasure([0.0, 1.5, -2.0])
        assert wasserstein2(mu, mu) == 0.0

    def test_unit_translation(self):
        mu = EmpiricalMeasure(np.zeros(7))
        nu = EmpiricalMeasure(np.ones(7))
        assert wasserstein2(mu, nu) == pytest.approx(1.0)

    def test_matches_brute_force_assignment(self):
        rng = substream(100)
        for _ in range(8):
            xs = rng.normal(0, 1, 5)
            ys = rng.normal(0.5, 2, 5)
            got = wasserstein2(EmpiricalMeasure(xs), EmpiricalMeasure(ys))
            assert got == pytest.approx(brute_force_w2(xs, ys), abs=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wasserstein2(EmpiricalMeasure([0.0]), EmpiricalMeasure([0.0, 1.0]))

    def test_symmetry_and_triangle(self):
        rng = substream(101)
        for _ in range(200):
            a = EmpiricalMeasure(rng.normal(0, 1, 8))
            b = EmpiricalMeasure(rng.normal(1, 2, 8))
            c = EmpiricalMeasure(rng.normal(-1, 0.5, 8))
            assert wasserstein2(a, b) == wasserstein2(b, a)
            assert wasserstein2(a, c) <= wasserstein2(a, b) + wasserstein2(b, c) + 1e-10


class TestSortedPairing:
    def test_rows_equal_one_row_calls(self):
        # the coupled runs take W2 and the bound excess of all rows at once
        rng = substream(116)
        xs = rng.normal(0, 1, (7, 33))
        ys = xs + rng.standard_cauchy((7, 33))
        gap = xs - ys
        w2sq, excess = _sorted_pairing(np.sort(xs, axis=1), np.sort(ys, axis=1), gap)
        for r in range(7):
            one_sq, one_excess = _sorted_pairing(np.sort(xs[r]), np.sort(ys[r]), gap[r])
            assert w2sq[r] == one_sq and excess[r] == one_excess
        assert np.all(excess <= 1e-12)

    def test_excess_is_w2_less_the_paired_cost(self):
        rng = substream(117)
        xs, ys = rng.normal(0, 1, 20), rng.normal(0.4, 2, 20)
        mu, nu = EmpiricalMeasure(xs), EmpiricalMeasure(ys)
        w2sq, excess = _sorted_pairing(mu.samples, nu.samples, xs - ys)
        assert _sorted_pairing(mu.samples, nu.samples)[1] is None
        assert math.sqrt(w2sq) == wasserstein2(mu, nu)
        assert excess == pytest.approx(
            wasserstein2(mu, nu) - float(np.linalg.norm(xs - ys)) / math.sqrt(20),
            abs=1e-15)

    def test_wasserstein2_squared_is_the_equal_size_gap(self):
        rng = substream(118)
        for n in (1, 5, 64):
            mu = EmpiricalMeasure(rng.normal(0, 1, n))
            nu = EmpiricalMeasure(rng.normal(1, 3, n))
            w2sq = _w2sq_sorted_unequal(mu.samples, nu.samples)
            assert wasserstein2(mu, nu) == math.sqrt(w2sq)
            assert wasserstein2(mu, nu) ** 2 == pytest.approx(w2sq, rel=1e-15)


class TestTruncatedUpperBound:
    def test_identity_and_saturation(self):
        mu = EmpiricalMeasure([0.0, 0.0, 0.0])
        assert truncated_wasserstein2_upper(mu, mu) == 0.0
        nu = EmpiricalMeasure([10.0, 10.0, 10.0])
        assert truncated_wasserstein2_upper(mu, nu) == pytest.approx(1.0)

    def test_upper_bounds_brute_force(self):
        rng = substream(102)
        for _ in range(8):
            xs = rng.normal(0, 1.5, 5)
            ys = rng.normal(0, 1.5, 5)
            got = truncated_wasserstein2_upper(EmpiricalMeasure(xs),
                                               EmpiricalMeasure(ys))
            assert got >= brute_force_d1(xs, ys) - 1e-12

    def test_equals_brute_force_when_gaps_small(self):
        # with every pairwise gap below 1 the truncation is inert and the
        # sorted coupling is optimal
        rng = substream(103)
        for _ in range(8):
            xs = rng.uniform(0.0, 0.4, 5)
            ys = rng.uniform(0.0, 0.4, 5)
            got = truncated_wasserstein2_upper(EmpiricalMeasure(xs),
                                               EmpiricalMeasure(ys))
            assert got == pytest.approx(brute_force_d1(xs, ys), abs=1e-12)

    def test_dominated_by_min_of_w2_and_one(self):
        rng = substream(104)
        for _ in range(300):
            n = int(rng.integers(2, 16))
            mu = EmpiricalMeasure(rng.normal(0, 2, n))
            nu = EmpiricalMeasure(rng.normal(0.5, 1, n))
            assert truncated_wasserstein2_upper(mu, nu) <= min(wasserstein2(mu, nu),
                                                               1.0) + 1e-12


class TestDistanceBound:
    def test_equal_configurations(self):
        assert check_empirical_distance_bound([1.0, 2.0], [1.0, 2.0])

    def test_permutation_witnesses_slack(self):
        # swapped coordinates: optimal coupling gives 0, paired cost gives 1
        xs, ys = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        assert wasserstein2(EmpiricalMeasure(xs), EmpiricalMeasure(ys)) == 0.0
        assert float(np.linalg.norm(xs - ys)) / math.sqrt(2) == pytest.approx(1.0)
        assert check_empirical_distance_bound(xs, ys)

    def test_random_pairs_never_violate(self):
        rng = substream(105)
        for _ in range(500):
            n = int(rng.integers(2, 65))
            xs = rng.normal(0, 1 + 3 * rng.random(), n)
            ys = xs + rng.normal(0, 2 * rng.random(), n)
            assert check_empirical_distance_bound(xs, ys)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_empirical_distance_bound([0.0], [0.0, 1.0])


class TestSmoothedDensity:
    def test_kernel_peak_value(self):
        eps = 0.3
        mu = EmpiricalMeasure([0.0])
        assert smoothed_density(mu, eps, 0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi * eps))

    def test_quadrature_mass_is_one(self):
        rng = substream(106)
        mu = EmpiricalMeasure(rng.normal(0, 1, 50))
        x = np.linspace(-12, 12, 6001)
        vals = smoothed_density(mu, 0.2, x)
        assert abs(np.trapezoid(vals, x) - 1.0) < 1e-6

    def test_gaussian_convolution_closed_form(self):
        # smoothing an N(0,1) sample with g_eps approaches N(0, 1+eps)
        rng = substream(107)
        eps = 0.1
        mu = EmpiricalMeasure(rng.standard_normal(100_000))
        x = np.linspace(-4, 4, 161)
        vals = smoothed_density(mu, eps, x)
        exact = norm.pdf(x, scale=math.sqrt(1 + eps))
        assert np.max(np.abs(vals - exact)) < 0.02

    def test_strictly_positive_and_second_derivative_bounded(self):
        rng = substream(108)
        eps = 0.25
        mu = EmpiricalMeasure(rng.normal(0, 2, 500))
        x = np.linspace(-8, 8, 801)
        f = smoothed_density(mu, eps, x)
        assert np.all(f > 0.0)
        h = x[1] - x[0]
        fdd = (f[2:] - 2 * f[1:-1] + f[:-2]) / (h * h)
        kernel_peak = 1.0 / math.sqrt(2 * math.pi * eps)
        assert np.max(np.abs(fdd)) <= 1.05 * kernel_peak / eps

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            smoothed_density(EmpiricalMeasure([0.0]), 0.0, 0.0)

    @staticmethod
    def _sample_blocked(samples, eps, x, block=1 << 22):
        # the sum blocked over the samples instead, block by block
        out = np.zeros(x.shape)
        step = max(1, block // x.size)
        for lo in range(0, samples.size, step):
            out += gaussian_kernel(x[:, None] - samples[None, lo:lo + step], eps).sum(axis=1)
        return out / samples.size

    def test_equals_a_sample_blocked_sum(self):
        # one block below 2^22 point-sample pairs: the same bits; above, each
        # point's sum is one reduction, a roundoff away from the block sums
        rng = substream(119)
        small = rng.normal(0, 1, 500)
        x = np.linspace(-5, 5, 801)
        assert np.array_equal(smoothed_density(small, 0.2, x),
                              self._sample_blocked(small, 0.2, x))
        large = rng.normal(0, 1, 3000)
        x = np.linspace(-5, 5, 2000)
        assert x.size * large.size > 1 << 22
        np.testing.assert_allclose(smoothed_density(large, 0.2, x),
                                   self._sample_blocked(large, 0.2, x), rtol=1e-14, atol=0)


class TestSmoothingTable:
    def test_table_mass_is_one_and_far_runs_stay_apart(self):
        # two clusters far beyond the kernel cut: two runs, each carrying
        # its own share of the mass
        s = np.concatenate([substream(109).normal(0, 1, 300), [1e4, 1e4 + 0.5]])
        nodes, values = smoothing_table(s, 0.2)
        gap = np.flatnonzero(np.diff(nodes) > 1.0)
        assert gap.size == 1
        left, right = gap[0] + 1, nodes.size
        assert np.trapezoid(values[:left], nodes[:left]) == pytest.approx(300 / 302, rel=1e-9)
        assert np.trapezoid(values[left:right], nodes[left:right]) == pytest.approx(
            2 / 302, rel=1e-9)
        assert read_table((nodes, values), 5e3) == 0.0

    def test_shuffled_samples_give_the_sorted_table(self):
        s = np.sort(substream(111).standard_cauchy(3000))
        shuffled = substream(112).permutation(s)
        for got, want in zip(smoothing_table(shuffled, 0.05), smoothing_table(s, 0.05)):
            assert np.array_equal(got, want)

    def test_lattice_layout_under_ties(self):
        # repeated samples, many samples in one lattice cell and samples
        # exactly on a node (h = 2^-7 here), with loaded nodes two cuts plus
        # one node apart (one run) and plus two (two runs): the table lays
        # out the runs around the loaded nodes that np.unique finds
        eps = 0.25
        h = _NODE_SPACING * math.sqrt(eps)
        pad = int(_KERNEL_CUT / _NODE_SPACING)
        far = 50.0 + np.array([0.0, 0.0, 2 * pad + 1, 4 * pad + 3]) * h
        s = np.sort(np.r_[np.zeros(40), np.full(25, 3 * h),
                          0.5 * h + np.linspace(0.0, 0.4 * h, 30), [2.0, 2.0], far])
        nodes, values = smoothing_table(s, eps)
        loaded = np.unique(((s - s[0]) / h).astype(np.int64))
        runs = np.split(loaded, np.flatnonzero(np.diff(loaded) > 2 * pad + 1) + 1)
        assert len(runs) == 3
        lattice = np.concatenate([np.arange(r[0] - pad, r[-1] + pad + 2) for r in runs])
        assert np.array_equal(nodes, s[0] + h * lattice)
        assert np.trapezoid(values, nodes) == pytest.approx(1.0, rel=1e-9)

    def test_rows_give_each_rows_table_with_one_transform_per_length(self, monkeypatch):
        rng = substream(113)
        s = np.sort(rng.normal(0.0, 1.0, (5, 60)), axis=1)
        s[2] = np.sort(100.0 * rng.standard_cauchy(60))
        own = [smoothing_table(row, 0.05) for row in s]
        lengths = {1 << (nodes.size - 1).bit_length() for nodes, _ in own}
        assert len(lengths) == 2
        measures._table_kernel.cache_clear()
        built = self._count_builds(monkeypatch)
        tables = smoothing_table(s, 0.05)
        assert len(tables) == len(own)
        for (nodes, values), (want_nodes, want_values) in zip(tables, own):
            assert np.array_equal(nodes, want_nodes)
            assert np.array_equal(values, want_values)
        assert sorted(built) == sorted(lengths)

    @staticmethod
    def _count_builds(monkeypatch):
        built = []
        transform = measures.periodic_gaussian_transform
        monkeypatch.setattr(measures, "periodic_gaussian_transform",
                            lambda m, *args: built.append(m) or transform(m, *args))
        return built

    def test_a_repeated_call_reuses_the_read_only_kernel(self, monkeypatch):
        s = np.sort(substream(115).normal(0.0, 1.0, (3, 50)), axis=1)
        measures._table_kernel.cache_clear()
        built = self._count_builds(monkeypatch)
        first = smoothing_table(s, 0.05)
        assert len(built) == 1
        again = smoothing_table(s, 0.05)
        assert len(built) == 1
        for (_, values), (_, want) in zip(again, first):
            assert np.array_equal(values, want)
        m = built[0]
        h = _NODE_SPACING * math.sqrt(0.05)
        kernel_hat = measures._table_kernel(m, h, 0.05)
        assert len(built) == 1 and not kernel_hat.flags.writeable
        assert np.array_equal(kernel_hat,
                              measures.periodic_gaussian_transform(m, h, m * h, 0.05))

    @staticmethod
    def _assert_rows_are_own_tables(s, eps):
        tables = smoothing_table(s, eps)
        assert len(tables) == len(s)
        for row, (nodes, values) in zip(s, tables):
            want_nodes, want_values = smoothing_table(row, eps)
            assert np.array_equal(nodes, want_nodes)
            assert np.array_equal(values, want_values)

    def test_rows_of_mixed_shapes_give_each_rows_table(self):
        # rows of four FFT lengths, a row ending in a far cluster right before
        # the next row's first sample in the flattened layout, a row of one
        # repeated value (its lattice nodes all 0, as the next row's first)
        # and an unsorted row: each row keeps its own runs
        eps = 0.05
        h = _NODE_SPACING * math.sqrt(eps)
        rng = substream(114)
        s = np.sort(rng.normal(0.0, 1.0, (6, 40)), axis=1)
        s[1] = np.sort(300.0 * rng.standard_cauchy(40))
        s[2, -3:] = 1e4 + np.array([0.0, h, 2 * h])
        s[3] = 7.25
        s[4] = np.sort(rng.normal(0.0, 20.0, 40))
        s[5] = rng.permutation(s[0] + 0.3)
        lengths = {1 << (smoothing_table(row, eps)[0].size - 1).bit_length()
                   for row in s}
        assert len(lengths) == 4
        self._assert_rows_are_own_tables(s, eps)

    def test_rows_of_one_sample(self):
        s = substream(115).normal(0.0, 3.0, (4, 1))
        self._assert_rows_are_own_tables(s, 0.2)
        nodes, values = smoothing_table(s[2], 0.2)
        assert np.trapezoid(values, nodes) == pytest.approx(1.0, rel=1e-9)

    def test_a_non_finite_entry_in_any_row_is_rejected(self):
        s = substream(116).normal(0.0, 1.0, (3, 10))
        for bad in (np.nan, np.inf, -np.inf):
            rows = s.copy()
            rows[2, 4] = bad
            with pytest.raises(ValueError):
                smoothing_table(rows, 0.5)

    def test_accuracy_holds_over_the_range_and_a_sample_beyond_it_is_rejected(self):
        # the nodes' roundoff grows with |x| / h: a tight cluster just inside
        # the range still reads within 1e-4 of the exact density, and one far
        # sample, which would degrade every read of its row, is rejected
        eps = 0.5
        edge = _TABLE_RANGE * _NODE_SPACING * math.sqrt(eps)
        s = np.sort(0.999 * edge + substream(117).normal(0.0, 1.5, 3000))
        x = np.concatenate([0.999 * edge + np.linspace(-4.0, 4.0, 81), s[::10]])
        got = read_table(smoothing_table(s, eps), x)
        np.testing.assert_allclose(got, smoothed_density(s, eps, x), rtol=1e-4, atol=0.0)
        for far, eps in ((-1e13, 0.05), (1e17, 0.5), (-1.001 * edge, 0.5)):
            row = np.sort(np.r_[far, substream(118).normal(0.0, 1.0, 20)])
            block = np.stack([np.sort(substream(119).normal(0.0, 1.0, 21)), row])
            for samples in (row, block):
                with pytest.raises(ValueError, match=f"beyond .* for eps={eps}"):
                    smoothing_table(samples, eps)

    def test_a_table_is_unchanged_by_later_calls(self):
        # the FFT blocks are kept across calls; no table shares memory with
        # them, so later calls of other shapes, one and two rows, leave a
        # table's bits alone
        rng = substream(120)
        rows = np.sort(rng.normal(0.0, 1.0, (20, 50)), axis=1)
        tables = smoothing_table(rows, 0.5)
        copies = [(nodes.copy(), values.copy()) for nodes, values in tables]
        smoothing_table(rows + 3.0, 0.5)                 # the same shape
        for shape, eps in (((5, 50), 0.5), ((3, 400), 0.5), ((2000,), 0.05), ((20, 50), 0.2)):
            smoothing_table(np.sort(rng.normal(0.0, 1.0, shape), axis=-1), eps)
        for (nodes, values), (want_nodes, want_values) in zip(tables, copies):
            assert np.array_equal(nodes, want_nodes) and np.array_equal(values, want_values)

    def test_tables_built_on_threads_equal_the_single_thread_tables(self):
        # each thread keeps its own blocks, so concurrent calls cannot
        # overwrite one another's
        from concurrent.futures import ThreadPoolExecutor
        rng = substream(121)
        batches = [np.sort(rng.normal(0.0, 1.0 + k, (20, 50 * (1 + k % 3))), axis=1)
                   for k in range(12)]
        want = [smoothing_table(rows, 0.5) for rows in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)                     # switch threads often
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                got = list(pool.map(lambda rows: smoothing_table(rows, 0.5), batches * 3,
                                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for tables, want_tables in zip(got, want * 3):
            for (nodes, values), (want_nodes, want_values) in zip(tables, want_tables):
                assert np.array_equal(nodes, want_nodes)
                assert np.array_equal(values, want_values)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
    def test_repeated_calls_do_not_fault_in_fresh_pages(self):
        # a coupled run's step builds a (20, 50) table after the one before:
        # in the kept blocks, its temporaries need no fresh pages (with
        # fresh blocks, each call faulted in about 290).  A fresh process,
        # as the allocator's state after other tests could hide the faults
        code = """if True:
            import resource, sys
            import numpy as np
            from levymv.measures import smoothing_table
            from levymv.rng import substream
            rows = np.sort(substream(122).normal(0.0, 1.0, (20, 50)), axis=1)
            for _ in range(5):
                smoothing_table(rows, 0.5)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(50):
                smoothing_table(rows, 0.5)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
        """
        src = os.path.dirname(os.path.dirname(measures.__file__))
        run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert float(run.stdout) < 32

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            smoothing_table(np.array([0.0, np.inf]), 0.5)
        with pytest.raises(ValueError):
            smoothing_table(np.array([]), 0.5)
        with pytest.raises(ValueError):
            smoothing_table(np.array([0.0]), 0.0)


def _traced_peak_mib(fn):
    """The peak of the memory traced while ``fn()`` runs (numpy reports its
    buffers to tracemalloc), in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestBlockBudget:
    # the budget bounds each blocked kernel's working set; holding every row
    # (or 2^22 point-sample pairs) at once, these cases peak at 50.7, 64.0
    # and 152.6 MiB

    def test_duality_case_at_4096_points_stays_small(self):
        nu = gaussian_grid(8.0, 4096, std=1.0)
        peak = _traced_peak_mib(lambda: adjoint_identity_check(
            SmoothedDensityPower(0.5, 0.5), nu, bump(-1.0, 2.5), bump(1.2, 2.2),
            FractionalParams(1.5, 1.0)))
        assert peak <= 8.0

    def test_smoothed_density_of_many_points_stays_small(self):
        samples = substream(131).normal(0.0, 1.0, 10 ** 4)
        x = np.linspace(-4.0, 4.0, 4000)
        assert _traced_peak_mib(lambda: smoothed_density(samples, 0.5, x)) <= 4.0

    def test_cf_gap_over_a_large_sample_stays_small(self):
        samples = substream(132).standard_cauchy(10 ** 6)
        xi = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        assert _traced_peak_mib(lambda: _cf_gap(samples, xi, np.exp(-np.abs(xi)))) <= 40.0

    def test_results_do_not_depend_on_the_budget(self, monkeypatch):
        # each point's and each xi's sum is one reduction over every sample,
        # whichever rows share its block
        rng = substream(133)
        samples = np.sort(rng.normal(0.0, 1.0, 2000))
        x = rng.normal(0.0, 2.0, 300)
        xi = np.linspace(-3.0, 3.0, 41)
        kernel = CauchyKernel(1.0, 0.5)
        assert measures._row_block(samples.size) > 1
        default = (_pair_mean(kernel, x, samples), _cf_gap(samples, xi, np.exp(-xi * xi)))
        monkeypatch.setattr(measures, "_BLOCK_ELEMENTS", 1)
        assert np.array_equal(_pair_mean(kernel, x, samples), default[0])
        assert _cf_gap(samples, xi, np.exp(-xi * xi)) == default[1]


class TestSecondMoment:
    def test_trivial_values(self):
        assert second_moment(EmpiricalMeasure([0.0])) == 0.0
        assert second_moment(EmpiricalMeasure([1.0, -1.0])) == pytest.approx(1.0)

    def test_matches_naive_loop(self):
        rng = substream(109)
        xs = rng.normal(0, 3, 137)
        naive = sum(v * v for v in xs) / xs.size
        assert second_moment(EmpiricalMeasure(xs)) == pytest.approx(naive)


class TestUnequalSizeCoupling:
    def test_block_formula_matches_repeat(self):
        rng = substream(110)
        x = np.sort(rng.normal(0, 1, 8))
        y = np.sort(rng.normal(0, 1, 64))
        direct = _w2sq_sorted_unequal(x, y)
        via_repeat = float(np.mean((np.repeat(x, 8) - y) ** 2))
        assert direct == pytest.approx(via_repeat, abs=1e-14)

    def test_merged_breakpoints_against_lcm_repeat(self):
        rng = substream(111)
        x = np.sort(rng.normal(0, 1, 6))
        y = np.sort(rng.normal(0.3, 1.4, 9))
        merged = _w2sq_sorted_unequal(x, y)
        lcm = float(np.mean((np.repeat(x, 3) - np.repeat(y, 2)) ** 2))
        assert merged == pytest.approx(lcm, abs=1e-12)

    def test_equal_sizes_reduce_to_sorted_formula(self):
        rng = substream(112)
        x = np.sort(rng.normal(0, 1, 10))
        y = np.sort(rng.normal(0, 1, 10))
        assert _w2sq_sorted_unequal(x, y) == pytest.approx(
            float(np.mean((x - y) ** 2)))


class TestGapExperiment:
    def test_point_mass_gives_zero(self):
        mean, _ = empirical_gap_experiment(lambda r, size: np.zeros(size), 10, 5,
                                           substream(113), n_ref=1000)
        assert mean == 0.0

    def test_gaussian_bounded_by_four_second_moments(self):
        for i, n in enumerate((10, 100)):
            mean, _ = empirical_gap_experiment(
                lambda r, size: r.standard_normal(size), n, 50,
                substream(114, i), n_ref=100_000)
            assert mean <= 4.0

    def test_estimates_decrease_in_n(self):
        ests = [empirical_gap_experiment(lambda r, size: r.standard_normal(size),
                                         n, 60, substream(115, n), n_ref=100_000)
                for n in (10, 100, 1000)]
        for (mean_a, se_a), (mean_b, se_b) in zip(ests, ests[1:]):
            assert mean_b < mean_a + 2.0 * math.hypot(se_a, se_b)


class TestEmpiricalMeasureContainer:
    def test_sorted_and_validated(self):
        mu = EmpiricalMeasure([3.0, -1.0, 2.0])
        assert np.array_equal(mu.samples, [-1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            EmpiricalMeasure([])
        with pytest.raises(ValueError):
            EmpiricalMeasure([np.nan])

    def test_csv_roundtrip(self, tmp_path):
        mu = EmpiricalMeasure(substream(116).normal(0, 1, 41))
        path = tmp_path / "m.csv"
        mu.to_csv(path)
        back = EmpiricalMeasure.from_csv(path)
        assert np.array_equal(mu.samples, back.samples)
