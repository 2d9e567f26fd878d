"""Coefficient families: closed forms, parity, measure-Lipschitz probes."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from levymv.coefficients import (CauchyKernel, Constant, LinearInteraction, SineKernel,
                                 SmoothedDensityPower)
from levymv.drivers import StableDriverSpec, sample_increment_array
from levymv.fokker_planck import (FractionalParams, adjoint_identity_check, bump,
                                  gaussian_grid)
from levymv.measures import (EmpiricalMeasure, periodic_convolution,
                             periodic_gaussian_transform, wasserstein2)
from levymv.rng import substream


class TestConstant:
    def test_value_everywhere(self):
        sig = Constant(1.0)
        mu = EmpiricalMeasure([1.0, 2.0, 3.0])
        assert sig.evaluate(0.7, mu) == 1.0
        assert np.all(sig.evaluate(np.linspace(-3, 3, 7), mu) == 1.0)

    def test_grid_evaluation(self):
        grid = gaussian_grid(8.0, 64)
        spectrum = np.fft.rfft(grid.values)
        values, sigma = Constant(2.0).on_grid(grid)(spectrum)
        assert np.all(sigma == 2.0)
        assert np.array_equal(values, np.fft.irfft(spectrum, n=grid.m))


class TestConstantValue:
    @pytest.mark.parametrize("sig,value", [
        (Constant(1.3), 1.3), (Constant(0.0), 0.0), (Constant(-2), -2.0),
        (LinearInteraction(SineKernel(0.7, 0.0)), 0.7),
        (LinearInteraction(CauchyKernel(0.7, 0.0)), 0.7),
        (LinearInteraction(SineKernel(1.0, 0.5)), None),
        (LinearInteraction(CauchyKernel(0.5, 1.0)), None),
        (SmoothedDensityPower(0.5, 0.5), None),
    ], ids=["constant", "zero", "negative", "sine-c1-0", "cauchy-c1-0", "sine", "cauchy",
            "smoothed"])
    def test_constant_value(self, sig, value):
        # the value sigma takes at every x and every measure, or None
        assert sig.constant_value == value
        if value is not None:
            rng = substream(216)
            mu, x = EmpiricalMeasure(rng.normal(0, 3, 300)), rng.normal(0, 3, 11)
            np.testing.assert_allclose(sig.evaluate(x, mu), value, rtol=1e-15, atol=0.0)


class TestLinearInteraction:
    def test_constant_kernel_reduces_to_c0(self):
        sig = LinearInteraction(SineKernel(c0=0.7, c1=0.0))
        mu = EmpiricalMeasure(substream(200).normal(0, 5, 50))
        assert sig.evaluate(1.3, mu) == pytest.approx(0.7)

    def test_sine_fast_path_matches_pair_sum(self):
        sig = LinearInteraction(SineKernel(1.0, 0.5))
        rng = substream(201)
        samples = rng.normal(0, 2, 300)
        mu = EmpiricalMeasure(samples)
        x = rng.normal(0, 2, 11)
        fast = sig.evaluate(x, mu)
        naive = np.array([np.mean(1.0 + 0.5 * np.sin(xq - mu.samples)) for xq in x])
        assert np.max(np.abs(fast - naive)) < 1e-12

    def test_cauchy_kernel_blocked_sum(self):
        sig = LinearInteraction(CauchyKernel(0.5, 1.0))
        rng = substream(202)
        mu = EmpiricalMeasure(rng.normal(0, 1, 100))
        x = 0.3
        naive = np.mean(0.5 + 1.0 / (1.0 + (x - mu.samples) ** 2))
        assert sig.evaluate(x, mu) == pytest.approx(float(naive))

    def test_pairwise_value_does_not_depend_on_the_other_points(self):
        # 1000 points against 8000 samples span several blocks of points;
        # each point's sum still covers every sample in one reduction
        sig = LinearInteraction(CauchyKernel(0.5, 1.0))
        rng = substream(204)
        samples = rng.normal(0.0, 1.0, 8000)
        x = rng.normal(0.0, 2.0, 1000)
        together = sig.from_summary(x, samples)
        assert np.array_equal(together, [sig.from_summary(xq, samples) for xq in x])

    def test_duplicating_samples_leaves_value_unchanged(self):
        # uniform weights: repeating the sample list is the same measure
        sig = LinearInteraction(CauchyKernel(0.5, 1.0))
        rng = substream(203)
        xs = rng.normal(0, 1, 40)
        mu = EmpiricalMeasure(xs)
        mu2 = EmpiricalMeasure(np.concatenate([xs, xs]))
        assert sig.evaluate(0.9, mu) == pytest.approx(sig.evaluate(0.9, mu2))

    @pytest.mark.parametrize("kernel,bounds", [
        (SineKernel(1.0, -0.5), (1.5, 0.5, 0.5)),
        (CauchyKernel(-0.5, -1.0), (1.5, 3.0 * math.sqrt(3.0) / 8.0, 2.0)),
    ], ids=["sine", "cauchy"])
    def test_kernel_bounds_are_the_documented_ones(self, kernel, bounds):
        # sup |kernel| <= |c0| + |c1| and the documented sups of its first and
        # second x-derivatives, each attained on a fine grid of differences
        d = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 20001)
        h = 1e-4
        v, vp, vm = kernel(d, 0.0), kernel(d + h, 0.0), kernel(d - h, 0.0)
        found = (np.abs(v).max(), np.abs(vp - vm).max() / (2.0 * h),
                 np.abs(vp - 2.0 * v + vm).max() / (h * h))
        for got, bound in zip(found, bounds):
            assert bound - 1e-3 < got <= bound + 1e-6

    @pytest.mark.parametrize("kernel", [SineKernel(1.0, 0.5), CauchyKernel(0.5, 1.0)],
                             ids=["sine", "cauchy"])
    def test_nodal_mean_is_the_pairwise_sum(self, kernel):
        # a kernel's grid reduction is sum_j kernel(node_i, node_j) w_j for
        # weights w of sum 1
        nodes = gaussian_grid(8.0, 64).nodes
        w = substream(217).random(nodes.size)
        w /= w.sum()
        want = np.array([np.sum(kernel(x, nodes) * w) for x in nodes])
        np.testing.assert_allclose(kernel.on_nodes(nodes)(w), want, rtol=1e-13, atol=0.0)

    def test_odd_output_for_sine_kernel_on_even_density(self):
        grid = gaussian_grid(8.0, 256, mean=0.0, std=1.0)
        sig = LinearInteraction(SineKernel(c0=0.0, c1=1.0))
        out = sig.on_grid(grid)(np.fft.rfft(grid.values))[1]
        # nodes are -L + j dx: node 0 has no mirror, the rest pair up
        flipped = -out[1:][::-1]
        assert np.max(np.abs(out[1:] - flipped)) < 1e-12


class TestSmoothedDensityPower:
    def test_point_mass_closed_form(self):
        eps, s = 0.4, 0.7
        sig = SmoothedDensityPower(eps, s)
        mu = EmpiricalMeasure([0.0])
        assert sig.evaluate(0.0, mu) == pytest.approx(
            (2 * math.pi * eps) ** (-s / 2.0))

    def test_strictly_positive(self):
        sig = SmoothedDensityPower(0.5, 0.5)
        rng = substream(204)
        for _ in range(50):
            mu = EmpiricalMeasure(rng.normal(0, 3, 20))
            x = rng.uniform(-30, 30)
            assert sig.evaluate(x, mu) > 0.0

    def test_grid_convolution_matches_monte_carlo(self):
        rng = substream(205)
        grid = gaussian_grid(10.0, 512, std=1.0)
        sig = SmoothedDensityPower(0.5, 1.0)
        on_grid = sig.on_grid(grid)(np.fft.rfft(grid.values))[1]
        mu = EmpiricalMeasure(rng.standard_normal(1_000_000))
        mc = sig.evaluate(grid.nodes, mu)
        assert np.max(np.abs(on_grid - mc)) < 0.01

    @staticmethod
    def _max_rel_gap_to_exact(sig, s):
        """Binned against exact sigma on [-4, 4] and at (about 500 of) the samples."""
        x = np.concatenate([np.linspace(-4.0, 4.0, 81), s[::max(1, s.size // 500)], s[-1:]])
        binned = sig.from_summary(x, sig.summarize(s))
        return float(np.max(np.abs(binned / sig.evaluate(x, s) - 1.0)))

    def test_binned_summary_agrees_with_exact_sum(self):
        sig = SmoothedDensityPower(0.5, 0.5)
        for n in (50, 800, 3001, 8000, 100_000):
            s = np.sort(substream(210, n).normal(0.0, 1.5, n))
            assert self._max_rel_gap_to_exact(sig, s) < 1e-4, n
        # the compare regime: N(0, 1) pushed by a stable increment, wide tails
        n = 100_000
        jump = sample_increment_array(StableDriverSpec(1.5, 1.0), 0.5, n, substream(214, 1))
        s = np.sort(substream(214, 0).standard_normal(n) + jump)
        assert self._max_rel_gap_to_exact(sig, s) < 1e-4

    def test_heavy_tails_lay_out_only_the_occupied_lattice(self):
        sig = SmoothedDensityPower(0.5, 0.5)
        n = 100_000
        s = np.sort(sample_increment_array(StableDriverSpec(0.8, 1.0), 1.0, n, substream(215)))
        h = math.sqrt(0.5) / 64.0
        assert (s[-1] - s[0]) / h > 1e8
        nodes, values = sig.summarize(s)
        assert nodes.size == values.size < 1e6
        assert np.all(np.diff(nodes) > 0.0)
        assert self._max_rel_gap_to_exact(sig, s) < 1e-4

    def test_summary_is_a_table_at_every_size(self):
        sig = SmoothedDensityPower(0.5, 0.5)
        s = np.sort(substream(211).normal(0.0, 1.5, 3001))
        for n in (1, 2, 50, 3000, 3001):
            nodes, values = sig.summarize(s[:n])
            assert nodes.size == values.size
            assert np.all(np.diff(nodes) > 0.0)
            assert np.all(values >= 0.0)
            assert sig.from_summary(nodes[0] - 1.0, (nodes, values)) == 0.0
            at_samples = sig.from_summary(s[:n], (nodes, values))
            np.testing.assert_allclose(at_samples, sig.evaluate(s[:n], s[:n]),
                                       rtol=1e-4, atol=0.0)

    def test_grid_sigma_is_the_periodic_convolution(self):
        # the spectrum times the kernel transform is the convolution's own
        # product, so sigma has the bits of the nodal convolution
        grid = gaussian_grid(8.0, 256, std=1.0)
        sig = SmoothedDensityPower(0.5, 0.5)
        got = sig.on_grid(grid)(np.fft.rfft(grid.values))[1]
        kernel_hat = periodic_gaussian_transform(grid.m, grid.dx, 2.0 * grid.half_width, 0.5)
        want = np.maximum(periodic_convolution(grid.values, kernel_hat, grid.dx), 0.0) ** 0.5
        assert np.array_equal(got, want)

    def test_grid_too_coarse_rejected(self):
        grid = gaussian_grid(16.0, 16)  # dx = 2 -> needs eps >= 16
        with pytest.raises(ValueError):
            SmoothedDensityPower(1.0, 1.0).on_grid(grid)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SmoothedDensityPower(0.0, 1.0)
        with pytest.raises(ValueError):
            SmoothedDensityPower(1.0, 0.0)


class TestSummaryProtocol:
    @pytest.mark.parametrize("sig", [Constant(1.3), LinearInteraction(SineKernel(1.0, 0.5)),
                                     LinearInteraction(CauchyKernel(0.5, 1.0)),
                                     SmoothedDensityPower(0.5, 0.5)])
    def test_from_summary_of_summary_equals_evaluate(self, sig):
        s = np.sort(substream(212).normal(0.0, 1.0, 200))
        x = np.linspace(-3.0, 3.0, 13)
        got = sig.from_summary(x, sig.summarize(s))
        if isinstance(sig, SmoothedDensityPower):
            # the summary is a binned table: close to the exact oracle, not equal
            np.testing.assert_allclose(got, sig.evaluate(x, s), rtol=1e-4, atol=0.0)
        else:
            assert np.array_equal(got, sig.evaluate(x, s))

    @pytest.mark.parametrize("sig", [Constant(1.3), LinearInteraction(SineKernel(1.0, 0.5)),
                                     LinearInteraction(CauchyKernel(0.5, 1.0)),
                                     SmoothedDensityPower(0.05, 0.5)],
                             ids=["constant", "sine", "cauchy", "smoothed"])
    def test_rows_equal_per_row_calls(self, sig):
        # a 2-D sample array is summarized row by row, and each row of x is
        # evaluated against its own row's summary or against one measure's
        rng = substream(214)
        s = np.sort(rng.normal(0.0, 1.0, (5, 40)), axis=1)
        s[3] = np.sort(100.0 * rng.standard_cauchy(40))
        x = rng.normal(0.0, 2.0, (5, 13))
        got = sig.from_summary(x, sig.summarize(s))
        want = np.stack([sig.from_summary(xr, sig.summarize(sr)) for xr, sr in zip(x, s)])
        assert got.shape == x.shape
        assert np.array_equal(got, want)
        one = sig.summarize(s[0])
        got = sig.from_summary(x, one)
        assert got.shape == x.shape
        assert np.array_equal(got, np.stack([sig.from_summary(xr, one) for xr in x]))

    @pytest.mark.parametrize("sig", [Constant(1.3), LinearInteraction(SineKernel(1.0, 0.5)),
                                     LinearInteraction(CauchyKernel(0.5, 1.0)),
                                     SmoothedDensityPower(0.5, 0.5)],
                             ids=["constant", "sine", "cauchy", "smoothed"])
    def test_grid_evaluator_reads_a_spectrum(self, sig):
        # the values come back as a 1-D inverse transform gives them, and
        # sigma is the family's grid value against those values
        grid = gaussian_grid(8.0, 128, mean=0.3, std=0.7)
        spectrum = np.fft.rfft(grid.values)
        values, sigma = sig.on_grid(grid)(spectrum)
        assert np.array_equal(values, np.fft.irfft(spectrum, n=grid.m))
        mu = EmpiricalMeasure(substream(215).normal(0.3, 0.7, 200_000))
        np.testing.assert_allclose(sigma, sig.evaluate(grid.nodes, mu), rtol=0.0, atol=0.02)

    def test_what_each_family_keeps(self):
        s = np.sort(substream(213).normal(0.0, 1.0, 50))
        assert Constant(1.0).summarize(s) is None
        sine = SineKernel(1.0, 0.5)
        assert LinearInteraction(sine).summarize(s) == sine.summary_stats(s)
        assert LinearInteraction(CauchyKernel()).summarize(s) is s


class TestEvaluateOnDensityGuards:
    """The duality check reads its grid density as sigma's measure; it
    rejects one that is not a probability density."""

    @staticmethod
    def _check(grid):
        phi = bump(0.0, 2.5)
        adjoint_identity_check(Constant(1.0), grid, phi, phi, FractionalParams(1.5))

    def test_negative_density_rejected(self):
        grid = gaussian_grid(8.0, 64)
        bad = grid.values.copy()
        bad[3] = -0.5
        grid2 = grid._unchecked(bad)
        with pytest.raises(ValueError, match="nonnegative"):
            self._check(grid2)

    def test_wrong_mass_rejected(self):
        grid = gaussian_grid(8.0, 64)
        grid2 = grid._unchecked(grid.values * 2.0)
        with pytest.raises(ValueError, match="unit mass"):
            self._check(grid2)


@dataclass(frozen=True)
class LipschitzEstimate:
    """Max observed difference ratios; lower bounds on the true constants."""

    in_state: float
    in_measure: float


def lipschitz_probe(spec, trials, rng, measure_size=64):
    """Ratio-maximization estimate of the Lipschitz constants of sigma.

    Random point pairs probe the x-direction; random Gaussian sample
    clouds (equal size, so the transport distance is exact) probe the
    measure direction.  Both are sup-estimates from below.
    """
    best_x = 0.0
    best_m = 0.0
    for _ in range(trials):
        mu = EmpiricalMeasure(rng.normal(rng.normal(0, 1), 0.5 + rng.random(),
                                         measure_size))
        nu = EmpiricalMeasure(rng.normal(rng.normal(0, 1), 0.5 + rng.random(),
                                         measure_size))
        x0, x1 = rng.normal(0.0, 2.0, 2)
        if x0 != x1:
            num = abs(spec.evaluate(x1, mu) - spec.evaluate(x0, mu))
            best_x = max(best_x, num / abs(x1 - x0))
        d = wasserstein2(mu, nu)
        if d > 1e-12:
            num = abs(spec.evaluate(x0, mu) - spec.evaluate(x0, nu))
            best_m = max(best_m, num / d)
    return LipschitzEstimate(in_state=best_x, in_measure=best_m)


class TestLipschitzProbe:
    def test_constant_has_zero_constants(self):
        est = lipschitz_probe(Constant(3.0), 20, substream(206))
        assert est.in_state == 0.0 and est.in_measure == 0.0

    def test_sine_kernel_measure_constant_at_most_c1(self):
        # kernel c1-Lipschitz in y, so sigma is c1-Lipschitz in the measure
        sig = LinearInteraction(SineKernel(1.0, 0.5))
        est = lipschitz_probe(sig, 100, substream(207))
        assert est.in_measure <= 0.5 + 1e-9
        assert est.in_state <= 0.5 + 1e-9

    def test_smoothed_power_estimates_stable_across_runs(self):
        sig = SmoothedDensityPower(0.5, 0.5)
        a = lipschitz_probe(sig, 150, substream(208))
        b = lipschitz_probe(sig, 150, substream(209))
        assert np.isfinite(a.in_state) and np.isfinite(a.in_measure)
        assert abs(a.in_measure - b.in_measure) < 0.5 * max(a.in_measure, b.in_measure)
