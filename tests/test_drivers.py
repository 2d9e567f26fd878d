"""Driver sampling against closed-form and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from levymv import drivers
from levymv.drivers import (DELTA, JumpAtoms, LevyTripletSpec, StableDriverSpec,
                            cf_constant_from_levy_constant,
                            levy_constant_from_cf_constant, sample_increment_array,
                            truncated_stable_triplet)
from levymv.rng import substream


def empirical_cf(z, xi):
    return np.exp(1j * np.asarray(xi)[:, None] * z[None, :]).mean(axis=1)


class TestStableSampler:
    def test_alpha2_is_gaussian_with_variance_2c(self):
        # CF exp(-c xi^2) is the normal law with variance 2c
        c = 0.7
        z = sample_increment_array(StableDriverSpec(2.0, c), 1.0, 400_000, substream(1))
        assert abs(z.var() - 2.0 * c) < 0.02
        assert abs(z.mean()) < 0.01
        kurt = np.mean(z ** 4) / z.var() ** 2
        assert abs(kurt - 3.0) < 0.1

    def test_symmetry_median(self):
        z = sample_increment_array(StableDriverSpec(1.5, 1.0), 1.0, 1_000_000, substream(2))
        iqr = np.percentile(z, 75) - np.percentile(z, 25)
        assert abs(np.median(z)) < 3.0 * iqr / math.sqrt(z.size)

    def test_cf_match_alpha_15(self):
        n = 1_000_000
        z = sample_increment_array(StableDriverSpec(1.5, 1.0), 1.0, n, substream(3))
        xi = [0.5, 1.0, 2.0]
        gaps = np.abs(empirical_cf(z, xi) - np.exp(-np.abs(xi) ** 1.5))
        assert gaps.max() <= 4.0 / math.sqrt(n) + 1e-3

    def test_cf_sup_over_grid_many_alphas(self):
        n = 200_000
        xi = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        for i, alpha in enumerate((0.8, 1.0, 1.3, 1.7, 2.0)):
            z = sample_increment_array(StableDriverSpec(alpha, 1.0), 1.0, n, substream(4, i))
            gaps = np.abs(empirical_cf(z, xi) - np.exp(-np.abs(xi) ** alpha))
            assert gaps.max() <= 4.0 / math.sqrt(n) + 1e-3, alpha

    def test_dt_scaling_matches_cf(self):
        # increments over dt have CF exp(-c dt |xi|^alpha)
        alpha, c, dt, n = 1.2, 0.8, 0.3, 200_000
        z = sample_increment_array(StableDriverSpec(alpha, c), dt, n, substream(5))
        xi = [0.5, 1.0, 2.0]
        gaps = np.abs(empirical_cf(z, xi) - np.exp(-c * dt * np.abs(xi) ** alpha))
        assert gaps.max() <= 4.0 / math.sqrt(n) + 1e-3

    def test_self_similarity_two_sample_ks(self):
        alpha, dt, n = 1.5, 0.3, 100_000
        spec = StableDriverSpec(alpha, 1.0)
        a = sample_increment_array(spec, dt, n, substream(6)) / dt ** (1 / alpha)
        b = sample_increment_array(spec, 1.0, n, substream(7))
        assert ks_2samp(a, b).pvalue > 0.01

    def test_vector_determinism_bit_identical(self):
        spec = StableDriverSpec(1.1, 2.0)
        a = sample_increment_array(spec, 0.5, 1000, substream(10))
        b = sample_increment_array(spec, 0.5, 1000, substream(10))
        assert np.array_equal(a, b)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.9, 1.99, 2.0])
    def test_transform_matches_long_double_reference(self, alpha):
        # the half-angle evaluation against the transform computed in long
        # double on the same variates, uniform draws plus u next to 0 and +-pi/2
        rng = substream(11)
        edge = np.nextafter(math.pi / 2.0, 0.0)
        u = np.concatenate([rng.uniform(-math.pi / 2.0, math.pi / 2.0, 50_000),
                            [edge, -edge, 1e-300, -1e-9, 0.0]])
        w = np.concatenate([rng.standard_exponential(50_000), [0.5, 3.0, 1e-6, 20.0, 1.0]])
        z = drivers._standard_symmetric_stable(alpha, u.copy(), w.copy())
        uu, ww, a = u.astype(np.longdouble), w.astype(np.longdouble), np.longdouble(alpha)
        if alpha == 2.0:
            ref = 2 * np.sin(uu) * np.sqrt(ww)
        else:
            ref = (np.sin(a * uu) / np.cos(uu) ** (1 / a)
                   * (np.cos((1 - a) * uu) / ww) ** ((1 - a) / a))
        assert np.all(np.isfinite(z))
        assert np.all(np.abs(z - ref) <= 3e-14 * np.abs(ref))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            StableDriverSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            StableDriverSpec(2.5, 1.0)
        with pytest.raises(ValueError):
            StableDriverSpec(1.5, -1.0)
        with pytest.raises(ValueError):
            sample_increment_array(StableDriverSpec(1.5, 1.0), 0.0, 10, substream(0))


class TestConstants:
    def test_cf_levy_conversion_roundtrip(self):
        for alpha in (0.5, 1.0, 1.5, 1.9):
            c = cf_constant_from_levy_constant(0.37, alpha)
            assert abs(levy_constant_from_cf_constant(c, alpha) - 0.37) < 1e-14

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_cf_constant_against_quadrature(self):
        # c |xi|^alpha must equal int (1-cos(xi y)) K |y|^(-1-alpha) dy;
        # beyond the numeric window the cosine averages out and the tail
        # integrates to 2K Y^(-alpha)/alpha
        for alpha in (0.8, 1.2, 1.5, 1.9):
            k_levy = 0.6
            c = cf_constant_from_levy_constant(k_levy, alpha)
            xi, y_max = 1.7, 400.0
            val = 2 * k_levy * (
                quad(lambda y: (1 - math.cos(xi * y)) * y ** (-1 - alpha),
                     0, 1, points=[0])[0]
                + quad(lambda y: (1 - math.cos(xi * y)) * y ** (-1 - alpha),
                       1, y_max, limit=400)[0]
                + y_max ** -alpha / alpha)
            assert abs(val - c * xi ** alpha) / (c * xi ** alpha) < 2e-3, alpha


def triplet_increments(spec, dt, n, rng, truncation=None):
    """One row's (totals, big-jump sums) from the sampler's triplet row function:
    the sums collect the jumps above a finite ``truncation``, the totals every jump."""
    totals, big_sums = drivers._triplet_rows(spec, dt, n, [rng], truncation)
    return totals[0], big_sums[0]


class TestTripletSampler:
    def test_pure_drift_is_exact(self):
        spec = LevyTripletSpec(gaussian_a=0.0, drift_b=1.0)
        tot, big = triplet_increments(spec, 0.5, 10, substream(11), truncation=0.1)
        assert np.all(tot == 0.5)
        assert np.all(big == 0.0)

    def test_gaussian_part_variance(self):
        spec = LevyTripletSpec(gaussian_a=2.0, drift_b=0.0)
        tot, _ = triplet_increments(spec, 0.5, 300_000, substream(12))
        assert abs(tot.var() - 1.0) < 0.01  # a * dt = 1

    def test_big_jump_atom_poisson_count(self):
        # a truncation below the atom collects every jump in big_sums
        lam, dt = 3.0, 0.25
        spec = LevyTripletSpec(big_jumps=JumpAtoms([(2.0, lam)]))
        tot, big = triplet_increments(spec, dt, 20_000, substream(13), truncation=1.5)
        counts = big / 2.0
        # all amplitudes sit on the atom: whole counts, and nothing else moves
        assert np.array_equal(counts, np.round(counts))
        assert np.array_equal(tot, big)
        target = lam * dt
        assert abs(counts.mean() - target) < 4.0 * math.sqrt(target / counts.size)

    def test_record_total_minus_jumps_is_retained(self):
        # with every jump above the level, totals - big_sums is the drift +
        # diffusion part, drawn first from the stream as without jumps
        jumps = JumpAtoms([(3.0, 2.0), (-2.0, 1.0)])
        spec = LevyTripletSpec(gaussian_a=1.0, drift_b=-0.3, big_jumps=jumps)
        tot, big = triplet_increments(spec, 1.0, 50, substream(16), truncation=1.5)
        plain, _ = triplet_increments(
            LevyTripletSpec(gaussian_a=1.0, drift_b=-0.3), 1.0, 50, substream(16))
        assert np.any(big != 0.0)
        assert np.allclose(tot - big, plain, rtol=0.0, atol=1e-12)

    def test_invalid_atoms_rejected(self):
        with pytest.raises(ValueError):
            JumpAtoms([(0.5, 1.0)])
        with pytest.raises(ValueError):
            JumpAtoms([(2.0, -1.0)])
        with pytest.raises(ValueError):
            LevyTripletSpec(gaussian_a=-1.0)


ATOMS = LevyTripletSpec(drift_b=0.25, big_jumps=JumpAtoms([(2.5, 1.5), (-1.5, 2.0)]))


def increments(driver, truncation, n=2000, key=18):
    return sample_increment_array(driver, 1.0, n, substream(key), truncation=truncation)


class TestTruncation:
    def test_direct_subtraction(self):
        # a level of 2 removes the 2.5 jumps and keeps the -1.5 ones
        tot = increments(ATOMS, None)
        cut = increments(ATOMS, 2.0)
        removed = (tot - cut) / 2.5
        kept = (cut - 0.25) / -1.5
        assert np.any(removed > 0) and np.any(kept > 0)
        assert np.allclose(removed, np.round(removed), rtol=0.0, atol=1e-9)
        assert np.allclose(kept, np.round(kept), rtol=0.0, atol=1e-9)

    def test_noop_without_jumps(self):
        driver = LevyTripletSpec(gaussian_a=1.0, drift_b=0.5)
        tot = increments(driver, None)
        assert np.array_equal(increments(driver, 7.0), tot)
        assert np.array_equal(increments(driver, math.inf), tot)

    def test_level_inf_keeps_everything(self):
        assert np.array_equal(increments(ATOMS, math.inf), increments(ATOMS, None))

    def test_level_above_every_atom_keeps_everything(self):
        # a driver whose jumps all lie within the level is its own truncation
        rng = substream(19)
        for key in range(20):
            atoms = [(float(y), float(r)) for y, r in
                     zip(rng.uniform(1.1, 4.0, 3) * rng.choice([-1.0, 1.0], 3),
                         rng.uniform(0.1, 3.0, 3))]
            driver = LevyTripletSpec(gaussian_a=0.3, big_jumps=JumpAtoms(atoms))
            level = max(abs(y) for y, _ in atoms) + float(rng.uniform(0.0, 1.0))
            assert np.array_equal(increments(driver, level, n=200, key=key),
                                  increments(driver, None, n=200, key=key))

    def test_level_must_be_positive(self):
        for level in (0.0, -1.0, math.nan, "2.0"):
            with pytest.raises(ValueError):
                increments(ATOMS, level)
            with pytest.raises(ValueError):
                increments(StableDriverSpec(2.0, 1.0), level)


class TestTruncatedStable:
    def test_cf_against_quadrature_oracle(self):
        # CF exponent of the cut driver: 2K int_0^N (1 - cos(xi y)) y^(-1-a) dy
        alpha, level, dt = 1.5, 2.0, 0.5
        spec = StableDriverSpec(alpha, 1.0)
        trip = truncated_stable_triplet(spec, level)
        k_levy = levy_constant_from_cf_constant(1.0, alpha)
        tot, _ = triplet_increments(trip, dt, 400_000, substream(19))
        for xi in (0.5, 1.0, 2.0):
            psi = 2 * k_levy * quad(
                lambda y: (1 - math.cos(xi * y)) * y ** (-1 - alpha),
                0, level, points=[0])[0]
            gap = abs(np.exp(1j * xi * tot).mean() - math.exp(-dt * psi))
            assert gap < 4.0 / math.sqrt(tot.size) + 2e-3, xi

    def test_alpha2_truncation_is_noop(self):
        spec = StableDriverSpec(2.0, 1.0)
        assert truncated_stable_triplet(spec, 3.0) is spec

    def test_engine_path_requires_materialized_triplet(self):
        with pytest.raises(ValueError):
            sample_increment_array(StableDriverSpec(1.5, 1.0), 0.1, 10,
                                   substream(20), truncation=2.0)

    def test_truncated_variance_matches_levy_integral(self):
        # Var per unit time of the cut driver is int y^2 over |y| <= N
        alpha, level = 1.5, 2.0
        trip = truncated_stable_triplet(StableDriverSpec(alpha, 1.0), level)
        k_levy = levy_constant_from_cf_constant(1.0, alpha)
        expected = 2.0 * k_levy * level ** (2 - alpha) / (2 - alpha)
        tot, _ = triplet_increments(trip, 0.5, 400_000, substream(21))
        assert abs(tot.var() / 0.5 - expected) / expected < 0.05

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            truncated_stable_triplet(StableDriverSpec(1.5, 1.0), 0.8)

    def test_tail_rate_is_analytic(self):
        # under K|y|^(-1-a): rate of 1 < |y| <= N is 2K(1 - N^-a)/a, rate of
        # the band DELTA < |y| <= 1 is 2K(DELTA^-a - 1)/a, and the variance
        # of |y| <= DELTA, carried by the Gaussian part, is 2K DELTA^(2-a)/(2-a)
        alpha, level, scale = 1.5, 2.0, 0.5
        trip = truncated_stable_triplet(StableDriverSpec(alpha, scale), level)
        k_levy = levy_constant_from_cf_constant(scale, alpha)
        expected = 2.0 * k_levy * (1.0 - level ** -alpha) / alpha
        assert trip.big_jumps.total_rate == pytest.approx(expected, rel=1e-14)
        assert trip.big_rate == trip.big_jumps.total_rate
        band = 2.0 * k_levy * (DELTA ** -alpha - 1.0) / alpha
        assert trip.band_rate == pytest.approx(band, rel=1e-14)
        small_var = 2.0 * k_levy * DELTA ** (2.0 - alpha) / (2.0 - alpha)
        assert trip.gaussian_a == pytest.approx(small_var, rel=1e-14)
        assert trip.drift_b == 0.0

    def test_band_draws_are_the_bits_of_uniform(self):
        # the band's jumps are drawn by halves, one uniform on [0, rate)
        # each: the same stream gives the bits rng.uniform would give
        band = truncated_stable_triplet(StableDriverSpec(1.5, 0.5), 2.0).band
        for size in (1, 7, 1000):
            got = band.draw(substream(22, size), size)
            want = substream(22, size).uniform(0.0, band.total_rate, size)
            assert got.tobytes() == want.tobytes()


class TestRowSampler:
    """One call on a generator per row gives each generator's own call."""

    @pytest.mark.parametrize("driver,truncation", [
        (StableDriverSpec(1.5, 0.7), None),
        (StableDriverSpec(2.0, 1.3), None),
        # built at level 4 and cut at 2: some big jumps lie over the level
        (truncated_stable_triplet(StableDriverSpec(1.5, 20.0), 4.0), 2.0),
        (truncated_stable_triplet(StableDriverSpec(1.2, 1.0), 3.0), None),
        (LevyTripletSpec(gaussian_a=0.3, drift_b=0.25,
                         big_jumps=JumpAtoms([(2.5, 1.5), (-1.5, 2.0)])), 2.0),
    ], ids=["stable-1.5", "stable-2.0", "triplet-cut", "triplet-uncut", "atoms"])
    @pytest.mark.parametrize("n", [1, 37])
    def test_rows_equal_one_row_calls(self, driver, truncation, n):
        # dt = 0.05 leaves some rows without jumps and gives others several
        keys = [(70, n, r) for r in range(6)]
        rows = sample_increment_array(driver, 0.05, n, [substream(*k) for k in keys],
                                      truncation=truncation)
        assert rows.shape == (len(keys), n)
        for row, key in zip(rows, keys):
            alone = sample_increment_array(driver, 0.05, n, substream(*key),
                                           truncation=truncation)
            assert alone.shape == (n,)
            assert np.array_equal(row, alone)
        if isinstance(driver, LevyTripletSpec):
            totals, big = drivers._triplet_rows(driver, 0.05, n,
                                                [substream(*k) for k in keys], truncation)
            for t, b, key in zip(totals, big, keys):
                want_t, want_b = triplet_increments(driver, 0.05, n, substream(*key),
                                                    truncation=truncation)
                assert np.array_equal(t, want_t) and np.array_equal(b, want_b)
            assert np.array_equal(rows, totals - big)
            if truncation is not None and n > 1:
                assert np.any(big != 0.0)
