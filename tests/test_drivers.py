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
                            truncated)
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


class CountingGenerator:
    """A generator that counts the calls made on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def triplet_increments(spec, dt, n, rng):
    """One row of increments from the triplet driver's own row sampler."""
    return spec.rows(dt, n, [rng])[0]


class TestTripletSampler:
    def test_pure_drift_is_exact(self):
        spec = LevyTripletSpec(gaussian_a=0.0, drift_b=1.0)
        tot = triplet_increments(truncated(spec, 0.1), 0.5, 10, substream(11))
        assert np.all(tot == 0.5)

    def test_gaussian_part_variance(self):
        spec = LevyTripletSpec(gaussian_a=2.0, drift_b=0.0)
        tot = triplet_increments(spec, 0.5, 300_000, substream(12))
        assert abs(tot.var() - 1.0) < 0.01  # a * dt = 1

    def test_atom_counts_are_poisson_per_particle(self):
        # one Poisson total per row, its jumps placed uniformly on the row's
        # particles, gives each particle an independent Poisson count
        # (Kingman 1993): mean = variance = rate dt, neighbours uncorrelated
        lam, dt = 3.0, 0.25
        spec = LevyTripletSpec(jumps=JumpAtoms([(2.0, lam)]))
        tot = sample_increment_array(spec, dt, 2000, [substream(13, r) for r in range(10)])
        counts = tot / 2.0
        # all amplitudes sit on the atom: whole counts, and nothing else moves
        assert np.array_equal(counts, np.round(counts))
        m, size = lam * dt, counts.size
        assert abs(counts.mean() - m) < 4.0 * math.sqrt(m / size)
        # the sample variance of Poisson counts has variance (m + 2 m^2) / size
        assert abs(counts.var() - m) < 4.0 * math.sqrt((m + 2.0 * m * m) / size)
        centred = counts - counts.mean()
        corr = np.mean(centred[:, 1:] * centred[:, :-1]) / counts.var()
        assert abs(corr) < 4.0 / math.sqrt(size)

    def test_at_most_three_generator_calls_per_row(self):
        # the normals, the row's jump count and one uniform block, each step
        driver = truncated(StableDriverSpec(1.5, 0.5), 2.0)
        rows = [CountingGenerator(substream(24, r)) for r in range(5)]
        for step in range(1, 4):
            sample_increment_array(driver, 0.05, 50, rows)
            assert [g.calls for g in rows] == [3 * step] * len(rows)

    def test_record_total_minus_jumps_is_retained(self):
        # with every jump above the level, the cut driver is the drift +
        # diffusion part, drawn first from the stream as without jumps
        jumps = JumpAtoms([(3.0, 2.0), (-2.0, 1.0)])
        spec = LevyTripletSpec(gaussian_a=1.0, drift_b=-0.3, jumps=jumps)
        cut = truncated(spec, 1.5)
        assert cut.jumps is None and cut.jump_rate == 0.0
        plain = LevyTripletSpec(gaussian_a=1.0, drift_b=-0.3)
        assert np.array_equal(triplet_increments(cut, 1.0, 50, substream(16)),
                              triplet_increments(plain, 1.0, 50, substream(16)))
        assert not np.array_equal(triplet_increments(spec, 1.0, 50, substream(16)),
                                  triplet_increments(plain, 1.0, 50, substream(16)))

    def test_invalid_atoms_rejected(self):
        with pytest.raises(ValueError):
            JumpAtoms([(0.5, 1.0)])
        with pytest.raises(ValueError):
            JumpAtoms([(2.0, -1.0)])
        with pytest.raises(ValueError):
            LevyTripletSpec(gaussian_a=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parts_rejected(self, value):
        # NaN passes every comparison, and no config resolution gives one:
        # only the library can receive it
        with pytest.raises(ValueError, match="gaussian_a"):
            LevyTripletSpec(gaussian_a=value)
        with pytest.raises(ValueError, match="drift_b"):
            LevyTripletSpec(drift_b=value)
        with pytest.raises(ValueError, match="finite"):
            JumpAtoms([(2.0, 1.0), (value, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            JumpAtoms([(2.0, value)])


ATOMS = LevyTripletSpec(drift_b=0.25, jumps=JumpAtoms([(2.5, 1.5), (-1.5, 2.0)]))


def increments(driver, n=2000, key=18):
    return sample_increment_array(driver, 1.0, n, substream(key))


class TestTruncation:
    @pytest.mark.parametrize("driver", [StableDriverSpec(1.5, 1.0), StableDriverSpec(2.0, 1.0),
                                        ATOMS], ids=["stable", "gaussian", "atoms"])
    def test_uncut_level_gives_the_driver_itself(self, driver):
        assert truncated(driver, None) is driver
        assert truncated(driver, math.inf) is driver

    def test_cut_atoms_match_the_closed_form_cf(self):
        # a level of 2 keeps the -1.5 atom and removes the 2.5 one: the cut
        # increment over dt has CF exp(dt (i b xi + 2 (e^(-1.5 i xi) - 1)))
        cut = truncated(ATOMS, 2.0)
        assert cut.jumps.atoms == ((-1.5, 2.0),) and cut.drift_b == 0.25
        dt, n = 0.5, 400_000
        z = sample_increment_array(cut, dt, n, substream(18))
        xi = np.array([0.3, 0.7, 1.5, 3.0])
        exact = np.exp(dt * (1j * 0.25 * xi + 2.0 * (np.exp(-1.5j * xi) - 1.0)))
        assert np.abs(empirical_cf(z, xi) - exact).max() < 4.0 / math.sqrt(n)
        # the uncut driver is another law, that of both atoms
        full = sample_increment_array(ATOMS, dt, n, substream(18))
        assert np.abs(empirical_cf(full, xi) - exact).max() > 0.05
        both = np.exp(dt * (1j * 0.25 * xi + 1.5 * (np.exp(2.5j * xi) - 1.0)
                            + 2.0 * (np.exp(-1.5j * xi) - 1.0)))
        assert np.abs(empirical_cf(full, xi) - both).max() < 4.0 / math.sqrt(n)

    def test_noop_without_jumps(self):
        driver = LevyTripletSpec(gaussian_a=1.0, drift_b=0.5)
        assert np.array_equal(increments(truncated(driver, 7.0)), increments(driver))

    def test_level_inf_keeps_everything(self):
        assert np.array_equal(increments(truncated(ATOMS, math.inf)), increments(ATOMS))

    def test_level_above_every_atom_keeps_everything(self):
        # a driver whose jumps all lie within the level is its own truncation
        rng = substream(19)
        for key in range(20):
            atoms = [(float(y), float(r)) for y, r in
                     zip(rng.uniform(1.1, 4.0, 3) * rng.choice([-1.0, 1.0], 3),
                         rng.uniform(0.1, 3.0, 3))]
            driver = LevyTripletSpec(gaussian_a=0.3, jumps=JumpAtoms(atoms))
            level = max(abs(y) for y, _ in atoms) + float(rng.uniform(0.0, 1.0))
            assert np.array_equal(increments(truncated(driver, level), n=200, key=key),
                                  increments(driver, n=200, key=key))

    def test_level_must_be_positive(self):
        for level in (0.0, -1.0, math.nan, "2.0", True):
            with pytest.raises(ValueError):
                truncated(ATOMS, level)
            with pytest.raises(ValueError):
                truncated(StableDriverSpec(2.0, 1.0), level)

    def test_jump_counts_beyond_a_poisson_draw_rejected(self):
        # a row's mean count per step, over its n particles, must be finite
        # and at most numpy's limit
        StableDriverSpec(1.5, 1e300).check_step(0.1, 800)   # sampled exactly: no counts
        truncated(StableDriverSpec(1.5, 1e12), 2.0).check_step(0.1, 800)
        for scale in (1e300, 1e308):
            with pytest.raises(ValueError, match="Poisson"):
                truncated(StableDriverSpec(1.5, scale), 2.0).check_step(0.1, 1)
        # within the limit per particle, beyond it over the row
        cut = truncated(StableDriverSpec(1.5, 1e17), 2.0)
        cut.check_step(0.1, 1)
        with pytest.raises(ValueError, match="over 100 particles"):
            cut.check_step(0.1, 100)
        atoms = LevyTripletSpec(jumps=JumpAtoms([(2.0, 1e300)]))
        atoms.check_step(1e-290, 1000)
        with pytest.raises(ValueError, match=r"jump rate 1e\+300"):
            atoms.check_step(1.0, 1)
        substream(0).poisson(drivers._POISSON_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            substream(0).poisson(np.nextafter(drivers._POISSON_MAX, math.inf))


class TestTruncatedStable:
    def test_cf_against_quadrature_oracle(self):
        # CF exponent of the cut driver: 2K int_0^N (1 - cos(xi y)) y^(-1-a) dy
        alpha, level, dt = 1.5, 2.0, 0.5
        spec = StableDriverSpec(alpha, 1.0)
        trip = truncated(spec, level)
        k_levy = levy_constant_from_cf_constant(1.0, alpha)
        tot = triplet_increments(trip, dt, 400_000, substream(19))
        for xi in (0.5, 1.0, 2.0):
            psi = 2 * k_levy * quad(
                lambda y: (1 - math.cos(xi * y)) * y ** (-1 - alpha),
                0, level, points=[0])[0]
            gap = abs(np.exp(1j * xi * tot).mean() - math.exp(-dt * psi))
            assert gap < 4.0 / math.sqrt(tot.size) + 2e-3, xi

    def test_alpha2_truncation_is_noop(self):
        # alpha = 2 has no jumps to cut, at any level
        spec = StableDriverSpec(2.0, 1.0)
        for level in (0.5, 1.0, 3.0):
            assert truncated(spec, level) is spec

    def test_cut_twice_samples_like_cut_once(self):
        # restricting the level-4 triplet to 2 lowers its power law's upper
        # edge to 2: the triplet built at 2, bit for bit
        spec = StableDriverSpec(1.5, 20.0)
        once, twice = truncated(spec, 2.0), truncated(truncated(spec, 4.0), 2.0)
        assert twice.jump_rate == once.jump_rate
        keys = [substream(23, r) for r in range(4)]
        assert np.array_equal(sample_increment_array(twice, 0.05, 37, keys),
                              sample_increment_array(once, 0.05, 37,
                                                     [substream(23, r) for r in range(4)]))

    def test_truncated_variance_matches_levy_integral(self):
        # Var per unit time of the cut driver is int y^2 over |y| <= N
        alpha, level = 1.5, 2.0
        trip = truncated(StableDriverSpec(alpha, 1.0), level)
        k_levy = levy_constant_from_cf_constant(1.0, alpha)
        expected = 2.0 * k_levy * level ** (2 - alpha) / (2 - alpha)
        tot = triplet_increments(trip, 0.5, 400_000, substream(21))
        assert abs(tot.var() / 0.5 - expected) / expected < 0.05

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            truncated(StableDriverSpec(1.5, 1.0), 0.8)

    def test_tail_rate_is_analytic(self):
        # under K|y|^(-1-a): the rate of the one jump measure, on
        # DELTA < |y| <= N, is 2K(DELTA^-a - N^-a)/a, and the variance of
        # |y| <= DELTA, carried by the Gaussian part, is 2K DELTA^(2-a)/(2-a)
        alpha, level, scale = 1.5, 2.0, 0.5
        trip = truncated(StableDriverSpec(alpha, scale), level)
        k_levy = levy_constant_from_cf_constant(scale, alpha)
        expected = 2.0 * k_levy * (DELTA ** -alpha - level ** -alpha) / alpha
        assert trip.jump_rate == pytest.approx(expected, rel=1e-14)
        assert trip.jump_rate == trip.jumps.total_rate
        small_var = 2.0 * k_levy * DELTA ** (2.0 - alpha) / (2.0 - alpha)
        assert trip.gaussian_a == pytest.approx(small_var, rel=1e-14)
        assert trip.drift_b == 0.0

    def test_amplitudes_take_uniforms_by_halves(self):
        # the lower half of [0, 1) gives the positive jumps and the upper
        # half the negative ones, each through the one-sided inverse CDF
        alpha, level = 1.5, 2.0
        jumps = truncated(StableDriverSpec(alpha, 0.5), level).jumps
        median = ((DELTA ** -alpha + level ** -alpha) / 2.0) ** (-1.0 / alpha)
        got = jumps.amplitudes(np.array([0.0, 0.25, 0.5, 0.75]))
        assert got == pytest.approx([DELTA, median, -DELTA, -median], rel=1e-14)
        v = substream(22).random(100_000)
        amps = jumps.amplitudes(v)
        assert np.all((DELTA <= np.abs(amps)) & (np.abs(amps) <= level))
        assert np.array_equal(amps > 0.0, v < 0.5)


class TestRowSampler:
    """One call on a generator per row gives each generator's own call."""

    @pytest.mark.parametrize("driver", [
        StableDriverSpec(1.5, 0.7),
        StableDriverSpec(2.0, 1.3),
        # built at level 4 and cut at 2
        truncated(truncated(StableDriverSpec(1.5, 20.0), 4.0), 2.0),
        truncated(StableDriverSpec(1.2, 1.0), 3.0),
        truncated(LevyTripletSpec(gaussian_a=0.3, drift_b=0.25,
                                  jumps=JumpAtoms([(2.5, 1.5), (-1.5, 2.0)])), 2.0),
    ], ids=["stable-1.5", "stable-2.0", "triplet-cut", "triplet-uncut", "atoms"])
    @pytest.mark.parametrize("n", [1, 37])
    def test_rows_equal_one_row_calls(self, driver, n):
        # dt = 0.05 leaves some rows without jumps and gives others several
        keys = [(70, n, r) for r in range(6)]
        rows = sample_increment_array(driver, 0.05, n, [substream(*k) for k in keys])
        assert rows.shape == (len(keys), n)
        for row, key in zip(rows, keys):
            alone = sample_increment_array(driver, 0.05, n, substream(*key))
            assert alone.shape == (n,)
            assert np.array_equal(row, alone)
        # and the driver's own rows are what the sampler returns
        totals = driver.rows(0.05, n, [substream(*k) for k in keys])
        for t, key in zip(totals, keys):
            assert np.array_equal(t, driver.rows(0.05, n, [substream(*key)])[0])
        assert np.array_equal(rows, totals)
