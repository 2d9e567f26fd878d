"""Particle engine: exactness controls, hand-rolled oracles, couplings."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from levymv import particles
from levymv.coefficients import (CauchyKernel, Constant, LinearInteraction,
                                 SineKernel, SmoothedDensityPower)
from levymv.drivers import (JumpAtoms, LevyTripletSpec, StableDriverSpec,
                            sample_increment_array, truncated)
from levymv.exports import (chaos_table_to_csv, flow_from_binary, flow_to_binary,
                            flow_to_csv)
from levymv.fokker_planck import FractionalParams, gaussian_grid, solve_fp
from levymv.measures import (EmpiricalMeasure, check_empirical_distance_bound, read_table,
                             second_moment, smoothing_table, wasserstein2)
from levymv.particles import (FileLaw, GaussianLaw,
                              MarginalFlow, PointMass, SimulationConfig,
                              SimulationError, UniformLaw, chaos_rate_experiment,
                              initial_positions, kde_l1_table, picard_flow, simulate,
                              simulate_coupled)
from levymv.rng import derive_key, substream


# the truncated stable driver of the chaos-rate presets, built once
CUT_DRIVER = truncated(StableDriverSpec(1.5, 0.5), 2.0)


def make_cfg(**kw):
    base = dict(n_particles=100, dt=0.05, horizon_T=0.5, seed=42,
                driver=CUT_DRIVER, sigma=LinearInteraction(SineKernel(1.0, 0.5)),
                initial_law=GaussianLaw(0.0, 1.0))
    base.update(kw)
    return SimulationConfig(**base)


def step_increments(cfg, step_index):
    """The increment vector consumed by step ``step_index`` of a run, replayed
    from the engine's stream: a pure function of (seed, step) and the particle count."""
    rng = substream(cfg.seed, particles._ROLE_STEP, step_index)
    return sample_increment_array(cfg.driver, cfg.dt_effective, cfg.n_particles, rng)


class TestStepping:
    def test_zero_coefficient_freezes_positions(self):
        cfg = make_cfg(sigma=Constant(0.0))
        flow = simulate(cfg)
        x0 = np.sort(initial_positions(cfg))
        for marg in flow.marginals:
            assert np.array_equal(marg.samples, x0)
        assert flow.times[1] == pytest.approx(cfg.dt_effective)

    def test_pure_drift_driver_moves_deterministically(self):
        driver = LevyTripletSpec(gaussian_a=0.0, drift_b=1.0)
        cfg = make_cfg(driver=driver, sigma=Constant(1.0), dt=0.5, horizon_T=0.5)
        flow = simulate(cfg)
        assert np.allclose(flow.final().samples - flow.marginals[0].samples, 0.5)

    def test_two_particle_hand_rolled_update(self):
        cfg = make_cfg(n_particles=2, seed=7)
        x0 = initial_positions(cfg)
        dz = step_increments(cfg, 0)
        # sigma(x_i, mu) = 1 + 0.5 * mean_j sin(x_i - x_j)
        sig = np.array([1.0 + 0.5 * np.mean(np.sin(xi - x0)) for xi in x0])
        expected = x0 + sig * dz
        flow = simulate(cfg)
        got = np.sort(expected)
        assert np.allclose(flow.marginals[1].samples, got, atol=1e-14)

    def test_frozen_flow_equals_interacting_for_constant_sigma(self):
        # the copies see an unrelated external measure; a constant
        # coefficient ignores it, so they move exactly like the system
        cfg = make_cfg(sigma=Constant(1.3))
        ext = EmpiricalMeasure(substream(3).normal(5.0, 2.0, 64))
        gaps = simulate_coupled(cfg, MarginalFlow(times=cfg.times(),
                                                  marginals=[ext] * (cfg.n_steps + 1)))
        assert np.all(gaps == 0.0)

    def test_frozen_flow_self_consistency(self):
        # copies fed the system's own recorded flow, with the same
        # increments, reproduce the interacting system bit for bit
        cases = [(LinearInteraction(SineKernel(1.0, 0.5)), 100),
                 (LinearInteraction(CauchyKernel(1.0, 0.5)), 100),
                 (SmoothedDensityPower(0.5, 0.5), 100),
                 # above the 3000-sample threshold: binned summaries on both sides
                 (SmoothedDensityPower(0.5, 0.5), 3200)]
        for sigma, n in cases:
            cfg = make_cfg(n_particles=n, seed=11, sigma=sigma)
            gaps = simulate_coupled(cfg, simulate(cfg))
            assert np.all(gaps == 0.0), (sigma, n)

    def test_one_particle_frozen_step_hand_check(self):
        sig = SmoothedDensityPower(0.5, 0.5)
        cfg = make_cfg(n_particles=1, sigma=sig, seed=9, horizon_T=0.05)
        x0 = initial_positions(cfg)[0]
        ext = EmpiricalMeasure([0.0, 1.0])
        gaps = simulate_coupled(cfg, MarginalFlow(times=cfg.times(),
                                                  marginals=[ext] * (cfg.n_steps + 1)))
        # the engine reads sigma from the binned summaries; the step
        # arithmetic is checked exactly against them
        sig_cop = sig.from_summary(x0, sig.summarize(ext.samples))
        # the lone particle sees a point mass at itself
        sig_sys = sig.from_summary(x0, sig.summarize(np.array([x0])))
        dz = step_increments(cfg, 0)[0]
        assert gaps[0] == pytest.approx(abs(sig_sys - sig_cop) * abs(dz), rel=1e-12)
        # and the summaries against the hand-computed closed forms
        base = 0.5 * (math.exp(-x0 ** 2) + math.exp(-(x0 - 1.0) ** 2)) \
            / math.sqrt(2 * math.pi * 0.5)
        assert sig_cop == pytest.approx(base ** 0.5, rel=1e-4)
        assert sig_sys == pytest.approx((2 * math.pi * 0.5) ** -0.25, rel=1e-4)

    def test_nonfinite_positions_abort(self):
        driver = LevyTripletSpec(gaussian_a=0.0, drift_b=1e308)
        cfg = make_cfg(driver=driver, sigma=Constant(1e308), dt=1.0, horizon_T=2.0)
        with pytest.raises(SimulationError):
            simulate(cfg)

    @pytest.mark.parametrize("sigma", [
        Constant(1.5), LinearInteraction(SineKernel(1.0, 0.5)),
        LinearInteraction(CauchyKernel(1.0, 0.5)), SmoothedDensityPower(0.05, 0.5)])
    def test_sorted_read_back_equals_read_back_in_particle_order(self, sigma):
        # the engine queries sigma at the sorted positions and scatters the
        # values back: bit for bit what querying the particles in place gives,
        # on heavy tails with ties
        x = substream(113).standard_cauchy(1500)
        x = substream(114).permutation(np.r_[x, x[:300], np.zeros(20)])
        expected = sigma.from_summary(x, sigma.summarize(np.sort(x)))
        ranks = particles._ranks(x)
        ranked = x.take(ranks)
        assert np.array_equal(
            particles._sigma_in_order(sigma, ranked, ranks, sigma.summarize(ranked)), expected)

    @pytest.mark.parametrize("rows", [1, 20])
    @pytest.mark.parametrize("sigma", [
        Constant(1.5), LinearInteraction(SineKernel(1.0, 0.5)),
        LinearInteraction(CauchyKernel(1.0, 0.5))])
    def test_pointwise_coefficients_read_in_place_equal_ordered_reads(self, sigma, rows):
        # sorted_reads False: the engine summarizes np.sort of the rows and
        # reads the positions in place, bit for bit what the argsort path gives
        assert not sigma.sorted_reads
        x = substream(116).standard_cauchy((rows, 300))
        ranks = particles._ranks(x)
        ranked = x.take(ranks)
        ordered = particles._sigma_in_order(sigma, ranked, ranks, sigma.summarize(ranked))
        own = np.sort(x, axis=-1)
        assert np.array_equal(sigma.from_summary(x, sigma.summarize(own)), ordered)
        if rows == 1:  # the engine's one-measure summary of a single row
            assert np.array_equal(sigma.from_summary(x, sigma.summarize(own[0])), ordered)

    @pytest.mark.parametrize("sigma", [
        LinearInteraction(SineKernel(1.0, 0.5)), LinearInteraction(CauchyKernel(1.0, 0.5))])
    def test_coupled_run_in_place_equals_the_run_in_sorted_order(self, monkeypatch, sigma):
        cfg = make_cfg(n_particles=60, dt=0.1, horizon_T=0.5, seed=117, sigma=sigma)
        ref = simulate(replace(cfg, n_particles=600, seed=118))
        in_place = simulate_coupled(cfg, ref)
        monkeypatch.setattr(sigma, "sorted_reads", True)
        ordered = simulate_coupled(cfg, ref)
        assert np.array_equal(in_place, ordered)

    @pytest.mark.parametrize("sigma", [
        LinearInteraction(SineKernel(1.0, 0.5)), LinearInteraction(CauchyKernel(1.0, 0.5)),
        SmoothedDensityPower(0.05, 0.5)])
    def test_copies_read_in_the_systems_order_equal_copies_read_in_place(self, sigma):
        # a coupled step reads the frozen-flow copies, rows of them, in the
        # system's sorted order against the reference summary: bit for bit
        # the values read in place
        rng = substream(115)
        system = rng.standard_cauchy((3, 400))
        copies = system + rng.normal(0.0, 0.01, system.shape)
        summary = sigma.summarize(np.sort(rng.normal(0.0, 1.0, 2000)))
        ranks = particles._ranks(system)
        assert np.array_equal(
            particles._sigma_in_order(sigma, copies.take(ranks), ranks, summary),
            sigma.from_summary(copies, summary))


class TestSimulate:
    def test_constant_sigma_terminal_law_is_stable(self):
        # X_T = x0 + c * Z_T exactly, so the empirical CF must match
        cfg = make_cfg(n_particles=200_000, dt=0.1, horizon_T=1.0, seed=21,
                       driver=StableDriverSpec(1.5, 1.0), sigma=Constant(0.8),
                       initial_law=PointMass(0.0))
        flow = simulate(cfg, record_every=10)
        z = flow.final().samples
        for xi in (0.5, 1.0, 2.0):
            expected = math.exp(-1.0 * abs(0.8 * xi) ** 1.5)
            gap = abs(np.exp(1j * xi * z).mean() - expected)
            assert gap < 4.0 / math.sqrt(z.size) + 1e-3

    def test_constant_sigma_has_no_discretization_error(self):
        # halving dt leaves the terminal law unchanged
        base = dict(n_particles=50_000, horizon_T=1.0, seed=22,
                    driver=StableDriverSpec(1.5, 1.0), sigma=Constant(1.0),
                    initial_law=PointMass(0.0))
        a = simulate(SimulationConfig(dt=0.1, **base), record_every=10)
        b = simulate(SimulationConfig(dt=0.05, **base), record_every=20)
        assert ks_2samp(a.final().samples, b.final().samples).pvalue > 0.01

    def test_terminal_position_is_initial_plus_sigma_times_increment_sum(self):
        cfg = make_cfg(sigma=Constant(0.7), seed=23)
        flow = simulate(cfg)
        total = np.zeros(cfg.n_particles)
        for k in range(cfg.n_steps):
            total += step_increments(cfg, k)
        expected = np.sort(initial_positions(cfg) + 0.7 * total)
        assert np.allclose(flow.final().samples, expected, atol=1e-10)

    def test_second_moment_within_linear_envelope(self):
        # independent centered increments: m(t) <= m(0) + B^2 v t with
        # B = sup sigma and v = driver variance per unit time
        cfg = make_cfg(n_particles=20_000, dt=0.02, horizon_T=1.0, seed=24)
        flow = simulate(cfg)
        tot = sample_increment_array(cfg.driver, 1.0, 200_000, substream(25))
        v = float(tot.var())
        bound_sigma = 1.5  # sup of 1 + 0.5 sin
        m0 = second_moment(flow.marginals[0])
        for t, marg in zip(flow.times, flow.marginals):
            envelope = m0 + bound_sigma ** 2 * v * t
            assert second_moment(marg) <= envelope * 1.15 + 0.05, t

    def test_determinism_same_seed_same_bytes(self, tmp_path):
        cfg = make_cfg(seed=26)
        a, b = simulate(cfg), simulate(cfg)
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        flow_to_binary(a, pa)
        flow_to_binary(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_exchangeability_under_relabeling(self):
        # relabeling particles and their increments relabels trajectories
        cfg = make_cfg(n_particles=5, seed=27)
        x0 = initial_positions(cfg)
        dz = step_increments(cfg, 0)
        sig = LinearInteraction(SineKernel(1.0, 0.5))
        upd = x0 + sig.evaluate(x0, EmpiricalMeasure(x0)) * dz
        perm = np.array([3, 0, 4, 1, 2])
        upd_perm = x0[perm] + sig.evaluate(
            x0[perm], EmpiricalMeasure(x0[perm])) * dz[perm]
        assert np.allclose(upd[perm], upd_perm, atol=1e-14)

    def test_config_snaps_horizon_to_whole_steps(self):
        cfg = make_cfg(dt=0.3, horizon_T=1.0)
        assert cfg.n_steps == 3
        assert cfg.dt_effective == pytest.approx(1.0 / 3.0)

    def test_record_every_must_be_a_positive_integer(self):
        cfg = make_cfg(n_particles=10, horizon_T=0.2)
        for every in (0, -2, 2.5, True):
            with pytest.raises(ValueError, match="record_every"):
                simulate(cfg, record_every=every)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(n_particles=0)
        with pytest.raises(ValueError):
            make_cfg(dt=-0.1)

    def test_cut_atom_driver_steps_its_restricted_measure(self):
        # a truncated triplet is stepped like any driver: under sigma 1 each
        # particle moves by the drift and by whole jumps of the one atom
        # within the level
        driver = LevyTripletSpec(drift_b=0.25, big_jumps=JumpAtoms([(2.5, 1.5), (-1.5, 2.0)]))
        cfg = make_cfg(driver=truncated(driver, 2.0), sigma=Constant(1.0), seed=28)
        total = sum(step_increments(cfg, k) for k in range(cfg.n_steps))
        assert np.allclose(simulate(cfg).final().samples,
                           np.sort(initial_positions(cfg) + total), atol=1e-12)
        jumps = (total - 0.25 * cfg.horizon_T) / -1.5
        assert np.allclose(jumps, np.round(jumps), atol=1e-9) and np.any(jumps > 0)


class TestPicard:
    def test_iterations_must_be_a_positive_integer(self):
        cfg = make_cfg(n_particles=10, horizon_T=0.2)
        for iterations in (0, 2.5, True):
            with pytest.raises(ValueError, match="iterations"):
                picard_flow(cfg, iterations)

    def test_measure_independent_sigma_fixed_after_one_iteration(self):
        cfg = make_cfg(sigma=Constant(1.0), n_particles=500, seed=31)
        res = picard_flow(cfg, 3, common_increments=True)
        # iterate 2 replays iterate 1 exactly: the coefficient ignores the flow
        assert res.successive_gaps[1] == 0.0
        assert res.successive_gaps[2] == 0.0
        assert res.successive_gaps[0] > 0.0

    def test_contraction_for_short_horizon(self):
        cfg = make_cfg(n_particles=2000, dt=0.02, horizon_T=0.4, seed=32)
        res = picard_flow(cfg, 5, common_increments=True)
        gaps = res.successive_gaps
        for a, b in zip(gaps, gaps[1:]):
            assert b < 0.8 * a
        assert gaps[-1] < 1e-3 * gaps[0]

    def test_iterates_approach_direct_simulation(self):
        cfg = make_cfg(n_particles=4000, dt=0.02, horizon_T=0.4, seed=33)
        res = picard_flow(cfg, 6, common_increments=True)
        direct = simulate(cfg)
        worst = max(wasserstein2(a, b) for a, b in
                    zip(res.flows[-1].marginals, direct.marginals))
        assert worst < 0.05

    def test_independent_increments_mode_differs(self):
        cfg = make_cfg(n_particles=300, seed=34)
        common = picard_flow(cfg, 2, common_increments=True)
        indep = picard_flow(cfg, 2, common_increments=False)
        assert common.successive_gaps[1] < indep.successive_gaps[1]


    @pytest.mark.parametrize("common", [True, False])
    @pytest.mark.parametrize("sigma", [
        LinearInteraction(SineKernel(1.0, 0.5)), LinearInteraction(CauchyKernel(1.0, 0.5)),
        SmoothedDensityPower(0.5, 0.5)])
    def test_iterates_equal_a_hand_rolled_frozen_flow_loop(self, sigma, common):
        # each iterate is, bit for bit, a per-step loop over 1-d arrays against
        # the previous flow, step k drawing from substream(seed, 1, k), or from
        # substream(seed, 1, j, k) in iterate j when increments are independent
        cfg = make_cfg(n_particles=80, horizon_T=0.3, seed=35, sigma=sigma)
        res = picard_flow(cfg, 3, common_increments=common)
        x0 = initial_positions(cfg)
        prev = [EmpiricalMeasure(x0)] * (cfg.n_steps + 1)
        for j, (flow, gap) in enumerate(zip(res.flows, res.successive_gaps), start=1):
            summaries = [sigma.summarize(m.samples) for m in prev]
            x = x0
            marginals = [EmpiricalMeasure(x)]
            for k in range(cfg.n_steps):
                rng = substream(cfg.seed, 1, k) if common else substream(cfg.seed, 1, j, k)
                dz = sample_increment_array(cfg.driver, cfg.dt_effective, x.size, rng)
                x = x + sigma.from_summary(x, summaries[k]) * dz
                marginals.append(EmpiricalMeasure(x))
            assert np.array_equal(flow.times, cfg.times())
            for got, want in zip(flow.marginals, marginals, strict=True):
                assert np.array_equal(got.samples, want.samples)
            assert gap == max(wasserstein2(a, b) for a, b in zip(marginals, prev))
            prev = marginals


class TestCoupling:
    def test_measure_independent_sigma_gaps_vanish(self):
        cfg = make_cfg(sigma=Constant(1.0), seed=41)
        ref = simulate(cfg)
        assert np.all(simulate_coupled(cfg, ref) == 0.0)

    def test_single_particle_gap_matches_two_manual_runs(self):
        cfg = make_cfg(n_particles=1, seed=42, sigma=SmoothedDensityPower(0.5, 0.5))
        ref_cfg = make_cfg(n_particles=200, seed=43,
                           sigma=SmoothedDensityPower(0.5, 0.5))
        ref = simulate(ref_cfg)
        gaps = simulate_coupled(cfg, ref)
        # manual replay
        x_sys = x_cop = float(initial_positions(cfg)[0])
        sig = SmoothedDensityPower(0.5, 0.5)
        worst = 0.0
        for k in range(cfg.n_steps):
            dz = float(step_increments(cfg, k)[0])
            s_sys = float(sig.from_summary(x_sys, sig.summarize(np.array([x_sys]))))
            marg = ref.marginals[k]
            s_cop = float(sig.from_summary(x_cop, sig.summarize(marg.samples)))
            # the summaries the engine reads stand in for the exact sums
            assert s_sys == pytest.approx(float(sig.evaluate(x_sys, [x_sys])), rel=1e-4)
            assert s_cop == pytest.approx(float(sig.evaluate(x_cop, marg)), rel=1e-4)
            x_sys += s_sys * dz
            x_cop += s_cop * dz
            worst = max(worst, abs(x_sys - x_cop))
        assert gaps[0] == pytest.approx(worst, rel=1e-10)

    def test_reference_flow_on_another_grid_rejected(self):
        # the copies read the reference marginal by step index, so a flow
        # recorded on other times is refused instead of paired by time
        cfg = make_cfg(n_particles=50, seed=46)
        for other in (simulate(cfg, record_every=2),
                      simulate(make_cfg(n_particles=50, seed=46, dt=0.045))):
            with pytest.raises(ValueError, match="reference flow"):
                simulate_coupled(cfg, other)

    @pytest.mark.parametrize("sigma", [
        Constant(1.3), LinearInteraction(SineKernel(1.0, 0.5)),
        LinearInteraction(CauchyKernel(1.0, 0.5)), SmoothedDensityPower(0.5, 0.5)])
    def test_lockstep_rows_equal_one_row_runs(self, sigma):
        # runs stepped together as the rows of one array give what each gives
        # alone, and the first run what a per-run loop over 1-d arrays gives
        ref = simulate(make_cfg(n_particles=600, seed=47, sigma=sigma))
        summaries = [sigma.summarize(m.samples) for m in ref.marginals]
        cfgs = [make_cfg(n_particles=60, seed=derive_key(48, r), sigma=sigma)
                for r in range(4)]
        rows = particles._simulate_coupled(cfgs, summaries)
        assert rows.shape == (len(cfgs), 60)
        for cfg, row in zip(cfgs, rows):
            assert np.array_equal(row, simulate_coupled(cfg, ref))
        cfg = cfgs[0]
        x_sys = initial_positions(cfg)
        x_cop = x_sys.copy()
        sup_gap = np.zeros(x_sys.size)
        for k in range(cfg.n_steps):
            dz = step_increments(cfg, k)
            xs = np.sort(x_sys)
            sig_sys = sigma.from_summary(xs, sigma.summarize(xs))[np.searchsorted(xs, x_sys)]
            x_sys = x_sys + sig_sys * dz
            x_cop = x_cop + sigma.from_summary(x_cop, summaries[k]) * dz
            sup_gap = np.maximum(sup_gap, np.abs(x_sys - x_cop))
        assert np.array_equal(rows[0], sup_gap)

    def test_distance_bound_holds_along_interacting_runs(self, monkeypatch):
        # the paired-configuration bound on the system and its copies as a
        # coupled run leaves them at the horizon, read from the engine's
        # position arrays, which it updates in place
        cfg = make_cfg(n_particles=300, seed=44)
        ref = simulate(make_cfg(n_particles=3000, seed=45))
        stepped = []
        steps = particles._steps

        def keeping_positions(cfg, streams, xs, parts, kept=None):
            stepped.append(xs)
            return steps(cfg, streams, xs, parts, kept)

        monkeypatch.setattr(particles, "_steps", keeping_positions)
        gaps = simulate_coupled(cfg, ref)
        (system, copies), = stepped
        gap = np.abs(system[0] - copies[0])
        assert np.all(gap > 0.0)  # interacting: the copies have left the system
        assert np.all(gaps >= gap)
        assert check_empirical_distance_bound(system[0], copies[0])

    def test_a_coupled_step_sorts_once(self, monkeypatch):
        # a pointwise sigma's step sorts the system's rows for its summary
        # and nothing else: the sup gaps need no sorted copy of either part
        sigma = LinearInteraction(SineKernel(1.0, 0.5))
        cfg = make_cfg(n_particles=50, dt=0.1, horizon_T=0.1, seed=49, sigma=sigma)
        ref = simulate(replace(cfg, n_particles=500))
        summaries = [sigma.summarize(m.samples) for m in ref.marginals]
        cfgs = [replace(cfg, seed=derive_key(49, r)) for r in range(3)]
        calls = []
        sort = np.sort

        def counting_sort(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        particles._simulate_coupled(cfgs, summaries)
        assert cfg.n_steps == 1 and calls == [(3, 50)]


class TestKdeL1Table:
    SIGMA = SmoothedDensityPower(0.5, 0.5)

    def solve(self, horizon, snapshots):
        return solve_fp(gaussian_grid(20.0, 256, std=1.0), horizon, 0.01, self.SIGMA,
                        FractionalParams(alpha=1.5, diffusivity=1.0), snapshots=snapshots,
                        boundary_density_tol=1e-3)

    def cfg(self, horizon):
        return make_cfg(dt=0.02, horizon_T=horizon, seed=61, driver=StableDriverSpec(1.5, 1.0),
                        sigma=self.SIGMA)

    def test_rows_equal_the_l1s_of_the_recorded_flow(self, monkeypatch):
        # each snapshot is scored as it is stepped, with the bits that the
        # marginals of a whole recorded flow give, and no flow is built
        cfg, pde = self.cfg(0.2), self.solve(0.2, 5)
        n_list, every, kde_eps = [200, 800], 2, 0.05
        expected = []
        for n in n_list:
            flow = simulate(replace(cfg, n_particles=n), record_every=every)
            assert np.allclose(flow.times, pde.times)
            for t, p_t, marg in zip(pde.times[1:], pde.grids[1:], flow.marginals[1:],
                                    strict=True):
                kde = read_table(smoothing_table(marg, kde_eps), p_t.nodes)
                expected.append({"n": n, "time": float(t),
                                 "l1_distance": float(np.sum(np.abs(kde - p_t.values)) * p_t.dx)})
        built = []

        class CountedFlow(MarginalFlow):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(particles, "MarginalFlow", CountedFlow)
        payload, checks = kde_l1_table(cfg, n_list, pde, kde_eps)
        assert payload["rows"] == expected and len(expected) == 10
        assert payload["l1_at_largest"] == expected[-1]["l1_distance"]
        assert [c.name for c in checks] == ["l1_decreasing_1"]
        assert built == []

    def test_snapshots_not_dividing_the_steps_rejected_before_stepping(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a particle step ran")

        monkeypatch.setattr(particles, "_steps", no_step)
        cfg = self.cfg(0.22)
        assert cfg.n_steps == 11
        with pytest.raises(ValueError,
                           match="5 snapshots must divide the particle run's 11 steps"):
            kde_l1_table(cfg, [100, 200], self.solve(0.22, 5), 0.05)


class TestChaosExperiment:
    def test_degenerate_for_measure_independent_sigma(self):
        cfg = make_cfg(sigma=Constant(1.0), n_particles=50, seed=51)
        table = chaos_rate_experiment(cfg, [10, 20, 40, 80], reps=3, n_ref=800)
        assert table["status"] == "degenerate: all-zero"
        assert table["fitted_slope"] is None
        assert all(r["mean_sq_gap"] == 0.0 for r in table["rows"])

    def test_gaps_shrink_with_system_size(self):
        cfg = make_cfg(n_particles=50, dt=0.05, horizon_T=0.5, seed=52)
        table = chaos_rate_experiment(cfg, [25, 50, 100, 200], reps=8, n_ref=2000)
        rows = table["rows"]
        assert table["fitted_slope"] < -0.4
        for a, b in zip(rows, rows[1:]):
            assert b["mean_sq_gap"] <= a["mean_sq_gap"] + 2.0 * math.hypot(a["stderr"],
                                                                           b["stderr"])

    def test_threading_does_not_change_results(self):
        # reps 5: no thread count here divides it, so the chunks of rows differ
        tables = [chaos_rate_experiment(
                      make_cfg(n_particles=20, dt=0.1, horizon_T=0.3, seed=53),
                      [10, 20, 40, 80], reps=5, n_ref=800, threads=t)
                  for t in (1, 2, 3)]
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize("sigma, n_ref", [
        (LinearInteraction(SineKernel(1.0, 0.5)), 800),
        (LinearInteraction(CauchyKernel(1.0, 0.5)), 800),
        (SmoothedDensityPower(0.5, 0.5), 3200),
    ])
    def test_runs_equal_public_simulate_coupled(self, monkeypatch, sigma, n_ref):
        # every run's mean square sup gap, in batch order (one thread: one batch per size)
        recorded, batch_sizes = [], []
        lockstep = particles._simulate_coupled

        def recording_lockstep(cfgs, summaries):
            results = lockstep(cfgs, summaries)
            batch_sizes.append(len(cfgs))
            recorded.extend(float(np.mean(gaps ** 2)) for gaps in results)
            return results

        monkeypatch.setattr(particles, "_simulate_coupled", recording_lockstep)
        cfg = make_cfg(n_particles=20, dt=0.1, horizon_T=0.3, seed=54, sigma=sigma)
        n_list, reps = [10, 20, 40, 80], 2
        chaos_rate_experiment(cfg, n_list, reps, n_ref=n_ref)
        monkeypatch.undo()
        ref = simulate(replace(cfg, n_particles=n_ref,
                               seed=derive_key(cfg.seed, 0xFEED)))
        expected = [float(np.mean(simulate_coupled(
                        replace(cfg, n_particles=n, seed=derive_key(cfg.seed, i + 1, r)),
                        ref) ** 2))
                    for i, n in enumerate(n_list) for r in range(reps)]
        assert batch_sizes == [reps] * len(n_list)
        assert recorded == expected

    def test_validation_of_arguments(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            chaos_rate_experiment(cfg, [100, 50, 200, 400], reps=2)
        with pytest.raises(ValueError):
            chaos_rate_experiment(cfg, [50, 100], reps=2)
        with pytest.raises(ValueError):
            chaos_rate_experiment(cfg, [50, 100, 200, 400], reps=2, n_ref=1000)

    def test_thread_count_below_one_rejected(self):
        cfg = make_cfg()
        for threads in (0, -1, True, 1.5):
            with pytest.raises(ValueError, match="threads"):
                chaos_rate_experiment(cfg, [50, 100, 200, 400], reps=2, threads=threads)


class TestInitialLaws:
    def test_point_gaussian_uniform(self):
        rng = substream(61)
        assert np.all(PointMass(2.0).sample(5, rng) == 2.0)
        g = GaussianLaw(1.0, 0.5).sample(100_000, substream(62))
        assert abs(g.mean() - 1.0) < 0.01 and abs(g.std() - 0.5) < 0.01
        u = UniformLaw(-2.0, 3.0).sample(100_000, substream(63))
        assert u.min() >= -2.0 and u.max() <= 3.0

    @pytest.mark.parametrize("std", [0.0, -1.0, math.nan])
    def test_gaussian_std_must_be_above_0(self, std):
        # a point mass is a law of its own
        with pytest.raises(ValueError, match="std must be above 0"):
            GaussianLaw(0.0, std)

    @pytest.mark.parametrize("lo, hi", [(1.0, -1.0), (0.5, 0.5), (-math.inf, 1.0),
                                        (0.0, math.nan)])
    def test_uniform_bounds_finite_and_hi_above_lo(self, lo, hi):
        # lo == hi would divide by zero in the CF
        with pytest.raises(ValueError, match="hi must be above lo"):
            UniformLaw(lo, hi)

    @pytest.mark.parametrize("law", [PointMass(0.7), GaussianLaw(1.0, 0.5),
                                     UniformLaw(-2.0, 3.0)])
    def test_cf_matches_empirical_cf(self, law):
        n = 100_000
        draws = law.sample(n, substream(65))
        xi = np.array([0.25, 0.5, 1.0, 2.0])
        emp = np.exp(1j * xi[:, None] * draws[None, :]).mean(axis=1)
        assert np.max(np.abs(law.cf(xi) - emp)) < 4.0 / math.sqrt(n)

    def test_file_law_resamples_csv(self, tmp_path):
        path = tmp_path / "init.csv"
        EmpiricalMeasure([1.0, 2.0, 3.0]).to_csv(path)
        draws = FileLaw(str(path)).sample(1000, substream(64))
        assert set(np.unique(draws)) <= {1.0, 2.0, 3.0}
        assert FileLaw(str(path)).cf(np.array([1.0])) is None

    def test_file_law_loads_its_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "init.csv"
        EmpiricalMeasure(substream(66).standard_normal(500)).to_csv(path)
        loads = []
        from_csv = EmpiricalMeasure.from_csv

        def counting_from_csv(csv_path):
            loads.append(csv_path)
            return from_csv(csv_path)

        monkeypatch.setattr(EmpiricalMeasure, "from_csv", counting_from_csv)
        cfg = make_cfg(n_particles=40, dt=0.1, horizon_T=0.3, seed=56,
                       initial_law=FileLaw(str(path)))
        chaos_rate_experiment(cfg, [5, 10, 20, 40], reps=3, n_ref=400)
        assert loads == [str(path)]  # at construction; the 13 runs only resample


class TestExports:
    def test_flow_binary_roundtrip(self, tmp_path):
        flow = simulate(make_cfg(n_particles=17, seed=71))
        path = tmp_path / "flow.bin"
        flow_to_binary(flow, path)
        back = flow_from_binary(path)
        assert np.array_equal(back.times, flow.times)
        for a, b in zip(back.marginals, flow.marginals):
            assert np.array_equal(a.samples, b.samples)

    def test_flow_csv_layout(self, tmp_path):
        flow = simulate(make_cfg(n_particles=3, dt=0.25, horizon_T=0.5, seed=72))
        path = tmp_path / "flow.csv"
        flow_to_csv(flow, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,x1,x2,x3"
        assert len(lines) == 1 + flow.times.size

    def test_flow_csv_rows_format_each_value_to_17_digits(self, tmp_path):
        # the text of one f"{v:.17g}" per numpy value, tails and -0 included
        values = [-0.0, 1e-320, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, -1e300, 5e-324, 7.0]
        flow = MarginalFlow(times=np.array([0.0, 0.1]),
                            marginals=[EmpiricalMeasure(values)] * 2)
        path = tmp_path / "flow.csv"
        flow_to_csv(flow, path)
        rows = path.read_text().splitlines()[1:]
        for t, row in zip(flow.times, rows, strict=True):
            samples = flow.marginals[0].samples
            assert row == f"{t:.17g}," + ",".join(f"{v:.17g}" for v in samples)

    def test_chaos_table_csv(self, tmp_path):
        table = {"rows": [], "fitted_slope": None, "slope_stderr": None, "slope_ci95": None,
                 "status": "degenerate", "reference_n": 0, "reps": 0}
        path = tmp_path / "t.csv"
        chaos_table_to_csv(table, path)
        assert path.read_text().startswith("n,mean_sq_gap,stderr")


class TestMarginalFlowContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            MarginalFlow(times=np.array([0.0, 0.0]),
                         marginals=[EmpiricalMeasure([1.0])] * 2)
        with pytest.raises(ValueError):
            MarginalFlow(times=np.array([0.0, 1.0]),
                         marginals=[EmpiricalMeasure([1.0]),
                                    EmpiricalMeasure([1.0, 2.0])])
