"""Spectral solver: multiplier exactness, scheme order, duality check."""

import math

import numpy as np
import pytest

from levymv.coefficients import (CauchyKernel, Constant, LinearInteraction, SineKernel,
                                 SmoothedDensityPower)
from levymv.fokker_planck import (DensityGrid, FractionalParams, StabilityError,
                                  _Operator, _step_rk4, adjoint_identity_check, bump,
                                  fractional_laplacian, gaussian_grid, solve_fp,
                                  solve_linear_exact, stable_heat_kernel_grid,
                                  stable_step_limit)


class TestFractionalLaplacian:
    def test_constant_function_maps_to_zero(self):
        grid = gaussian_grid(8.0, 128)
        params = FractionalParams(1.5, 1.0)
        out = fractional_laplacian(np.full(grid.m, 3.7), grid, params)
        assert np.max(np.abs(out)) < 1e-12

    def test_single_mode_is_eigenfunction(self):
        grid = gaussian_grid(8.0, 256)
        for alpha in (0.7, 1.5, 2.0):
            params = FractionalParams(alpha, 1.3)
            xi1 = math.pi / grid.half_width
            v = np.cos(xi1 * grid.nodes)
            out = fractional_laplacian(v, grid, params)
            expected = -1.3 * xi1 ** alpha * v
            assert np.max(np.abs(out - expected)) < 1e-12, alpha

    def test_alpha2_matches_finite_differences(self):
        params = FractionalParams(2.0, 0.8)
        errs = []
        for m in (128, 256):
            grid = gaussian_grid(6.0, m, std=0.8)
            v = grid.values
            out = fractional_laplacian(v, grid, params)
            fd = 0.8 * (np.roll(v, -1) - 2 * v + np.roll(v, 1)) / grid.dx ** 2
            errs.append(np.max(np.abs(out - fd)))
        # second-order agreement: refining the grid shrinks the gap ~4x
        assert errs[1] < errs[0] / 3.0


class TestLinearExact:
    def test_time_zero_is_identity(self):
        grid = gaussian_grid(8.0, 128)
        out = solve_linear_exact(grid, 0.0, FractionalParams(1.5))
        assert np.allclose(out.values, grid.values, atol=1e-14)

    def test_mass_exactly_preserved(self):
        grid = gaussian_grid(8.0, 128)
        out = solve_linear_exact(grid, 3.0, FractionalParams(1.2))
        assert out.mass() == pytest.approx(1.0, abs=1e-13)

    def test_long_time_limit_is_uniform(self):
        grid = gaussian_grid(8.0, 128, std=0.5)
        out = solve_linear_exact(grid, 1e4, FractionalParams(1.5))
        assert np.max(np.abs(out.values - 1.0 / 16.0)) < 1e-10


class TestStepFp:
    """The explicit RK4 step, taken through solve_fp."""

    def test_zero_coefficient_freezes_density(self):
        grid = gaussian_grid(8.0, 128)
        res = solve_fp(grid, 1e-3, 1e-3, Constant(0.0, check_nonzero=False),
                       FractionalParams(1.5))
        assert np.array_equal(res.final().values, grid.values)

    def test_constant_sigma_matches_exact_solver(self):
        grid = gaussian_grid(8.0, 128, std=0.5)
        params = FractionalParams(1.5, 1.0)
        res = solve_fp(grid, 0.5, 0.01, Constant(1.0), params,
                       boundary_density_tol=1e-2)
        exact = solve_linear_exact(grid, 0.5, params)
        assert np.max(np.abs(res.final().values - exact.values)) < 1e-8

    def test_rk4_order_confirmed_by_halving(self):
        grid = gaussian_grid(8.0, 128, std=0.5)
        params = FractionalParams(1.2, 1.0)
        exact = solve_linear_exact(grid, 1.0, params)
        errs = []
        for dt in (0.02, 0.01):
            res = solve_fp(grid, 1.0, dt, Constant(1.0), params,
                           boundary_density_tol=1e-2)
            errs.append(float(np.max(np.abs(res.final().values - exact.values))))
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_evenness_preserved(self):
        grid = gaussian_grid(8.0, 128, mean=0.0, std=0.7)
        res = solve_fp(grid, 0.1, 0.005, SmoothedDensityPower(0.5, 0.5),
                       FractionalParams(1.5), boundary_density_tol=1e-2)
        assert len(res.mass_trace) == 21
        v = res.final().values
        mirrored = np.concatenate([[v[0]], v[1:][::-1]])
        assert np.max(np.abs(v - mirrored)) < 1e-12

    def test_mass_conserved_each_step(self):
        grid = gaussian_grid(10.0, 256, std=1.0)
        res = solve_fp(grid, 0.05, 0.002, SmoothedDensityPower(0.5, 0.7),
                       FractionalParams(1.7), boundary_density_tol=1e-2)
        assert len(res.mass_trace) == 26
        assert np.max(np.abs(res.mass_trace - 1.0)) < 1e-12

    def test_oversized_step_rejected(self):
        grid = gaussian_grid(8.0, 256, std=0.5)
        params = FractionalParams(1.8, 1.0)
        limit = stable_step_limit(grid, 1.0, params)
        with pytest.raises(StabilityError):
            solve_fp(grid, 3.0 * limit, 3.0 * limit, Constant(1.0), params)


class TestSolveFp:
    def test_snapshots_and_health_logs(self):
        grid = gaussian_grid(10.0, 256, std=1.0)
        res = solve_fp(grid, 0.1, 0.002, SmoothedDensityPower(0.5, 0.5),
                       FractionalParams(1.5), snapshots=5)
        assert len(res.times) == len(res.grids) == 6
        assert np.max(np.abs(res.mass_trace - 1.0)) < 1e-9
        assert res.boundary_trace.max() < 1e-4

    def test_snapshot_count_splits_the_steps(self):
        # 11 steps, 5 snapshots: steps j * 11 // 5, the horizon last
        grid = gaussian_grid(8.0, 128, std=1.0)
        res = solve_fp(grid, 0.11, 0.01, Constant(1.0), FractionalParams(1.5), snapshots=5,
                       boundary_density_tol=1e-2)
        assert res.times == [0.0] + [k * res.dt for k in (2, 4, 6, 8, 11)]
        assert len(res.grids) == 6
        with pytest.raises(ValueError, match="snapshots"):
            solve_fp(grid, 0.11, 0.01, Constant(1.0), FractionalParams(1.5), snapshots=12)

    def test_self_similar_spreading_of_heat_kernel(self):
        # the kernel at t0 evolved by dt matches the t0+dt kernel, which is
        # the t0 kernel rescaled by ((t0+dt)/t0)^(1/alpha)
        params = FractionalParams(1.5, 1.0)
        t0, t1 = 0.5, 0.75
        p_t0 = stable_heat_kernel_grid(40.0, 2048, t0, params)
        res = solve_fp(p_t0, t1 - t0, 0.00125, Constant(1.0), params,
                       boundary_density_tol=1e-3)
        r = (t0 / t1) ** (1.0 / params.alpha)
        rescaled = r * np.interp(r * p_t0.nodes, p_t0.nodes, p_t0.values)
        assert np.max(np.abs(res.final().values - rescaled)) < 2e-4

    def test_boundary_abort_on_undersized_domain(self):
        grid = gaussian_grid(4.0, 128, std=1.0)
        with pytest.raises(StabilityError):
            solve_fp(grid, 2.0, 0.01, Constant(1.0), FractionalParams(1.2),
                     boundary_density_tol=1e-6)

    def test_lawson_scheme_exact_for_constant_sigma(self):
        grid = gaussian_grid(8.0, 128, std=0.5)
        params = FractionalParams(1.8, 1.0)
        res = solve_fp(grid, 1.0, 0.05, Constant(1.0), params, scheme="if-rk4",
                       boundary_density_tol=1e-2)
        exact = solve_linear_exact(grid, 1.0, params)
        assert np.max(np.abs(res.final().values - exact.values)) < 1e-13

    def test_lawson_close_to_rk4_on_nonlinear_problem(self):
        grid = gaussian_grid(10.0, 256, std=1.0)
        params = FractionalParams(1.5, 1.0)
        sig = SmoothedDensityPower(0.5, 0.5)
        a = solve_fp(grid, 0.2, 0.004, sig, params, boundary_density_tol=1e-3)
        b = solve_fp(grid, 0.2, 0.004, sig, params, scheme="if-rk4",
                     boundary_density_tol=1e-3)
        assert np.max(np.abs(a.final().values - b.final().values)) < 1e-8

    def test_unknown_scheme_rejected(self):
        grid = gaussian_grid(8.0, 128)
        with pytest.raises(ValueError):
            solve_fp(grid, 0.1, 0.01, Constant(1.0), FractionalParams(1.5),
                     scheme="euler")


def _hand_rk4(p0, dt, n_steps, sigma, params):
    """RK4 on the public pieces alone: the reference the solver must equal."""
    sigma_on_grid = sigma.on_grid(p0)

    def flux(v):
        s = sigma_on_grid(v)
        return fractional_laplacian(np.abs(s) ** params.alpha * v, p0, params)

    v = p0.values
    for _ in range(n_steps):
        k1 = flux(v)
        k2 = flux(v + 0.5 * dt * k1)
        k3 = flux(v + 0.5 * dt * k2)
        k4 = flux(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


SIGMAS = {
    "constant": Constant(1.3),
    "sine": LinearInteraction(SineKernel(1.0, 0.5)),
    "cauchy": LinearInteraction(CauchyKernel(1.0, 0.5)),
    "smoothed": SmoothedDensityPower(0.5, 0.5),
}


class TestSolverEqualsHandSteps:
    """The solver builds its operator once; it must not change a bit."""

    # a power of two, so solve_fp's dt = horizon / n_steps is dt exactly
    dt = 2.0 ** -8

    @pytest.mark.parametrize("name", sorted(SIGMAS))
    def test_solve_fp_rk4_equals_hand_steps(self, name):
        grid = gaussian_grid(8.0, 128, mean=0.3, std=0.5)
        params = FractionalParams(1.5, 1.0)
        res = solve_fp(grid, 20 * self.dt, self.dt, SIGMAS[name], params,
                       scheme="rk4", boundary_density_tol=1e-2)
        assert len(res.mass_trace) == 21
        hand = _hand_rk4(grid, self.dt, 20, SIGMAS[name], params)
        assert np.array_equal(res.final().values, hand)

    @pytest.mark.parametrize("name", sorted(SIGMAS))
    def test_step_fp_equals_one_solver_step(self, name):
        """The single RK4 step on a fresh operator equals one solver step
        and one hand-built RK4 step."""
        grid = gaussian_grid(8.0, 128, mean=0.3, std=0.5)
        params = FractionalParams(1.5, 1.0)
        one = _step_rk4(grid, self.dt, _Operator(grid, SIGMAS[name], params), 0.5)
        res = solve_fp(grid, self.dt, self.dt, SIGMAS[name], params,
                       boundary_density_tol=1e-2)
        assert len(res.mass_trace) == 2
        assert np.array_equal(one.values, res.final().values)
        hand = _hand_rk4(grid, self.dt, 1, SIGMAS[name], params)
        assert np.array_equal(one.values, hand)


class TestAdjointIdentity:
    def test_reduction_matches_spectral_quadrature(self):
        nu = gaussian_grid(8.0, 1024, std=1.0)
        params = FractionalParams(1.5, 1.0)
        phi = bump(0.0, 2.5)
        rep = adjoint_identity_check(Constant(1.0), nu, phi, phi, params)
        spectral = float(np.sum(phi(nu.nodes) * fractional_laplacian(
            phi(nu.nodes), nu, params)) * nu.dx)
        assert rep.rel_error < 1e-6
        assert rep.rhs == pytest.approx(spectral, rel=1e-12)

    def test_left_side_scales_with_coefficient_power(self):
        nu = gaussian_grid(8.0, 1024, std=1.0)
        params = FractionalParams(1.5, 1.0)
        phi, psi = bump(-1.0, 2.5), bump(1.2, 2.2)
        base = adjoint_identity_check(Constant(1.0), nu, phi, psi, params)
        scaled = adjoint_identity_check(Constant(-1.3), nu, phi, psi, params)
        assert scaled.lhs / base.lhs == pytest.approx(1.3 ** 1.5, rel=1e-6)

    def test_generic_coefficient_below_tolerance(self):
        nu = gaussian_grid(8.0, 1024, std=1.0)
        for alpha in (0.8, 1.5, 1.9):
            rep = adjoint_identity_check(SmoothedDensityPower(0.5, 0.5), nu,
                                         bump(-1.0, 2.5), bump(1.2, 2.2),
                                         FractionalParams(alpha, 1.0))
            assert rep.rel_error < 1e-4, alpha

    def test_boundary_touching_test_function_rejected(self):
        nu = gaussian_grid(8.0, 256, std=1.0)
        with pytest.raises(ValueError):
            adjoint_identity_check(Constant(1.0), nu, bump(5.0, 4.0),
                                   bump(0.0, 2.0), FractionalParams(1.5))


class TestDensityGrid:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            DensityGrid(8.0, np.ones(100))

    def test_renormalization_at_construction(self):
        grid = DensityGrid(2.0, np.ones(8) * 5.0)
        assert grid.mass() == pytest.approx(1.0)

    def test_unnormalized_handoff_rejected(self):
        with pytest.raises(ValueError):
            DensityGrid(2.0, np.ones(8), renormalize=False)

    def test_negative_values_rejected(self):
        vals = np.ones(8)
        vals[2] = -1.0
        with pytest.raises(ValueError):
            DensityGrid(2.0, vals)

    def test_csv_roundtrip(self, tmp_path):
        grid = gaussian_grid(8.0, 64)
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        back = DensityGrid.from_csv(path)
        assert back.half_width == grid.half_width
        assert np.allclose(back.values, grid.values, atol=1e-15)

    def test_wrapped_construction_adds_images(self):
        plain = gaussian_grid(3.0, 64, std=1.0, wrap_images=0)
        wrapped = gaussian_grid(3.0, 64, std=1.0, wrap_images=2)
        # narrow domain: the wrap moves boundary mass inward
        assert wrapped.values[0] > plain.values[0]

    def test_boundary_density_probe(self):
        grid = gaussian_grid(8.0, 128, std=0.5)
        assert grid.boundary_density() < 1e-10
