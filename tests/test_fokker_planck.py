"""Spectral solver: multiplier exactness, scheme order, duality check."""

import math

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from levymv.coefficients import (CauchyKernel, Constant, LinearInteraction, SineKernel,
                                 SmoothedDensityPower)
from levymv import fokker_planck
from levymv.fokker_planck import (DensityGrid, FractionalParams,
                                  StabilityError, _fd_second, _gauss_legendre_panels,
                                  _Operator, _step_lawson, _step_rk4,
                                  adjoint_identity_check, bump,
                                  fractional_laplacian, gaussian_grid, linear_oracle, solve_fp,
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

    @pytest.mark.parametrize("sigma", [SmoothedDensityPower(0.5, 0.5),
                                       Constant(0.0)],
                             ids=["smoothed", "zero"])
    def test_linear_oracle_needs_a_nonzero_constant(self, sigma):
        with pytest.raises(ValueError, match="nonzero constant"):
            linear_oracle([(gaussian_grid(8.0, 128), FractionalParams(1.5), 0.01)], 0.1,
                          sigma, 1e-6, (12.0, 20.0))


class TestStepFp:
    """The explicit RK4 step, taken through solve_fp."""

    def test_zero_coefficient_freezes_density(self):
        grid = gaussian_grid(8.0, 128)
        res = solve_fp(grid, 1e-3, 1e-3, Constant(0.0),
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


def _spectral_multiplier(grid, params):
    """-diffusivity |xi_k|^alpha on the rfft modes, as the solver builds it."""
    xi = math.pi * np.arange(grid.m // 2 + 1) / grid.half_width
    return -params.diffusivity * xi ** params.alpha


def _hand_spectral(p0, dt, n_steps, sigma, params, scheme):
    """RK4 or integrating-factor RK4 on the rfft spectrum, written out from
    the public pieces: the reference the solver must equal bit for bit."""
    evaluate = sigma.on_grid(p0)
    mult = _spectral_multiplier(p0, params)

    def stage(u_hat):
        values, s = evaluate(u_hat)
        s = np.abs(s)
        return s, np.fft.rfft(s ** params.alpha * values) * mult

    values, v = p0.values, np.fft.rfft(p0.values)
    for _ in range(n_steps):
        s1, f1 = stage(v)
        if scheme == "rk4":
            k2 = stage(v + 0.5 * dt * f1)[1]
            k3 = stage(v + 0.5 * dt * k2)[1]
            k4 = stage(v + dt * k3)[1]
            dv = (dt / 6.0) * (f1 + 2.0 * k2 + 2.0 * k3 + k4)
            values = values + np.fft.irfft(dv, n=p0.m)
            v = v + dv
        else:
            lam = mult * float(s1.max())
            e_half = np.exp(0.5 * dt * lam)
            e_full = e_half * e_half
            k1 = f1 - lam * v
            u = e_half * (v + 0.5 * dt * k1)
            k2 = stage(u)[1] - lam * u
            u = e_half * v + 0.5 * dt * k2
            k3 = stage(u)[1] - lam * u
            u = e_full * v + dt * e_half * k3
            k4 = stage(u)[1] - lam * u
            v_new = e_full * v + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
            values = values + np.fft.irfft(v_new - v, n=p0.m)
            v = v_new
    return values


def _nodal_reference(p0, dt, n_steps, sigma, params, scheme):
    """The former schemes, whose stages start from nodal values: RK4 on
    the nodal values and integrating-factor RK4 from a fresh rfft of them
    each step, |sigma|^alpha frozen at the nodal sigma's maximum."""
    evaluate = sigma.on_grid(p0)

    def sigma_at(values):
        return np.abs(evaluate(np.fft.rfft(values))[1])

    def flux(v):
        return fractional_laplacian(sigma_at(v) ** params.alpha * v, p0, params)

    mult = _spectral_multiplier(p0, params)
    v = p0.values
    for _ in range(n_steps):
        if scheme == "rk4":
            k1 = flux(v)
            k2 = flux(v + 0.5 * dt * k1)
            k3 = flux(v + 0.5 * dt * k2)
            k4 = flux(v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            continue
        lam = mult * float(sigma_at(v).max())
        e_half = np.exp(0.5 * dt * lam)
        e_full = e_half * e_half

        def n_hat(u_hat):
            vals = np.fft.irfft(u_hat, n=p0.m)
            w_hat = np.fft.rfft(sigma_at(vals) ** params.alpha * vals)
            return mult * w_hat - lam * u_hat

        u = np.fft.rfft(v)
        k1 = n_hat(u)
        k2 = n_hat(e_half * (u + 0.5 * dt * k1))
        k3 = n_hat(e_half * u + 0.5 * dt * k2)
        k4 = n_hat(e_full * u + dt * e_half * k3)
        u = e_full * u + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        v = np.fft.irfft(u, n=p0.m)
    return v


SIGMAS = {
    "constant": Constant(1.3),
    "sine": LinearInteraction(SineKernel(1.0, 0.5)),
    "cauchy": LinearInteraction(CauchyKernel(1.0, 0.5)),
    "smoothed": SmoothedDensityPower(0.5, 0.5),
}


class TestSolverEqualsHandSteps:
    """The solver builds its operator once and steps the spectrum; it must
    not change a bit against the same steps written out by hand."""

    # a power of two, so solve_fp's dt = horizon / n_steps is dt exactly
    dt = 2.0 ** -8

    @pytest.mark.parametrize("name", sorted(SIGMAS))
    def test_solve_fp_rk4_equals_hand_steps(self, name):
        grid = gaussian_grid(8.0, 128, mean=0.3, std=0.5)
        params = FractionalParams(1.5, 1.0)
        res = solve_fp(grid, 20 * self.dt, self.dt, SIGMAS[name], params,
                       scheme="rk4", boundary_density_tol=1e-2)
        assert len(res.mass_trace) == 21
        hand = _hand_spectral(grid, self.dt, 20, SIGMAS[name], params, "rk4")
        assert np.array_equal(res.final().values, hand)

    @pytest.mark.parametrize("name", sorted(SIGMAS))
    def test_solve_fp_if_rk4_equals_hand_steps(self, name):
        grid = gaussian_grid(8.0, 128, mean=0.3, std=0.5)
        params = FractionalParams(1.5, 1.0)
        res = solve_fp(grid, 20 * self.dt, self.dt, SIGMAS[name], params,
                       scheme="if-rk4", boundary_density_tol=1e-2)
        hand = _hand_spectral(grid, self.dt, 20, SIGMAS[name], params, "if-rk4")
        assert np.array_equal(res.final().values, hand)

    @pytest.mark.parametrize("name", sorted(SIGMAS))
    def test_step_fp_equals_one_solver_step(self, name):
        """The single RK4 step on a fresh operator equals one solver step
        and one hand-built RK4 step."""
        grid = gaussian_grid(8.0, 128, mean=0.3, std=0.5)
        params = FractionalParams(1.5, 1.0)
        change, _ = _step_rk4(grid, np.fft.rfft(grid.values), self.dt,
                              _Operator(grid, SIGMAS[name], params))
        one = grid.values + np.fft.irfft(change, n=grid.m)
        res = solve_fp(grid, self.dt, self.dt, SIGMAS[name], params,
                       boundary_density_tol=1e-2)
        assert len(res.mass_trace) == 2
        assert np.array_equal(one, res.final().values)
        hand = _hand_spectral(grid, self.dt, 1, SIGMAS[name], params, "rk4")
        assert np.array_equal(one, hand)

    @pytest.mark.parametrize("scheme", ["rk4", "if-rk4"])
    @pytest.mark.parametrize("name", sorted(SIGMAS))
    def test_spectral_stages_stay_at_roundoff_from_nodal_stages(self, name, scheme):
        grid = gaussian_grid(8.0, 128, mean=0.3, std=0.5)
        params = FractionalParams(1.5, 1.0)
        res = solve_fp(grid, 40 * self.dt, self.dt, SIGMAS[name], params,
                       scheme=scheme, boundary_density_tol=1e-2)
        ref = _nodal_reference(grid, self.dt, 40, SIGMAS[name], params, scheme)
        assert np.max(np.abs(res.final().values - ref)) <= 1e-12 * np.max(ref)


class TestTransformsPerStep:
    """A step of either scheme makes 9 transforms: per stage one inverse
    (the grid evaluator's) and one forward, and one inverse for the nodal
    values."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        for name in ("rfft", "irfft"):
            inner = getattr(np.fft, name)

            def counted(*args, _inner=inner, _name=name, **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @pytest.mark.parametrize("name", sorted(SIGMAS))
    def test_at_most_ten_per_step(self, monkeypatch, name):
        grid = gaussian_grid(8.0, 128, mean=0.3, std=0.5)
        params = FractionalParams(1.5, 1.0)
        op = _Operator(grid, SIGMAS[name], params)
        v = np.fft.rfft(grid.values)
        calls = self._count(monkeypatch)
        # the step, and the inverse transform of its change that solve_fp makes
        np.fft.irfft(_step_rk4(grid, v, 2.0 ** -8, op)[0], n=grid.m)
        assert len(calls) <= 10 and calls.count("irfft") == 5
        del calls[:]
        np.fft.irfft(_step_lawson(grid, v, 2.0 ** -8, op)[0], n=grid.m)
        assert len(calls) <= 10 and calls.count("irfft") == 5

    @pytest.mark.parametrize("scheme", ["rk4", "if-rk4"])
    def test_a_solve_adds_only_its_set_up(self, monkeypatch, scheme):
        # the kernel transform and the initial spectrum, once per solve
        grid = gaussian_grid(8.0, 128, mean=0.3, std=0.5)
        calls = self._count(monkeypatch)
        solve_fp(grid, 20 * 2.0 ** -8, 2.0 ** -8, SmoothedDensityPower(0.5, 0.5),
                 FractionalParams(1.5, 1.0), scheme=scheme, boundary_density_tol=1e-2)
        assert len(calls) == 9 * 20 + 2


class TestMassTolerance:
    @pytest.mark.parametrize("scheme", ["rk4", "if-rk4"])
    def test_tolerance_below_roundoff_drift_aborts(self, scheme):
        grid = gaussian_grid(10.0, 256, std=1.0)
        sig, params = SmoothedDensityPower(0.5, 0.5), FractionalParams(1.5)
        res = solve_fp(grid, 0.02, 0.002, sig, params, scheme=scheme)
        drift = float(np.max(np.abs(res.mass_trace[1:] - 1.0)))
        assert 0.0 < drift <= 1e-12
        with pytest.raises(StabilityError, match="mass"):
            solve_fp(grid, 0.02, 0.002, sig, params, scheme=scheme,
                     mass_tolerance=0.5 * drift)


def _per_node_adjoint_check(sigma, nu_grid, phi, psi, params, head_cut=0.01,
                            log_panels=20, nodes_per_panel=24):
    """The duality check with its jump quadrature built node by node, as
    it was before the quadrature was shared between nodes of one |sigma|."""
    L, dx = nu_grid.half_width, nu_grid.dx
    x, alpha = nu_grid.nodes, params.alpha
    s = np.abs(sigma.on_grid(nu_grid)(np.fft.rfft(nu_grid.values))[1])

    def phi_wrapped(u):
        return phi((u + L) % (2.0 * L) - L)

    h = 0.01
    phi2 = _fd_second(phi, x, h)
    phi4 = (_fd_second(phi, x + 5 * h, h) - 2.0 * phi2
            + _fd_second(phi, x - 5 * h, h)) / (25.0 * h * h)
    head = (s ** 2 * phi2 * head_cut ** (2.0 - alpha) / (2.0 - alpha)
            + s ** 4 * phi4 * head_cut ** (4.0 - alpha) / (12.0 * (4.0 - alpha)))
    period = 2.0 * L / s
    ratio = (head_cut + period) / head_cut
    tau, tau_w = _gauss_legendre_panels(np.linspace(0.0, 1.0, log_panels + 1),
                                        nodes_per_panel)
    y = head_cut * np.power.outer(ratio, tau)
    dy = y * np.log(ratio)[:, None] * tau_w[None, :]
    big_g = (phi_wrapped(x[:, None] + s[:, None] * y)
             + phi_wrapped(x[:, None] - s[:, None] * y)
             - 2.0 * phi(x)[:, None])
    weight = period[:, None] ** (-1.0 - alpha) * hurwitz_zeta(1.0 + alpha,
                                                             y / period[:, None])
    body = np.sum(big_g * weight * dy, axis=1)
    lhs = float(np.sum(params.singular_integral_constant() * (head + body) * psi(x)) * dx)
    w = s ** alpha * psi(x)
    rhs = float(np.sum(phi(x) * fractional_laplacian(w, nu_grid, params)) * dx)
    return {"lhs": lhs, "rhs": rhs,
            "rel_error": abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)}


class TestAdjointIdentity:
    # AC9's grid and cases
    CASES = [(Constant(1.0), bump(0.0, 2.5), bump(0.0, 2.5)),
             (Constant(1.7), bump(-1.0, 2.5), bump(1.2, 2.2)),
             (SmoothedDensityPower(0.5, 0.5), bump(-1.0, 2.5), bump(1.2, 2.2))]

    @pytest.mark.parametrize("case", range(3), ids=["constant", "constant_1.7", "smoothed"])
    def test_equals_a_per_node_quadrature(self, case):
        nu = gaussian_grid(8.0, 1024, std=1.0)
        params = FractionalParams(1.5, 1.0)
        sigma, phi, psi = self.CASES[case]
        rep = adjoint_identity_check(sigma, nu, phi, psi, params)
        assert rep == _per_node_adjoint_check(sigma, nu, phi, psi, params)

    def test_constant_coefficient_evaluates_one_row_of_zeta(self, monkeypatch):
        shapes = []

        def zeta(a, q):
            shapes.append(np.shape(q))
            return hurwitz_zeta(a, q)
        monkeypatch.setattr(fokker_planck, "hurwitz_zeta", zeta)
        nu = gaussian_grid(8.0, 1024, std=1.0)
        sigma, phi, psi = self.CASES[1]
        adjoint_identity_check(sigma, nu, phi, psi, FractionalParams(1.5, 1.0))
        assert shapes == [(1, 480)]

    def test_reduction_matches_spectral_quadrature(self):
        nu = gaussian_grid(8.0, 1024, std=1.0)
        params = FractionalParams(1.5, 1.0)
        phi = bump(0.0, 2.5)
        rep = adjoint_identity_check(Constant(1.0), nu, phi, phi, params)
        spectral = float(np.sum(phi(nu.nodes) * fractional_laplacian(
            phi(nu.nodes), nu, params)) * nu.dx)
        assert rep["rel_error"] < 1e-6
        assert rep["rhs"] == pytest.approx(spectral, rel=1e-12)

    def test_left_side_scales_with_coefficient_power(self):
        nu = gaussian_grid(8.0, 1024, std=1.0)
        params = FractionalParams(1.5, 1.0)
        phi, psi = bump(-1.0, 2.5), bump(1.2, 2.2)
        base = adjoint_identity_check(Constant(1.0), nu, phi, psi, params)
        scaled = adjoint_identity_check(Constant(-1.3), nu, phi, psi, params)
        assert scaled["lhs"] / base["lhs"] == pytest.approx(1.3 ** 1.5, rel=1e-6)

    def test_generic_coefficient_below_tolerance(self):
        nu = gaussian_grid(8.0, 1024, std=1.0)
        for alpha in (0.8, 1.5, 1.9):
            rep = adjoint_identity_check(SmoothedDensityPower(0.5, 0.5), nu,
                                         bump(-1.0, 2.5), bump(1.2, 2.2),
                                         FractionalParams(alpha, 1.0))
            assert rep["rel_error"] < 1e-4, alpha

    def test_boundary_touching_test_function_rejected(self):
        nu = gaussian_grid(8.0, 256, std=1.0)
        with pytest.raises(ValueError):
            adjoint_identity_check(Constant(1.0), nu, bump(5.0, 4.0),
                                   bump(0.0, 2.0), FractionalParams(1.5))

    @pytest.mark.parametrize("center,width", [(0.0, 0.0), (0.0, -2.5), (math.nan, 2.5),
                                              (0.0, math.nan), (math.inf, 2.5),
                                              (0.0, math.inf)])
    def test_bump_that_vanishes_or_is_not_finite_rejected(self, center, width):
        # a zero width makes the bump identically zero, and the duality check
        # pass with both sides 0; a negative width would act as its absolute
        # value, and a non-finite argument gives NaN or no compact support
        with pytest.raises(ValueError, match="width above 0"):
            bump(center, width)


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
