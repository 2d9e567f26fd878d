"""Perturbation profile: closed-form values, knots, admissibility battery."""

import numpy as np
import pytest

from levymv.perturbation import (CheckResult, PerturbationParams, perturbation_profile,
                                 perturbation_profile_deriv, verify_h1)
from levymv.rng import substream


def params(gamma=1.0, eps=0.01, alpha=1.5, k1=1.0):
    return PerturbationParams(gamma=gamma, eps=eps, alpha=alpha, k1_bound=k1)


def checks_by_name(p):
    """The checks of :func:`verify_h1` on ``p``, by name."""
    return {c.name: c for c in verify_h1(p)[1]}


class TestProfileValues:
    def test_vanishes_at_band_edge_exactly(self):
        p = params()
        assert perturbation_profile(1.0, p) == 0.0
        assert perturbation_profile(-1.0, p) == 0.0

    def test_first_knot_value(self):
        p = params(gamma=1.3, eps=0.02)
        assert perturbation_profile(0.02, p) == pytest.approx(0.02 ** 2.3, rel=1e-14)

    def test_power_growth_below_first_knot(self):
        p = params(gamma=0.9, eps=0.05)
        y = 0.01
        assert perturbation_profile(y, p) == pytest.approx(y ** 1.9, rel=1e-14)

    def test_evenness(self):
        p = params()
        rng = substream(300)
        y = rng.uniform(0.0, 1.0, 200)
        assert np.array_equal(perturbation_profile(y, p),
                              perturbation_profile(-y, p))

    def test_linear_tail_form_matches_blend_continuation(self):
        # the linear piece written as c(1+g)e^g (1-y) must agree with the
        # bookkeeping form (1+g-c)e^(1+g) - c(1+g)e^g (y-2e)
        p = params(gamma=1.0, eps=0.01)
        g, e, c = p.gamma, p.eps, p.c_coeff
        ys = np.linspace(2 * e, 1.0, 500)
        alt = (1 + g - c) * e ** (1 + g) - c * (1 + g) * e ** g * (ys - 2 * e)
        got = perturbation_profile(ys, p)
        assert np.max(np.abs(got - alt)) < 1e-15

    def test_out_of_band_rejected(self):
        with pytest.raises(ValueError):
            perturbation_profile(1.2, params())
        with pytest.raises(ValueError):
            perturbation_profile_deriv(-1.01, params())

    def test_derivative_matches_finite_differences(self):
        p = params(gamma=1.2, eps=0.03)
        rng = substream(301)
        ys = rng.uniform(-0.95, 0.95, 100)
        h = 1e-7
        fd = (perturbation_profile(ys + h, p)
              - perturbation_profile(ys - h, p)) / (2 * h)
        got = perturbation_profile_deriv(ys, p)
        assert np.max(np.abs(fd - got)) < 1e-5

    def test_derivative_is_odd(self):
        p = params()
        ys = np.linspace(0.01, 0.99, 50)
        assert np.allclose(perturbation_profile_deriv(-ys, p),
                           -perturbation_profile_deriv(ys, p), atol=1e-15)

    def test_maximum_sits_in_blending_region(self):
        p = params(gamma=1.0, eps=0.01)
        ys = np.linspace(0.0, 1.0, 200_001)
        kv = perturbation_profile(ys, p)
        argmax_y = ys[int(np.argmax(kv))]
        assert p.eps <= argmax_y <= 2 * p.eps


class TestParamsValidation:
    def test_gamma_below_half_alpha_rejected(self):
        with pytest.raises(ValueError):
            params(gamma=0.7, alpha=1.5)

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            params(eps=0.5)
        with pytest.raises(ValueError):
            params(eps=0.0)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            PerturbationParams(gamma=1.5, eps=0.01, alpha=2.0)

    @pytest.mark.parametrize("levy_k", [0.0, -1.0, float("nan")])
    def test_levy_k_must_be_above_0(self, levy_k):
        with pytest.raises(ValueError, match="levy_k must be above 0"):
            PerturbationParams(gamma=1.0, eps=0.01, alpha=1.5, levy_k=levy_k)

    def test_blending_constant_formula(self):
        p = params(gamma=1.0, eps=0.01)
        expected = 2.0 * 0.01 / (2.0 - 0.01 * 3.0)
        assert p.c_coeff == pytest.approx(expected, rel=1e-14)


class TestVerifyH1:
    def test_reference_parameters_pass_everything(self):
        payload, checks = verify_h1(params(gamma=1.0, eps=0.01, alpha=1.5, k1=1.0))
        assert payload["all_passed"]
        for check in checks:
            assert check.passed, check.name

    def test_c1_patching_margin(self):
        report = checks_by_name(params())
        assert report["c1_patching"].margin > 0.0

    def test_closed_form_bounds_have_positive_margin(self):
        report = checks_by_name(params())
        for name in ("sup_profile_bound", "profile_over_y_bound",
                     "profile_smallness", "deriv_smallness"):
            assert report[name].margin > 0.0, name

    def test_square_integral_head_exponent(self):
        # k^2 beta1 ~ y^(1+2g-a) near 0; the analytic head uses that exponent
        report = checks_by_name(params(gamma=1.0, alpha=1.5))
        det = report["square_integral_converges"].details
        assert det["head_exponent"] == pytest.approx(2 + 2 * 1.0 - 1.5)
        vals = det["values"]
        assert abs(vals[-1] - vals[-2]) < 1e-3 * abs(vals[-1])

    def test_displacement_ratio_bounded_by_half(self):
        report = checks_by_name(params())
        assert report["displacement_ratio_bound"].details["sup"] <= 0.5

    def test_threshold_case_flagged(self):
        # eps exactly at ((1+K1)(1+gamma))^(-1/gamma): strict inequality fails
        k1, gamma = 1.0, 1.0
        eps_threshold = ((1 + k1) * (1 + gamma)) ** (-1 / gamma)
        payload, checks = verify_h1(params(gamma=gamma, eps=eps_threshold, k1=k1))
        assert not {c.name: c for c in checks}["eps_below_profile_threshold"].passed
        assert not payload["all_passed"]

    def test_too_large_eps_breaks_ratio_bound(self):
        payload, _ = verify_h1(params(eps=0.3, gamma=1.0, alpha=1.5, k1=1.0))
        assert not payload["all_passed"]

    def test_report_serializes(self):
        import json
        payload, _ = verify_h1(params())
        text = json.dumps(payload)
        assert "displacement_ratio_bound" in text
        assert payload["all_passed"] is True

    def test_sup_deriv_bound_margin_agrees_with_its_verdict(self):
        # the derivative's sup sits within roundoff of its bound here; the check
        # passes on the bound's 1e-12 allowance, and its margin is measured
        # against the same allowance
        report = checks_by_name(PerturbationParams(gamma=1.0, eps=0.45, alpha=0.5,
                                                   k1_bound=0.0))
        check = report["sup_deriv_bound"]
        assert check.passed and check.margin >= 0.0

    @pytest.mark.parametrize("p", [params(), params(eps=0.3), params(gamma=1.3, eps=0.02),
                                   params(eps=0.25), params(k1=0.0, alpha=0.5, eps=0.45)])
    def test_every_margin_agrees_with_its_verdict(self, p):
        for check in verify_h1(p)[1]:
            strict = check.sense in ("<", ">")
            assert check.passed == (check.margin > 0.0 if strict else check.margin >= 0.0), \
                check.name

    def test_composite_checks_are_one_check_per_comparison(self):
        names = [c.name for c in verify_h1(params())[1]]
        assert len(set(names)) == len(names)
        for name in ("square_integral_decreasing_r1024", "square_integral_decreasing_r2048",
                     "square_integral_finite", "log_deriv_integrand_converges",
                     "log_deriv_integrand_finite"):
            assert name in names, name


class TestCheckResult:
    @pytest.mark.parametrize("sense, verdicts", [
        ("<=", (True, True, False)), ("<", (True, False, False)),
        (">=", (False, True, True)), (">", (False, False, True))])
    def test_each_sense_below_at_and_above_the_limit(self, sense, verdicts):
        upper = sense[0] == "<"
        for value, verdict in zip((0.5, 1.0, 1.5), verdicts):
            check = CheckResult("c", value, 1.0, sense)
            assert check.passed is verdict, (sense, value)
            assert check.margin == (1.0 - value if upper else value - 1.0)

    @pytest.mark.parametrize("sense", ["<=", "<", ">=", ">"])
    def test_nan_fails(self, sense):
        check = CheckResult("c", float("nan"), 1.0, sense)
        assert check.passed is False and np.isnan(check.margin)

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError):
            CheckResult("c", 0.0, 1.0, "==")

    def test_record(self):
        check = CheckResult("c", 0.25, 1.0, details={"note": "kept out of the record"})
        assert check.to_json_dict() == {"name": "c", "value": 0.25, "limit": 1.0,
                                        "sense": "<=", "passed": True, "margin": 0.75}
