"""Closed-form large-index objects: limit curves, growth laws, walk
coefficients and their dynamic-programming oracle, envelope scaling, and
the reciprocal-gamma asymptote."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nleig.asymptotics import (envelope, forbidden_region_z, growth_law,
                               limit_curve, limit_curve_value,
                               origin_behavior, origin_value,
                               rgamma_asymptote, rgamma_asymptote_log,
                               rgamma_forbidden_epsilon, rgamma_limit_curve,
                               walk_coefficients, walk_coefficients_dp,
                               RGammaScaling)
from nleig.models import Frame, make_model
from nleig.rootfind import RootError, bisect
from nleig.specfun import DomainError


class TestLimitCurve:
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.25, 0.0, 1.0, 5.0])
    def test_turning_point_value(self, alpha):
        assert abs(limit_curve_value(alpha, 1.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.25, 0.0, 1.0, 5.0])
    def test_strictly_decreasing(self, alpha):
        # z - z(0) ~ t^(2+2 alpha) is below one ulp of z near the origin
        # for large alpha, so strictness is only representable away from 0
        ts = np.linspace(1e-3, 1.0, 120)
        zs = [limit_curve_value(alpha, float(t)) for t in ts]
        assert all(b <= a for a, b in zip(zs, zs[1:]))
        strict = [z for t, z in zip(ts, zs) if t >= 0.3]
        assert all(b < a for a, b in zip(strict, strict[1:]))

    def test_reciprocal_beyond_turning(self):
        for alpha in (-0.5, 0.0, 2.0):
            assert limit_curve_value(alpha, 4.0) == 0.25
            assert limit_curve_value(alpha, 1.0000001) == pytest.approx(
                1.0 / 1.0000001)

    def test_origin_values_from_implicit_equation(self):
        # the solver at t = 0 must land on the closed form
        assert abs(limit_curve_value(-0.5, 0.0) - 2.0 ** (10.0 / 21.0)) <= 1e-12
        assert abs(limit_curve_value(0.0, 0.0) - 2.0 ** (1.0 / 3.0)) <= 1e-12

    def test_alpha_one_degenerate_limit(self):
        # z(0) at the removable alpha = 1 point: exp((1 - ln 2)/2)
        want = math.exp(0.5 * (1.0 - math.log(2.0)))
        assert abs(limit_curve_value(1.0, 0.0) - want) <= 1e-12
        # continuity across the special-cased band
        for t in (0.2, 0.7):
            a = limit_curve_value(1.0, t)
            b = limit_curve_value(1.0 + 1e-7, t)
            c = limit_curve_value(1.0 - 1e-7, t)
            assert abs(a - b) < 1e-5 and abs(a - c) < 1e-5

    def test_bessel_identity_on_grid(self):
        # alpha = -1/2 solution satisfies the 2^8 product identity
        for i in range(200):
            t = (i + 0.5) / 200.0
            z = limit_curve_value(-0.5, t)
            lhs = ((4.0 * z ** 1.5 - 3.0 * math.sqrt(z ** 3 - t)) ** 4
                   * (z ** 1.5 + math.sqrt(z ** 3 - t)) ** 3)
            assert abs(lhs - 256.0) <= 1e-10 * 256.0

    def test_defining_equation_residual(self):
        for alpha in (-0.7, 0.3, 2.2):
            for t in (0.15, 0.5, 0.85):
                z = limit_curve_value(alpha, t)
                w = z ** (1.0 - alpha)
                r = math.sqrt(z ** (2.0 - 2.0 * alpha) - t ** (2.0 + 2.0 * alpha))
                lhs = ((w + 0.5 * (alpha - 1.0) * r) ** 2
                       * (w + r) ** (1.0 - alpha))
                assert abs(lhs - 1.0) <= 1e-12

    def test_large_alpha_flattens_to_one(self):
        ts = np.linspace(0.0, 1.0, 41)
        zs = [limit_curve_value(50.0, float(t)) for t in ts]
        assert max(abs(z - 1.0) for z in zs) < 0.05

    def test_grid_object(self):
        lc = limit_curve(-0.5, np.linspace(0.0, 2.0, 11))
        assert lc.origin_value == pytest.approx(2.0 ** (10.0 / 21.0))
        assert lc.z[0] == pytest.approx(lc.origin_value)
        assert lc(0.5) == pytest.approx(limit_curve_value(-0.5, 0.5))

    def test_domain(self):
        with pytest.raises(ValueError):
            limit_curve_value(-1.2, 0.5)
        with pytest.raises(ValueError):
            limit_curve_value(0.0, -0.1)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite alpha"):
                limit_curve_value(alpha, 0.5)


# limit_curve_value as it was before its residual's z-free parts were
# hoisted: each residual call formed t^(2+2 alpha), 1-alpha, 2-2 alpha and
# (alpha-1)/2 again.  The served values must be the same floats.

def _curve_log_residual_reference(alpha, t, z):
    w = z ** (1.0 - alpha)
    rad = z ** (2.0 - 2.0 * alpha) - t ** (2.0 + 2.0 * alpha)
    if rad < 0.0:
        rad = 0.0
    r = math.sqrt(rad)
    first = w + 0.5 * (alpha - 1.0) * r
    if first <= 0.0:
        return math.inf
    return 2.0 * math.log(first) + (1.0 - alpha) * math.log(w + r)


def _limit_curve_value_reference(alpha, t):
    if t > 1.0:
        return 1.0 / t
    if abs(alpha - 1.0) < 1e-9:
        r = math.sqrt(max(0.0, 1.0 - t ** 4))
        return math.exp(0.5 * (r - math.log1p(r)))
    z0 = origin_value(alpha)
    if t == 0.0:
        if alpha < 1.0:
            lo, hi = 1e-12, max(2.0 * z0, 2.0)
        else:
            lo, hi = 1.0 - 1e-12, 2.0 * z0
    else:
        ln_zrad = math.log(t) * (2.0 + 2.0 * alpha) / (2.0 - 2.0 * alpha)
        if alpha < 1.0:
            z_rad = math.exp(ln_zrad) if ln_zrad > -27.0 else 1e-12
            lo, hi = z_rad, z0 * (1.0 + 1e-9)
        else:
            z_rad = math.exp(ln_zrad) if ln_zrad < 700.0 else math.inf
            lo, hi = 1.0 - 1e-12, min(z_rad, z0 * (1.0 + 1e-9))
    f = lambda z: _curve_log_residual_reference(alpha, t, z)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0) or not math.isfinite(flo) \
            or not math.isfinite(fhi):
        zs = np.linspace(lo, hi, 64)
        vals = [f(z) for z in zs]
        for i in range(len(zs) - 1):
            if math.isfinite(vals[i]) and math.isfinite(vals[i + 1]) \
                    and (vals[i] > 0.0) != (vals[i + 1] > 0.0):
                lo, hi = zs[i], zs[i + 1]
                break
        else:
            raise RootError(f"limit_curve: no bracket at alpha={alpha}, t={t}")
    z = bisect(f, lo, hi, xtol=1e-16, rtol=1e-16, ftol=1e-13)
    if abs(f(z)) > 1e-12:
        raise RootError(f"limit_curve: residual {f(z):.2e} > 1e-12 at t={t}")
    return z


def _curve_outcome(fn, alpha, t):
    try:
        return float(fn(alpha, t)).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__


class TestLimitCurveBitIdentity:
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.0 - 1e-10,
                                       1.0 + 1e-10, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.1, 0.45, 0.9, 1.0])
    def test_grid(self, alpha, t):
        assert (_curve_outcome(limit_curve_value, alpha, t)
                == _curve_outcome(_limit_curve_value_reference, alpha, t))

    @given(st.floats(-0.999, 6.0), st.floats(0.0, 1.0))
    @example(-0.25, 0.5)
    @settings(max_examples=150, deadline=None)
    def test_any_point(self, alpha, t):
        assert (_curve_outcome(limit_curve_value, alpha, t)
                == _curve_outcome(_limit_curve_value_reference, alpha, t))


class TestOriginBehavior:
    def test_finite_branch(self):
        ob = origin_behavior(0.0)
        assert ob.kind == "finite"
        assert ob.value == pytest.approx(2.0 ** (1.0 / 3.0))

    def test_log_branch(self):
        ob = origin_behavior(-1.0)
        assert ob.kind == "log-quartic"
        assert "(ln n)^(1/4)" in ob.note
        assert ob.describe(1e-4) == pytest.approx((2.0 * math.log(1e4)) ** 0.25)

    def test_power_branch(self):
        ob = origin_behavior(-2.0)
        assert ob.kind == "power-law"
        assert ob.exponent == pytest.approx(-1.0 / 3.0)
        assert ob.amplitude == pytest.approx((3.0 / math.sqrt(5.0)) ** (1.0 / 3.0))


class TestGrowthLaw:
    def test_cosine_constant_chain(self):
        gl = growth_law(make_model("cos"))
        assert gl.gamma_exp == 0.5
        # sqrt(1) (2 pi/pi)^(1/2) 2^(1/3) = 2^(5/6)
        assert gl.A == pytest.approx(math.sqrt(2.0) * 2.0 ** (1.0 / 3.0),
                                     rel=1e-14)
        assert gl.A == pytest.approx(2.0 ** (5.0 / 6.0), rel=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 3.7])
    def test_bessel_constant_is_order_independent(self, nu):
        gl = growth_law(make_model(f"bessel:{nu:g}"))
        assert gl.gamma_exp == 0.25
        assert gl.A == pytest.approx(2.0 ** (41.0 / 42.0), rel=1e-13)

    def test_airy_constant(self):
        # direct evaluation of the closed form with
        # (a, alpha, b, beta) = (1/sqrt(pi), -1/4, 2/3, 3/2)
        gl = growth_law(make_model("airy"))
        assert gl.gamma_exp == pytest.approx(0.25)
        assert gl.A == pytest.approx(1.7233099010811006, rel=1e-12)

    def test_rejects_non_algebraic(self):
        with pytest.raises(ValueError):
            growth_law(make_model("rgamma"))
        with pytest.raises(ValueError):
            growth_law(make_model("xibar"))

    def test_predict(self):
        gl = growth_law(make_model("cos"))
        assert gl.predict(100) == pytest.approx(2.0 ** (5.0 / 6.0) * 10.0)


class TestForbiddenRegion:
    def test_cosine_example(self):
        frame = Frame(make_model("cos"), 1)
        z = forbidden_region_z(frame, 2.0)
        want = 0.5 * (1.0 - math.asin(0.25) / (1.5 * math.pi))
        assert z == pytest.approx(want, rel=1e-14)

    def test_large_t_limit(self):
        frame = Frame(make_model("cos"), 1)
        assert forbidden_region_z(frame, 1e8) == pytest.approx(1e-8, rel=1e-9)

    def test_large_lambda_limit(self):
        frame = Frame(make_model("cos"), 4000)
        t = 1.7
        assert forbidden_region_z(frame, t) == pytest.approx(1.0 / t, rel=1e-4)

    def test_domain(self):
        frame = Frame(make_model("cos"), 1)
        with pytest.raises(ValueError):
            forbidden_region_z(frame, 1.0)
        with pytest.raises(ValueError, match="scaled frame"):
            forbidden_region_z(Frame(make_model("cos")), 2.0)


class TestWalkCoefficients:
    def test_first_values(self):
        wc = walk_coefficients(5)
        assert wc.values[0] == Fraction(-1, 2)
        assert wc.values[1] == Fraction(-1, 8)
        assert wc.values[3] == Fraction(-5, 128)
        assert wc.values[5] == Fraction(-21, 1024)

    def test_closed_form_equals_dp_to_60(self):
        assert walk_coefficients(60).values == walk_coefficients_dp(60).values

    @given(st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_closed_form_equals_dp_random(self, p):
        assert walk_coefficients(p).values == walk_coefficients_dp(p).values

    def test_signs_and_decay(self):
        vals = walk_coefficients(30).values
        assert all(v < 0 for v in vals)
        assert all(abs(vals[p + 1]) < abs(vals[p]) for p in range(30))

    def test_partial_sums_match_sqrt_resummation(self):
        # sum alpha_{1,2p+1} x^(2p+1) = (sqrt(1-x^2) - 1)/x (binomial series)
        vals = walk_coefficients(60).values
        for x, tol in ((0.1, 1e-12), (0.5, 1e-12), (0.9, 5e-8)):
            s = sum(float(v) * x ** (2 * p + 1) for p, v in enumerate(vals))
            closed = (math.sqrt(1.0 - x * x) - 1.0) / x
            # the p = 60 truncation tail dominates at x = 0.9
            assert abs(s - closed) <= tol

    def test_p_cap(self):
        with pytest.raises(ValueError):
            walk_coefficients(61)


class TestRGamma:
    def test_asymptote_matches_quoted_values(self):
        assert abs(rgamma_asymptote(10) - 4.98e8) <= 0.005e8
        assert abs(rgamma_asymptote(20) - 2.68e23) <= 0.005e23

    def test_log_variant_consistent(self):
        assert rgamma_asymptote_log(10) == pytest.approx(
            math.log(rgamma_asymptote(10)), abs=1e-12)

    def test_overflow_guarded(self):
        with pytest.raises(OverflowError):
            rgamma_asymptote(160)
        assert rgamma_asymptote_log(160) > 709.0

    def test_scaling_record(self):
        sc = RGammaScaling.for_index(2)
        assert sc.lam == 3.0
        assert -3.0 < sc.r_lambda < -2.0
        assert sc.xi_lambda > 0.0
        assert sc.ln_xi == pytest.approx(math.log(sc.xi_lambda), rel=1e-12)

    def test_epsilon_branch_point(self):
        assert rgamma_forbidden_epsilon(1.0) == pytest.approx(1.0)

    def test_epsilon_at_two(self):
        # oracle: bisection on eps e^(-eps) = e^(-1)/4
        assert rgamma_forbidden_epsilon(2.0) == pytest.approx(
            0.10182843109414196, abs=1e-10)
        # quoted rounded figure agrees to 1e-5
        assert abs(rgamma_forbidden_epsilon(2.0) - 0.101830) < 1e-5

    def test_limit_curve_piecewise(self):
        assert rgamma_limit_curve(0.5) == 1.0
        assert rgamma_limit_curve(1.0) == 1.0
        assert rgamma_limit_curve(4.0) == 0.25


class TestEnvelope:
    def test_bessel_exponent_bookkeeping(self):
        # z_env = t^(-1/2) z^(-3/2) / lambda for alpha=-1/2, beta=1
        frame = Frame(make_model("bessel:0"), 7)
        t = 0.37
        z = limit_curve_value(-0.5, t)
        want = t ** -0.5 * z ** -1.5 / frame.lam
        assert envelope(frame, t) == pytest.approx(want, rel=1e-12)

    def test_doubling_lambda_halves_envelope(self):
        m = make_model("bessel:0")
        # lambda = (2n - 1/4) pi: doubling n from 250 nearly doubles it
        f1, f2 = Frame(m, 250), Frame(m, 500)
        assert f2.lam / f1.lam == pytest.approx(2.0, rel=1e-3)
        assert envelope(f1, 0.5) / envelope(f2, 0.5) == pytest.approx(
            f2.lam / f1.lam, rel=1e-13)

    def test_envelope_magnitude_near_origin_scale(self):
        # at t ~ 1/lambda the envelope is O(lambda^(-1/2)) for bessel
        m = make_model("bessel:0")
        frame = Frame(m, 318)     # lambda = 635.75 pi, about 1997
        lam = frame.lam
        t = 1.0 / lam
        val = envelope(frame, t)
        assert 0.05 <= val * math.sqrt(lam) <= 5.0

    def test_domain(self):
        frame = Frame(make_model("bessel:0"), 1)
        with pytest.raises(ValueError):
            envelope(frame, 1.5)
        # a raw frame, and rgamma's, carry no algebraic scaling
        for other in (Frame(make_model("bessel:0")),
                      Frame(make_model("rgamma"), 3)):
            with pytest.raises(ValueError, match="scaled frame"):
                envelope(other, 0.5)
