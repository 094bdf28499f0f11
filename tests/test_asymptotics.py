"""Closed-form large-index objects: limit curves, growth laws, walk
coefficients and their dynamic-programming oracle, envelope scaling, and
the reciprocal-gamma asymptote."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nleig.asymptotics import (envelope, forbidden_region_z, growth_law,
                               limit_curve, limit_curve_value, origin_value,
                               rgamma_asymptote, rgamma_asymptote_log,
                               rgamma_limit_curve, walk_coefficients,
                               walk_coefficients_dp)
from nleig.models import Frame, make_model, rgamma_lambda_scaling
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
        # the curve at t = 0 must land on the closed form
        assert abs(limit_curve_value(-0.5, 0.0) - 2.0 ** (10.0 / 21.0)) <= 1e-12
        assert abs(limit_curve_value(0.0, 0.0) - 2.0 ** (1.0 / 3.0)) <= 1e-12

    def test_alpha_one_degenerate_limit(self):
        # z(0) at the removable alpha = 1 point: exp((1 - ln 2)/2)
        want = math.exp(0.5 * (1.0 - math.log(2.0)))
        assert abs(limit_curve_value(1.0, 0.0) - want) <= 1e-12
        # continuity through alpha = 1, an ordinary point of the formula
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

    def test_domain(self):
        with pytest.raises(ValueError):
            limit_curve_value(-1.2, 0.5)
        with pytest.raises(ValueError):
            limit_curve_value(0.0, -0.1)
        with pytest.raises(DomainError, match="t >= 0"):
            limit_curve_value(0.0, math.nan)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite alpha"):
                limit_curve_value(alpha, 0.5)


def _limit_curve_mp(alpha, t):
    """z(t) to 50 digits.  alpha = 1 and alpha = 3 take their limit curves
    (closed in t at alpha = 1; ln(w + R) = R/(w + R) at alpha = 3).  Any
    other alpha bisects q = R/w in w^(3-alpha) = (1+q)^(alpha-1) /
    (1 + (alpha-1) q/2)^2, t^(2+2 alpha) = w^2 (1 - q^2), and the result is
    checked on the defining equation itself."""
    with mpmath.workdps(50):
        a, t = mpmath.mpf(alpha), mpmath.mpf(t)
        if t >= 1:
            return 1 / t
        if alpha == 1.0:
            r = mpmath.sqrt(1 - t ** 4)
            return mpmath.exp((r - mpmath.log1p(r)) / 2)
        if alpha == 3.0:
            def h(z):
                w = z ** -2
                r = mpmath.sqrt(max(w * w - t ** 8, 0))
                return mpmath.log(w + r) - r / (w + r)
            lo, hi = mpmath.mpf(1), min(mpmath.mpf(2), t ** -2 if t else 2)
            for _ in range(180):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if h(mid) > 0 else (lo, mid)
            return lo

        def ln_w(q):
            return ((a - 1) * mpmath.log1p(q)
                    - 2 * mpmath.log1p((a - 1) * q / 2)) / (3 - a)
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        if t == 0:
            lo = hi
        else:
            ln_t = (1 + a) * mpmath.log(t)
            for _ in range(180):
                mid = (lo + hi) / 2
                if ln_w(mid) + mpmath.log1p(-mid * mid) / 2 > ln_t:
                    lo = mid
                else:
                    hi = mid
        z = mpmath.exp(ln_w(lo) / (1 - a))
        # the residual of 2 ln(w + (alpha-1) R/2) + (1-alpha) ln(w + R) = 0
        w = z ** (1 - a)
        r = mpmath.sqrt(max(w * w - t ** (2 + 2 * a), 0))
        res = 2 * mpmath.log(w + (a - 1) * r / 2) + (1 - a) * mpmath.log(w + r)
        assert abs(res) <= mpmath.mpf(10) ** -40
        return z


def _accuracy_bound(alpha):
    # the q-equation cancels as alpha -> -1: (1-alpha) ln z and
    # ln(1-q^2)/2 nearly cancel near q = 0, by a factor of 1+alpha
    if alpha >= -0.9:
        return 2e-15
    return 2e-14 if alpha >= -0.99 else 1e-13


def _assert_accurate(alpha, t):
    z = limit_curve_value(alpha, t)
    want = _limit_curve_mp(alpha, t)
    assert float(abs(z - want) / want) <= _accuracy_bound(alpha)


class TestLimitCurveAccuracy:
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.0 - 1e-10,
                                       1.0 + 1e-10, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.1, 0.45, 0.9, 1.0])
    def test_grid(self, alpha, t):
        _assert_accurate(alpha, t)

    @given(st.floats(-0.999, 100.0), st.floats(0.0, 1.0))
    @example(-0.25, 0.5)
    @example(1.0, 0.5)
    @example(3.0, 0.75)
    @example(1.0 + 1e-8, 1e-3)
    @example(1.0 - 1e-8, 0.05)
    @example(3.0 + 1e-9, 0.05)
    @example(3.0 - 1e-9, 0.5)
    @example(2.999998, 0.3)
    @example(100.0, 0.3)
    @example(-0.999, 0.6713839561308822)
    @settings(max_examples=150, deadline=None)
    def test_any_point(self, alpha, t):
        _assert_accurate(alpha, t)

    @pytest.mark.parametrize("alpha", [-0.999, -0.5, 0.0, 1.0, 3.0, 100.0])
    def test_ends(self, alpha):
        assert limit_curve_value(alpha, 0.0) == origin_value(alpha)
        assert limit_curve_value(alpha, 1.0) == 1.0


class TestLimitCurvePins:
    # recorded before the curve was parametrized by q = R/w: the growth-law
    # constants, and through them every bisection bracket, keep their bits
    @pytest.mark.parametrize("alpha, want", [
        (0.0, "0x1.428a2f98d728bp+0"), (-0.5, "0x1.641ce05d40362p+0"),
        (-0.25, "0x1.4f36f58bb7fbcp+0")])
    def test_origin_value(self, alpha, want):
        assert origin_value(alpha).hex() == want

    @pytest.mark.parametrize("spec, want", [
        ("cos", "0x1.c823e074ec12ap+0"),
        ("bessel:0", "0x1.f79e9aca4c53dp+0"),
        ("bessel:2.5", "0x1.f79e9aca4c53dp+0"),
        ("airy", "0x1.b92ad672042dbp+0")])
    def test_growth_constant(self, spec, want):
        assert growth_law(make_model(spec)).A.hex() == want


# z(t) bits of the q-parametrized route, t = 0, 1e-3, 0.1, 0.45, 0.9, 1;
# each is within _accuracy_bound of the 50-digit reference
_LIMIT_CURVE_BITS = {
    -0.9: ("0x1.e111d63afe3ccp+0", "0x1.c2f38cdeec4d8p+0",
           "0x1.8570af62cf11fp+0", "0x1.4c7e73ef8fbb9p+0",
           "0x1.11ff2611bdedbp+0", "0x1.0000000000000p+0"),
    -0.5: ("0x1.641ce05d40362p+0", "0x1.640bf04d3f994p+0",
           "0x1.5d566da195d4ep+0", "0x1.42737462c1f31p+0",
           "0x1.11aefcccfc473p+0", "0x1.0000000000000p+0"),
    0.0: ("0x1.428a2f98d728bp+0", "0x1.428a2c449c62ap+0",
          "0x1.4207f0c2fed1cp+0", "0x1.37e5efd862addp+0",
          "0x1.114a537603de1p+0", "0x1.0000000000000p+0"),
    0.5: ("0x1.336b205505725p+0", "0x1.336b20544e31dp+0",
          "0x1.336033d6993dfp+0", "0x1.2f7e060b4ff5cp+0",
          "0x1.10e5787acfc52p+0", "0x1.0000000000000p+0"),
    1.0 - 1e-10: ("0x1.2a734f5b762c7p+0", "0x1.2a734f5b76036p+0",
                  "0x1.2a725add7a953p+0", "0x1.28eaa90ebee5cp+0",
                  "0x1.1080bf24d3cb2p+0", "0x1.0000000000000p+0"),
    1.0 + 1e-10: ("0x1.2a734f5b69cb6p+0", "0x1.2a734f5b69a25p+0",
                  "0x1.2a725add6e381p+0", "0x1.28eaa90eb4f35p+0",
                  "0x1.1080bf24d31e6p+0", "0x1.0000000000000p+0"),
    2.0: ("0x1.2000000000000p+0", "0x1.2000000000000p+0",
          "0x1.1ffffe02645e5p+0", "0x1.1fbf6e089fe2cp+0",
          "0x1.0fb8e63380b41p+0", "0x1.0000000000000p+0"),
    3.0: ("0x1.19f4bc7f23a20p+0", "0x1.19f4bc7f23a21p+0",
          "0x1.19f4bc7ac9e2bp+0", "0x1.19e99314d65f6p+0",
          "0x1.0ef4f95e68939p+0", "0x1.0000000000000p+0"),
    5.0: ("0x1.131703da7272bp+0", "0x1.131703da7272bp+0",
          "0x1.131703da725c4p+0", "0x1.1316a7c5d7111p+0",
          "0x1.0d7fb8486389ep+0", "0x1.0000000000000p+0"),
}


class TestLimitCurveBitIdentity:
    # limit_curve_value feeds the envelope and the eigenvalue runs, so a
    # change of route that moves its bits should be seen here first
    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.0 - 1e-10,
                                       1.0 + 1e-10, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.1, 0.45, 0.9, 1.0])
    def test_grid(self, alpha, t):
        i = (0.0, 1e-3, 0.1, 0.45, 0.9, 1.0).index(t)
        assert limit_curve_value(alpha, t).hex() == _LIMIT_CURVE_BITS[alpha][i]


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
        lam, r_lambda, ln_xi = rgamma_lambda_scaling(2)
        assert lam == 3.0
        assert -3.0 < r_lambda < -2.0
        # xi = -1/Gamma(r_lambda) > 0
        assert math.gamma(r_lambda) < 0.0
        assert ln_xi == pytest.approx(-math.log(-math.gamma(r_lambda)),
                                      rel=1e-12)

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
