"""Model layer: asymptotic parameters, the lambda parametrization, the
coordinate rescaling, and the stability classification of zeros."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from nleig.models import (RGAMMA_N_MAX, AsymptoticForm, Frame, eval_F,
                          eval_F_prime, make_model, raw_rhs, zero_table,
                          rgamma_lambda_scaling)
from nleig.specfun import recip_gamma_log
from nleig.specfun.bessel import _order
from nleig.ode import SolutionCurve
from nleig.specfun import DomainError
from test_specfun import _recip_gamma_log_reference


class TestModelCatalog:
    def test_grammar(self):
        assert make_model("cos").kind == "cosine"
        assert make_model("bessel:1.5").nu == 1.5
        assert make_model("airy").kind == "airy"
        assert make_model("rgamma").asym is None
        assert make_model("xibar").asym is None
        with pytest.raises(DomainError):
            make_model("bessel:-1")
        with pytest.raises(DomainError):
            make_model("mystery")

    def test_asymptotic_parameters(self):
        c = make_model("cos").asym
        assert (c.a, c.alpha, c.b, c.beta, c.phi) == (1.0, 0.0, math.pi, 1.0, 0.0)
        b = make_model("bessel:0").asym
        assert (b.a, b.alpha, b.b, b.beta) == (math.sqrt(2.0 / math.pi),
                                               -0.5, 1.0, 1.0)
        assert b.phi == -math.pi / 4.0
        b2 = make_model("bessel:2").asym
        assert b2.phi == -(5.0 * math.pi) / 4.0
        a = make_model("airy").asym
        assert (a.a, a.alpha, a.b, a.beta, a.phi) == (
            1.0 / math.sqrt(math.pi), -0.25, 2.0 / 3.0, 1.5, -math.pi / 4.0)

    def test_asym_validation(self):
        with pytest.raises(ValueError):
            AsymptoticForm(a=-1.0, alpha=0.0, b=1.0, beta=1.0, phi=0.0)
        with pytest.raises(ValueError):
            AsymptoticForm(a=1.0, alpha=0.0, b=1.0, beta=0.0, phi=0.0)

    def test_eval_F(self):
        assert eval_F(make_model("cos"), 0.5) == 0.0
        assert eval_F(make_model("bessel:0"), 0.0) == 1.0
        assert eval_F(make_model("rgamma"), 3.0) == 0.0

    def test_loose_asymptotic_envelope(self):
        # |F - a u^alpha cos(b u^beta + phi)| <= 0.5 a u^alpha for u >= 20
        for spec in ("cos", "bessel:0", "bessel:1", "airy"):
            m = make_model(spec)
            for u in np.linspace(20.0, 200.0, 37):
                err = abs(eval_F(m, float(u)) - m.asym.eval(float(u)))
                assert err <= 0.5 * m.asym.a * u ** m.asym.alpha


class TestLambdaParametrization:
    def test_cosine_lambda_hits_unstable_zeros(self):
        m = make_model("cos")
        for n in (1, 2, 7):
            frame = Frame(m, n)
            u_n = 2.0 * n - 0.5
            assert abs(m.asym.b * u_n ** m.asym.beta + m.asym.phi - frame.lam) < 1e-12
            assert frame.lam == pytest.approx((2 * n - 0.5) * math.pi)

    def test_gamma_exponent(self):
        assert Frame(make_model("cos"), 1).gamma_exp == 0.5
        assert Frame(make_model("bessel:0"), 1).gamma_exp == 0.25
        assert Frame(make_model("airy"), 1).gamma_exp == pytest.approx(0.25)

    def test_rgamma_lambda(self):
        frame = Frame(make_model("rgamma"), 4)
        assert frame.lam == 7.0 == frame.u_scale
        lam, r, ln_xi = rgamma_lambda_scaling(4)
        assert -7.0 < r < -6.0
        assert ln_xi > 0.0

    def test_xibar_rejected(self):
        # xibar has no scaling: its frame is raw at any index
        frame = Frame(make_model("xibar"), 1)
        assert frame.coords == "raw" and frame.lam is None
        with pytest.raises(DomainError):
            frame.convert(_curve("raw", [1.0], [1.0]), "scaled")


def _curve(coords, xs, ys):
    """A curve through the points (xs, ys), each one also an event."""
    return SolutionCurve(coords, np.array(xs), np.array(ys), list(xs),
                         list(ys), list(xs), list(ys), None, "reached_end")


def _numbers(c):
    """The abscissae, then the ordinates, of c, events included."""
    return [*c.grid, *c.maxima, *c.minima,
            *c.values, *c.maxima_values, *c.minima_values]


class TestScaling:
    def test_origin_maps_to_origin(self):
        frame = Frame(make_model("bessel:0"), 3)
        sc = frame.convert(_curve("raw", [0.0], [0.0]), "scaled")
        assert _numbers(sc) == [0.0] * 6

    def test_cosine_initial_value_relation(self):
        # y(0) = sqrt(lambda/pi) z(0) at n = 1
        frame = Frame(make_model("cos"), 1)
        assert frame.y_scale == pytest.approx(math.sqrt(1.5))
        raw = frame.convert(_curve("scaled", [0.0], [1.0]), "raw")
        assert raw.values[0] == pytest.approx(math.sqrt(1.5))

    @given(st.sampled_from(["cos", "bessel:0", "bessel:2.5", "airy",
                            "rgamma"]),
           st.integers(1, 200),
           st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 10.0)),
                    min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, spec, n, points):
        # raw curves at t in [1e-3, 1e3] and z in [1e-3, 10], events
        # included, come back from scaled coordinates to 1e-14 relative;
        # rgamma's y_scale reaches 4e306 at RGAMMA_N_MAX and leaves
        # binary64 past it
        assume(spec != "rgamma" or n <= RGAMMA_N_MAX)
        frame = Frame(make_model(spec), n)
        xs = [a * frame.x_scale for a, _ in points]
        ys = [b * frame.y_scale for _, b in points]
        c = _curve("raw", xs, ys)
        sc = frame.convert(c, "scaled")
        back = frame.convert(sc, "raw")
        assert (sc.coords, back.coords) == ("scaled", "raw")
        for want, got in zip(_numbers(c), _numbers(back)):
            assert abs(got - want) <= 1e-14 * want
        # u = xy is u_scale t z; rgamma's u_scale is lambda, and its
        # x_scale y_scale, two rounded exponentials, is 1.2e-13 from it
        rel = 2e-13 if spec == "rgamma" else 1e-14
        for x, y, t, z in zip(xs, ys, sc.grid, sc.values):
            assert abs(frame.u_scale * t * z - x * y) <= rel * (x * y)

    def test_rgamma_round_trip(self):
        frame = Frame(make_model("rgamma"), 10)
        c = _curve("raw", [1e-8, 2e-9], [3.0, 5.5e8])
        back = frame.convert(frame.convert(c, "scaled"), "raw")
        for want, got in zip(_numbers(c), _numbers(back)):
            assert abs(got - want) <= 1e-14 * want

    def test_rgamma_overflow_guard(self):
        with pytest.raises(OverflowError):
            Frame(make_model("rgamma"), 160)


class TestScaledRhs:
    def test_bessel_prefactor(self):
        # dz/dt at the origin is sqrt(pi lambda / 2) J_0(0)
        for n in (1, 40):
            frame = Frame(make_model("bessel:0"), n)
            assert frame.rhs(0.0, 1.0) == pytest.approx(
                math.sqrt(0.5 * math.pi * frame.lam), rel=1e-12)

    def test_cosine_scaled_point(self):
        # at t = z = 1 and lambda = 3pi/2 the argument is xy = 3/2
        rhs = Frame(make_model("cos"), 1).rhs
        assert abs(rhs(1.0, 1.0)) < 1e-12

    def test_cosine_prefactor_is_unity(self):
        # the exact scaled equation for cos is dz/dt = cos(lambda t z)
        frame = Frame(make_model("cos"), 3)
        rhs = frame.rhs
        for t, z in ((0.3, 1.1), (0.9, 0.8)):
            assert rhs(t, z) == pytest.approx(math.cos(frame.lam * t * z),
                                              abs=1e-12)

    def test_rgamma_zeros(self):
        frame = Frame(make_model("rgamma"), 2)
        rhs = frame.rhs
        for k in range(4):
            t = 0.7
            z = k / (frame.lam * t)
            assert rhs(t, z) == 0.0

    def test_rgamma_matches_direct_form(self):
        # xi(lambda) dz/dt = 1/Gamma(-lambda t z), xi = -1/Gamma(r_lambda)
        from nleig.specfun import recip_gamma
        frame = Frame(make_model("rgamma"), 2)
        rhs = frame.rhs
        xi = math.exp(frame.ln_xi)
        for t, z in ((0.4, 1.0), (0.9, 1.05)):
            direct = recip_gamma(frame.lam * t * z) / xi
            assert rhs(t, z) == pytest.approx(direct, rel=1e-12)


# lower end of the domain of F that the right-hand sides clamp xy to, and
# an upper end of xy inside each model's working range (rgamma: raw
# coordinates, n <= 5)
RHS_CLAMP = {"cos": None, "bessel:0": 0.0, "bessel:2.5": 0.0, "airy": -5.0,
             "xibar": 0.0, "rgamma": -1.0}
RHS_U_MAX = {"cos": 1e4, "bessel:0": 1e3, "bessel:2.5": 1e3, "airy": 1e3,
             "xibar": 60.0, "rgamma": 12.0}


def _clamped(spec, u):
    lo = RHS_CLAMP[spec]
    return lo if lo is not None and u < lo else u


def _outcome(fn, *args):
    """The value's bits, or the type of the error raised: recip_gamma
    raises a math-domain ValueError for u just below 0, where sinpi(u)
    rounds to -0.0, and both sides must then fail alike."""
    try:
        return fn(*args).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__


class TestRhsClosures:
    """The per-kind right-hand-side closures are eval_F at the clamped
    argument, bit for bit."""

    @given(st.sampled_from(sorted(RHS_CLAMP)), st.floats(0.0, 1.0),
           st.floats(-1.0, 1.0))
    @example("bessel:0", 0.0, -1.0)    # xy = -0.0 passes the clamp as is
    @example("airy", 1.0, -1.0)        # xy = -316, clamped to -5
    @example("rgamma", 1.0, -0.5)      # xy = -17.3, clamped to -1
    @settings(max_examples=300, deadline=None)
    def test_raw(self, spec, a, b):
        # x in [0, sqrt(u_max)], y down to -10 below the origin: stage
        # probes undershoot y = 0, and the clamps must catch xy < lo
        m = make_model(spec)
        x = a * math.sqrt(RHS_U_MAX[spec])
        y = b * (math.sqrt(RHS_U_MAX[spec]) if b > 0.0 else 10.0)
        want = _outcome(eval_F, m, _clamped(spec, x * y))
        assert _outcome(raw_rhs(m), x, y) == want

    @given(st.sampled_from(["cos", "bessel:0", "bessel:2.5", "airy",
                            "rgamma"]),
           st.integers(1, 40), st.floats(0.0, 3.0), st.floats(-0.5, 1.5))
    @example("bessel:0", 3, 0.0, -1.0)
    @example("rgamma", 3, 1.0, 1.0)     # u = lambda, a zero of F
    @example("rgamma", 40, 3.0, 1.5)    # past the 705 exponent guard
    @settings(max_examples=250, deadline=None)
    def test_scaled(self, spec, n, t, z):
        m = make_model(spec)
        frame = Frame(m, n)
        if spec == "rgamma":
            # (1/Gamma(-u)) / xi at u = lambda t z, through the sinpi
            # route that recip_gamma_log replaced
            def want(u):
                sign, lm = _recip_gamma_log_reference(u)
                if sign == 0:
                    return 0.0
                if lm - frame.ln_xi > 705.0:
                    raise OverflowError("precision exhausted")
                return sign * math.exp(lm - frame.ln_xi)
            c_u = frame.lam
        else:
            pref = frame.x_scale / frame.y_scale
            want = lambda u: pref * eval_F(m, u)
            c_u = frame.x_scale * frame.y_scale
        assert (_outcome(frame.rhs, t, z)
                == _outcome(want, _clamped(spec, c_u * t * z)))

    @given(st.sampled_from(["bessel:0", "bessel:2.5", "bessel:50"]),
           st.floats(0.0, 1e5), st.floats(0.25, 4.0))
    @example("bessel:0", 0.0, 1.0)     # xy on the order's Hankel edge
    @settings(max_examples=200, deadline=None)
    def test_raw_hankel_band(self, spec, d, y):
        # xy at or past the order's Hankel edge, where the backward runs of
        # large indices spend their steps
        m = make_model(spec)
        x = (_order(m.nu)[0] + d) / y
        assume(x * y >= _order(m.nu)[0])
        assert _outcome(raw_rhs(m), x, y) == _outcome(eval_F, m, x * y)

    @given(st.integers(1, 150), st.floats(0.0, 3.0), st.floats(-0.5, 1.5))
    @example(3, 1.0, 1.0)      # u = lambda, a zero of F: exactly 0.0
    @example(2, 1.0, -0.5)     # u below -1, clamped
    @settings(max_examples=200, deadline=None)
    def test_scaled_rgamma(self, n, t, z):
        # z' = (1/Gamma(-u)) / xi, u = lambda t z, from the (sign, log)
        # form so that no huge factor forms; 0.0 at the zeros of F
        frame = Frame(make_model("rgamma"), n)

        def want(u):
            sign, lm = recip_gamma_log(_clamped("rgamma", u))
            if sign == 0:
                return 0.0
            if lm - frame.ln_xi > 705.0:
                raise OverflowError("precision exhausted")
            return sign * math.exp(lm - frame.ln_xi)
        assert _outcome(frame.rhs, t, z) == _outcome(want, frame.lam * t * z)


class TestOneSpecialFunctionCallPerEvaluation:
    """Every right-hand side, raw and scaled, makes exactly one call per
    evaluation to the special-function name that bench/tracer.py wraps, so
    the traced right-hand-side count reconciles with Engine.nfev."""

    @pytest.mark.parametrize("spec,n", [
        ("cos", 3), ("cos", 40), ("bessel:0", 3), ("bessel:0", 40),
        ("airy", 3), ("airy", 40), ("rgamma", 3), ("rgamma", 40),
        ("xibar", None)])
    def test_one_call(self, monkeypatch, spec, n):
        from nleig import models
        from nleig.specfun import bessel
        calls = {}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper
        wrapped = [(models, name) for name in ("cospi", "recip_gamma_log",
                                               "recip_gamma", "airy_ai",
                                               "xi_bar")]
        for mod, name in wrapped + [(bessel, "_j_any")]:
            calls[name] = 0
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        m = make_model(spec)
        frames = [Frame(m)] if n is None else [Frame(m), Frame(m, n)]
        for frame in frames:
            if frame.coords == "raw":
                # x in [0, sqrt(u_max)], y below 0 too: the clamps
                side = math.sqrt(RHS_U_MAX[spec])
                points = [(a * side, b * side) for a in (0.0, 0.3, 1.0)
                          for b in (-0.2, 0.0, 0.5, 1.0)]
            else:
                points = [(t, z) for t in (0.0, 0.4, 1.0, 2.5)
                          for z in (-0.5, 0.0, 0.7, 1.5)]
            for x, y in points:
                for key in calls:
                    calls[key] = 0
                try:
                    frame.rhs(x, y)
                except (ValueError, ArithmeticError):
                    pass    # an overflowing evaluation still makes its call
                assert sum(calls.values()) == 1, (frame.coords, x, y, calls)


def _digest(values):
    import hashlib
    import struct
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


class TestZeroTablePins:
    """The zero tables the benchmarks build in set-up, as little-endian
    doubles: the first 4010 zeros of J_0 and 808 of Ai(-u)."""

    @pytest.mark.parametrize("spec,count,digest", [
        ("bessel:0", 4010,
         "96c2fe062bd964f327ab29c083be1801e7cb984fa62fbc3ab71f4f04d8bae50c"),
        ("airy", 808,
         "11ae74911c922634161bccffae4b40207182597be71ee488a0277c7105519cce"),
    ])
    def test_digest(self, spec, count, digest):
        tab = zero_table(make_model(spec))
        assert _digest([tab.zero(k).u for k in range(1, count + 1)]) == digest


class TestZeros:
    def test_cosine_unstable(self):
        tab = zero_table(make_model("cos"))
        zs = [tab.nth_unstable(k) for k in (1, 2, 3)]
        assert [z.u for z in zs] == [1.5, 3.5, 5.5]
        assert all(z.kind == "unstable" for z in zs)
        assert [z.index for z in zs] == [1, 2, 3]

    def test_rgamma_unstable(self):
        tab = zero_table(make_model("rgamma"))
        assert [tab.nth_unstable(k).u for k in (1, 2, 3)] == [1.0, 3.0, 5.0]

    def test_bessel_unstable_is_second_zero(self):
        z = zero_table(make_model("bessel:0")).nth_unstable(1)
        assert z.u == pytest.approx(5.520078110286311, abs=1e-9)

    def test_airy_unstable_is_second_ai_zero(self):
        z = zero_table(make_model("airy")).nth_unstable(1)
        assert z.u == pytest.approx(4.08794944413097, abs=1e-8)

    def test_xibar_first_unstable_is_first_zero(self):
        # xibar < 0 just above the origin, so the first ordinate repels
        z = zero_table(make_model("xibar")).nth_unstable(1)
        assert z.u == pytest.approx(14.134725141734693, abs=1e-6)

    def test_derivative_sign_convention(self):
        for spec in ("cos", "bessel:0", "bessel:1", "airy", "rgamma"):
            m = make_model(spec)
            tab = zero_table(m)
            for k in range(1, 7):
                z = tab.zero(k)
                fp = eval_F_prime(m, z.u)
                assert abs(fp) > 1e-8
                assert (fp > 0.0) == (z.kind == "unstable")

    @pytest.mark.parametrize("spec", ["cos", "bessel:0", "rgamma"])
    def test_classification_matches_perturbation_flow(self, spec):
        # integrate du/dx = u/x + x F(u) from x = 10 seeded at zero +- 1e-6:
        # unstable zeros repel, stable zeros attract, within x in [10, 20]
        m = make_model(spec)
        tab = zero_table(m)
        for k in (1, 2, 3):
            z = tab.zero(k)
            for sgn in (-1.0, 1.0):
                u0 = z.u + sgn * 1e-6
                if u0 <= 0.0:
                    continue
                sol = solve_ivp(
                    lambda x, u: [u[0] / x + x * eval_F(m, max(u[0], 0.0))],
                    (10.0, 20.0), [u0], rtol=1e-10, atol=1e-12)
                u_end = float(sol.y[0][-1])
                nearest = min(tab.ordinates(u_end),
                              key=lambda v: abs(v - u_end))
                # stable zeros hold the flow in their own basin (it parks
                # on the branch u* + u*/(|F'| x^2) just above the zero);
                # unstable zeros eject it into a neighboring basin
                if z.kind == "unstable":
                    assert abs(nearest - z.u) > 1e-6
                else:
                    assert nearest == pytest.approx(z.u)
                    assert abs(u_end - z.u) < 0.15

    def test_stable_basin(self):
        # stable_below(u): the stable zero z* whose basin (z*, s) holds u
        cos = zero_table(make_model("cos"))
        assert cos.stable_below(0.6) == cos.stable_below(1.4) == 0.5
        assert cos.stable_below(2.7) == 2.5
        assert cos.stable_below(1.6) is None    # just above an unstable zero
        assert cos.stable_below(0.3) is None    # below a stable first zero
        assert cos.stable_below(1.5) is None    # on a zero
        assert cos.stable_below(0.5) is None
        # xibar's first zero is unstable: below it lies the basin of y -> 0
        xib = zero_table(make_model("xibar"))
        assert xib.stable_below(0.5 * xib.zero(1).u) == 0.0
        z2 = xib.zero(2).u
        assert xib.stable_below(z2 + 0.01) == z2
        # rgamma's first zero, F(0) = 0, is stable
        rg = zero_table(make_model("rgamma"))
        assert rg.stable_below(0.5) == 0.0
        assert rg.stable_below(1.5) is None

    def test_unstable_below(self):
        tab = zero_table(make_model("cos"))
        assert tab.unstable_below(0.7) == 0
        assert tab.unstable_below(2.0) == 1
        assert tab.unstable_below(7.0) == 3
