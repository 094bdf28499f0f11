"""Integrator behavior: reference-solution agreement, event detection,
commitment/floor handling, tolerance consistency, and CSV serialization."""

import bisect
import hashlib
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nleig import ode, spectrum
from nleig.models import Frame, ZeroTable, make_model, zero_table
from nleig.ode import (_H_MIN, Engine, IntegratorConfig, PrecisionExhausted,
                       count_maxima, integrate, write_curve_csv)
from nleig.specfun import DomainError, airy, bessel
from nleig.svgplot import read_curve_csv

# frozen from solve_ivp at rtol 1e-12 / atol 1e-14 (dense output)
J0_IVP_Y_AT_0P1 = 1.0999037182707971     # y' = J0(xy), y(0) = 1
COS_IVP_Y_AT_0P5 = 1.2398022810425622    # y' = cos(pi x y), y(0) = 1
COS_IVP_Y_AT_4 = 0.12765309703617742
COS0_IVP_Y_AT_0P5 = 0.4718415224215139   # y' = cos(pi x y), y(0) = 0

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def cfg_with(x_max, rel=1e-12):
    return IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2, x_max=x_max)


class TestAgainstReference:
    def test_bessel_ivp(self):
        c = integrate(make_model("bessel:0"), (0.0, 1.0), cfg_with(0.1))
        assert abs(c.values[-1] - J0_IVP_Y_AT_0P1) < 1e-9

    def test_cosine_ivp(self):
        c = integrate(make_model("cos"), (0.0, 1.0), cfg_with(4.0))
        i = int(np.searchsorted(c.grid, 0.5))
        # grid point nearest 0.5 is not exactly 0.5; compare the terminal
        assert abs(c.values[-1] - COS_IVP_Y_AT_4) < 1e-9

    def test_cosine_near_identity_start(self):
        c = integrate(make_model("cos"), (0.0, 0.0), cfg_with(0.5))
        # y tracks x only while the phase is still tiny ...
        for x, y in zip(c.grid, c.values):
            if x <= 0.016:
                assert abs(y - x) <= 1e-9
        # ... and visibly departs from it by x = 0.5 (the oracle is the
        # reference integrator, not the linear guess)
        assert abs(c.values[-1] - COS0_IVP_Y_AT_0P5) < 1e-9
        assert abs(c.values[-1] - 0.5) > 0.02

    def test_backward_forward_consistency(self):
        # forward to x = 2, then backward from the endpoint: returns to E
        m = make_model("cos")
        fwd = integrate(m, (0.0, 1.2), cfg_with(2.0))
        back = integrate(m, (float(fwd.grid[-1]), float(fwd.values[-1])),
                         TIGHT, direction="backward")
        assert abs(back.values[0] - 1.2) < 1e-9

    def test_step_doubling_consistency(self):
        # halving rel_tol moves the terminal value by < 10x the old rel_tol
        for spec, n in (("cos", 3), ("bessel:0", 5), ("bessel:1", 2),
                        ("airy", 2), ("rgamma", 4)):
            ends = []
            for rt in (1e-9, 5e-10):
                cfg = IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-3, x_max=2.0)
                c = integrate(make_model(spec), (0.0, 0.9), cfg, record=False,
                              n=n)
                ends.append(float(c.values[-1]))
            assert abs(ends[0] - ends[1]) <= 10.0 * 1e-9 * max(abs(ends[1]), 0.05)


class TestEvents:
    def test_maxima_locations_on_cosine(self):
        # maxima sit where xy crosses the stable zeros m + 1/2
        c = integrate(make_model("cos"), (0.0, 2.0), cfg_with(6.0))
        assert len(c.maxima) >= 2
        for x, v in zip(c.maxima[:2], c.maxima_values[:2]):
            u = x * v
            assert min(abs(u - 0.5), abs(u - 2.5)) < 1e-8

    def test_count_matches_class_structure(self):
        c = integrate(make_model("cos"), (0.0, 2.0), cfg_with(6.0))
        assert count_maxima(c) == 2
        assert len(c.minima) == 1

    def test_monotone_curve_has_no_maxima(self):
        c = integrate(make_model("rgamma"), (0.0, 0.4), cfg_with(6.0))
        assert len(c.maxima) == 0
        # boundary maximum at the origin still counts (strictly decreasing)
        assert count_maxima(c) == 1

    def test_unrecorded_curve_counts_as_recorded(self):
        # an unrecorded run's events are step ends, not located extrema,
        # one per step and so in the extrema's order; it keeps its first
        # and last points for the rule of a curve with no event
        m = make_model("cos")
        c = integrate(m, (0.0, 0.9), cfg_with(6.0), record=False, n=2)
        raw = Frame(m, 2).convert(c, "raw")
        assert not c.recorded and not raw.recorded and len(raw.maxima) == 2
        assert c.grid[0] == 0.0 and c.values[0] == 0.9 and len(c.grid) == 2
        assert count_maxima(raw) == count_maxima(c) == 2
        assert count_maxima(integrate(m, (0.0, 0.9), cfg_with(6.0), n=2)) == 2
        # no event at all: rgamma's monotone curve opens falling
        rg = integrate(make_model("rgamma"), (0.0, 0.4), cfg_with(6.0),
                       record=False)
        assert not rg.maxima and not rg.minima and count_maxima(rg) == 1

    def test_maxima_invariant_under_refinement(self):
        for rel in (1e-9, 1e-11):
            c = integrate(make_model("bessel:0"), (0.0, 2.2),
                          cfg_with(8.0, rel))
            assert count_maxima(c) == 3


def grid_gaps(curve, frame):
    """The gap of F's zeros that holds u = u_scale x y at each recorded
    point, gap g being (zs[g-1], zs[g]); a point on a zero takes the gap on
    the side of the point before it (after it, for the first point)."""
    u = frame.u_scale * curve.grid * curve.values
    zs = np.asarray(frame.zeros.ordinates(float(np.max(u))))
    gaps = np.searchsorted(zs, u, side="left")
    for k in np.nonzero(zs[gaps] == u)[0]:
        if u[k - 1 if k else 1] > u[k]:
            gaps[k] += 1
    return gaps


def count_maxima_reference(curve, frame):
    """Maxima counted off the recorded grid alone: the steps in which u
    crosses a zero of F with F turning from + to - as x grows, and one at
    the start when F < 0 just past it.  No step may cross two zeros."""
    gaps = grid_gaps(curve, frame)
    positive = (gaps & 1) == frame.zeros.first_unstable    # F > 0 there
    assert np.all(np.abs(np.diff(gaps)) <= 1)
    crossed = np.diff(gaps) != 0
    return int(np.sum(crossed & positive[:-1])) + (0 if positive[0] else 1)


class TestCountMaxima:
    @pytest.mark.parametrize("spec,ns", [
        ("cos", (1, 7, 40)), ("bessel:0", (1, 5, 60)), ("airy", (1, 4, 30)),
        ("rgamma", (3, 5, 6, 8))])
    def test_equals_reference_on_separatrices(self, spec, ns):
        for n in ns:
            model = make_model(spec)
            curve = spectrum.refine_backward(model, n).curve
            frame = Frame(model, n) if curve.coords == "scaled" else \
                Frame(model)
            assert count_maxima(curve) == count_maxima_reference(curve,
                                                                 frame) == n

    @pytest.mark.parametrize("n", [*range(1, 13), 20, 80, 150])
    def test_rgamma_counts_every_maximum(self, n):
        # most of these maxima are below one ulp of z: the step guard puts
        # each between two accepted steps, the count reads no value
        rgamma = make_model("rgamma")
        assert spectrum.refine_backward(rgamma, n).maxima == n
        if n <= 12:
            assert spectrum.find_eigen(rgamma, n).maxima == n

    def test_no_step_spans_two_zeros(self):
        # rgamma n = 40 opens flat to far below one ulp, where the error
        # control alone takes steps across dozens of zeros of F
        frame = Frame(make_model("rgamma"), 40)
        curve = spectrum.refine_backward(frame.model, 40).curve
        steps = np.abs(np.diff(grid_gaps(curve, frame)))
        assert steps.max() == 1
        assert int(steps.sum()) == 2 * 40 - 2   # zeros 1 .. 2n - 2


class TestSettleAndAttractor:
    def test_settles_inside_horizon(self):
        # the run commits where u = xy first falls (t ~ 1.04 here)
        m = make_model("bessel:0")
        c = integrate(m, (0.0, 1.1), cfg_with(6.0, 1e-10),
                      stop_when_settled=True, n=4)
        assert c.status == "settled"
        assert c.terminal_u is not None
        # without the stop the attractor is still recorded
        c2 = integrate(m, (0.0, 1.1), cfg_with(6.0, 1e-10), n=4)
        assert c2.status == "reached_end"
        assert c2.terminal_u is not None

    @staticmethod
    def attractor(spec, y0, x_max):
        """The stable zero of F the run committed to, or None."""
        m = make_model(spec)
        z = integrate(m, (0.0, y0), cfg_with(x_max, 1e-10)).terminal_u
        # a stable zero z* is the one whose basin holds u just above it
        return z if zero_table(m).stable_below(z + 1e-9) == z else None

    def test_attractor_below_first_eigenvalue(self):
        assert self.attractor("cos", 1.0, 520.0) == pytest.approx(0.5)

    def test_attractor_above_first_eigenvalue(self):
        assert self.attractor("cos", 1.61, 820.0) == pytest.approx(2.5)

    def test_attractor_rgamma_between_first_two(self):
        assert self.attractor("rgamma", 2.0, 820.0) == pytest.approx(2.0)

    def test_not_settled_sentinel(self):
        # u = xy of the cos run from y0 = 1 first falls at x ~ 0.990: up to
        # x = 0.9 it has not committed to a basin
        c = integrate(make_model("cos"), (0.0, 1.0), cfg_with(0.9, 1e-10))
        assert c.status == "reached_end"
        assert c.terminal_u is None


class TestCommitmentProperty:
    """A forward run commits at the first accepted step where u = xy falls,
    to the stable zero below u.  The rule is exact, so a run carried on far
    past its commitment ends in the committed basin."""

    @given(st.sampled_from(["cos", "bessel:0", "airy", "rgamma"]),
           st.integers(1, 4), st.floats(0.1, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_commitment_is_never_wrong(self, spec, n, z0):
        # z0 in [0.1, 2] spans the classes 0 up to several above n - 1
        frame = Frame(make_model(spec), n)
        c = integrate(frame.model, (0.0, z0), cfg_with(12.0, 1e-9),
                      record=False, stop_when_settled=False, n=n)
        z_star = c.terminal_u
        assert z_star is not None
        tab = frame.zeros
        k = 1
        while tab.zero(k).u < z_star:
            k += 1
        z, s = tab.zero(k), tab.zero(k + 1)
        assert (z.u, z.kind, s.kind) == (z_star, "stable", "unstable")
        # the basin (z*, s); rgamma's y -> 0 reaches its zero z* = 0
        u_end = frame.u_scale * float(c.grid[-1]) * float(c.values[-1])
        assert z_star <= u_end < s.u
        assert u_end > z_star or z_star == 0.0


class TestRecordingProperty:
    """Only a recording run locates its events, and that does not steer
    the run: a recorded shot takes the unrecorded one's steps to the same
    end, attractor and event counts.  Event refinement reads the sign of F
    off the zero table and calls no right-hand side, so both shots have the
    same nfev."""

    @staticmethod
    def shoot(model, n, y0, stop_at, record):
        shooter = spectrum._Shooter(model, n, IntegratorConfig())
        rhs = shooter.frame.rhs
        calls = [0, 0, 0]   # right-hand-side calls, those of refinement,
        #                     refinements

        def counted(x, y):
            calls[0] += 1
            return rhs(x, y)
        shooter.frame.rhs = counted

        class Refining(Engine):
            def _refine_event(self, *args):
                before = calls[0]
                calls[2] += 1
                try:
                    return super()._refine_event(*args)
                finally:
                    calls[1] += calls[0] - before
        with mock.patch.object(spectrum, "Engine", Refining):
            cls, signal, eng = shooter.shoot(y0, stop_at, record=record)
        assert eng.nfev == calls[0]
        return (cls, signal, eng.nsteps, eng.status, eng.y.hex(),
                eng.terminal_u, len(eng.maxima), len(eng.minima)), \
            eng.nfev, calls[1:]

    @given(st.sampled_from(["cos", "bessel:0", "airy", "rgamma", "xibar"]),
           st.integers(1, 4), st.floats(0.1, 2.0), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_recording_does_not_change_the_trajectory(self, spec, n, z0,
                                                      stop):
        # xibar runs raw from y0 = 4 z0 in [0.4, 8], classes 0 up to 3
        model = make_model(spec)
        if spec == "xibar":
            n, z0 = None, 4.0 * z0
        stop_at = (n or 2) if stop else None
        plain, nfev, refined = self.shoot(model, n, z0, stop_at, False)
        rec, rec_nfev, rec_refined = self.shoot(model, n, z0, stop_at, True)
        assert rec == plain
        assert refined == [0, 0]
        assert rec_refined == [0, rec[6] + rec[7]]  # one per event, no call
        assert rec_nfev == nfev


class TestUnrecordedCount:
    """count_maxima counts the curve of a run that did not record exactly
    as that of the same run recorded: the backward eigenvalue runs of
    refine_backward, rgamma n = 1 (no event) and raw xibar included, and
    forward shots."""

    @staticmethod
    def backward_curve(model, n, record):
        engines = []

        class Kept(Engine):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                engines.append(self)
        with mock.patch.object(spectrum, "Engine", Kept):
            spectrum.refine_backward(model, n, _record=record)
        (eng,) = engines
        return eng.curve()

    @given(st.sampled_from(["cos", "bessel:0", "airy", "rgamma", "xibar"]),
           st.integers(1, 20))
    @example("rgamma", 1)   # no event: the rule of a monotone curve
    @settings(max_examples=30, deadline=None)
    def test_backward_runs(self, spec, n):
        model = make_model(spec)
        if spec == "xibar":
            n = 1 + n % 6
        rec = self.backward_curve(model, n, True)
        plain = self.backward_curve(model, n, False)
        assert rec.recorded and not plain.recorded
        assert count_maxima(plain) == count_maxima(rec) == n

    @given(st.sampled_from(["cos", "bessel:0", "airy", "rgamma", "xibar"]),
           st.integers(1, 4), st.floats(0.1, 2.0), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_forward_shots(self, spec, n, z0, stop):
        # xibar runs raw from y0 = 4 z0 in [0.4, 8], classes 0 up to 3
        model = make_model(spec)
        if spec == "xibar":
            n, z0 = None, 4.0 * z0
        stop_at = (n or 2) if stop else None
        shooter = spectrum._Shooter(model, n, IntegratorConfig())
        counts = [count_maxima(shooter.shoot(z0, stop_at, record=r)[2].curve())
                  for r in (True, False)]
        assert counts[0] == counts[1]


def refine_event_reference(eng, x0, y0, f0, x1, y1, f1, hs, odd_a=None):
    """Event location by bisection on the sign of the right-hand side
    itself along the cubic Hermite dense output, the rule the zero-table
    parity replaced: same midpoints, same stops, same returned ordinate.
    It reads the starting sign off f0, so it ignores odd_a.  Where the
    right-hand side underflows to zero off the zeros of F it stops there,
    as on a zero."""
    tol = 1e-10 * eng.event_tol_scale
    ahs = abs(hs)
    a, b = 0.0, 1.0
    da = f0
    calls = 0
    while True:
        s = 0.5 * (a + b)
        s2 = s * s
        s3 = s2 * s
        ys = ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * hs * f0
              + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * hs * f1)
        if calls == 80 or (b - a) * ahs <= tol:
            break
        ds = eng.rhs(x0 + s * hs, ys)
        calls += 1
        if ds == 0.0:
            break
        if (ds > 0.0) == (da > 0.0):
            a, da = s, ds
        else:
            b = s
    return x0 + s * hs, ys


def crossing_within_tol(eng, x0, y0, f0, x1, y1, f1, hs, xe):
    """Whether u along the step's cubic Hermite dense output meets a zero of
    F between xe - tol and xe + tol, tol the event tolerance."""
    tol = 1e-10 * eng.event_tol_scale

    def u_at(x):
        s = min(max((x - x0) / hs, 0.0), 1.0)
        s2, s3 = s * s, s * s * s
        y = ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * hs * f0
             + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * hs * f1)
        return eng.frame.u_scale * (x0 + s * hs) * y
    lo, hi = sorted((u_at(xe - tol), u_at(xe + tol)))
    zs = eng.frame.zeros.ordinates(hi)
    return bisect.bisect_left(zs, lo) < bisect.bisect_right(zs, hi)


class TestEventLocation:
    """Every event is located bit for bit where bisection on the sign of
    the right-hand side (refine_event_reference) locates it, except where
    that sign is lost: a scaled rgamma right-hand side of a large index
    underflows to zero near, or all along, its opening crossings, and the
    reference stops at its first probe there.  The zero table keeps that
    sign, so those events are checked to the event tolerance instead."""

    @staticmethod
    def checked(monkeypatch, run):
        """(events, mismatches, events checked to the tolerance) of the
        recording runs run() makes."""
        seen = [0, [], 0]

        class Checked(Engine):
            def _refine_event(self, *args):
                got = super()._refine_event(*args)
                ref = refine_event_reference(self, *args)
                seen[0] += 1
                if list(map(float.hex, got)) != list(map(float.hex, ref)):
                    u_ref = self.frame.u_scale * ref[0] * ref[1]
                    blind = args[2] == 0.0 or (
                        self.rhs(*ref) == 0.0
                        and u_ref not in self.frame.zeros.ordinates(u_ref))
                    if blind and crossing_within_tol(self, *args[:7], got[0]):
                        seen[2] += 1
                    else:
                        seen[1].append((args, got, ref))
                return got
        monkeypatch.setattr(spectrum, "Engine", Checked)
        run()
        return seen

    @pytest.mark.parametrize("spec, ns", [
        ("cos", range(1, 41)), ("rgamma", range(1, 151)),
        ("bessel:0", range(1, 61)), ("bessel:2.5", range(1, 61)),
        ("airy", range(1, 61)), ("xibar", range(1, 12))])
    def test_backward_runs(self, monkeypatch, spec, ns):
        model = make_model(spec)
        events, bad, to_tol = self.checked(monkeypatch, lambda: [
            spectrum.refine_backward(model, n) for n in ns])
        assert events >= len(ns) and bad == []
        # the right-hand side underflows from n = 88 on only
        assert (to_tol > 0) == (spec == "rgamma")

    @pytest.mark.parametrize("spec, n, y0", [
        ("cos", 3, 1.3), ("bessel:0", 3, 1.3), ("bessel:2.5", 3, 1.3),
        ("airy", 3, 1.3), ("rgamma", 3, 1.3), ("xibar", None, 6.0)])
    def test_recorded_forward_shot(self, monkeypatch, spec, n, y0):
        shooter = spectrum._Shooter(make_model(spec), n, IntegratorConfig())
        events, bad, to_tol = self.checked(
            monkeypatch, lambda: shooter.shoot(y0, record=True))
        assert events >= 5 and bad == [] and to_tol == 0

    def test_criterion_5_separatrix(self, monkeypatch):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
        events, bad, to_tol = self.checked(monkeypatch, lambda: (
            spectrum.separatrix_curve(make_model("bessel:0"), 1000,
                                      "scaled", tol=1e-8, cfg=cfg)))
        assert events == 1999 and bad == [] and to_tol == 0

    @staticmethod
    def engine(frame):
        """A recording engine of frame, its right-hand-side calls counted
        from here on."""
        rhs = frame.rhs
        calls = [0]

        def counted(x, y):
            calls[0] += 1
            return rhs(x, y)
        frame.rhs = counted
        eng = Engine(frame, 0.0, 1.0, IntegratorConfig())
        eng.event_tol_scale = 1.0
        calls[0] = 0
        return eng, calls

    def test_midpoint_on_a_zero_stops(self):
        # the first midpoint (x, y) = (0.5, 1.0) has u = 0.5, cos's first
        # zero, exactly: both rules stop there
        # (the steps here start in gap 0, below cos's first zero)
        eng, calls = self.engine(Frame(make_model("cos")))
        step = (0.0, 0.875, 0.5, 1.0, 0.875, -0.5, 1.0)
        assert eng._refine_event(*step, 0) == (0.5, 1.0)
        assert calls[0] == 0
        assert refine_event_reference(eng, *step) == (0.5, 1.0)
        assert calls[0] == 1
        # off the zero the bisection goes on to the tolerance
        off = (0.0, 0.9, 0.5, 1.0, 0.9, -0.5, 1.0)
        x, y = eng._refine_event(*off, 0)
        assert x != 0.5 and (x, y) == refine_event_reference(eng, *off)

    def test_u_formed_as_the_right_hand_side_forms_it(self):
        # scaled rgamma n = 4 forms u = lambda t z with lambda = 7, a few
        # ulp from x_scale y_scale: at the first midpoint (t, z) =
        # (1, 5/7), lambda t z is the zero 5 exactly and both rules stop
        frame = Frame(make_model("rgamma"), 4)
        assert frame.u_scale == 7.0 != frame.x_scale * frame.y_scale
        eng, calls = self.engine(frame)
        z = 5.0 / 7.0
        y = z - 2.0 ** -12         # the Hermite midpoint is y + 2^-12 = z
        step = (0.5, y, 2.0 ** -10, 1.5, y, -(2.0 ** -10), 1.0)
        assert eng._refine_event(*step, 0) == (1.0, z)
        assert calls[0] == 0
        assert refine_event_reference(eng, *step) == (1.0, z)

    def test_probe_past_the_table_extends_it(self):
        # u is 0.1 and 0.2 at the step's ends, which a fresh table covers
        # with the zeros 0.5, 1.5, 2.5; the Hermite overshoot puts the
        # first midpoint at u = 1.5 * 2.1 = 3.15, past them
        frame = Frame(make_model("cos"))
        table = frame.zeros = ZeroTable(frame.model)
        eng, calls = self.engine(frame)
        step = (1.0, 0.1, 8.0, 2.0, 0.1, -8.0, 1.0)
        got = eng._refine_event(*step, 0)
        assert calls[0] == 0
        assert table.ordinates(0.0)[:6] == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]
        assert got == refine_event_reference(eng, *step)
        assert 1.0 < got[0] < 1.5


class TestCommitU:
    """The commitment check forms u = u_scale * x * y, the u of event
    location and of the right-hand side."""

    def test_rgamma_u_on_a_zero(self):
        # scaled rgamma n = 5 has lambda = 9 and x_scale y_scale a few ulp
        # above it: at (t, z) = (1, 4/9) lambda t z is the stable zero 4
        # exactly, x_scale y_scale t z lies just past it, in its basin
        frame = Frame(make_model("rgamma"), 5)
        z = 4.0 / 9.0
        assert frame.u_scale * 1.0 * z == 4.0
        assert frame.zeros.stable_below(
            frame.x_scale * frame.y_scale * 1.0 * z) == 4.0
        eng = Engine(frame, 0.0, 1.0, IntegratorConfig())
        # u on a zero: the run stays uncommitted ...
        assert eng._commit(1.0, z) is None and eng.terminal_u is None
        # ... and an event bisection whose first midpoint is (1, 4/9)
        # stops on it, as the right-hand side's sign rule does
        eng.event_tol_scale = 1.0
        y = z - 2.0 ** -12         # the Hermite midpoint is y + 2^-12 = z
        step = (0.5, y, 2.0 ** -10, 1.5, y, -(2.0 ** -10), 1.0)
        assert eng._refine_event(*step, 0) == (1.0, z)
        assert refine_event_reference(eng, *step) == (1.0, z)
        # off the zero, in the basin (4, 5), the run commits to 4
        assert eng._commit(1.0, 4.5 / 9.0) == "settled"
        assert eng.terminal_u == 4.0


class TestGuards:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=1e-5)
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=1e-14)

    @pytest.mark.parametrize("kw", [
        {"abs_tol": math.inf}, {"abs_tol": math.nan}, {"abs_tol": 0.0},
        {"x_max": math.nan}, {"x_max": math.inf}, {"x_max": -1.0},
        {"rel_tol": math.nan}])
    def test_unusable_setting_is_domain_error(self, kw):
        with pytest.raises(DomainError):
            IntegratorConfig(**kw)

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            integrate(make_model("cos"), (0.0, -1.0), TIGHT)

    def test_backward_needs_positive_origin(self):
        with pytest.raises(ValueError):
            integrate(make_model("cos"), (0.0, 1.0), TIGHT,
                      direction="backward")

    def test_rgamma_raw_refused_for_large_n(self):
        make_model("rgamma").check_raw(5)
        with pytest.raises(DomainError):
            make_model("rgamma").check_raw(6)

    def test_grid_strictly_increasing(self):
        c = integrate(make_model("cos"), (0.0, 1.0), cfg_with(5.0))
        assert np.all(np.diff(c.grid) > 0.0)
        cb = integrate(make_model("cos"), (3.0, 0.2), TIGHT,
                       direction="backward")
        assert np.all(np.diff(cb.grid) > 0.0)

    def test_values_nonnegative(self):
        c = integrate(make_model("rgamma"), (0.0, 0.7), cfg_with(12.0))
        assert np.all(c.values >= 0.0)


class TestFrame:
    def test_coordinates_chosen_once(self):
        assert Frame(make_model("cos")).coords == "raw"
        assert Frame(make_model("cos"), 3).coords == "scaled"
        assert Frame(make_model("xibar"), 3).coords == "raw"
        assert Frame(make_model("rgamma"), 2).coords == "scaled"

    def test_scales_of_an_index(self):
        m = make_model("bessel:0")
        raw = Frame(m)
        assert (raw.x_scale, raw.y_scale, raw.u_scale) == (1.0, 1.0, 1.0)
        assert raw.lam is raw.gamma_exp is raw.ln_xi is None
        # lambda = (2n - 1/2) pi - phi with phi = -pi/4; u = xy = u_scale t z
        frame = Frame(m, 2)
        assert frame.lam == pytest.approx(3.75 * math.pi, rel=1e-15)
        assert frame.u_scale == frame.x_scale * frame.y_scale
        assert frame.y_scale == pytest.approx(
            math.sqrt(m.asym.a) * frame.lam ** 0.25, rel=1e-15)
        for bad in (0, 1.5, -2):
            with pytest.raises(DomainError):
                Frame(m, bad)

    def test_horizon(self):
        cfg = IntegratorConfig()
        assert Frame(make_model("cos"), 2).horizon(1.0, cfg) == 3.0
        assert Frame(make_model("cos")).horizon(1.0, cfg) > 1.0
        assert Frame(make_model("cos"), 2).horizon(1.0, cfg_with(7.0)) == 7.0

    def test_raw_curve_of_xibar_has_no_scaled_form(self):
        c = integrate(make_model("cos"), (0.0, 1.0), cfg_with(1.0))
        with pytest.raises(DomainError):
            Frame(make_model("xibar"), 2).convert(c, "scaled")
        assert Frame(make_model("xibar"), 2).convert(c, "raw") is c


def _step_record(eng):
    """(nsteps, nfev, status, y, #maxima, #minima, digest of every event
    abscissa and value); floats as hex, so a one-ulp change shows."""
    lists = (eng.maxima, eng.maxima_values, eng.minima, eng.minima_values)
    text = ";".join(",".join(v.hex() for v in lst) for lst in lists)
    return (eng.nsteps, eng.nfev, eng.status, eng.y.hex(), len(eng.maxima),
            len(eng.minima), hashlib.sha256(text.encode()).hexdigest()[:16])


# whether F(u) takes the Hankel route: J_0 at or above its edge; Ai(-u)
# for u > 10 by the Bessel pair, whose P/Q serve zeta >= the J_{1/3} edge
ON_HANKEL_BAND = {
    "bessel:0": lambda u: u >= bessel._order(0.0)[0],
    "airy": lambda u: (u > 10.0 and
                       (2.0 / 3.0) * u * math.sqrt(u) >= airy._EDGE13),
}


class TestStepSequence:
    """Step counts, evaluation counts, end values and events of whole runs,
    pinned bit for bit: the step loop may be restructured, its arithmetic
    may not change."""

    @staticmethod
    def backward_engine(monkeypatch, run):
        """The one engine run() builds, recorded."""
        engines = []

        class Recorded(Engine):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                engines.append(self)
        monkeypatch.setattr(spectrum, "Engine", Recorded)
        run()
        assert len(engines) == 1
        return engines[0]

    @staticmethod
    def check_hankel_band(spec, eng):
        on_band = ON_HANKEL_BAND.get(spec)
        if on_band is not None:
            c = eng.frame.u_scale
            us = [c * x * y for x, y in zip(eng.xs, eng.ys)]
            assert sum(map(on_band, us)) > len(us) // 2

    # the runs of exported separatrices, which start farther out than an
    # eigenvalue run
    @pytest.mark.parametrize("spec, n, expected", [
        ("cos", 40, (5732, 36014, "reached_end", "0x1.678fa94c63773p+3",
                     40, 39, "06164f5267749954")),
        # every zero crossing located: 7 maxima, 7 minima and the origin's
        ("rgamma", 8, (1157, 7052, "reached_end", "0x1.1f4a37e595b14p+0",
                       7, 7, "59fd83cca762b33e")),
        # u = xy up to about 376 and 43: J_0 and Ai(-u) on the Hankel band
        ("bessel:0", 60, (8163, 51524, "reached_end", "0x1.525f151e8efa3p+2",
                          60, 59, "ba9f631e76a8fe2d")),
        # y and the digest follow sinpi(-1/3), which seeds Ai on (7, 10]
        ("airy", 30, (5725, 35720, "reached_end", "0x1.ee3bba50dd2adp+1",
                      30, 29, "ac557e434bcb2a12")),
    ])
    def test_backward(self, monkeypatch, spec, n, expected):
        eng = self.backward_engine(monkeypatch, lambda: (
            spectrum.separatrix_curve(make_model(spec), n, "scaled")))
        assert _step_record(eng) == expected
        self.check_hankel_band(spec, eng)

    # the eigenvalue runs of refine_backward
    @pytest.mark.parametrize("spec, n, expected", [
        ("cos", 40, (2996, 19598, "reached_end", "0x1.678fa94c54394p+3",
                     40, 39, "2d103260d0958aea")),
        # from t0 = 1.38, where the seed correction is 4e-3
        ("rgamma", 8, (203, 1316, "reached_end", "0x1.1f4a37e5dd5b1p+0",
                       7, 7, "4daf5675aca9d0e2")),
        ("bessel:0", 60, (4652, 30470, "reached_end", "0x1.525f151e8d818p+2",
                          60, 59, "4586bcdeb8fcb592")),
        ("airy", 30, (2776, 18026, "reached_end", "0x1.ee3bba50ddd7ap+1",
                      30, 29, "e63350fb33bc877c")),
    ])
    def test_backward_eigenvalue(self, monkeypatch, spec, n, expected):
        eng = self.backward_engine(monkeypatch, lambda: (
            spectrum.refine_backward(make_model(spec), n)))
        assert _step_record(eng) == expected
        self.check_hankel_band(spec, eng)

    # the same eigenvalue runs as spectrum_scan makes them, unrecorded: the
    # steps, evaluations and end values of test_backward_eigenvalue, each
    # digest hashing the ends of the steps in which the events fell
    @pytest.mark.parametrize("spec, n, expected", [
        ("cos", 40, (2996, 19598, "reached_end", "0x1.678fa94c54394p+3",
                     40, 39, "3c2414fe3108e292")),
        ("rgamma", 8, (203, 1316, "reached_end", "0x1.1f4a37e5dd5b1p+0",
                       7, 7, "ad4655eab3243cca")),
        ("bessel:0", 60, (4652, 30470, "reached_end", "0x1.525f151e8d818p+2",
                          60, 59, "467c5e9275ffdcc4")),
        ("airy", 30, (2776, 18026, "reached_end", "0x1.ee3bba50ddd7ap+1",
                      30, 29, "7e49b2d481f57ca6")),
    ])
    def test_backward_eigenvalue_unrecorded(self, monkeypatch, spec, n,
                                            expected):
        scans = []
        eng = self.backward_engine(monkeypatch, lambda: scans.append(
            spectrum.spectrum_scan(make_model(spec), [n], method="backward")))
        (res,), errors = scans[0]
        assert not eng.record and eng.xs is None and not errors
        assert res.curve is None and res.maxima == n
        assert _step_record(eng) == expected

    # unrecorded shots: each digest hashes the ends of the steps in which
    # the events fell
    @pytest.mark.parametrize("spec, n, y0, stop_at, expected", [
        ("bessel:0", 2, 1.12, None, (195, 1238, "settled",
                                     "0x1.a801531b943d5p-1", 3, 2,
                                     "b5a2974572661ae6")),
        ("airy", 2, 1.09, None, (192, 1232, "settled",
                                 "0x1.aea317d739567p-1", 3, 2,
                                 "c96dedd2c4884fea")),
        ("cos", 3, 1.2, 2, (71, 488, "max_minima", "0x1.111d0aecdadbap+0",
                            2, 2, "d63fa56d11f352d8")),
        # y and the digest follow xi_bar's table
        ("xibar", None, 6.0, None, (258, 1796, "settled",
                                    "0x1.23c2e674148e6p+2", 3, 3,
                                    "3b02d69eb174204c")),
        # u falls below the first, unstable, zero: the basin of y -> 0
        ("xibar", None, 2.0, None, (70, 482, "settled",
                                    "0x1.db8369be505f3p-1", 0, 0,
                                    "5db28fe0609c11c3")),
    ])
    def test_forward_shot(self, spec, n, y0, stop_at, expected):
        shooter = spectrum._Shooter(make_model(spec), n, IntegratorConfig())
        _, _, eng = shooter.shoot(y0, stop_at)
        assert _step_record(eng) == expected

    def test_step_growth_cap(self):
        # from a tiny first step the step size grows by the cap, 6x, per
        # accepted step, a branch of the controller the runs above miss;
        # the run goes on past its commitment at x ~ 0.99
        eng = Engine(Frame(make_model("cos")), 0.0, 1.0, IntegratorConfig(),
                     record=True, stop_when_settled=False)
        eng.h = 1e-9
        eng.run(2.0)
        assert eng.xs[2] == 7.000000000000001e-09
        assert _step_record(eng) == (110, 685, "reached_end",
                                     "0x1.21cfd34161b54p-2", 1, 0,
                                     "b3d6e4ed7ec65049")

    @pytest.mark.parametrize("x0, y0, x_end", [(0.0, 2.0, 6.0),
                                               (4.0, 1.0, 0.0)])
    def test_nfev_counts_every_call(self, x0, y0, x_end):
        # nfev counts every right-hand-side call; a recording run's event
        # refinement makes none
        frame = Frame(make_model("cos"))
        rhs = frame.rhs
        calls = [0]

        def counted(x, y):
            calls[0] += 1
            return rhs(x, y)
        frame.rhs = counted
        eng = Engine(frame, x0, y0, IntegratorConfig(),
                     direction=1 if x_end > x0 else -1, record=True,
                     stop_when_settled=False)
        eng.run(x_end)
        assert eng.maxima and eng.minima
        assert eng.nfev == calls[0]

    def test_counters_survive_an_exception(self):
        frame = Frame(make_model("cos"))
        rhs = frame.rhs
        calls = [0]

        def failing(x, y):
            calls[0] += 1
            if calls[0] > 400:
                raise ArithmeticError("injected")
            return rhs(x, y)
        frame.rhs = failing
        eng = Engine(frame, 0.0, 1.0, IntegratorConfig(), record=True,
                     stop_when_settled=False)
        with pytest.raises(ArithmeticError):
            eng.run(10.0)
        assert eng.nsteps > 0
        assert len(eng.xs) - 1 == eng.nsteps
        assert 6 * eng.nsteps < eng.nfev < calls[0]


class TestContinuation:
    """A run that stops a few ulp short of its horizon, where the step left
    is below _H_MIN, keeps the step its controller proposed, so run() can
    carry it on to a farther horizon like any other run."""

    def test_rgamma_shot_past_a_short_stop(self):
        # the doubled horizon t = 6 stops 1.8e-15 short; carrying that run
        # on to t = 12 used to raise StepUnderflow at once
        rgamma = make_model("rgamma")
        assert spectrum.classify(rgamma, 50.0, n_hint=6) == 3
        assert spectrum.classify(rgamma, 50.0) == 3

    @pytest.mark.parametrize("span", [4.0 * _H_MIN, 5e-14, 7.3e-14,
                                      9.9e-14, 10.0 * _H_MIN])
    def test_fresh_run_over_a_short_span(self, span):
        # span/10 is at most _H_MIN here; below it the step cap was too,
        # and the first step raised StepUnderflow at x = 0
        eng = Engine(Frame(make_model("cos")), 0.0, 1.0, IntegratorConfig())
        eng.run(span)
        assert eng.status == "reached_end" and eng.nsteps >= 1
        assert 0.0 <= span - eng.x < _H_MIN
        assert eng.run(1.0).status == "settled"

    @given(st.sampled_from(["cos", "bessel:0", "airy", "rgamma", "xibar"]),
           st.integers(1, 6), st.floats(0.0, 1.0), st.floats(0.3, 1.0),
           st.floats(0.5, 1.0), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_continues_after_a_short_stop(self, spec, n, y0_pos, x_pos,
                                          j_pos, ulps):
        frame = Frame(make_model(spec), n)
        # scaled starts span several classes; xibar's start above E_1
        # settles on a stable zero instead of collapsing to y = 0
        y0 = (0.3 + 1.7 * y0_pos if frame.coords == "scaled"
              else 5.2 + 2.8 * y0_pos)
        cfg = IntegratorConfig()
        # x stays below 32, where two ulp are still under _H_MIN
        x1 = min(frame.horizon(y0, cfg), 15.0) * x_pos

        def engine(record):
            eng = Engine(frame, 0.0, y0, cfg, record=record,
                         stop_when_settled=False)
            return eng.run(x1)
        # a continued run's steps do not depend on its horizon while
        # neither the horizon nor span/10 clips them, so a horizon a few ulp
        # past a step end of the reference ends the run there, short of it
        ref = engine(True)
        k0 = len(ref.xs)
        ref.run(2.0 * x1)
        assume(len(ref.xs) - k0 >= 2)
        k = k0 + int(j_pos * (len(ref.xs) - 1 - k0))
        xk = ref.xs[k]
        x_end = xk + ulps * math.ulp(xk)
        assert 0.0 < x_end - xk < _H_MIN
        eng = engine(False).run(x_end)
        assume(eng.status == "reached_end" and eng.x == xk)
        far = 2.0 * x_end
        eng.run(far)
        assert eng.status == "reached_end"
        assert 0.0 <= far - eng.x < 4.0 * _H_MIN


class TestRecordedBuffers:
    """A recording run appends its steps to two float64 buffers, and its
    curve is one copy of each that keeps no view of them."""

    @pytest.mark.parametrize("x0, y0, stops", [
        (0.0, 1.0, (1.0, 2.0, 4.0)), (4.0, 1.0, (3.0, 1.5, 0.0))])
    def test_run_continues_after_curve(self, x0, y0, stops):
        # a view of a buffer that outlived curve() would make the next
        # append, which resizes the buffer, raise BufferError
        eng = Engine(Frame(make_model("cos")), x0, y0, IntegratorConfig(),
                     direction=1 if stops[0] > x0 else -1, record=True,
                     stop_when_settled=False)
        eng.run(stops[0])
        first = eng.curve()
        k = len(first.grid)
        for x_end in stops[1:]:
            eng.run(x_end)
        assert len(eng.xs) - 1 == eng.nsteps and eng.nsteps > 2 * k
        whole = eng.curve()
        # a backward curve is the reversed run, so the first part ends it
        part = slice(None, k) if eng.sgn > 0.0 else slice(-k, None)
        assert np.array_equal(whole.grid[part], first.grid)
        assert np.array_equal(whole.values[part], first.values)
        assert np.array_equal(whole.grid, np.sort(np.array(eng.xs)))

    def test_memory_per_recorded_step(self):
        # criterion 5's separatrix of bessel:0 n = 1000, 18 875 recorded
        # steps: the run's buffers, its curve and the scaled copy peak at
        # about 46 bytes a step, events included; steps held as lists of
        # floats peaked at 95
        model = make_model("bessel:0")
        zero_table(model).nth_unstable(1001)
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
        # imports numpy and fills the special functions' node caches
        spectrum.separatrix_curve(model, 3, "scaled", tol=1e-8, cfg=cfg)
        tracemalloc.start()
        try:
            _, curve = spectrum.separatrix_curve(model, 1000, "scaled",
                                                 tol=1e-8, cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(curve.grid) > 15000
        assert peak / len(curve.grid) < 64


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        c = integrate(make_model("bessel:0"), (0.0, 1.0), cfg_with(0.0, 1e-10),
                      n=2)
        path = write_curve_csv(tmp_path / "curve.csv", "bessel:0", 2,
                               c.coords, "t,z", c.grid, c.values)
        meta, cols, xs, ys = read_curve_csv(path)
        assert meta["model"] == "bessel:0"
        assert meta["n"] == "2"
        assert meta["coords"] == "scaled"
        assert cols == ["t", "z"]
        assert len(xs) == len(c.grid)
        # 17 significant digits round-trip binary64 exactly
        assert xs[5] == float(c.grid[5])
        assert ys[5] == float(c.values[5])

    def test_csv_deterministic(self, tmp_path):
        texts = []
        for i in range(2):
            c = integrate(make_model("cos"), (0.0, 0.8), cfg_with(0.0, 1e-10),
                          n=1)
            path = write_curve_csv(tmp_path / f"c{i}.csv", "cos", 1, c.coords,
                                   "t,z", c.grid, c.values)
            with open(path, "rb") as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("n, rows", [(None, 0), (2, 1),
                                         (7, 3 * ode._CSV_ROWS + 5)])
    def test_streamed_csv_equals_joined_text(self, tmp_path, n, rows):
        xs = np.linspace(0.0, 3.0, rows)
        ys = np.cos(7.0 * xs) * np.exp(-xs) * 1e-290
        if rows:
            ys[0] = -0.0
        path = write_curve_csv(tmp_path / "c.csv", "bessel:0", n, "scaled",
                               "t,z", xs, ys)
        # the text as the writer built it before it streamed: one string
        lines = [f"# model=bessel:0, n={n if n is not None else '-'}, "
                 "coords=scaled", "t,z"]
        lines.extend(f"{x:.16e},{y:.16e}" for x, y in zip(xs, ys))
        text = "\n".join(lines) + "\n"
        with open(path, "rb") as fh:
            assert fh.read() == text.encode()

    def test_csv_streams(self, tmp_path):
        # one chunk of rows is held at a time, not the whole text
        xs = np.linspace(0.0, 3.0, 20 * ode._CSV_ROWS)
        ys = np.sin(xs)
        tracemalloc.start()
        try:
            path = write_curve_csv(tmp_path / "c.csv", "cos", 1, "scaled",
                                   "t,z", xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path) / 2
