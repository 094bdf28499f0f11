"""Adaptive explicit integration of y'(x) = F(xy) and its scaled forms.

A scalar Dormand-Prince 5(4) pair with proportional-integral step control
and first-same-as-last reuse.  y' = F(u) changes sign exactly where u = x*y
crosses a zero of F, so an event is an accepted step across which u leaves
its gap of the model's ZeroTable for the next one: + to - events are
maxima, - to + events are the completed oscillations the eigenvalue
classifier counts.  The step guard rejects and halves a step that error
control accepts but whose u crosses two zeros or more, so no pair of sign
changes cancels inside a step, also where a bump of y is far below one ulp
or F underflows to zero (large-index rgamma); a step that ends on a zero
crosses it on the next one.  Only a recording run locates its events, by
bisecting along the cubic Hermite dense output for the zero that u crosses,
with the sign of F at each midpoint read off the table (the parity of the
zeros below u), so no right-hand side is called; a non-recording run keeps
the end of the step in which the sign changed, and its first and last
points only.  With one sign change per step those step ends come in the
order of the extrema, so count_maxima counts either curve alike.  A run
takes the same steps whether it records or not.  Forward runs also watch
u = x*y, and the first
accepted step where u falls commits the run for good.  For x > 0, du/dx =
(u + x^2 F(u))/x, so a falling u has F(u) < 0 and lies between a stable
zero z* of F and the unstable zero s just above it.  There g_x(u) = u + x^2
F(u) only decreases as x grows, so the largest root of g_x below s never
moves down: u cannot climb past it (du/dx = 0 there) and cannot fall below
z* (g_x(z*) = z* > 0), so it never crosses s again and xy tends to z*.
That check, Engine._commit, is the one attractor path; below a first zero
that is unstable (xibar) the basin is that of y -> 0, with attractor 0.  A
run left uncommitted at its horizon (still hugging a separatrix) can be
continued farther by calling run() again.

A recording run appends each accepted step to two flat float64 buffers,
array('d') xs and ys (16 bytes a step), and only its curve is built with
numpy, imported when the first one is.  Engine.curve copies the buffers
into the curve's arrays (one reversed copy for a backward run, the clamp
at 0 in place) and keeps no view of them, so run() can go on appending.
A non-recording run keeps its two end points in plain lists, so the
classifier's shots and spectrum_scan's backward runs load no numpy.
write_curve_csv streams a curve to disk a few thousand rows at a time, so
only one such chunk of a recorded run's steps is ever held as Python
floats and text on its way to the CSV.

Every run starts from a models.Frame, the one place that picks raw (x, y)
or scaled (t, z) coordinates; u is u_scale * x * y in either, so the
commitment check, event location and the right-hand side form the same u.

Engine.run holds the per-step path in one loop over locals: the step size,
the counters nfev / nsteps / err_prev and the gap of u (written back to the
engine by a finally, so an exception keeps them), the gap's two zeros, the
bound append methods of a recording run and whether the run still watches
u.  A step is the seven DP5 stages, the error norm, the inline
accept/reject and step-size update (conditional expressions, no min/max
calls), one chained comparison of u against its gap's zeros (the guard and
the event test alike; only a step that leaves the gap looks at the zeros
beyond it), and on acceptance two more inline tests: the y floor and, while
a forward run is uncommitted, a falling u (x1 k7 + y1 < 0, the sign of
du/dx in raw and in scaled coordinates alike, where du/dt = c (z + t z')).
Only when one of them fires does the loop call out: _event records the
extremum (located on a recording run) and applies the max_minima stop,
_commit looks up the stable zero below u.  The guard's rejected stages
count in nfev like any others.  The DP5 tableau and error weights are
written in the loop as literal fractions, which the compiler folds into
constants, so a step loads no module global; _refine_event evaluates the
cubic Hermite inline, in Horner form for its probes.  The raw cos
right-hand side is specfun's cospi itself (cospi(x, y) = cos(pi x y)), one
call per stage.  An accepted step of a raw cos backward run, its six cospi
calls included, takes 3 to 5 us on a 2-core share of a shared Intel Xeon,
as the machine's load varies.
"""

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .cache import atomic_write
from .models import Frame
from .specfun import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntegratorConfig", "SolutionCurve", "PrecisionExhausted", "StepUnderflow",
    "Engine", "integrate", "count_maxima", "write_curve_csv",
]


class PrecisionExhausted(RuntimeError):
    """Right-hand side overflowed binary64 (reported with the location)."""


class StepUnderflow(RuntimeError):
    """Step control pushed h below _H_MIN (reported with the location)."""


@dataclass
class IntegratorConfig:
    """Error tolerances and forward horizon of a run.  The first step is
    chosen automatically, steps are capped at a tenth of the span and
    floored at _H_MIN.  A value it cannot run with (NaN and infinities
    included) raises DomainError."""
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    x_max: float = 0.0      # 0 -> caller picks a model-dependent horizon

    def __post_init__(self):
        if not (1e-13 <= self.rel_tol <= 1e-6):
            raise DomainError(f"rel_tol {self.rel_tol!r} outside "
                              "[1e-13, 1e-6]")
        if not (0.0 < self.abs_tol < math.inf):
            raise DomainError(f"abs_tol must be a positive number, "
                              f"got {self.abs_tol!r}")
        if not (0.0 <= self.x_max < math.inf):
            raise DomainError(f"x_max must be a nonnegative number, "
                              f"got {self.x_max!r}")


@dataclass
class SolutionCurve:
    """A run's grid and events.  Only a recording run locates its maxima
    and minima; a non-recording run (recorded=False) keeps, for each, the
    end of the step in which y' changed sign, and as its grid its first and
    last points only.  A recording run's grid and values are float64 numpy
    arrays of their own, copied from the run's buffers, 16 bytes a point;
    a non-recording run stores its two end points as plain lists of floats,
    so building it loads no numpy (Frame.convert rescales either form).
    The events are lists in either case."""
    coords: str                      # "raw" or "scaled"
    grid: "np.ndarray | list"
    values: "np.ndarray | list"
    maxima: list                     # abscissae of maxima (or of step ends)
    maxima_values: list              # y at those abscissae
    minima: list                     # likewise for minima
    minima_values: list
    terminal_u: float | None        # lim x*y: the committed stable zero
    #                                  (0 for y -> 0), None = not committed
    status: str                      # reached_end | settled | floor | max_minima
    meta: dict = field(default_factory=dict)
    recorded: bool = True            # False: events are step ends


_Y_FLOOR = 1e-280   # y at or below it, still falling: the run has collapsed
_H_MIN = 1e-14      # smallest step before StepUnderflow


class Engine:
    """Single-use integration state machine (one trajectory, one direction)
    of a Frame.  Forward runs watch u = xy for the step where it falls."""

    def __init__(self, frame, x0, y0, cfg, *, direction=1, record=True,
                 stop_when_settled=True, max_minima=None):
        self.frame = frame
        self.rhs = frame.rhs
        self.cfg = cfg
        self.sgn = 1.0 if direction in (1, "forward") else -1.0
        self.x = float(x0)
        self.y = float(y0)
        self.f = self.rhs(self.x, self.y)
        self.h = 0.0
        self.err_prev = 1.0
        self.record = record
        self.xs = self.ys = None
        if record:
            self.xs = array("d", (self.x,))
            self.ys = array("d", (self.y,))
        self.start = (self.x, self.y)
        self.maxima = []
        self.maxima_values = []
        self.minima = []
        self.minima_values = []
        self.stop_when_settled = stop_when_settled
        self.max_minima = max_minima
        self.event_tol_scale = None     # set by the first run()
        self.status = None
        self.terminal_u = None
        self.nfev = 1
        self.nsteps = 0
        # the gap of F's zeros that holds u: gap g is (zs[g-1], zs[g]), with
        # zs[-1] = -inf; on a zero, the gap the run enters, since u grows
        # with x there (du/dx = y)
        u0 = frame.u_scale * self.x * self.y
        zs = frame.zeros.ordinates(u0)
        g = bisect_left(zs, u0)
        self.gap = g + 1 if zs[g] == u0 and self.sgn > 0.0 else g

    def _initial_step(self, span):
        cfg = self.cfg
        sc = cfg.abs_tol + cfg.rel_tol * abs(self.y)
        d0 = abs(self.y) / sc
        d1 = abs(self.f) / sc
        h0 = 0.01 * (d0 / d1) if (d0 > 1e-5 and d1 > 1e-5) else 1e-6 * span
        h0 = min(h0, 0.1 * span)
        y1 = self.y + self.sgn * h0 * self.f
        f1 = self.rhs(self.x + self.sgn * h0, y1)
        self.nfev += 1
        d2 = abs(f1 - self.f) / sc / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6 * span, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100.0 * h0, h1, span)

    def run(self, x_end):
        """Advance to x_end (or an earlier stopping event).  May be called
        again with a farther x_end to continue the same trajectory, also
        after a run that stopped within a few _H_MIN of x_end."""
        cfg = self.cfg
        sgn = self.sgn
        span = abs(x_end - self.x)
        if span <= 0.0:
            if self.status is None:
                self.status = "reached_end"
            return self
        if self.event_tol_scale is None:
            self.event_tol_scale = max(abs(x_end), abs(self.x), 1.0)
        h_max = max(span / 10.0, _H_MIN)
        if self.h <= 0.0:
            self.h = min(self._initial_step(span), h_max)
        self.status = None
        rhs = self.rhs
        x, y, f = self.x, self.y, self.f
        h = self.h
        rtol, atol, h_min = cfg.rel_tol, cfg.abs_tol, _H_MIN
        inf = math.inf
        y_floor = _Y_FLOOR
        watch = sgn > 0.0 and self.terminal_u is None
        record = self.record
        xs_append = self.xs.append if record else None
        ys_append = self.ys.append if record else None
        c = self.frame.u_scale
        table = self.frame.zeros
        gap = self.gap
        table.ensure_count(gap + 2)
        zs = table.ordinates(0.0)       # the table's own list, grown in place
        u_lo = zs[gap - 1] if gap else -inf
        u_hi = zs[gap]
        nfev, nsteps, err_prev = self.nfev, self.nsteps, self.err_prev
        overflow_note = None
        stop = None
        rest = sgn * (x_end - x)    # |x_end - x| while the loop runs
        try:
            while rest > 1e-30:
                if h > h_max:
                    h = h_max
                if h > rest:
                    if rest < h_min:
                        # close enough to the horizon; h stays the
                        # controller's proposal, so run() can continue
                        break
                    h = rest
                if h < h_min:
                    if rest < 4.0 * h_min:
                        break  # close enough to the horizon
                    self.x, self.y, self.f = x, y, f
                    if overflow_note is not None:
                        raise PrecisionExhausted(
                            f"precision exhausted at x={x!r}: right-hand "
                            f"side overflows binary64 however small the "
                            f"step ({overflow_note})")
                    raise StepUnderflow(f"step underflow (h={h!r}) at x={x!r}")
                hs = sgn * h
                try:
                    # the Dormand-Prince 5(4) tableau as literals, which the
                    # compiler folds into constants
                    k1 = f
                    k2 = rhs(x + 0.2 * hs, y + hs * (0.2 * k1))
                    k3 = rhs(x + 0.3 * hs, y + hs * (3.0 / 40.0 * k1
                                                     + 9.0 / 40.0 * k2))
                    k4 = rhs(x + 0.8 * hs, y + hs * (44.0 / 45.0 * k1
                                                     + -56.0 / 15.0 * k2
                                                     + 32.0 / 9.0 * k3))
                    k5 = rhs(x + 8.0 / 9.0 * hs,
                             y + hs * (19372.0 / 6561.0 * k1
                                       + -25360.0 / 2187.0 * k2
                                       + 64448.0 / 6561.0 * k3
                                       + -212.0 / 729.0 * k4))
                    k6 = rhs(x + hs, y + hs * (9017.0 / 3168.0 * k1
                                               + -355.0 / 33.0 * k2
                                               + 46732.0 / 5247.0 * k3
                                               + 49.0 / 176.0 * k4
                                               + -5103.0 / 18656.0 * k5))
                    y1 = y + hs * (35.0 / 384.0 * k1 + 500.0 / 1113.0 * k3
                                   + 125.0 / 192.0 * k4
                                   + -2187.0 / 6784.0 * k5 + 11.0 / 84.0 * k6)
                    x1 = x + hs
                    k7 = rhs(x1, y1)
                except OverflowError as exc:
                    # a trial step probed past the representable range:
                    # treat it like any too-rough step and retry smaller
                    nfev += 6
                    overflow_note = str(exc)
                    h *= 0.2
                    continue
                nfev += 6
                err_est = hs * (71.0 / 57600.0 * k1 + -71.0 / 16695.0 * k3
                                + 71.0 / 1920.0 * k4
                                + -17253.0 / 339200.0 * k5
                                + 22.0 / 525.0 * k6 + -1.0 / 40.0 * k7)
                ay = y if y >= 0.0 else -y
                ay1 = y1 if y1 >= 0.0 else -y1
                err = ((err_est if err_est >= 0.0 else -err_est)
                       / (atol + rtol * (ay1 if ay1 > ay else ay)))
                if not (err < inf and -inf < y1 < inf):
                    overflow_note = "non-finite step values"
                    h *= 0.2
                    continue
                if err > 1.0:
                    fac = 0.9 * err ** -0.2
                    h *= fac if fac > 0.2 else 0.2
                    continue
                # the step guard: u = c x y may cross one zero of F per
                # step, so no pair of sign changes of y' cancels inside it
                u1 = c * x1 * y1
                cross = 0
                if not (u_lo < u1 < u_hi):    # u left its gap, or is on a zero
                    if u1 > u_hi:
                        if u1 > zs[gap + 1]:
                            h *= 0.5
                            continue
                        cross = 1
                    elif u1 < u_lo:
                        if gap >= 2 and u1 < zs[gap - 2]:
                            h *= 0.5
                            continue
                        cross = -1
                overflow_note = None
                nsteps += 1
                if record:
                    xs_append(x1)
                    ys_append(y1)
                if cross:
                    # y' changes sign inside the step: an event
                    gap0 = gap
                    gap += cross
                    table.ensure_count(gap + 2)
                    u_lo = zs[gap - 1] if gap else -inf
                    u_hi = zs[gap]
                    stop = self._event(x, y, f, x1, y1, k7, hs, gap0)
                if stop is None:
                    if y1 <= y_floor and k7 <= 0.0:
                        self.terminal_u = 0.0
                        stop = "floor"
                    elif watch and x1 * k7 + y1 < 0.0:
                        stop = self._commit(x1, y1)
                        watch = self.terminal_u is None
                x, y, f = x1, y1, k7
                if y < 0.0:
                    y = 0.0
                    f = rhs(x, y)
                    nfev += 1
                if err < 1e-10:
                    err = 1e-10
                fac = 0.95 * err ** -0.17 * err_prev ** 0.04
                h *= (fac if fac < 6.0 else 6.0) if fac > 0.2 else 0.2
                err_prev = err
                if stop is not None:
                    self.status = stop
                    break
                rest = sgn * (x_end - x)
        finally:
            self.nfev, self.nsteps, self.err_prev = nfev, nsteps, err_prev
            self.gap = gap
        self.x, self.y, self.f = x, y, f
        self.h = h
        if self.status is None:
            self.status = "reached_end"
        return self

    def _event(self, x0, y0, f0, x1, y1, f1, hs, gap0):
        """Record the derivative sign change inside a step that starts in
        the gap gap0 of F's zeros and crosses one zero: a maximum when F is
        positive at the step's smaller-x end, read off the gap's parity (F
        may round to zero there).  Located by a recording run, the step's
        end (x1, y1) otherwise, where only the count is read.  Returns
        "max_minima" once the minima reach max_minima."""
        odd_a = gap0 & 1
        if self.record:
            xe, ye = self._refine_event(x0, y0, f0, x1, y1, f1, hs, odd_a)
        else:
            xe, ye = x1, y1
        # F > 0 in gap0 exactly when its parity is first_unstable's; the
        # step's end lies in the next gap, of the other sign
        if (odd_a == self.frame.zeros.first_unstable) == (hs > 0.0):
            self.maxima.append(xe)
            self.maxima_values.append(ye)
            return None
        self.minima.append(xe)
        self.minima_values.append(ye)
        if self.max_minima is not None and len(self.minima) >= self.max_minima:
            return "max_minima"
        return None

    def _commit(self, x1, y1):
        """u = xy falls at (x1, y1): commits the run to the stable zero
        below u, the exact limit of xy; returns "settled" when the run
        should stop there.  Where rounding puts u on a zero, or past the
        one that bounds its basin, the run stays uncommitted and the next
        step checks again."""
        frame = self.frame
        z_star = frame.zeros.stable_below(frame.u_scale * x1 * y1)
        if z_star is None:
            return None
        self.terminal_u = z_star
        return "settled" if self.stop_when_settled else None

    def _refine_event(self, x0, y0, f0, x1, y1, f1, hs, odd_a):
        # bisect along the cubic Hermite dense output for the zero of F that
        # u = xy crosses, so the located (x, y) pair satisfies F(x y) = 0 to
        # the tolerance; F's sign at a midpoint is the parity of the
        # tabulated zeros below its u (formed as the right-hand side forms
        # it), so no right-hand side is called.  A midpoint on a zero ends
        # the search; the last midpoint's ordinate is the answer
        frame = self.frame
        table = frame.zeros
        c = frame.u_scale
        zs = table.ordinates(max(c * x0 * y0, c * x1 * y1))
        # the midpoint moves a when the parity of its zero count is odd_a,
        # the parity of the step's starting gap
        tol = 1e-10 * self.event_tol_scale
        ahs = abs(hs)
        # the cubic in Horner form, y0 + s (p1 + s (p2 + s p3)), for probes
        p1 = hs * f0
        dy = y1 - y0
        p2 = 3.0 * dy - 2.0 * p1 - hs * f1
        p3 = p1 + hs * f1 - 2.0 * dy
        a, b = 0.0, 1.0
        steps = 0
        while True:
            s = 0.5 * (a + b)
            if steps == 80 or (b - a) * ahs <= tol:
                break
            u = c * (x0 + s * hs) * (y0 + s * (p1 + s * (p2 + s * p3)))
            i = bisect_left(zs, u)
            if i == len(zs):        # the probe passed the last zero
                zs = table.ordinates(u)
                i = bisect_left(zs, u)
            if zs[i] == u:
                break
            steps += 1
            if (i & 1) == odd_a:
                a = s
            else:
                b = s
        s2 = s * s
        s3 = s2 * s
        return x0 + s * hs, ((2 * s3 - 3 * s2 + 1) * y0
                             + (s3 - 2 * s2 + s) * hs * f0
                             + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * hs * f1)

    def curve(self, meta=None):
        """The run as a SolutionCurve, in increasing x.  Only a recording
        run builds numpy arrays, each one copy of its buffer (the views
        die here, so run() may grow the buffers again); a non-recording
        one keeps its two end points in lists, clamped at 0 as
        np.maximum(v, 0.0) would."""
        sl = slice(None, None, -1 if self.sgn < 0 else 1)
        if self.record:
            import numpy as np
            grid = np.frombuffer(self.xs)[sl].copy()
            vals = np.frombuffer(self.ys)[sl].copy()
            np.maximum(vals, 0.0, out=vals)
        else:
            grid = [self.start[0], self.x][sl]
            vals = [0.0 if v <= 0.0 else v for v in (self.start[1], self.y)][sl]
        maxima = self.maxima[sl]
        maxima_v = self.maxima_values[sl]
        minima = self.minima[sl]
        minima_v = self.minima_values[sl]
        return SolutionCurve(self.frame.coords, grid, vals,
                             maxima, maxima_v, minima, minima_v,
                             self.terminal_u, self.status or "reached_end",
                             meta or {}, self.record)


def integrate(model, initial, cfg, direction="forward", record=True, meta=None,
              stop_when_settled=False, n=None):
    """Integrate y' = F(xy) in Frame(model, n): the scaled coordinates of
    index n, or raw ones for xibar and without an index.

    initial is (x0, y0); backward runs require x0 > 0 and integrate down to
    the origin, forward runs go to Frame.horizon.  Returns a SolutionCurve;
    a recording run locates its maxima and minima to an abscissa accuracy
    of 1e-10 times the horizon, from the zero table and with no
    right-hand-side call, a run with record=False only counts them (each
    event carries the end of the step it fell in, and the grid is the
    run's first and last points).  meta["nfev"] counts
    the run's right-hand-side calls.
    With stop_when_settled the run ends as soon as x*y has committed to a
    stable zero of F; otherwise the attractor is recorded in terminal_u and
    integration continues to the horizon.
    """
    x0, y0 = float(initial[0]), float(initial[1])
    if y0 < 0.0:
        raise ValueError("initial value must satisfy y0 >= 0")
    forward = direction in (1, "forward")
    if not forward and x0 <= 0.0:
        raise ValueError("backward integration requires x0 > 0")
    frame = Frame(model, n)
    x_end = frame.horizon(y0, cfg) if forward else 0.0
    if forward and x_end <= x0:
        raise ValueError("the horizon must exceed the initial abscissa")
    eng = Engine(frame, x0, y0, cfg, direction=1 if forward else -1,
                 record=record, stop_when_settled=stop_when_settled)
    eng.run(x_end)
    md = {"model": frame.model.spec, "n": frame.n, "x0": x0, "y0": y0,
          "rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol, "horizon": x_end,
          "direction": "forward" if forward else "backward",
          "nfev": eng.nfev}
    if meta:
        md.update(meta)
    return eng.curve(md)


def count_maxima(curve):
    """Maxima of a curve: its + to - sign changes of y', and a boundary
    maximum at the start when the curve opens falling, that is, when its
    first event is a minimum (the reciprocal-gamma separatrices open with
    F < 0, so their first maximum sits at the origin itself).  A curve with
    no event is monotone and opens falling when it ends below its start.
    The step guard of Engine.run puts every sign change of y' between
    accepted steps, also those binary64 cannot show in y, so nothing here
    reads the values near an extremum.  A curve of a non-recording run
    counts exactly as the recorded one: its events are step ends, one per
    step and so in the order of the extrema, and it keeps its first and
    last points."""
    count = len(curve.maxima)
    if curve.minima:
        opens_down = not curve.maxima or curve.minima[0] < curve.maxima[0]
    else:
        opens_down = (not curve.maxima and len(curve.values) > 1
                      and curve.values[-1] < curve.values[0])
    return count + 1 if opens_down else count


_CSV_ROWS = 4096    # rows formatted and written at a time


def _curve_csv_chunks(model, n, coords, cols, xs, ys):
    """The curve CSV as strings: the header lines, then the rows in chunks
    of _CSV_ROWS, each formatted from plain floats (tolist where the
    columns have it)."""
    yield (f"# model={model}, n={n if n is not None else '-'}, "
           f"coords={coords}\n{cols}\n")
    for i in range(0, len(xs), _CSV_ROWS):
        part_x, part_y = xs[i:i + _CSV_ROWS], ys[i:i + _CSV_ROWS]
        if hasattr(part_x, "tolist"):
            part_x, part_y = part_x.tolist(), part_y.tolist()
        yield "".join([f"{x:.16e},{y:.16e}\n" for x, y in zip(part_x, part_y)])


def write_curve_csv(path, model, n, coords, cols, xs, ys):
    """Write a curve CSV to path atomically: a "# model=..., n=...,
    coords=..." comment header, the column names cols and one
    17-significant-digit row per point of xs and ys, formatted and written
    _CSV_ROWS rows at a time, so only one chunk of the text is ever held
    (about 46 bytes a row).  Returns path."""
    return atomic_write(path, _curve_csv_chunks(model, n, coords, cols, xs,
                                                ys))
