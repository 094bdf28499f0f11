"""Generating functions F for the problem y'(x) = F(xy).

Each model kind is one object, a frozen GeneratingFunction subclass, that
holds every fact about the kind the rest of the library reads:
- kind, its name, and spec, its model-grammar string; F, F_prime,
  zero(k, prev) (the k-th positive zero, given prev, the (k-1)-th, or
  None for k = 1) and first_unstable (F' > 0 at the first zero);
- raw_rhs() and, where has_scaling holds, scale(frame, n),
  scaled_rhs(frame) and limit_curve(ts): the right-hand sides of raw
  (x, y) and of index n's scaled (t, z), and the scaled limit curve;
- default_tol, predict(n) (the bisection's first guess) and
  seed_floor(n), the relative error a backward run's seed leaves in E_n
  at any rel_tol (find_eigen's estimate margin);
- n_max with n_max_reason, and raw_n_max (check_binary64, check_raw): the
  largest index the library runs and why, and the largest that raw
  coordinates can run;
- raw_horizon(y0), the first horizon of a raw forward run, and
  backward_start(n, s, export), where a backward run starts.
The algebraic kinds, F(u) ~ a u^alpha cos(b u^beta + phi), share
Algebraic, which carries asym and the scaling derived from it.  Adding a
kind means adding one object (and its spec to make_model's grammar):
Frame, ZeroTable, spectrum and cli read the object, never its name.

Frame is the one problem set-up of a run: raw (x, y) or the scaled (t, z)
of an index, with the scales, u = u_scale t z and the right-hand side of
those coordinates.  The right-hand sides are closures that look their
special function up in this module (or bessel._j_any) and make one call
to it per evaluation.
"""

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, replace

from . import asymptotics
from .rootfind import RootError, bisect
from .specfun import (DomainError, sinpi, cospi, bessel_j, bessel_j_prime,
                      airy_ai, recip_gamma, recip_gamma_log, xi_bar, digamma,
                      log_gamma)
from .specfun.bessel import _zero_after
from .specfun.zeta import _xi_bar_direct

__all__ = [
    "AsymptoticForm", "GeneratingFunction", "Algebraic", "Cosine", "Bessel",
    "Airy", "RecipGamma", "XiBar", "Frame", "make_model", "eval_F",
    "eval_F_prime", "ZeroTable", "zero_table", "RGAMMA_N_MAX",
]


@dataclass(frozen=True)
class AsymptoticForm:
    """F(u) ~ a u^alpha cos(b u^beta + phi) as u -> infinity."""
    a: float
    alpha: float
    b: float
    beta: float
    phi: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError("AsymptoticForm: need a > 0 and b > 0")
        if self.beta == 0.0:
            raise ValueError("AsymptoticForm: beta must be nonzero")

    def eval(self, u):
        return self.a * u ** self.alpha * math.cos(self.b * u ** self.beta + self.phi)


# The zero table of index n holds about 2n floats, 32 bytes each in a
# list: 10^6 zeros, about 32 MB, is the desk-scale budget.  Each kind that
# keeps it as n_max says why it binds first.
_TABLE_N_MAX = 500_000


@dataclass(frozen=True)
class GeneratingFunction:
    """A model kind (see the module docstring); immutable and safe to
    share, and equal models share one ZeroTable."""
    asym = None
    first_unstable = False
    has_scaling = True
    default_tol = 1e-10
    n_max = _TABLE_N_MAX
    n_max_reason = "its zero table would pass 10^6 zeros (about 32 MB)"
    raw_n_max = math.inf

    def __str__(self):
        return self.spec

    def seed_floor(self, n):
        """The relative error the seed of a backward run leaves in E_n at
        any rel_tol: none, unless the kind says otherwise."""
        return 0.0

    def F_prime(self, u):
        """dF/du by central difference, where no analytic F' is cheap."""
        h = 6e-6 * max(1.0, abs(u))
        return (self.F(u + h) - self.F(u - h)) / (2.0 * h)

    def check_binary64(self, n):
        """DomainError for n > n_max, naming n_max_reason; it reads no
        zero table, so a huge n is refused at once."""
        if n > self.n_max:
            raise DomainError(f"{self.spec} n={n} refused: "
                              f"{self.n_max_reason} for n > {self.n_max}")

    def check_raw(self, n):
        """DomainError for a raw-coordinate run of index n > raw_n_max."""
        if n > self.raw_n_max:
            raise DomainError(f"raw-coordinate {self.spec} integration "
                              f"refused for n > {self.raw_n_max}; use "
                              "scaled coordinates")

    def _slope(self, s):
        """F'(s) at the unstable zero s a backward run is seeded on."""
        fp = self.F_prime(s)
        if not (fp > 0.0):
            raise RuntimeError(f"F'({s}) <= 0: not a separatrix asymptote")
        return fp

    def backward_start(self, n, s, export):
        """(frame, x0, y0) of the backward run seeded on s, the n-th
        unstable zero: raw, as spectrum.refine_backward describes."""
        fp = self._slope(s)
        # Start where the backward contraction exp(-F'(x0^2-x_tp^2)/2) has
        # driven the seed error below machine precision, with the first
        # correction inside the basin of s.  This stays out of the stiff
        # zone x F'(s) >> 1, where an explicit pair is stability-limited.
        x_turn = self.x_turn(n, s)
        # half the narrower gap from s to its neighbouring zeros; xibar's
        # first zero has only an upper neighbour
        zs = zero_table(self).ordinates(s)
        i = bisect_left(zs, s)
        below = s - zs[i - 1] if i else math.inf
        halfgap = 0.5 * min(zs[i + 1] - s, below)
        du_cap = (min(0.1 * halfgap, 0.02 * s) if export
                  else min(0.5 * halfgap, 0.1 * s))
        x0 = math.sqrt(max(s / (fp * du_cap),
                           x_turn * x_turn + 90.0 / fp,
                           (1.3 * x_turn) ** 2))
        return Frame(self), x0, (s - s / (x0 * x0 * fp)) / x0


class Algebraic(GeneratingFunction):
    """F(u) ~ a u^alpha cos(b u^beta + phi), its asym.  Index n's scaled
    coordinates are y = sqrt(a) (lambda/b)^gamma z and x = (lambda/b)^(1/beta
    - gamma) t / sqrt(a), gamma = (1+alpha)/(2 beta), lambda = (2n - 1/2) pi
    - phi, u_scale = x_scale y_scale."""

    def scale(self, frame, n):
        asym = self.asym
        lam = frame.lam = (2.0 * n - 0.5) * math.pi - asym.phi
        frame.gamma_exp = (1.0 + asym.alpha) / (2.0 * asym.beta)
        sqrt_a = math.sqrt(asym.a)
        frame.y_scale = sqrt_a * (lam / asym.b) ** frame.gamma_exp
        frame.x_scale = ((lam / asym.b) ** (1.0 / asym.beta - frame.gamma_exp)
                         / sqrt_a)
        frame.u_scale = frame.x_scale * frame.y_scale

    def predict(self, n):
        return asymptotics.growth_law(self).predict(n)

    def raw_horizon(self, y0):
        """Three times the turning point expected of y0."""
        asym = self.asym
        a, al, b, be = asym.a, asym.alpha, asym.b, asym.beta
        g = (1.0 + al) / (2.0 * be)
        lam = b * max(y0 / math.sqrt(a), 1e-6) ** (1.0 / g)
        x_turn = (lam / b) ** (1.0 / be - g) / math.sqrt(a)
        return 3.0 * max(x_turn, 1.0)

    def x_turn(self, n, s):
        return Frame(self, n).x_scale

    def limit_curve(self, ts):
        return [asymptotics.limit_curve_value(self.asym.alpha, t) for t in ts]


@dataclass(frozen=True)
class Cosine(Algebraic):
    """F(u) = cos(pi u), zeros k - 1/2."""
    kind = "cosine"
    spec = "cos"
    asym = AsymptoticForm(1.0, 0.0, math.pi, 1.0, 0.0)
    # n_max is the table budget: E_{n+1}/E_n - 1 ~ 1/(2n) nears 1e-12 at 5e11

    def F(self, u):
        return cospi(u)

    def F_prime(self, u):
        return -math.pi * sinpi(u)

    def zero(self, k, prev):
        return k - 0.5

    def raw_rhs(self):
        return cospi    # cospi(x, y) = cos(pi x y), read at build time

    def scaled_rhs(self, frame):
        pref = frame.x_scale / frame.y_scale
        c_u = frame.u_scale
        def rhs(t, z):
            return pref * cospi(c_u * t * z)
        return rhs


@dataclass(frozen=True)
class Bessel(Algebraic):
    """F(u) = J_nu(u), 0 <= nu <= 50."""
    nu: float = 0.0
    kind = "bessel"
    # n_max is the table budget: E_{n+1}/E_n - 1 ~ 1/(4n) nears 1e-12 at 2.5e11

    @property
    def spec(self):
        # nu in the shortest text that reads back as it: :g where that
        # does (bessel:2.5, bessel:1e-07), repr otherwise; -0 prints as 0
        nu = self.nu + 0.0
        text = f"{nu:g}"
        return f"bessel:{text if float(text) == nu else repr(nu)}"

    @property
    def asym(self):
        return AsymptoticForm(math.sqrt(2.0 / math.pi), -0.5, 1.0, 1.0,
                              -(2.0 * self.nu + 1.0) * math.pi / 4.0)

    def F(self, u):
        return bessel_j(self.nu, u)

    def F_prime(self, u):
        return bessel_j_prime(self.nu, u)

    def zero(self, k, prev):
        return _zero_after(self.nu, prev)

    # stage probes may undershoot xy = 0 by a hair: both closures clamp
    # the argument at 0, which leaves NaN and -0.0 as they are
    def raw_rhs(self):
        from .specfun.bessel import _j_any
        nu = self.nu
        def rhs(x, y):
            u = x * y
            return _j_any(nu, 0.0 if u < 0.0 else u)
        return rhs

    def scaled_rhs(self, frame):
        from .specfun.bessel import _j_any
        nu = self.nu
        pref = frame.x_scale / frame.y_scale
        c_u = frame.u_scale
        def rhs(t, z):
            u = c_u * t * z
            return pref * _j_any(nu, 0.0 if u < 0.0 else u)
        return rhs


@dataclass(frozen=True)
class Airy(Algebraic):
    """F(u) = Ai(-u); the right-hand sides clamp u at -5."""
    kind = spec = "airy"
    asym = AsymptoticForm(1.0 / math.sqrt(math.pi), -0.25, 2.0 / 3.0, 1.5,
                          -math.pi / 4.0)
    # n_max is the table budget: E_{n+1}/E_n - 1 ~ 1/(4n) nears 1e-12 at 2.5e11

    def F(self, u):
        return airy_ai(-u)

    def zero(self, k, prev):
        t = 3.0 * math.pi * (4.0 * k - 1.0) / 8.0
        u = t ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t * t))
        # local zero spacing ~ pi t^(-1/3): the seed is good to ~1e-6 by
        # k = 4, so a fraction of a gap always brackets the right zero
        spacing = math.pi * t ** (-1.0 / 3.0) if k > 3 else 1.0
        f = self.F
        half = 0.12 * spacing
        for _ in range(6):
            lo, hi = u - half, u + half
            if (f(lo) > 0) != (f(hi) > 0):
                return bisect(f, lo, hi, xtol=1e-14)
            half *= 1.6
        raise RootError(f"airy zero {k}: no bracket near {u!r}")

    def raw_rhs(self):
        def rhs(x, y):
            u = x * y
            return airy_ai(5.0 if u < -5.0 else -u)
        return rhs

    def scaled_rhs(self, frame):
        pref = frame.x_scale / frame.y_scale
        c_u = frame.u_scale
        def rhs(t, z):
            u = c_u * t * z
            return pref * airy_ai(5.0 if u < -5.0 else -u)
        return rhs


# Largest reciprocal-gamma index whose eigenvalue is a binary64 number:
# E_150 is about 10^306.6, E_151 about 10^309.
RGAMMA_N_MAX = 150

# an rgamma eigenvalue run starts where the seed's relative correction
# 1/(t0^2 F'(s)) has fallen to this, or at t0 = 3: from there E_n is
# within 1e-12 of a run from t0 = 6 (n >= 3)
_RGAMMA_CORR = 4e-3


@dataclass(frozen=True)
class RecipGamma(GeneratingFunction):
    """F(u) = 1/Gamma(-u), u >= -1 (the right-hand sides clamp u at -1),
    zeros u = 0, 1, 2, ...  Index n's scaled coordinates are
    x = sqrt(lambda/xi) t and y = sqrt(lambda xi) z with lambda = 2n - 1
    and u_scale = lambda, which x_scale y_scale, two rounded exponentials,
    misses by up to 1.2e-13 relative.  Raw coordinates need Gamma values
    past binary64 from n = 6."""
    kind = spec = "rgamma"
    default_tol = 1e-8
    n_max = RGAMMA_N_MAX
    n_max_reason = "E_n exceeds binary64 (the largest double, ~1.8e308)"
    raw_n_max = 5

    def F(self, u):
        return recip_gamma(u)

    def seed_floor(self, n):
        # E_1 and E_2 run from t0 = 3, where the seed's truncation leaves
        # 4.5e-10 in E_1 at every rel_tol from 1e-10 to 1e-13; E_2 .. E_30
        # agree with their tol-1e-12 brackets within 8.6e-13
        return 1e-9 if n == 1 else 0.0

    def F_prime(self, u):
        # d/du [-sin(pi u) Gamma(1+u) / pi]
        g = math.exp(log_gamma(1.0 + u)) if u > -1.0 else 1.0
        return -cospi(u) * g - sinpi(u) * g * digamma(1.0 + u) / math.pi

    def zero(self, k, prev):
        return float(k - 1)

    def raw_rhs(self):
        def rhs(x, y):
            u = x * y
            return recip_gamma(-1.0 if u < -1.0 else u)
        return rhs

    def scale(self, frame, n):
        lam, _, ln_xi = asymptotics.rgamma_lambda_scaling(n)
        ln_x = 0.5 * (math.log(lam) - ln_xi)
        ln_y = 0.5 * (math.log(lam) + ln_xi)
        if abs(ln_x) > 708.0 or abs(ln_y) > 708.0:
            raise OverflowError(f"rgamma scaling overflows binary64 at n={n}")
        frame.lam = frame.u_scale = lam
        frame.ln_xi = ln_xi
        frame.x_scale = math.exp(ln_x)
        frame.y_scale = math.exp(ln_y)

    def scaled_rhs(self, frame):
        c_u = frame.u_scale
        ln_xi = frame.ln_xi
        exp = math.exp
        def rhs(t, z):
            u = c_u * t * z
            sign, lm = recip_gamma_log(-1.0 if u < -1.0 else u)
            if sign == 0:
                return 0.0
            e = lm - ln_xi
            if e > 705.0:
                raise OverflowError(
                    "precision exhausted: rgamma right-hand side "
                    f"overflows at t={t!r}")
            return sign * exp(e)
        return rhs

    def predict(self, n):
        return 1.0  # z(0) -> z_inf(0) = 1

    def raw_horizon(self, y0):
        return 3.0 * max(2.0, 2.0 * y0)

    def _slope(self, s):
        try:
            return super()._slope(s)
        except OverflowError:
            return math.inf  # Gamma(2n) past binary64 (n >= 86): see below

    def backward_start(self, n, s, export):
        """Scaled coordinates, from the smallest t0 in [1.3, 3] where the
        seed's relative correction 1/(t0^2 F'(s)) is at most _RGAMMA_CORR,
        and from t0 = 3 where none is and for an exported curve."""
        fp = self._slope(s)
        frame = Frame(self, n)
        # x0^2 F'(s) in raw units, via logs to dodge the huge factors, with
        # ln F'(s) = ln Gamma(s + 1) where F'(s) overflows; with s = lambda,
        # z(x0) = u(x0)/(lambda x0) is (1 - corr)/x0, corr = 1/(x0^2 F'(s))
        ln_fp = math.log(fp) if fp < math.inf else log_gamma(s + 1.0)
        # corr = corr_1/t0^2
        corr_1 = math.exp(-(math.log(frame.lam) - frame.ln_xi + ln_fp))
        t_corr = math.sqrt(corr_1 / _RGAMMA_CORR)
        x0 = 3.0 if export or t_corr >= 3.0 else max(1.3, t_corr)
        ln_x2fp = (2.0 * math.log(x0) + math.log(frame.lam) - frame.ln_xi
                   + ln_fp)
        corr = math.exp(-ln_x2fp) if ln_x2fp < 700.0 else 0.0
        return frame, x0, (1.0 - corr) / x0

    def limit_curve(self, ts):
        return [asymptotics.rgamma_limit_curve(t) for t in ts]


@dataclass(frozen=True)
class XiBar(GeneratingFunction):
    """F = xi_bar, the rescaled Riemann xi (the right-hand side clamps u at
    0), negative just above 0 (Hardy Z sign).  No scaling: every index
    runs raw."""
    kind = spec = "xibar"
    first_unstable = True
    has_scaling = False
    default_tol = 1e-6
    # n_max is the table budget: xi_bar's domain, u <= 1e8, ends at n ~ 1.2e8

    def F(self, u):
        return xi_bar(u)

    def seed_floor(self, n):
        # the backward E_n of n = 1..11 at rel_tol 1e-13 lies 4e-12 to
        # 5.5e-12 above the tol-1e-12 bracket, whatever n
        return 1e-11

    def zero(self, k, prev):
        """k-th ordinate of a nontrivial zeta zero, by scanning xi_bar's
        direct route from prev + 0.05 (from 10 for the first) in steps of
        0.35: the ordinates do not depend on xi_bar's table."""
        x = 10.0 if prev is None else prev + 0.05
        f0 = _xi_bar_direct(x)
        while True:
            x1 = x + 0.35
            f1 = _xi_bar_direct(x1)
            if (f0 > 0) != (f1 > 0):
                return bisect(_xi_bar_direct, x, x1, xtol=1e-12)
            x, f0 = x1, f1

    def raw_rhs(self):
        def rhs(x, y):
            u = x * y
            return xi_bar(0.0 if u < 0.0 else u)
        return rhs

    def predict(self, n):
        u_n = zero_table(self).nth_unstable(n)
        return 0.55 * math.sqrt(u_n)

    def raw_horizon(self, y0):
        u1 = zero_table(self).zero(2)  # second zero, the first stable one
        return 3.0 * max(u1, 10.0) / (0.6 * max(y0, 1e-3))

    def x_turn(self, n, s):
        return s / 0.6  # y(x_turn) ~ 1


_PLAIN_SPECS = {kind.spec: kind for kind in (Cosine, Airy, RecipGamma, XiBar)}


def make_model(spec):
    """Parse a model spec: cos | bessel:NU | airy | rgamma | xibar."""
    spec = spec.strip()
    if spec.startswith("bessel:"):
        try:
            nu = float(spec.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad bessel order in model spec {spec!r}")
        if not (0.0 <= nu <= 50.0):
            raise DomainError(f"bessel order {nu!r} outside [0, 50]")
        return Bessel(nu)
    if spec in _PLAIN_SPECS:
        return _PLAIN_SPECS[spec]()
    raise DomainError(f"unknown model spec {spec!r}")


def eval_F(model, u):
    """F(u); domain u >= -1 for rgamma, u >= 0 otherwise."""
    return model.F(u)


def eval_F_prime(model, u):
    """dF/du, analytic where cheap, central difference otherwise."""
    return model.F_prime(u)


class ZeroTable:
    """Lazily extended ordered list of the positive zeros of F; shared by
    the forward runs' commitment check and the eigenvalue classifier, and
    the only place the library keeps them.  The k-th comes from the kind's
    zero(k, prev), handed the (k-1)-th.

    The zeros are simple, so stable (F' < 0) and unstable (F' > 0) zeros
    alternate and only their ordinates are kept, with the kind's
    first_unstable.  So F is positive at a u that is no zero exactly when
    the number of zeros below u is even, or odd where first_unstable
    holds."""

    def __init__(self, model):
        self.model = model
        self._zeros = []       # ordered ordinates
        self.first_unstable = model.first_unstable

    def _append_next(self):
        zs = self._zeros
        zs.append(self.model.zero(len(zs) + 1, zs[-1] if zs else None))

    def _stable(self, i):
        """Whether the zero at 0-based position i is stable."""
        return (i % 2 == 0) != self.first_unstable

    def ensure_up_to(self, u):
        # keep at least one full gap of headroom above u
        while not self._zeros or self._zeros[-1] < u + self._headroom():
            self._append_next()

    def ordinates(self, u):
        """The ordered ordinates, extended to cover u.  The list is the
        table's own: later extensions append to it in place."""
        self.ensure_up_to(u)
        return self._zeros

    def _headroom(self):
        if len(self._zeros) < 2:
            return 2.0
        return 1.5 * (self._zeros[-1] - self._zeros[-2])

    def ensure_count(self, n):
        while len(self._zeros) < n:
            self._append_next()

    def zero(self, k):
        """The k-th zero (1-based)."""
        self.ensure_count(k)
        return self._zeros[k - 1]

    def stable_below(self, u):
        """The stable zero z* of F whose basin (z*, s) holds u, s being the
        unstable zero just above it; 0.0 below a first zero that is
        unstable (the basin of y -> 0); None when u sits on a zero or just
        above an unstable one."""
        self.ensure_up_to(u)
        zs = self._zeros
        i = bisect_left(zs, u)          # zeros below u
        if zs[i] == u:
            return None
        if i == 0:
            return 0.0 if self.first_unstable else None
        return zs[i - 1] if self._stable(i - 1) else None

    def unstable_below(self, u):
        """Number of unstable zeros below u."""
        self.ensure_up_to(u)
        i = bisect_left(self._zeros, u)
        return (i + 1) // 2 if self.first_unstable else i // 2

    def nth_unstable(self, n):
        """The n-th unstable zero."""
        return self.zero(2 * n - 1 if self.first_unstable else 2 * n)


_zero_tables = {}


def zero_table(model):
    if model not in _zero_tables:
        _zero_tables[model] = ZeroTable(model)
    return _zero_tables[model]


class Frame:
    """Problem set-up of a run: its coordinates, their scales and its
    right-hand side, read off the model's kind object.  With an index n it
    runs in the scaled coordinates (t, z) of n (the kind's scale and
    scaled_rhs); without one, or for a kind without a scaling, in raw
    (x, y) (raw_rhs), where every scale is 1.0 and lam, gamma_exp and
    ln_xi are None.

    x = x_scale t, y = y_scale z, and u = xy = u_scale t z as the
    right-hand side, the commitment check and event location all form it.
    """

    def __init__(self, model, n=None):
        self.model = model
        self.n = n
        self.zeros = zero_table(model)
        self.lam = self.gamma_exp = self.ln_xi = None
        self.x_scale = self.y_scale = self.u_scale = 1.0
        if n is None or not model.has_scaling:
            self.coords = "raw"
            self.rhs = model.raw_rhs()
            return
        if n < 1 or n != int(n):
            raise DomainError(f"Frame: need integer n >= 1, got {n!r}")
        self.coords = "scaled"
        model.scale(self, int(n))
        self.rhs = model.scaled_rhs(self)

    def horizon(self, y0, cfg):
        """First horizon of a forward run from the origin at y0: cfg.x_max
        when set; otherwise t = 3, three times the turning point t = 1, in
        scaled coordinates, and the kind's raw_horizon in raw ones."""
        if cfg.x_max > 0.0:
            return cfg.x_max
        if self.coords == "scaled":
            return 3.0
        return self.model.raw_horizon(y0)

    def convert(self, curve, coords):
        """curve in coords ("raw" or "scaled"): abscissae, ordinates and
        events all rescaled.  A curve already in coords comes back as is.
        curve is a recorded run's: its grid and values are arrays and
        stay arrays, scaled as wholes."""
        if curve.coords == coords:
            return curve
        if self.coords == "raw":
            raise DomainError(f"{self.model.spec} has no scaled coordinates")
        op = operator.mul if coords == "raw" else operator.truediv
        fx = lambda v: op(v, self.x_scale)
        fy = lambda v: op(v, self.y_scale)
        return replace(
            curve, coords=coords, grid=fx(curve.grid),
            values=fy(curve.values), maxima=[fx(v) for v in curve.maxima],
            maxima_values=[fy(v) for v in curve.maxima_values],
            minima=[fx(v) for v in curve.minima],
            minima_values=[fy(v) for v in curve.minima_values],
            meta=dict(curve.meta))
