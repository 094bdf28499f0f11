"""Generating functions F for the problem y'(x) = F(xy).

A model bundles pointwise evaluation of F, the asymptotic amplitude/phase
parameters (a, alpha, b, beta, phi) when F oscillates algebraically, the
eigen-index parametrization lambda, and the stable/unstable classification
of the zeros of F that the u = xy dynamics du/dx = u/x + x F(u) organizes
itself around.

Frame is the one problem set-up of a run: raw (x, y) or the scaled (t, z)
of an index, with the scales, u = u_scale t z and the right-hand side of
those coordinates.  The right-hand sides are two closure families, raw_rhs
and the scaled closures of Frame, which look their special function up in
this module (or bessel._j_any) and make one call to it per evaluation.
"""

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, replace

from .rootfind import RootError, bisect
from .specfun import (DomainError, sinpi, cospi, bessel_j, bessel_j_prime,
                      bessel_j_zero, airy_ai, recip_gamma, recip_gamma_log,
                      xi_bar, digamma, digamma_root, log_gamma)
from .specfun.zeta import _xi_bar_direct

__all__ = [
    "AsymptoticForm", "GeneratingFunction", "Frame", "ClassifiedZero",
    "make_model", "eval_F", "eval_F_prime", "ZeroTable",
    "zero_table", "rgamma_lambda_scaling", "raw_rhs", "check_raw",
    "check_binary64", "RGAMMA_N_MAX",
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


@dataclass(frozen=True)
class GeneratingFunction:
    """One of the library models; immutable and safe to share."""
    kind: str                  # cosine | bessel | airy | rgamma | xibar
    nu: float = 0.0            # bessel order
    asym: AsymptoticForm | None = None

    @property
    def spec(self):
        """The CLI model-grammar string."""
        if self.kind == "bessel":
            return f"bessel:{self.nu:g}"
        return {"cosine": "cos", "airy": "airy", "rgamma": "rgamma",
                "xibar": "xibar"}[self.kind]

    def __str__(self):
        return self.spec


def make_model(spec):
    """Parse a model spec: cos | bessel:NU | airy | rgamma | xibar."""
    spec = spec.strip()
    if spec == "cos":
        return GeneratingFunction("cosine", asym=AsymptoticForm(
            1.0, 0.0, math.pi, 1.0, 0.0))
    if spec.startswith("bessel:"):
        try:
            nu = float(spec.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad bessel order in model spec {spec!r}")
        if not (0.0 <= nu <= 50.0):
            raise DomainError(f"bessel order {nu!r} outside [0, 50]")
        return GeneratingFunction("bessel", nu=nu, asym=AsymptoticForm(
            math.sqrt(2.0 / math.pi), -0.5, 1.0, 1.0,
            -(2.0 * nu + 1.0) * math.pi / 4.0))
    if spec == "airy":
        return GeneratingFunction("airy", asym=AsymptoticForm(
            1.0 / math.sqrt(math.pi), -0.25, 2.0 / 3.0, 1.5, -math.pi / 4.0))
    if spec == "rgamma":
        return GeneratingFunction("rgamma")
    if spec == "xibar":
        return GeneratingFunction("xibar")
    raise DomainError(f"unknown model spec {spec!r}")


def eval_F(model, u):
    """F(u); domain u >= -1 for rgamma, u >= 0 otherwise."""
    k = model.kind
    if k == "cosine":
        return cospi(u)
    if k == "bessel":
        return bessel_j(model.nu, u)
    if k == "airy":
        return airy_ai(-u)
    if k == "rgamma":
        return recip_gamma(u)
    if k == "xibar":
        return xi_bar(u)
    raise DomainError(f"unknown model kind {k!r}")


def eval_F_prime(model, u):
    """dF/du, analytic where cheap, central difference otherwise."""
    k = model.kind
    if k == "cosine":
        return -math.pi * sinpi(u)
    if k == "bessel":
        return bessel_j_prime(model.nu, u)
    if k == "rgamma":
        # d/du [-sin(pi u) Gamma(1+u) / pi]
        g = math.exp(log_gamma(1.0 + u)) if u > -1.0 else 1.0
        return -cospi(u) * g - sinpi(u) * g * digamma(1.0 + u) / math.pi
    h = 6e-6 * max(1.0, abs(u))
    return (eval_F(model, u + h) - eval_F(model, u - h)) / (2.0 * h)


@dataclass(frozen=True)
class ClassifiedZero:
    u: float
    kind: str    # "stable" (F' < 0) or "unstable" (F' > 0)
    index: int   # ordinal among zeros of the same kind, 1-based


class ZeroTable:
    """Lazily extended ordered list of the positive zeros of F; shared by
    the forward runs' commitment check and the eigenvalue classifier.

    The zeros are simple, so stable (F' < 0) and unstable (F' > 0) zeros
    alternate and only their ordinates are kept: the first zero is
    unstable for xibar, which is negative just above 0 (Hardy Z sign), and
    stable for every other model (rgamma's first zero is u = 0).  So F is
    positive at a u that is no zero exactly when the number of zeros below
    u is even, or odd where first_unstable holds."""

    def __init__(self, model):
        self.model = model
        self._zeros = []       # ordered ordinates
        self.first_unstable = model.kind == "xibar"

    def _append_next(self):
        m = self.model
        k = len(self._zeros) + 1
        if m.kind == "cosine":
            u = k - 0.5
        elif m.kind == "rgamma":
            u = float(k - 1)   # zero of 1/Gamma(-u) at u = k-1
        elif m.kind == "bessel":
            u = bessel_j_zero(m.nu, k)
        elif m.kind == "airy":
            u = _airy_neg_zero(k)
        elif m.kind == "xibar":
            u = _xibar_zero(k)
        else:
            raise DomainError(f"unknown model kind {m.kind!r}")
        self._zeros.append(u)

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
        """k-th zero (1-based) as a ClassifiedZero."""
        self.ensure_count(k)
        kind = "stable" if self._stable(k - 1) else "unstable"
        return ClassifiedZero(self._zeros[k - 1], kind, (k + 1) // 2)

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
        """n-th unstable zero as a ClassifiedZero."""
        return self.zero(2 * n - 1 if self.first_unstable else 2 * n)


_zero_tables = {}


def zero_table(model):
    key = (model.kind, model.nu)
    if key not in _zero_tables:
        _zero_tables[key] = ZeroTable(model)
    return _zero_tables[key]


def _airy_neg_zero(k):
    """k-th zero of Ai(-u) on u > 0."""
    t = 3.0 * math.pi * (4.0 * k - 1.0) / 8.0
    u = t ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t * t))
    # local zero spacing ~ pi t^(-1/3): the seed is good to ~1e-6 by k = 4,
    # so a fraction of a gap always brackets the right zero
    spacing = math.pi * t ** (-1.0 / 3.0) if k > 3 else 1.0
    f = lambda v: airy_ai(-v)
    half = 0.12 * spacing
    for _ in range(6):
        lo, hi = u - half, u + half
        if (f(lo) > 0) != (f(hi) > 0):
            return bisect(f, lo, hi, xtol=1e-14)
        half *= 1.6
    raise RootError(f"airy zero {k}: no bracket near {u!r}")


_xibar_zero_cache = []


def _xibar_zero(k):
    """k-th ordinate of a nontrivial zeta zero, by scanning xi_bar's direct
    route: the ordinates do not depend on xi_bar's table."""
    zs = _xibar_zero_cache
    x = zs[-1] + 0.05 if zs else 10.0
    f0 = _xi_bar_direct(x)
    while len(zs) < k:
        step = 0.35
        while True:
            x1 = x + step
            f1 = _xi_bar_direct(x1)
            if (f0 > 0) != (f1 > 0):
                zs.append(bisect(_xi_bar_direct, x, x1, xtol=1e-12))
                x, f0 = x1, f1
                break
            x, f0 = x1, f1
    return zs[k - 1]


def rgamma_lambda_scaling(n):
    """(lambda, r_lambda, ln_xi) for the reciprocal-gamma problem.

    lambda = 2n-1; xi(lambda) = -xi0/Gamma(r_lambda) with xi0 = 1, which
    puts the turning point at t = 1.  Gamma(r_lambda) < 0 is asserted: the
    radicand of the eigenvalue asymptote must be positive, and a wrong
    digamma-root index would flip it.
    """
    lam = 2 * n - 1
    r = digamma_root(lam)
    # sign of Gamma(r) equals sign of sin(pi r) (reflection; Gamma(1-r) > 0)
    if sinpi(r) >= 0.0:
        raise ArithmeticError(
            f"rgamma scaling: Gamma(r_lambda) not negative at lambda={lam}")
    ln_gamma_mag = (math.log(math.pi) - math.log(abs(sinpi(r)))
                    - log_gamma(1.0 - r))
    ln_xi = -ln_gamma_mag
    return float(lam), r, ln_xi


class Frame:
    """Problem set-up of a run: its coordinates, their scales and its
    right-hand side.  A model with an index n runs in the scaled
    coordinates (t, z) of that index; xibar, which has no scaling, and a
    model without an index run in raw coordinates (x, y), where every scale
    is 1.0 and lam, gamma_exp and ln_xi are None.

    x = x_scale t, y = y_scale z, and u = xy = u_scale t z as the
    right-hand side, the commitment check and event location all form it.
    Algebraic models: y = sqrt(a) (lambda/b)^gamma z and
    x = (lambda/b)^(1/beta - gamma) t / sqrt(a) with
    gamma = (1+alpha)/(2 beta), lambda = (2n - 1/2) pi - phi and
    u_scale = x_scale y_scale.  Reciprocal gamma: x = sqrt(lambda/xi) t,
    y = sqrt(lambda xi) z with lambda = 2n - 1 and u_scale = lambda, which
    x_scale y_scale, a product of two rounded exponentials, misses by up
    to 1.2e-13 relative (n <= RGAMMA_N_MAX).
    """

    def __init__(self, model, n=None):
        self.model = model
        self.n = n
        self.zeros = zero_table(model)
        self.lam = self.gamma_exp = self.ln_xi = None
        self.x_scale = self.y_scale = self.u_scale = 1.0
        if n is None or model.kind == "xibar":
            self.coords = "raw"
            self.rhs = raw_rhs(model)
            return
        if n < 1 or n != int(n):
            raise DomainError(f"Frame: need integer n >= 1, got {n!r}")
        self.coords = "scaled"
        if model.kind == "rgamma":
            lam, _, ln_xi = rgamma_lambda_scaling(int(n))
            ln_x = 0.5 * (math.log(lam) - ln_xi)
            ln_y = 0.5 * (math.log(lam) + ln_xi)
            if abs(ln_x) > 708.0 or abs(ln_y) > 708.0:
                raise OverflowError(
                    f"rgamma scaling overflows binary64 at n={n}")
            self.lam = self.u_scale = lam
            self.ln_xi = ln_xi
            self.x_scale = math.exp(ln_x)
            self.y_scale = math.exp(ln_y)
        else:
            asym = model.asym
            lam = self.lam = (2.0 * int(n) - 0.5) * math.pi - asym.phi
            self.gamma_exp = (1.0 + asym.alpha) / (2.0 * asym.beta)
            sqrt_a = math.sqrt(asym.a)
            self.y_scale = sqrt_a * (lam / asym.b) ** self.gamma_exp
            self.x_scale = ((lam / asym.b) ** (1.0 / asym.beta - self.gamma_exp)
                            / sqrt_a)
            self.u_scale = self.x_scale * self.y_scale
        self.rhs = self._scaled_rhs()

    def _scaled_rhs(self):
        """dz/dt as a tight closure (the exact right-hand side, not the
        asymptotic form) of u = u_scale * t * z."""
        model = self.model
        pref = self.x_scale / self.y_scale
        c_u = self.u_scale
        if model.kind == "cosine":
            def rhs(t, z):
                return pref * cospi(c_u * t * z)
        elif model.kind == "bessel":
            from .specfun.bessel import _j_any
            nu = model.nu
            def rhs(t, z):
                # stage probes may undershoot y = 0 by a hair: clamp
                u = c_u * t * z
                return pref * _j_any(nu, 0.0 if u < 0.0 else u)
        elif model.kind == "airy":
            def rhs(t, z):
                u = c_u * t * z
                return pref * airy_ai(5.0 if u < -5.0 else -u)
        elif model.kind == "rgamma":
            ln_xi = self.ln_xi
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
        else:
            raise DomainError(f"no scaled rhs for model {model.kind!r}")
        return rhs

    def horizon(self, y0, cfg):
        """First horizon of a forward run from the origin at y0: cfg.x_max
        when set; otherwise t = 3, three times the turning point t = 1, in
        scaled coordinates, and three times the expected turning point of
        y0 in raw ones."""
        if cfg.x_max > 0.0:
            return cfg.x_max
        if self.coords == "scaled":
            return 3.0
        m = self.model
        if m.asym is not None:
            a, al, b, be = m.asym.a, m.asym.alpha, m.asym.b, m.asym.beta
            g = (1.0 + al) / (2.0 * be)
            lam = b * max(y0 / math.sqrt(a), 1e-6) ** (1.0 / g)
            x_turn = (lam / b) ** (1.0 / be - g) / math.sqrt(a)
            return 3.0 * max(x_turn, 1.0)
        if m.kind == "xibar":
            u1 = self.zeros.zero(2).u  # second zero, the first stable one
            return 3.0 * max(u1, 10.0) / (0.6 * max(y0, 1e-3))
        # raw rgamma (n <= 5 use only)
        return 3.0 * max(2.0, 2.0 * y0)

    def convert(self, curve, coords):
        """curve in coords ("raw" or "scaled"): abscissae, ordinates and
        events all rescaled.  A curve already in coords comes back as is."""
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


def raw_rhs(model):
    """dy/dx = F(xy) as one closure per model kind, with no dispatch per
    call.  Stage probes may undershoot xy = 0 by a hair, so every argument
    is clamped into the domain of F: at 0 for bessel and xibar, -5 for airy
    and -1 for rgamma.  A clamp leaves NaN and -0.0 as they are."""
    kind = model.kind
    if kind == "cosine":
        return cospi    # cospi(x, y) = cos(pi x y), read at build time
    if kind == "bessel":
        from .specfun.bessel import _j_any
        nu = model.nu
        def rhs(x, y):
            u = x * y
            return _j_any(nu, 0.0 if u < 0.0 else u)
    elif kind == "xibar":
        def rhs(x, y):
            u = x * y
            return xi_bar(0.0 if u < 0.0 else u)
    elif kind == "airy":
        def rhs(x, y):
            u = x * y
            return airy_ai(5.0 if u < -5.0 else -u)
    elif kind == "rgamma":
        def rhs(x, y):
            u = x * y
            return recip_gamma(-1.0 if u < -1.0 else u)
    else:
        raise DomainError(f"unknown model kind {kind!r}")
    return rhs


# Largest reciprocal-gamma index whose eigenvalue is a binary64 number:
# E_150 is about 10^306.6, E_151 about 10^309.
RGAMMA_N_MAX = 150


def check_binary64(model, n):
    """DomainError for a reciprocal-gamma index n > RGAMMA_N_MAX, whose
    eigenvalue exceeds the largest binary64 number."""
    if model.kind == "rgamma" and n > RGAMMA_N_MAX:
        raise DomainError(
            f"rgamma n={n} refused: E_n exceeds binary64 (the largest double, "
            f"~1.8e308) for n > {RGAMMA_N_MAX}")


def check_raw(model, n):
    """DomainError for a raw-coordinate reciprocal-gamma run of index
    n > 5: its right-hand side needs Gamma values beyond binary64."""
    if model.kind == "rgamma" and n > 5:
        raise DomainError("raw-coordinate rgamma integration refused for "
                          "n > 5; use scaled coordinates")
