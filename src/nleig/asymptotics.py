"""Closed-form large-index objects: limit curves, growth laws, envelope
scaling, random-walk moment coefficients, and the reciprocal-gamma
asymptote with its lambda-scaling.

The limit curve z(t) for exponent alpha > -1 solves, for t <= 1,

    (w + (alpha-1)/2 R)^2 (w + R)^(1-alpha) = 1,
    w = z^(1-alpha),  R = sqrt(z^(2-2 alpha) - t^(2+2 alpha)),

with z = 1/t beyond the turning point t = 1.  In q = R/w, which runs over
[0, 1], the curve is explicit, w^(3-alpha) = (1+q)^(alpha-1) /
(1 + (alpha-1) q/2)^2 and t^(2+2 alpha) = w^2 (1 - q^2): z(t) bisects q,
and z(0) is q = 1, by one formula for every finite alpha > -1 (alpha = 1
and alpha = 3 included).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .specfun import DomainError, digamma_root, log_gamma, sinpi

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LimitCurve", "GrowthLaw", "WalkCoefficients", "limit_curve",
    "limit_curve_value", "origin_value", "growth_law", "forbidden_region_z",
    "walk_coefficients", "walk_coefficients_dp", "envelope",
    "rgamma_lambda_scaling", "rgamma_asymptote", "rgamma_asymptote_log",
    "rgamma_limit_curve", "WALK_P_MAX",
]

# largest p_max the walk-coefficient tables accept
WALK_P_MAX = 60


@dataclass(frozen=True)
class LimitCurve:
    alpha: float
    grid: "np.ndarray"
    z: "np.ndarray"
    origin_value: float


@dataclass(frozen=True)
class GrowthLaw:
    gamma_exp: float
    A: float

    def predict(self, n):
        return self.A * n ** self.gamma_exp


@dataclass(frozen=True)
class WalkCoefficients:
    p_max: int
    values: tuple  # Fractions alpha_{1,2p+1}, p = 0..p_max


def _log1p_ratio(x):
    """log1p(x)/x, continued by its limit 1 at x = 0."""
    return 1.0 if x == 0.0 else math.log1p(x) / x


def _ln_z(alpha, q):
    """ln z on the limit curve at q = R/w in [0, 1], in the form whose
    denominator stays away from 0: (3 - alpha) below alpha = 2, and
    (alpha - 1) with p = q/(1+q) from alpha = 2 on."""
    if alpha < 2.0:
        return ((q * _log1p_ratio(0.5 * (alpha - 1.0) * q) - math.log1p(q))
                / (3.0 - alpha))
    p = q / (1.0 + q)
    return ((math.log1p(q) - p * _log1p_ratio(0.5 * (alpha - 3.0) * p))
            / (alpha - 1.0))


def origin_value(alpha):
    """z(0) = (2^(1+alpha)/(1+alpha)^2)^(1/((1-alpha)(3-alpha))) for
    alpha > -1: the limit curve at q = 1."""
    if alpha <= -1.0:
        raise ValueError("finite origin value requires alpha > -1")
    return math.exp(_ln_z(alpha, 1.0))


def limit_curve_value(alpha, t):
    """z(t) of the limit curve for a finite alpha > -1 (1/t from the
    turning point t = 1 on)."""
    if not (-1.0 < alpha < math.inf):
        raise DomainError(f"limit_curve: need a finite alpha > -1, "
                          f"got {alpha!r}")
    if not (t >= 0.0):
        raise DomainError("limit_curve: need t >= 0")
    if t >= 1.0:
        return 1.0 / t
    if t == 0.0:
        return origin_value(alpha)
    # (1+alpha) ln t = ln w + ln(1-q^2)/2 falls strictly from 0 at q = 0
    # to -inf at q = 1; bisect q down to adjacent floats
    target = (1.0 + alpha) * math.log(t)
    a1 = 1.0 - alpha
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return math.exp(_ln_z(alpha, lo))
        if a1 * _ln_z(alpha, mid) + 0.5 * math.log1p(-mid * mid) > target:
            lo = mid
        else:
            hi = mid


def limit_curve(alpha, grid):
    """LimitCurve sampled on the given t grid (t >= 0)."""
    import numpy as np
    grid = np.asarray(list(grid), dtype=float)
    if len(grid) == 0:
        raise ValueError("limit_curve: empty grid")
    z = np.array([limit_curve_value(alpha, float(t)) for t in grid])
    return LimitCurve(alpha=alpha, grid=grid, z=z, origin_value=origin_value(alpha))


def growth_law(model):
    """E_n ~ A n^gamma with gamma = (1+alpha)/(2 beta) and
    A = sqrt(a) (2 pi / b)^gamma z(0)."""
    asym = getattr(model, "asym", None)
    if asym is None:
        raise ValueError(f"growth_law: model {model!r} has no asymptotic form")
    if asym.alpha <= -1.0 or asym.beta <= 0.0:
        raise ValueError("growth_law: need alpha > -1 and beta > 0")
    g = (1.0 + asym.alpha) / (2.0 * asym.beta)
    a_const = (math.sqrt(asym.a) * (2.0 * math.pi / asym.b) ** g
               * origin_value(asym.alpha))
    return GrowthLaw(gamma_exp=g, A=a_const)


def forbidden_region_z(frame, t):
    """Leading forbidden-region solution z = (1 - arcsin(1/t^2)/(beta lambda))/t
    in a scaled models.Frame whose model is algebraic, lambda = frame.lam."""
    if not (t > 1.0):
        raise ValueError("forbidden_region_z: need t > 1")
    if frame.gamma_exp is None:
        raise ValueError("forbidden_region_z: needs the scaled frame of an "
                         "algebraic model")
    beta = frame.model.asym.beta
    return (1.0 - math.asin(1.0 / (t * t)) / (beta * frame.lam)) / t


def walk_coefficients(p_max):
    """Exact moment-resummation coefficients alpha_{1,2p+1} = -C_p/2^(2p+1)
    (C_p the Catalan numbers), as Fractions."""
    if not (0 <= p_max <= WALK_P_MAX):
        raise DomainError(f"walk_coefficients: need 0 <= p_max <= "
                          f"{WALK_P_MAX}, got {p_max!r}")
    vals = []
    for p in range(p_max + 1):
        cp = math.comb(2 * p, p) // (p + 1)
        vals.append(Fraction(-cp, 2 ** (2 * p + 1)))
    return WalkCoefficients(p_max=p_max, values=tuple(vals))


def walk_coefficients_dp(p_max):
    """Independent oracle: expand A_{2,0} through the difference equation
    A_{n,k} = -1/2 A_{n-1,k+1} - 1/2 A_{n+1,k+1} with absorption at n = 1
    (a +-1 walk that freezes on reaching 1); exact rational arithmetic."""
    if not (0 <= p_max <= WALK_P_MAX):
        raise ValueError(f"walk_coefficients_dp: need 0 <= p_max <= {WALK_P_MAX}")
    depth = 2 * p_max + 1
    absorbed = {}               # path length -> accumulated weight at n = 1
    walkers = {2: Fraction(1)}  # position -> weight among unabsorbed walkers
    half = Fraction(-1, 2)
    for step in range(1, depth + 1):
        nxt = {}
        for pos, wt in walkers.items():
            for tgt in (pos - 1, pos + 1):
                w = wt * half
                if tgt == 1:
                    absorbed[step] = absorbed.get(step, Fraction(0)) + w
                else:
                    nxt[tgt] = nxt.get(tgt, Fraction(0)) + w
        walkers = nxt
    vals = tuple(absorbed.get(2 * p + 1, Fraction(0)) for p in range(p_max + 1))
    return WalkCoefficients(p_max=p_max, values=vals)


def envelope(frame, t):
    """Predicted oscillation half-width of z(t) about the limit curve:
    t^(1+alpha-beta) z(t)^(alpha-beta) / (beta lambda), in a scaled
    models.Frame whose model is algebraic, lambda = frame.lam."""
    if frame.gamma_exp is None:
        raise ValueError("envelope: needs the scaled frame of an algebraic "
                         "model")
    asym = frame.model.asym
    if not (0.0 < t < 1.0):
        raise ValueError("envelope: need 0 < t < 1")
    z = limit_curve_value(asym.alpha, t)
    return (t ** (1.0 + asym.alpha - asym.beta)
            * z ** (asym.alpha - asym.beta) / (asym.beta * frame.lam))


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


def rgamma_asymptote_log(n):
    """ln of the reciprocal-gamma eigenvalue asymptote
    sqrt(-lambda/Gamma(r_lambda)), lambda = 2n-1."""
    lam, _, ln_xi = rgamma_lambda_scaling(n)
    # -lambda/Gamma(r) = lambda * xi with xi = -1/Gamma(r) > 0
    return 0.5 * (math.log(lam) + ln_xi)


def rgamma_asymptote(n):
    ln_e = rgamma_asymptote_log(n)
    if ln_e > 709.0:
        raise OverflowError(
            f"rgamma asymptote overflows binary64 at n={n}; "
            "use rgamma_asymptote_log")
    return math.exp(ln_e)


def rgamma_limit_curve(t):
    """Piecewise limit curve of the reciprocal-gamma problem."""
    if t < 0.0:
        raise ValueError("rgamma_limit_curve: need t >= 0")
    return 1.0 if t <= 1.0 else 1.0 / t
