"""Closed-form large-index objects: limit curves, growth laws, envelope
scaling, random-walk moment coefficients, and the reciprocal-gamma
asymptote.

The limit curve z(t) for exponent alpha > -1 solves, for t <= 1,

    (w + (alpha-1)/2 R)^2 (w + R)^(1-alpha) = 1,
    w = z^(1-alpha),  R = sqrt(z^(2-2 alpha) - t^(2+2 alpha)),

with z = 1/t beyond the turning point t = 1.  The equation is solved
directly in log form by bisection inside the radicand-feasible
bracket; alpha = 1 and alpha = 3 are removable degeneracies handled by
their closed limits.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .models import rgamma_lambda_scaling
from .rootfind import RootError, bisect
from .specfun import DomainError

__all__ = [
    "LimitCurve", "GrowthLaw", "WalkCoefficients", "limit_curve",
    "limit_curve_value", "origin_value", "growth_law", "forbidden_region_z",
    "walk_coefficients", "walk_coefficients_dp", "envelope",
    "rgamma_asymptote", "rgamma_asymptote_log", "rgamma_limit_curve",
    "WALK_P_MAX",
]

# largest p_max the walk-coefficient tables accept
WALK_P_MAX = 60


@dataclass(frozen=True)
class LimitCurve:
    alpha: float
    grid: np.ndarray
    z: np.ndarray
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


def origin_value(alpha):
    """z(0) for alpha > -1: (2^(1+alpha)/(1+alpha)^2)^(1/((1-alpha)(3-alpha))),
    with the alpha = 1, 3 degeneracies taken as limits."""
    if alpha <= -1.0:
        raise ValueError("finite origin value requires alpha > -1")
    if alpha == 1.0:
        return math.exp(0.5 * (1.0 - math.log(2.0)))
    if alpha == 3.0:
        return math.exp(0.5 * (math.log(2.0) - 0.5))
    num = (1.0 + alpha) * math.log(2.0) - 2.0 * math.log1p(alpha)
    return math.exp(num / ((1.0 - alpha) * (3.0 - alpha)))


def limit_curve_value(alpha, t):
    """z(t) of the limit curve for a finite alpha > -1 (piecewise 1/t past
    t = 1)."""
    if not (-1.0 < alpha < math.inf):
        raise DomainError(f"limit_curve: need a finite alpha > -1, "
                          f"got {alpha!r}")
    if t < 0.0:
        raise DomainError("limit_curve: need t >= 0")
    if t > 1.0:
        return 1.0 / t
    if abs(alpha - 1.0) < 1e-9:
        # (1-alpha) -> 0 limit: 2 ln z = R - ln(1+R), R = sqrt(1 - t^4)
        r = math.sqrt(max(0.0, 1.0 - t ** 4))
        return math.exp(0.5 * (r - math.log1p(r)))
    z0 = origin_value(alpha)
    if t == 0.0:
        # z^(1-alpha) must stay representable on the bracket
        if alpha < 1.0:
            lo, hi = 1e-12, max(2.0 * z0, 2.0)
        else:
            lo, hi = 1.0 - 1e-12, 2.0 * z0
    else:
        # radicand feasibility bound z = t^((2+2a)/(2-2a)), in logs: the
        # exponent blows up as alpha -> 1 and the power can overflow
        ln_zrad = math.log(t) * (2.0 + 2.0 * alpha) / (2.0 - 2.0 * alpha)
        if alpha < 1.0:
            z_rad = math.exp(ln_zrad) if ln_zrad > -27.0 else 1e-12
            lo, hi = z_rad, z0 * (1.0 + 1e-9)
        else:
            z_rad = math.exp(ln_zrad) if ln_zrad < 700.0 else math.inf
            lo, hi = 1.0 - 1e-12, min(z_rad, z0 * (1.0 + 1e-9))
    # the log of the defining product, 0 on the curve; its z-free parts
    # are formed once here, not on each of the bisection's calls
    a1 = 1.0 - alpha
    a2 = 2.0 - 2.0 * alpha
    half = 0.5 * (alpha - 1.0)
    t_pow = t ** (2.0 + 2.0 * alpha)
    sqrt, log, inf = math.sqrt, math.log, math.inf

    def f(z):
        w = z ** a1
        rad = z ** a2 - t_pow
        if rad < 0.0:
            rad = 0.0
        r = sqrt(rad)
        first = w + half * r
        if first <= 0.0:
            return inf
        return 2.0 * log(first) + a1 * log(w + r)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0) or not math.isfinite(flo) \
            or not math.isfinite(fhi):
        # walk the feasible interval for a sign change (robustness net)
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


def limit_curve(alpha, grid):
    """LimitCurve sampled on the given t grid (t >= 0)."""
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
