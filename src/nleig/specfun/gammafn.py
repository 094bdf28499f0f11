"""Gamma-family functions: log-gamma, reciprocal gamma, digamma and its
negative-axis roots.

Everything is binary64.  The reciprocal gamma is always evaluated through
the reflection identity 1/Gamma(-u) = -sin(pi u) Gamma(1+u) / pi so that the
huge Gamma(-u) values never appear; a (sign, log magnitude) variant covers
arguments where the linear value overflows.  That variant is the hot path of
scaled reciprocal-gamma runs, one call per right-hand-side evaluation, so it
reduces u once (n = floor(u)) and takes the sign from the parity of n
instead of calling ``sinpi``; the floats are those of the ``sinpi`` route,
which tests/test_specfun.py keeps as a reference.
"""

import math

from ..rootfind import newton_safeguarded

__all__ = [
    "DomainError", "PoleError",
    "sinpi", "cospi", "log_gamma", "digamma", "trigamma",
    "digamma_root", "digamma_root_seed", "recip_gamma", "recip_gamma_log",
]

_LOG_MAX = 709.0782712893384  # log(DBL_MAX)


class DomainError(ValueError):
    """Argument outside the supported domain."""


class PoleError(ValueError):
    """Argument too close to a pole."""


_floor, _cos, _sin, _PI = math.floor, math.cos, math.sin, math.pi
_log, _lgamma, _NEG_INF = math.log, math.lgamma, -math.inf


def sinpi(x):
    """sin(pi*x), exact at integers and accurate near them.  On (-1/2, 0)
    it is -sinpi(-x): there x - floor(x) = x + 1 would round the small |x|
    away (to 1.0 on [-2^-54, 0))."""
    try:
        n = _floor(x)
    except (ValueError, OverflowError):     # NaN, +-inf
        raise DomainError(f"sinpi: non-finite argument {x!r}") from None
    if -0.5 < x < 0.0:
        return -_sin(_PI * -x)
    r = x - n
    if r == 0.0:
        return 0.0
    if r <= 0.5:
        s = _sin(_PI * r)
    else:
        s = _sin(_PI * (1.0 - r))
    return -s if n & 1 else s


def cospi(x, y=1.0):
    """cos(pi*x*y), exact where u = x*y is a half-integer and accurate near
    one.  x*1.0 is x for every float, so cospi(x) is cos(pi*x); the second
    factor lets the raw cos model use cospi itself as its right-hand side
    F(xy), one call per evaluation."""
    u = x * y
    try:
        n = _floor(u)
    except (ValueError, OverflowError):     # NaN, +-inf
        raise DomainError(f"cospi: non-finite argument {u!r}") from None
    r = u - n
    if r < 0.25:
        c = _cos(_PI * r)
    elif r <= 0.75:
        c = _sin(_PI * (0.5 - r))
    else:
        c = -_cos(_PI * (1.0 - r))
    return -c if n & 1 else c


def log_gamma(x):
    """ln Gamma(x) for x > 0.

    Exactly zero at x = 1 and x = 2; elsewhere delegates to the platform
    lgamma (correctly rounded to a few ulp, comfortably inside the 1e-13
    relative target away from the zeros of ln Gamma).
    """
    if not (x > 0.0):
        raise DomainError(f"log_gamma: need x > 0, got {x!r}")
    if x == 1.0 or x == 2.0:
        return 0.0
    return math.lgamma(x)


# Bernoulli-number coefficients B_{2k}/(2k) of the asymptotic digamma series.
_PSI_ASYM = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
    1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0,
)


def _digamma_asym(x):
    # valid for x >= 8
    inv = 1.0 / x
    inv2 = inv * inv
    s = 0.0
    p = inv2
    for c in _PSI_ASYM:
        s += c * p
        p *= inv2
    return math.log(x) - 0.5 * inv - s


def digamma(x):
    """psi(x) = d/dx ln Gamma(x), |x| <= 1e6, not near a nonpositive integer."""
    if not math.isfinite(x) or abs(x) > 1e6:
        raise DomainError(f"digamma: argument {x!r} outside [-1e6, 1e6]")
    if x <= 0.0 and abs(x - round(x)) < 1e-12:
        raise PoleError(f"digamma: {x!r} is within 1e-12 of a pole")
    if x < 0.0:
        # reflection: psi(x) = psi(1-x) - pi*cot(pi*x)
        return digamma(1.0 - x) - math.pi * cospi(x) / sinpi(x)
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    return acc + _digamma_asym(x)


_PSI1_ASYM = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0,
)


def trigamma(x):
    """psi'(x); used as the Newton derivative for the digamma roots."""
    if not math.isfinite(x) or abs(x) > 1e6:
        raise DomainError(f"trigamma: argument {x!r} outside [-1e6, 1e6]")
    if x <= 0.0 and abs(x - round(x)) < 1e-12:
        raise PoleError(f"trigamma: {x!r} is within 1e-12 of a pole")
    if x < 0.0:
        s = sinpi(x)
        return -trigamma(1.0 - x) + (math.pi / s) * (math.pi / s)
    acc = 0.0
    while x < 8.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    s = 0.0
    p = inv * inv2
    for c in _PSI1_ASYM:
        s += c * p
        p *= inv2
    return inv + 0.5 * inv2 + s


def digamma_root_seed(k):
    """Arctangent seed for the k-th negative-axis digamma root."""
    return -k + math.atan(math.pi / math.log(k + 0.125)) / math.pi


def digamma_root(k):
    """The k-th root r_k of psi on the negative axis, r_k in (-k, -k+1).

    Newton from the arctangent seed, safeguarded by bisection inside the
    pole-to-pole bracket; |psi(r_k)| <= 1e-10 guaranteed on return.
    """
    if not (1 <= k <= 500) or k != int(k):
        raise DomainError(f"digamma_root: need integer 1 <= k <= 500, got {k!r}")
    k = int(k)
    lo = -k + 1e-9
    hi = -k + 1.0 - 1e-9
    r = newton_safeguarded(digamma, trigamma, digamma_root_seed(k), lo, hi,
                           xtol=1e-15, rtol=2e-16)
    if abs(digamma(r)) > 1e-10:
        raise RuntimeError(f"digamma_root: |psi| > 1e-10 at candidate for k={k}")
    return r


def recip_gamma_log(u):
    """(sign, log magnitude) of 1/Gamma(-u) for u >= -1.

    sign is 0 (with -inf magnitude) exactly at nonnegative integers.
    Raises DomainError below -1 and for NaN; raises OverflowError at +inf,
    which Engine.run meets as an overflowing step and retries smaller.

    The reflection 1/Gamma(-u) = -sin(pi u) Gamma(1+u) / pi is taken in
    logs, with ``sinpi``'s reduction inlined: n = floor(u), r = u - n,
    |sin(pi u)| = sin(pi r) (sin(pi (1-r)) past r = 1/2, and sin(-pi u) on
    (-1/2, 0)), and the sign of -sin(pi u) is that of (-1)^(n+1).  No
    non-integer u gives s = 0.
    """
    if not (u >= -1.0):
        raise DomainError(f"recip_gamma: need u >= -1, got {u!r}")
    n = _floor(u)
    r = u - n
    if r == 0.0:
        # u = -1: 1/Gamma(1); u = 0, 1, 2, ...: a pole of Gamma(-u)
        return (1, 0.0) if n == -1 else (0, _NEG_INF)
    if r <= 0.5:
        s = _sin(_PI * r)
    elif n == -1:
        s = _sin(_PI * -u)
    else:
        s = _sin(_PI * (1.0 - r))
    return (1 if n & 1 else -1), _log(s / _PI) + _lgamma(1.0 + u)


def recip_gamma(u):
    """1/Gamma(-u) via the sine reflection; exact zero at u = 0, 1, 2, ...

    Raises OverflowError when the value exceeds binary64 (use
    recip_gamma_log there).
    """
    sign, lm = recip_gamma_log(u)
    if sign == 0:
        return 0.0
    if lm > _LOG_MAX:
        raise OverflowError(
            f"recip_gamma: |1/Gamma(-u)| overflows binary64 at u={u!r}; "
            "use recip_gamma_log")
    return sign * math.exp(lm)
