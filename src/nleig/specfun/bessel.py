"""Bessel functions of the first kind, real order 0 <= nu <= 50, x >= 0.

On max(1, nu/4) <= x < the Hankel switch of each order, a per-order Taylor
table (``taylor.TaylorTable``, centres every 1/8) steps J_nu through
Bessel's equation; it also serves the negative orders nu > -1 that the
Airy connection formulas use.  Three direct regimes (``_j_direct``) serve
every other argument and seed the table's centres once each, with
J_nu' = (nu/c) J_nu - J_{nu+1}:

* ascending power series (compensated with math.fsum) at small x,
* a direct quadrature of the Bessel integral representation in the
  intermediate band where neither the series nor the large-x expansion
  reaches 1e-12,
* the large-x (Hankel) expansion with adaptively truncated P/Q sums and
  compensated phase reduction.

The series/asymptotic switch sits at x = max(12, 2 nu) as long as series
cancellation stays harmless; for larger orders the quadrature band widens
because the Hankel sums only settle once x is a decent multiple of nu^2.
"""

import math

import numpy as np

from .gammafn import DomainError, sinpi
from .taylor import TaylorTable, bessel_coeffs

__all__ = ["bessel_j", "bessel_j_prime", "bessel_j_zero"]

_PI4_HI = 0.7853981633974483   # pi/4 rounded
_PI4_LO = 3.061616997868383e-17  # pi/4 residual

_SERIES_MAX_TERMS = 600


def _j_series(nu, x):
    """Ascending series; reliable up to moderate cancellation."""
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    ln0 = nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)
    if ln0 < -745.0:
        return 0.0
    t = math.exp(ln0)
    q = 0.25 * x * x
    terms = [t]
    k = 1
    while k < _SERIES_MAX_TERMS:
        t *= -q / (k * (nu + k))
        terms.append(t)
        if abs(t) < 1e-18 * (abs(terms[0]) + 1e-300) and k * k > q:
            break
        k += 1
    return math.fsum(terms)


def _series_cancellation(nu, x):
    """log of (largest series term / oscillation amplitude)."""
    if x <= 2.0 * math.sqrt(nu + 1.0):
        return 0.0  # terms decrease from the start
    kstar = 0.5 * (math.hypot(nu, x) - nu)
    ln_max = ((nu + 2.0 * kstar) * math.log(0.5 * x)
              - math.lgamma(kstar + 1.0) - math.lgamma(nu + kstar + 1.0))
    ln_amp = 0.5 * math.log(2.0 / (math.pi * max(x, 1.0)))
    return ln_max - ln_amp


def _hankel_pq(mu, x):
    """Adaptive P/Q sums of the large-x expansion; returns (P, Q, err)."""
    inv8x = 1.0 / (8.0 * x)
    p = 1.0
    q = 0.0
    a = 1.0
    best = math.inf
    k = 1
    while k < 60:
        a *= (mu - (2.0 * k - 1.0) ** 2) / k * inv8x
        m = k % 4
        if m == 1:
            q += a
        elif m == 2:
            p -= a
        elif m == 3:
            q -= a
        else:
            p += a
        t = abs(a)
        if t < best:
            best = t
        if t < 1e-17:
            break
        if t > 4.0 * best and k > 4:
            break  # divergent tail reached
        k += 1
    return p, q, best


def _hankel_ok(nu, x):
    mu = 4.0 * nu * nu
    if x < 16.0:
        return False
    # the early bulge exp(mu/(8x)) and the e^{-2x}-type optimal tail must
    # both sit below the target
    return mu / (8.0 * x) < 2.5 and 2.0 * x - mu / (8.0 * x) > 29.0


def _j_hankel(nu, x):
    mu = 4.0 * nu * nu
    p, q, _ = _hankel_pq(mu, x)
    c = 2.0 * nu + 1.0
    chi = (x - c * _PI4_HI) - c * _PI4_LO
    return math.sqrt(2.0 / (math.pi * x)) * (
        math.cos(chi) * p - math.sin(chi) * q)


_leg_cache = {}
_lag_cache = {}


def _leg_nodes(n):
    if n not in _leg_cache:
        t, w = np.polynomial.legendre.leggauss(n)
        _leg_cache[n] = (0.5 * math.pi * (t + 1.0), 0.5 * math.pi * w)
    return _leg_cache[n]


def _lag_nodes(n):
    if n not in _lag_cache:
        _lag_cache[n] = np.polynomial.laguerre.laggauss(n)
    return _lag_cache[n]


def _j_quadrature(nu, x):
    """Bessel integral: (1/pi) int_0^pi cos(x sin h - nu h) dh minus the
    sin(nu pi) sinh-tail for non-integer order."""
    n = int(2.2 * (x + nu)) + 60
    n = 32 * ((n + 31) // 32)
    theta, w = _leg_nodes(n)
    main = float(np.dot(w, np.cos(x * np.sin(theta) - nu * theta))) / math.pi
    sp = sinpi(nu)
    if sp != 0.0:
        s, wl = _lag_nodes(48)
        # invert x sinh t + nu t = s per node
        t = np.arcsinh(s / max(x, 1e-300))
        for _ in range(40):
            f = x * np.sinh(t) + nu * t - s
            d = x * np.cosh(t) + nu
            dt = f / d
            t -= dt
            if np.max(np.abs(dt)) < 1e-15:
                break
        tail = float(np.dot(wl, 1.0 / (x * np.cosh(t) + nu)))
        main -= sp / math.pi * tail
    return main


def _j_direct(nu, x):
    """J_nu(x) for nu > -1 by the series, Hankel or quadrature route; seeds
    the Taylor tables and serves every argument outside them."""
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu < 0.0:
            raise DomainError("bessel: J_nu(0) undefined for nu < 0")
        return 0.0
    switch = max(12.0, 2.0 * nu)
    if x <= switch and _series_cancellation(nu, x) < 7.0:
        return _j_series(nu, x)
    if _hankel_ok(nu, x):
        return _j_hankel(nu, x)
    return _j_quadrature(nu, x)


_j_tables = {}


def _j_table(nu):
    """The Taylor table of J_nu, created on first use.  Its centres start at
    max(1, nu/4): Bessel's equation is singular at x = 0, and below nu/4 the
    growth rate nu/x of J_nu outruns the table's expansion length."""
    tab = _j_tables.get(nu)
    if tab is None:
        def seed(c):
            j = _j_direct(nu, c)
            return j, (nu / c) * j - _j_direct(nu + 1.0, c)
        tab = _j_tables[nu] = TaylorTable(max(1.0, 0.25 * nu), seed,
                                          bessel_coeffs(nu))
    return tab


def _j_any(nu, x):
    """J_nu(x) for nu > -1 (internal; the public wrapper restricts nu)."""
    if x >= 1.0 and x >= 0.25 * nu:
        if _hankel_ok(nu, x):
            return _j_hankel(nu, x)
        return _j_table(nu)(x)
    return _j_direct(nu, x)


def bessel_j(nu, x):
    """J_nu(x) for 0 <= nu <= 50 and x >= 0."""
    if not (0.0 <= nu <= 50.0):
        raise DomainError(f"bessel_j: need 0 <= nu <= 50, got nu={nu!r}")
    if not (x >= 0.0):
        raise DomainError(f"bessel_j: need x >= 0, got x={x!r}")
    return _j_any(nu, x)


def bessel_j_prime(nu, x):
    """d/dx J_nu(x) via J_nu' = (nu/x) J_nu - J_{nu+1}."""
    if x == 0.0:
        if nu == 0.0:
            return 0.0
        if nu == 1.0:
            return 0.5
        return 0.0 if nu > 1.0 else math.inf
    return (nu / x) * bessel_j(nu, x) - _j_any(nu + 1.0, x)


_zero_cache = {}


def bessel_j_zero(nu, k):
    """k-th positive zero of J_nu (k = 1, 2, ...), by scan plus Newton."""
    if k < 1 or k != int(k):
        raise DomainError(f"bessel_j_zero: need integer k >= 1, got {k!r}")
    k = int(k)
    zeros = _zero_cache.setdefault(nu, [])
    from ..rootfind import newton_safeguarded
    while len(zeros) < k:
        if zeros:
            x = zeros[-1] + 0.5
        else:
            x = max(nu + 1.85 * nu ** (1.0 / 3.0), 1.0) if nu > 0 else 1.0
        f0 = bessel_j(nu, x)
        step = 0.7
        while True:
            x1 = x + step
            f1 = bessel_j(nu, x1)
            if (f0 > 0.0) != (f1 > 0.0) or f1 == 0.0:
                break
            x, f0 = x1, f1
        root = newton_safeguarded(lambda t: bessel_j(nu, t),
                                  lambda t: bessel_j_prime(nu, t),
                                  0.5 * (x + x1), x, x1, xtol=1e-15)
        zeros.append(root)
    return zeros[k - 1]
