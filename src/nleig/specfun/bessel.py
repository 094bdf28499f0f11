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

The Hankel band is the hot path of long separatrix runs, so each order
keeps state built on first use (``_order``): its Hankel edge, the smallest
binary64 x with ``_hankel_ok``, so one comparison routes as the predicate
does; the P/Q coefficients (mu - (2k-1)^2) / k, k = 1..59, in rounds of
four; and the phase offset c pi/4, c = 2 nu + 1, as its two products
c * _PI4_HI and c * _PI4_LO, so that a call forms the reduced phase
chi = (x - c _PI4_HI) - c _PI4_LO with two subtractions and no product.
``_hankel_pq`` is the one P/Q sum, unrolled by the sign pattern;
``_j_any`` calls it directly, ``_j_hankel`` serves ``_j_direct``, and
``airy._neg_bessel`` shares one P/Q pair between J_{1/3} and J_{-1/3}.
tests/test_specfun.py checks these values bit for bit against a plain
adaptive P/Q loop, one pass per order, with the phase formed as
(x - c _PI4_HI) - c _PI4_LO.
"""

import math

from .gammafn import DomainError, sinpi
from .taylor import TaylorTable, bessel_coeffs

__all__ = ["bessel_j", "bessel_j_prime", "bessel_j_zero"]

_PI4_HI = 0.7853981633974483   # pi/4 rounded
_PI4_LO = 3.061616997868383e-17  # pi/4 residual
_INF = math.inf
_sqrt, _cos, _sin, _PI = math.sqrt, math.cos, math.sin, math.pi

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


def _hankel_ok(nu, x):
    mu = 4.0 * nu * nu
    if x < 16.0:
        return False
    # the early bulge exp(mu/(8x)) and the e^{-2x}-type optimal tail must
    # both sit below the target
    return mu / (8.0 * x) < 2.5 and 2.0 * x - mu / (8.0 * x) > 29.0


def _hankel_edge(nu):
    """The smallest binary64 x with _hankel_ok(nu, x).  The predicate is
    false below 16 and monotone above (both tests move one way with x, and
    rounding keeps that), so bisection on (lo false, hi true) ends on two
    adjacent floats."""
    lo, hi = 8.0, 16.0
    while not _hankel_ok(nu, hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _hankel_ok(nu, mid):
            hi = mid
        else:
            lo = mid


_orders = {}


def _order(nu):
    """Per-order Hankel state (edge, rounds, ph_hi, ph_lo), built on first
    use.  The edge is ``_hankel_edge(nu)``.  The rounds hold the P/Q
    coefficients (mu - (2k-1)^2) / k, mu = 4 nu^2, k = 1..59, four to a
    round, each with the flag k > 4 that arms the divergence test; the last
    round has three and None.  ph_hi and ph_lo are c * _PI4_HI and
    c * _PI4_LO with c = 2 nu + 1: the phase offset c pi/4 in two parts,
    taken off as chi = (x - ph_hi) - ph_lo."""
    o = _orders.get(nu)
    if o is None:
        mu = 4.0 * nu * nu
        coef = [(mu - (2.0 * k - 1.0) ** 2) / k for k in range(1, 60)]
        coef.append(None)
        rounds = tuple((*coef[j:j + 4], j > 0) for j in range(0, 60, 4))
        c = 2.0 * nu + 1.0
        o = _orders[nu] = (_hankel_edge(nu), rounds, c * _PI4_HI, c * _PI4_LO)
    return o


def _hankel_pq(rounds, x):
    """P and Q of the large-x expansion (DLMF 10.17.3) from an order's
    rounds; the one P/Q implementation.  Term k is
    a_k = a_{k-1} coef_k / (8x), added to Q, P, Q, P with the signs
    +, -, -, + of k mod 4 = 1, 2, 3, 0.
    The sum stops after the first term below 1e-17, at the first term
    (k > 4) above four times the smallest so far (the divergent tail), or
    after 59 terms.  A term below 1e-17 is also the smallest so far, so
    each term needs at most two comparisons."""
    r = 1.0 / (8.0 * x)
    p = 1.0
    q = 0.0
    a = 1.0
    best = _INF
    for c1, c2, c3, c4, late in rounds:
        a *= c1 * r
        q += a
        t = a if a >= 0.0 else -a
        if t < best:
            if t < 1e-17:
                return p, q
            best = t
        elif t > 4.0 * best and late:
            return p, q
        a *= c2 * r
        p -= a
        t = a if a >= 0.0 else -a
        if t < best:
            if t < 1e-17:
                return p, q
            best = t
        elif t > 4.0 * best and late:
            return p, q
        a *= c3 * r
        q -= a
        t = a if a >= 0.0 else -a
        if t < best:
            if t < 1e-17:
                return p, q
            best = t
        elif t > 4.0 * best and late:
            return p, q
        if c4 is None:
            return p, q             # 59 terms
        a *= c4 * r
        p += a
        t = a if a >= 0.0 else -a
        if t < best:
            if t < 1e-17:
                return p, q
            best = t
        elif t > 4.0 * best and late:
            return p, q


def _j_hankel(nu, x):
    """J_nu(x) by the large-x expansion, for x at or above the order's
    Hankel edge; ``_j_any`` and ``airy._neg_bessel`` repeat the phase."""
    _, rounds, ph_hi, ph_lo = _order(nu)
    p, q = _hankel_pq(rounds, x)
    chi = (x - ph_hi) - ph_lo
    return _sqrt(2.0 / (_PI * x)) * (_cos(chi) * p - _sin(chi) * q)


_leg_cache = {}
_lag_cache = {}


def _leg_nodes(n):
    if n not in _leg_cache:
        import numpy as np
        t, w = np.polynomial.legendre.leggauss(n)
        _leg_cache[n] = (0.5 * math.pi * (t + 1.0), 0.5 * math.pi * w)
    return _leg_cache[n]


def _lag_nodes(n):
    if n not in _lag_cache:
        import numpy as np
        _lag_cache[n] = np.polynomial.laguerre.laggauss(n)
    return _lag_cache[n]


def _j_quadrature(nu, x):
    """Bessel integral: (1/pi) int_0^pi cos(x sin h - nu h) dh minus the
    sin(nu pi) sinh-tail for non-integer order."""
    import numpy as np
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
        recurrence = bessel_coeffs(nu)

        def coeffs_at(c):
            j = _j_direct(nu, c)
            return recurrence(c, j, (nu / c) * j - _j_direct(nu + 1.0, c))
        tab = _j_tables[nu] = TaylorTable(max(1.0, 0.25 * nu), coeffs_at)
    return tab


def _j_any(nu, x):
    """J_nu(x) for nu > -1 (internal; the public wrapper restricts nu)."""
    try:
        edge, rounds, ph_hi, ph_lo = _orders[nu]
    except KeyError:
        edge, rounds, ph_hi, ph_lo = _order(nu)
    # the edge is at least max(16, nu^2/5), so at least max(1, nu/4)
    if x >= edge:
        p, q = _hankel_pq(rounds, x)
        chi = (x - ph_hi) - ph_lo
        return _sqrt(2.0 / (_PI * x)) * (_cos(chi) * p - _sin(chi) * q)
    if x >= 1.0 and x >= 0.25 * nu:
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
    """k-th positive zero of J_nu (k = 1, 2, ...), by scan plus Newton.

    Newton asks for f(t) = J_nu(t) and then f'(t) = (nu/t) J_nu(t) -
    J_{nu+1}(t) at the same t, so f keeps its last (t, J_nu(t)) for f' to
    reuse, and the scan's values at the bracket ends are handed over."""
    if k < 1 or k != int(k):
        raise DomainError(f"bessel_j_zero: need integer k >= 1, got {k!r}")
    k = int(k)
    zeros = _zero_cache.setdefault(nu, [])
    from ..rootfind import newton_safeguarded
    last = [math.nan, 0.0]      # the last t f was called at, and J_nu(t)

    def f(t):
        j = bessel_j(nu, t)
        last[0], last[1] = t, j
        return j

    def fprime(t):
        if t != last[0]:
            return bessel_j_prime(nu, t)
        return (nu / t) * last[1] - _j_any(nu + 1.0, t)

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
        root = newton_safeguarded(f, fprime, 0.5 * (x + x1), x, x1,
                                  xtol=1e-15, flo=f0, fhi=f1)
        zeros.append(root)
    return zeros[k - 1]
