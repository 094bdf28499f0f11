"""Airy function Ai on the real line, -1e5 <= x <= 10.

On -10 <= x <= 4 a Taylor table (``taylor.TaylorTable``, centres every 1/8)
steps Ai through Ai'' = x Ai.  The routes that served this band before the
table now seed its centres once each: the Maclaurin pair for c >= -7, and
below -7 the Bessel connection Ai(-u) = sqrt(u)/3 (J_{1/3} + J_{-1/3})(zeta),
Ai'(-u) = u/3 (J_{2/3} - J_{-2/3})(zeta), zeta = 2/3 u^(3/2), through the
direct Bessel routes (quadrature band included).  The Bessel connection
also serves x < -10, and on the positive side a Gauss-Hermite quadrature of
K_{1/3} bridges the gap until the exponential asymptotic series takes over.

J_{1/3} and J_{-1/3} have the same mu = 4 nu^2 = 4/9, so on the Hankel
band one P/Q pair serves both, and both phases are formed from it with the
expressions of ``bessel._j_hankel``: the same floats as two Hankel calls,
at half the sums.  The pair is summed in one of the two forms that
``bessel`` describes.  For zeta at or above the order's mono (58.0, so
u above about 19.6, the long backward runs) ``airy_ai`` itself runs the
unguarded loop, which past mono gives ``bessel._hankel_pq``'s floats.  For
zeta in [edge, mono), edge = 16, ``_neg_bessel`` calls ``_hankel_pq``; it
also seeds the table's centres on -10 <= c < -7.  The two phase offsets
(2 nu + 1) pi/4 and mono are read once, at import, from what
``bessel._order`` stores for nu = 1/3 and -1/3, and sqrt(u) is taken once
per call for both zeta and the prefactor.
"""

import math

from .gammafn import DomainError
from .bessel import _hankel_pq, _j_direct, _order
from .taylor import TaylorTable, airy_coeffs

__all__ = ["airy_ai"]

_AI0 = 0.3550280538878172   # Ai(0)  = 3^(-2/3)/Gamma(2/3)
_AIP0 = -0.2588194037928068  # Ai'(0) = -3^(-1/3)/Gamma(1/3)

_sqrt, _cos, _sin, _PI = math.sqrt, math.cos, math.sin, math.pi

_herm_cache = {}


def _maclaurin(x):
    """(Ai(x), Ai'(x)) from the Maclaurin pair; seeds the table on [-7, 4]."""
    x2 = x * x
    x3 = x2 * x
    ft = 1.0
    fterms = [ft]
    fpterms = []
    gt = x
    gterms = [gt]
    gpterms = [1.0]
    for k in range(0, 60):
        # derivative terms from the previous value terms: d/dx of the next
        # f term is ft x^2/(3k+2), of the next g term gt x^2/(3k+3)
        fpterms.append(ft * x2 / (3 * k + 2))
        gpterms.append(gt * x2 / (3 * k + 3))
        ft *= x3 / ((3 * k + 2) * (3 * k + 3))
        gt *= x3 / ((3 * k + 3) * (3 * k + 4))
        fterms.append(ft)
        gterms.append(gt)
        if abs(ft) < 1e-20 and abs(gt) < 1e-20:
            break
    return (_AI0 * math.fsum(fterms) + _AIP0 * math.fsum(gterms),
            _AI0 * math.fsum(fpterms) + _AIP0 * math.fsum(gpterms))


def _pos_asymptotic(x):
    zeta = (2.0 / 3.0) * x * math.sqrt(x)
    u = 1.0
    s = 1.0
    best = math.inf
    for k in range(1, 40):
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        t = u / zeta ** k if k % 2 == 0 else -u / zeta ** k
        s += t
        a = abs(t)
        if a < 1e-18:
            break
        if a > best:
            s -= t  # drop the first growing term
            break
        best = a
    return math.exp(-zeta) * s / (2.0 * math.sqrt(math.pi) * x ** 0.25)


def _pos_quadrature(x):
    # Ai(x) = sqrt(x/3)/pi * K_{1/3}(zeta); K via cosh t = 1 + v^2 which
    # turns the integral into a pure Gaussian in v.
    import numpy as np
    zeta = (2.0 / 3.0) * x * math.sqrt(x)
    if 80 not in _herm_cache:
        _herm_cache[80] = np.polynomial.hermite.hermgauss(80)
    w, ww = _herm_cache[80]
    v = w / math.sqrt(zeta)
    t = np.arccosh(1.0 + v * v)
    g = np.cosh(t / 3.0) / np.sqrt(v * v + 2.0)
    k13 = math.exp(-zeta) / math.sqrt(zeta) * float(np.dot(ww, g))
    return math.sqrt(x / 3.0) / math.pi * k13


# J_{1/3} and J_{-1/3} share mu = 4/9, hence the Hankel edge, mono and P/Q;
# each order keeps its own phase offset
_EDGE13, _ROUNDS13, _PH13_HI, _PH13_LO, _MONO13 = _order(1.0 / 3.0)
_PHM13_HI, _PHM13_LO = _order(-1.0 / 3.0)[2:4]


def _neg_bessel(x):
    """Ai(-u) = sqrt(u)/3 (J_{1/3} + J_{-1/3})(zeta); on the Hankel band
    one P/Q pair serves both orders, with the phases of ``_j_hankel``."""
    u = -x
    su = _sqrt(u)
    zeta = (2.0 / 3.0) * u * su
    if zeta >= _EDGE13:
        p, q = _hankel_pq(_ROUNDS13, zeta)
        s = _sqrt(2.0 / (_PI * zeta))
        chi = (zeta - _PH13_HI) - _PH13_LO
        j13 = s * (_cos(chi) * p - _sin(chi) * q)
        chi = (zeta - _PHM13_HI) - _PHM13_LO
        jm13 = s * (_cos(chi) * p - _sin(chi) * q)
        return su / 3.0 * (j13 + jm13)
    return su / 3.0 * (_j_direct(1.0 / 3.0, zeta)
                       + _j_direct(-1.0 / 3.0, zeta))


def _neg_bessel_prime(x):
    """Ai'(-u) = (u/3) (J_{2/3} - J_{-2/3})(zeta)."""
    u = -x
    zeta = (2.0 / 3.0) * u * math.sqrt(u)
    return u / 3.0 * (_j_direct(2.0 / 3.0, zeta) - _j_direct(-2.0 / 3.0, zeta))


def _coeffs_at(c):
    if c >= -7.0:
        return airy_coeffs(c, *_maclaurin(c))
    return airy_coeffs(c, _neg_bessel(c), _neg_bessel_prime(c))


# empty until the first argument lands in a cell
_table = TaylorTable(-10.0, _coeffs_at)


def airy_ai(x):
    """Ai(x) for -1e5 <= x <= 10."""
    if not (-1e5 <= x <= 10.0):
        raise DomainError(f"airy_ai: argument {x!r} outside [-1e5, 10]")
    if x < -10.0:       # the long backward runs: first test
        u = -x
        su = _sqrt(u)
        zeta = (2.0 / 3.0) * u * su
        if zeta < _MONO13:
            return _neg_bessel(x)
        # bessel._j_any's sum past mono, for the shared P/Q pair
        r = 1.0 / (8.0 * zeta)
        p = 1.0
        q = 0.0
        a = 1.0
        for c1, c2, c3, c4, _ in _ROUNDS13:
            a *= c1 * r
            q += a
            if -1e-17 < a < 1e-17:
                break
            a *= c2 * r
            p -= a
            if -1e-17 < a < 1e-17:
                break
            a *= c3 * r
            q -= a
            if -1e-17 < a < 1e-17:
                break
            a *= c4 * r
            p += a
            if -1e-17 < a < 1e-17:
                break
        s = _sqrt(2.0 / (_PI * zeta))
        chi = (zeta - _PH13_HI) - _PH13_LO
        j13 = s * (_cos(chi) * p - _sin(chi) * q)
        chi = (zeta - _PHM13_HI) - _PHM13_LO
        jm13 = s * (_cos(chi) * p - _sin(chi) * q)
        return su / 3.0 * (j13 + jm13)
    if x > 9.0:
        return _pos_asymptotic(x)
    if x > 4.0:
        return _pos_quadrature(x)
    return _table(x)
