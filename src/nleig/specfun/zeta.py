"""Riemann zeta on the critical line and the rescaled xi function.

zeta(1/2 + it) comes from Euler-Maclaurin summation over the whole
supported band t <= 1000 (absolute accuracy ~1e-13, and still cheap there
when vectorized) and from the Riemann-Siegel main sum with the first two
correction terms beyond (accuracy ~1e-5 to 1e-4); xi_bar warns past
t = 1000, where the Riemann-Siegel branch takes over.  The rescaled xi function

    xibar(t) = (2 pi)^(-1/2) t^(1/4) / (1/4 + t^2) e^(pi t / 4) xi(1/2 + it)

is assembled in the explicitly real form -(1/2) pi^(-1/4) (2 pi)^(-1/2)
t^(1/4) e^(pi t/4 + Re ln Gamma(1/4 + it/2)) Z(t), which neither decays nor
overflows at large t.

The direct route (``_xi_bar_direct``) computes ln Gamma(1/4 + it/2) once
for both theta and the scale; the Euler-Maclaurin sum takes ln n and
n^(-1/2) from arrays kept across calls, and its tail takes every power of
the cut N from one complex N^(-s).  It costs 10-20 us a call, so on
(0, 1000] xi_bar is served as t^(1/4) g(t) from a Taylor table of
g = xibar / t^(1/4) (``taylor.TaylorTable``, centres 1/16 + k/8, cell 0
covering [0, 1/8]).  g is analytic at 0, where t^(1/4) is not, and in the
strip |Im t| < 1/2 (the factor 1/(1/4 + t^2) has the nearest poles).  Each
cell is a Chebyshev fit of the direct route's g (``_xi_over_root4``) at 14
points inside the cell, made on first use; a call then costs ~1 us and is
as accurate as the direct route, whose rounding at the 14 points is the
table's error.  The zero scan of ``models`` keeps the direct route, so the
zero ordinates do not depend on the table.  Beyond t = 1000 the direct
route serves xi_bar with a warning, and finite t > 1e8 is refused with
DomainError (the Riemann-Siegel main sum would need ~sqrt(t / 2 pi) terms
at once).

The Euler-Maclaurin and Riemann-Siegel main sums are numpy vectors.  The
Euler-Maclaurin arrays are built by the first sum, as the fit's matrices
are by the first cell fill, and numpy is imported only then: importing
this module loads none.
"""

import cmath
import math
import warnings

from .gammafn import DomainError
from .taylor import STEP, TaylorTable, chebyshev_coeffs

__all__ = ["zeta_half_line", "riemann_siegel_z", "xi_bar"]

_EM_MAX_T = 1000.0
# beyond this the Riemann-Siegel main sum is refused: near t = 1e20 it would
# ask for ~4e9 terms at once
_RS_MAX_T = 1e8
_LN_2PI = math.log(2.0 * math.pi)

# B_{2k}/(2k)! for the Euler-Maclaurin tail
_EM_BERN = (
    1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
    1.0 / 47900160.0, -691.0 / 1307674368000.0, 1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0, 43867.0 / 5109094217170944000.0,
)

# B_{2n}/(2n(2n-1)) for the Stirling series of ln Gamma
_STIRLING = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0,
)


def _lngamma_complex(z):
    """Principal ln Gamma(z), Re z > 0, by recurrence into the Stirling zone."""
    shift = 0.0 + 0.0j
    while abs(z) < 12.0:
        shift -= cmath.log(z)
        z += 1.0
    s = (z - 0.5) * cmath.log(z) - z + 0.5 * _LN_2PI
    zk = z
    z2 = z * z
    for c in _STIRLING:
        s += c / zk
        zk *= z2
    return s + shift


def _theta_and_lngamma_re(t):
    """Riemann-Siegel theta(t) and Re ln Gamma(1/4 + it/2)."""
    lg = _lngamma_complex(0.25 + 0.5j * t)
    return lg.imag - 0.5 * t * math.log(math.pi), lg.real


# ln n and n^(-1/2) for n = 1, 2, ...: every Euler-Maclaurin sum takes a
# prefix of these, and they grow (by doubling) only when a larger cut needs
# it; empty until the first sum builds them as numpy arrays
_em_terms = [(), ()]


def _em_prefix(count):
    """Views of ln n and n^(-1/2) for n = 1..count."""
    ln_n, inv_sqrt_n = _em_terms
    if len(ln_n) < count:
        import numpy as np
        n = np.arange(1, max(count, 2 * len(ln_n)) + 1)
        ln_n, inv_sqrt_n = np.log(n), n ** (-0.5)
        _em_terms[:] = ln_n, inv_sqrt_n
    return ln_n[:count], inv_sqrt_n[:count]


def zeta_half_line(t):
    """zeta(1/2 + it) by Euler-Maclaurin (intended for 0 <= t <= ~1000).
    Non-finite t and |t| > 1e8 are refused with DomainError, before the
    ~1.3 |t| terms of the sum are asked for."""
    if not (abs(t) <= _RS_MAX_T):
        raise DomainError(f"zeta_half_line: need finite |t| <= {_RS_MAX_T!r}, "
                          f"got {t!r}")
    import numpy as np
    s = 0.5 + 1j * t
    n_cut = max(16, int(1.3 * abs(t)) + 8)
    ln_n, inv_sqrt_n = _em_prefix(n_cut - 1)
    phase = t * ln_n
    main = complex(float(np.dot(inv_sqrt_n, np.cos(phase))),
                   -float(np.dot(inv_sqrt_n, np.sin(phase))))
    # every power of the cut in the tail is N^(-s) times an integer power of N
    p = cmath.exp(-s * math.log(n_cut))
    acc = main + n_cut * p / (s - 1.0) + 0.5 * p
    # Bernoulli tail: T_1 = s N^{-s-1} B_2/2!, ratio recurrence beyond
    pk = p / n_cut
    inv_n2 = 1.0 / (n_cut * n_cut)
    term = _EM_BERN[0] * s * pk
    acc += term
    num = s
    for k in range(1, len(_EM_BERN)):
        num *= (s + 2 * k - 1) * (s + 2 * k)
        pk *= inv_n2
        term = _EM_BERN[k] * num * pk
        acc += term
        if abs(term) < 1e-16 * abs(acc):
            break
    return acc


def _psi_rs(p):
    c = math.cos(2.0 * math.pi * p)
    if abs(c) < 5e-3:
        # removable singularity at p = 1/4, 3/4: Richardson from offsets
        d = 0.02
        return (4.0 * (_psi_rs(p + d) + _psi_rs(p - d))
                - (_psi_rs(p + 2 * d) + _psi_rs(p - 2 * d))) / 6.0
    return math.cos(2.0 * math.pi * (p * p - p - 0.0625)) / c


def _psi_rs_d3(p):
    h = 2e-3
    return (-_psi_rs(p - 2 * h) + 2.0 * _psi_rs(p - h)
            - 2.0 * _psi_rs(p + h) + _psi_rs(p + 2 * h)) / (2.0 * h ** 3)


def _hardy_z(t, theta):
    """Z(t) and the residual of riemann_siegel_z, given theta(t)."""
    if t <= _EM_MAX_T:
        zv = zeta_half_line(t) * cmath.exp(1j * theta)
        denom = max(abs(zv), 1e-300)
        return zv.real, abs(zv.imag) / denom
    import numpy as np
    a = math.sqrt(t / (2.0 * math.pi))
    n_cut = int(a)
    p = a - n_cut
    n = np.arange(1, n_cut + 1)
    main = 2.0 * float(np.sum(np.cos(theta - t * np.log(n)) / np.sqrt(n)))
    c0 = _psi_rs(p)
    c1 = -_psi_rs_d3(p) / (96.0 * math.pi ** 2)
    corr = (-1.0) ** (n_cut + 1) * a ** (-0.5) * (c0 + c1 / a)
    return main + corr, 0.0


def riemann_siegel_z(t):
    """Hardy Z(t): real, with Z(t) = e^{i theta(t)} zeta(1/2+it).

    Returns (Z, theta, residual) where residual is the relative imaginary
    leftover of the Euler-Maclaurin product (0.0 on the Riemann-Siegel
    branch, which is real by construction).
    """
    if not (t >= 0.0):
        raise DomainError(f"riemann_siegel_z: need t >= 0, got {t!r}")
    if _RS_MAX_T < t < math.inf:
        raise DomainError(f"riemann_siegel_z: t = {t!r} beyond {_RS_MAX_T!r}")
    theta, _ = _theta_and_lngamma_re(t)
    z, resid = _hardy_z(t, theta)
    return z, theta, resid


_XI_PREFACTOR = 0.5 / math.sqrt(2.0 * math.pi) * math.pi ** -0.25


def _scale_and_z(t):
    """e^(pi t/4 + Re ln Gamma(1/4 + it/2)) and Z(t), t > 0."""
    # one ln Gamma(1/4 + it/2) gives both theta and the scale
    theta, lg_re = _theta_and_lngamma_re(t)
    z, _ = _hardy_z(t, theta)
    return math.exp(0.25 * math.pi * t + lg_re), z


def _xi_over_root4(t):
    """g(t) = xibar(t) / t^(1/4) by the direct route, t > 0."""
    scale, z = _scale_and_z(t)
    return _XI_PREFACTOR * scale * z


def _xi_bar_direct(t):
    """xibar(t) by the direct route, t > 0."""
    scale, z = _scale_and_z(t)
    return _XI_PREFACTOR * t ** 0.25 * scale * z


# g on (0, 1000]; empty until the first argument lands in a cell
_g_table = TaylorTable(0.5 * STEP, chebyshev_coeffs(_xi_over_root4), _EM_MAX_T)


def xi_bar(t):
    """Rescaled Riemann xi on the critical line; real, sign changes exactly
    at the ordinates of the nontrivial zeta zeros.

    Assembled as (1/2) (2 pi)^(-1/2) pi^(-1/4) t^(1/4)
    e^(pi t/4 + Re ln Gamma(1/4 + it/2)) Z(t), which carries the sign of the
    Hardy Z function (negative just above t = 0, like zeta on the critical
    line).  With this orientation the first sign change is - to +, so the
    odd-numbered zero ordinates are the repelling directions of the
    u' = u/x + x xibar(u) flow, which is what the eigenvalue spectrum of
    y' = xibar(xy) keys off."""
    if not (t >= 0.0):
        raise DomainError(f"xi_bar: need t >= 0, got {t!r}")
    if t <= _EM_MAX_T:
        if t == 0.0:
            return 0.0
        return t ** 0.25 * _g_table(t)
    if _RS_MAX_T < t < math.inf:
        raise DomainError(f"xi_bar: t = {t!r} beyond {_RS_MAX_T!r}")
    warnings.warn("xi_bar accuracy degrades beyond t = 1000",
                  RuntimeWarning, stacklevel=2)
    return _xi_bar_direct(t)
