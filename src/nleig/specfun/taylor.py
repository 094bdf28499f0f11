"""Lazily filled Taylor tables.

A table keeps one Taylor expansion per centre c = lo + k/8, computes a
centre's coefficients once, the first time an argument lands in its cell,
and afterwards evaluates f by Horner's rule in x - c with |x - c| <= 1/16.
A cell's coefficients come from one of two places:

* a recurrence (``airy_coeffs``, ``bessel_coeffs``).  A solution f of a
  linear second-order ODE is fixed by the pair (f(c), f'(c)) at any regular
  point c, and the ODE turns that pair into every Taylor coefficient at c
  by a short recurrence; the caller computes the pair by an accurate (and
  slow) route.
* a Chebyshev fit (``chebyshev_coeffs``), for a function with no short ODE.
  f is sampled at the TERMS Chebyshev points of the cell, a DCT gives the
  coefficients of its Chebyshev interpolant, and only then are those
  turned into monomials in x - c.  (Composing the two steps into one
  matrix loses about three digits: its entries reach ~3e3 and cancel on
  the node values.)  The two matrices are numpy arrays built on the first
  fit of any cell, which is also when this module first imports numpy;
  the recurrence tables never do.

See Gil, Segura & Temme, Numerical Methods for Special Functions (SIAM
2007), ch. 3 and 9, and Trefethen, Approximation Theory and Approximation
Practice, ch. 4 and 8.
"""

import functools
import math

__all__ = ["TaylorTable", "airy_coeffs", "bessel_coeffs", "chebyshev_coeffs"]

# Centre spacing and expansion length.  For the recurrence tables the local
# frequency (or growth rate) f'/f stays below ~4, so the first dropped term
# is below (4/16)^TERMS / TERMS! < 1e-19 of the function's scale.  The
# fitted function of zeta.py is analytic in a strip of half-width 1/2, so
# its interpolants on cells of radius 1/16 converge like 16^-TERMS ~ 1e-17.
# Either way the rounding of the seeds (or of the samples) dominates.
STEP = 0.125
TERMS = 14
assert TERMS == 14, "TaylorTable.__call__ unrolls exactly 14 terms"


class TaylorTable:
    """f(x) for x >= lo from Taylor expansions at centres lo + k*STEP.

    ``coeffs_at(c)`` returns the TERMS Taylor coefficients of f at c, in
    ascending order.  Nothing is computed until a cell is first used; the
    callers keep x inside their band, so only the cells of that band are
    ever filled.  No centre lies beyond ``hi``: x == hi on the upper edge of
    the last cell is served by that cell.
    """

    __slots__ = ("lo", "hi", "_coeffs_at", "_cells")

    def __init__(self, lo, coeffs_at, hi=math.inf):
        self.lo = lo
        self.hi = hi
        self._coeffs_at = coeffs_at
        self._cells = {}

    def __call__(self, x):
        """f(x), from the expansion at the centre nearest to x."""
        k = int((x - self.lo) / STEP + 0.5)
        cell = self._cells.get(k)
        if cell is None:
            cell = self._fill(k)
        c, a = cell
        d = x - c
        # Horner's rule unrolled over the TERMS coefficients, highest first;
        # the leading 0.0 * d keeps even the sign of a zero result as the
        # loop s = s * d + ak from s = 0.0 would give it
        a13, a12, a11, a10, a9, a8, a7, a6, a5, a4, a3, a2, a1, a0 = a
        return ((((((((((((((0.0 * d + a13) * d + a12) * d + a11) * d + a10)
                            * d + a9) * d + a8) * d + a7) * d + a6) * d + a5)
                       * d + a4) * d + a3) * d + a2) * d + a1) * d + a0)

    def _fill(self, k):
        c = self.lo + k * STEP
        if c > self.hi:
            cell = self._cells.get(k - 1) or self._fill(k - 1)
        else:
            # Horner order: highest coefficient first
            cell = (c, tuple(reversed(self._coeffs_at(c))))
        self._cells[k] = cell
        return cell


def airy_coeffs(c, a0, a1):
    """Taylor coefficients at c of a solution of y'' = x y:
    (k+1)(k+2) a_{k+2} = c a_k + a_{k-1}."""
    a = [a0, a1, 0.5 * c * a0]
    for k in range(1, TERMS - 2):
        a.append((c * a[k] + a[k - 1]) / ((k + 1) * (k + 2)))
    return a


def bessel_coeffs(nu):
    """Coefficient recurrence of Bessel's equation x^2 y'' + x y' +
    (x^2 - nu^2) y = 0 at a centre c > 0:
    c^2 (k+1)(k+2) a_{k+2} = -[c (k+1)(2k+1) a_{k+1}
                               + (k^2 + c^2 - nu^2) a_k + 2c a_{k-1} + a_{k-2}]."""
    nu2 = nu * nu

    def coeffs(c, a0, a1):
        c2 = c * c
        a = [a0, a1]
        for k in range(TERMS - 2):
            s = c * (k + 1) * (2 * k + 1) * a[k + 1] + (k * k + c2 - nu2) * a[k]
            if k >= 1:
                s += 2.0 * c * a[k - 1]
            if k >= 2:
                s += a[k - 2]
            a.append(-s / (c2 * (k + 1) * (k + 2)))
        return a
    return coeffs


# Chebyshev points of the first kind, s_j = cos(theta_j), theta_j =
# pi (j + 1/2) / TERMS: all inside (-1, 1), so a fit never samples f on a
# cell edge
_THETA = [math.pi * (j + 0.5) / TERMS for j in range(TERMS)]


@functools.cache
def _chebyshev_matrices():
    """The two matrices of a fit, as numpy arrays built on the first cell
    fill (so importing this module loads no numpy):

    * the DCT, b_k = (2/TERMS) sum_j f(s_j) T_k(s_j), T_k(s_j) =
      cos(k theta_j), with b_0 halved;
    * entry (m, k): the coefficient of (x - c)^m in T_k((x - c) / h),
      h = STEP/2, from T_{k+1}(s) = 2 s T_k(s) - T_{k-1}(s)."""
    import numpy as np
    dct = np.array([[(1.0 if k else 0.5) * (2.0 / TERMS) * math.cos(k * th)
                     for th in _THETA] for k in range(TERMS)])
    cols = [[1] + [0] * (TERMS - 1), [0, 1] + [0] * (TERMS - 2)]
    while len(cols) < TERMS:
        prev, prev2 = cols[-1], cols[-2]
        cols.append([2 * (prev[m - 1] if m else 0) - prev2[m]
                     for m in range(TERMS)])
    # s^m = (x - c)^m / h^m, and 1/h = 16 makes the scaling exact
    t_to_d = np.array([[float(col[m]) * (2.0 / STEP) ** m for col in cols]
                       for m in range(TERMS)])
    return dct, t_to_d


def chebyshev_coeffs(f):
    """``coeffs_at`` for f from its Chebyshev interpolant on each cell.

    Both products are row sums of elementwise products (numpy's pairwise
    sum, not BLAS), so a cell's coefficients are the same floats on every
    run."""
    offsets = [0.5 * STEP * math.cos(th) for th in _THETA]

    def coeffs_at(c):
        import numpy as np
        dct, t_to_d = _chebyshev_matrices()
        fs = np.array([f(c + d) for d in offsets])
        b = (dct * fs).sum(axis=1)
        return (t_to_d * b).sum(axis=1).tolist()
    return coeffs_at
