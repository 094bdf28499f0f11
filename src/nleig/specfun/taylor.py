"""Lazily filled Taylor tables for solutions of linear second-order ODEs.

A solution f of a linear second-order ODE is fixed by the pair
(f(c), f'(c)) at any regular point c, and the ODE turns that pair into
every Taylor coefficient at c by a short recurrence.  The table keeps one
expansion per centre c = lo + k/8, computes a centre's seed pair once by an
accurate (and slow) route the first time an argument lands in its cell,
and afterwards evaluates f by Horner's rule in x - c with |x - c| <= 1/16.
See Gil, Segura & Temme, Numerical Methods for Special Functions (SIAM
2007), ch. 9.
"""

__all__ = ["TaylorTable", "airy_coeffs", "bessel_coeffs"]

# Centre spacing and expansion length.  For the tables in use the local
# frequency (or growth rate) f'/f stays below ~4, so the first dropped term
# is below (4/16)^TERMS / TERMS! < 1e-19 of the function's scale and the
# seeds' rounding dominates the error.
STEP = 0.125
TERMS = 14


class TaylorTable:
    """f(x) for x >= lo from Taylor expansions at centres lo + k*STEP.

    ``seed(c)`` returns (f(c), f'(c)); ``coeffs(c, a0, a1)`` returns the
    TERMS Taylor coefficients at c.  Nothing is computed until a cell is
    first used; the callers keep x inside their band, so only the cells of
    that band are ever filled.
    """

    __slots__ = ("lo", "_seed", "_coeffs", "_cells")

    def __init__(self, lo, seed, coeffs):
        self.lo = lo
        self._seed = seed
        self._coeffs = coeffs
        self._cells = {}

    def __call__(self, x):
        """f(x), from the expansion at the centre nearest to x."""
        k = int((x - self.lo) / STEP + 0.5)
        cell = self._cells.get(k)
        if cell is None:
            cell = self._fill(k)
        c, a = cell
        d = x - c
        s = 0.0
        for ak in a:
            s = s * d + ak
        return s

    def _fill(self, k):
        c = self.lo + k * STEP
        a0, a1 = self._seed(c)
        # Horner order: highest coefficient first
        cell = (c, tuple(reversed(self._coeffs(c, a0, a1))))
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
