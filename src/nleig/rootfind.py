"""Safeguarded scalar root finding used across the package.

Two workhorses: a bisection-safeguarded Newton iteration for problems where
a derivative (or a cheap finite-difference stand-in) is available, and a
plain bracket bisection for everything else.  Both insist on a genuine sign
change and keep every iterate inside the original bracket.
"""

import math


class RootError(RuntimeError):
    """No root found: the bracket carries no sign change."""


def bisect(f, lo, hi, xtol=1e-14):
    """Root of f in [lo, hi] by bisection.  f(lo) and f(hi) must differ in
    sign.  Stops once the bracket is within xtol + 4e-16 |mid|, on a zero
    of f, or after 200 halvings."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise RootError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if abs(hi - lo) <= xtol + 4e-16 * abs(mid):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def newton_safeguarded(f, fprime, x0, lo, hi, xtol=1e-14, rtol=4e-16,
                       flo=None, fhi=None):
    """Newton iteration from x0, falling back to bisection on [lo, hi].

    The bracket must carry a sign change; it shrinks as iterates land inside
    it, so even a stalling Newton step cannot escape.  Returns the abscissa
    once a step is within xtol + rtol |x|, on a zero of f, or after 100
    iterations.  flo and fhi, when given, are f(lo) and f(hi), which a
    caller that scanned for the bracket has at hand.  fprime(x) is always
    asked right after f(x).
    """
    if flo is None:
        flo = f(lo)
    if fhi is None:
        fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise RootError(f"no sign change on [{lo!r}, {hi!r}]")
    x = min(max(x0, lo), hi)
    fx = f(x)
    for _ in range(100):
        if fx == 0.0:
            return x
        # shrink the bracket with the fresh sample
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        d = fprime(x)
        if d != 0.0 and math.isfinite(d):
            step = fx / d
            x_new = x - step
        else:
            x_new = math.nan
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)  # bisection fallback
        if abs(x_new - x) <= xtol + rtol * abs(x_new):
            return x_new
        x = x_new
        fx = f(x)
    return x
