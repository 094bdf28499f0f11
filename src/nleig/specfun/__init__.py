"""Self-contained special functions with documented binary64 accuracy.

Accuracy envelope (measured against high-precision references):

==============  =====================================================
bessel_j        rel <= ~2e-12 for orders up to ~15 and x <= 1e3
                (~3e-11 in the large-order turning zone); oscillation
                phase error <= 1e-8 absolute up to x = 1e6
airy_ai         rel <= 1e-10 away from zeros, abs <= 1e-12 near them
log_gamma       rel <= 1e-13 (abs floor ~5e-15 near the zeros x=1,2)
recip_gamma     rel <= 1e-12 away from zeros; exact 0 at integers
digamma         rel <= 1e-11
xi_bar          zeta to ~1e-10 over the supported band t <= 1000
                (Euler-Maclaurin); ~1e-5 to 1e-4 in the warned zone
                beyond (Riemann-Siegel, first two corrections);
                DomainError for finite t > 1e8.  xi_bar itself against
                mpmath, max abs error over uniform samples: 5e-16 on
                (0, 1e-3], 2.2e-14 on [0, 50], 8.6e-13 on [50, 1000]
                (|xibar| <= 4.2); the direct route it is fitted to
                reads 1.0e-15, 2.0e-14, 7.7e-13 on the same points
==============  =====================================================
"""

from dataclasses import dataclass

from .gammafn import (DomainError, PoleError, sinpi, cospi, log_gamma,
                      digamma, trigamma, digamma_root, digamma_root_seed,
                      recip_gamma, recip_gamma_log)
from .bessel import bessel_j, bessel_j_prime, bessel_j_zero
from .airy import airy_ai
from .zeta import zeta_half_line, riemann_siegel_z, xi_bar

__all__ = [
    "Accuracy", "DomainError", "PoleError",
    "sinpi", "cospi", "log_gamma", "digamma", "trigamma",
    "digamma_root", "digamma_root_seed", "recip_gamma", "recip_gamma_log",
    "bessel_j", "bessel_j_prime", "bessel_j_zero",
    "airy_ai",
    "zeta_half_line", "riemann_siegel_z", "xi_bar",
    "selftest",
]


@dataclass(frozen=True)
class Accuracy:
    """Accuracy target: relative tolerance plus an absolute floor near zeros."""
    rel_tol: float
    abs_floor: float

    def __post_init__(self):
        if not (1e-15 <= self.rel_tol <= 1e-6):
            raise ValueError(f"rel_tol {self.rel_tol!r} outside [1e-15, 1e-6]")
        if not (1e-300 <= self.abs_floor <= 1e-8):
            raise ValueError(f"abs_floor {self.abs_floor!r} outside [1e-300, 1e-8]")

    def ok(self, computed, reference):
        err = abs(computed - reference)
        return err <= self.abs_floor or err <= self.rel_tol * abs(reference)


def _golden_table():
    import math
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    return [
        ("bessel_j(0, 0)", bessel_j(0.0, 0.0), 1.0, Accuracy(1e-14, 1e-300)),
        ("bessel_j(1, 0)", bessel_j(1.0, 0.0), 0.0, Accuracy(1e-14, 1e-300)),
        ("bessel_j(0, j01)", bessel_j(0.0, 2.404825557695773), 0.0,
         Accuracy(1e-12, 1e-12)),
        ("airy_ai(0)", airy_ai(0.0), 0.3550280538878172, Accuracy(1e-12, 1e-300)),
        ("airy_ai(a1)", airy_ai(-2.338107410459767), 0.0, Accuracy(1e-10, 1e-10)),
        ("log_gamma(1)", log_gamma(1.0), 0.0, Accuracy(1e-13, 1e-300)),
        ("log_gamma(11)", log_gamma(11.0), math.log(3628800.0),
         Accuracy(1e-13, 1e-300)),
        ("recip_gamma(0)", recip_gamma(0.0), 0.0, Accuracy(1e-13, 1e-300)),
        ("recip_gamma(-0.5)", recip_gamma(-0.5), inv_sqrt_pi,
         Accuracy(1e-12, 1e-300)),
        ("recip_gamma(0.5)", recip_gamma(0.5), -0.5 * inv_sqrt_pi,
         Accuracy(1e-12, 1e-300)),
        ("digamma(1)", digamma(1.0), -0.5772156649015329,
         Accuracy(1e-11, 1e-300)),
        ("digamma(0.5)", digamma(0.5), -1.9635100260214235,
         Accuracy(1e-11, 1e-300)),
        ("digamma_root(1)", digamma_root(1), -0.5040830082644554,
         Accuracy(1e-12, 1e-300)),
        ("xi_bar(0)", xi_bar(0.0), 0.0, Accuracy(1e-13, 1e-300)),
    ]


def selftest(out=print):
    """Run the golden table; prints one PASS/FAIL line per entry."""
    failures = 0
    for name, got, want, acc in _golden_table():
        ok = acc.ok(got, want)
        failures += 0 if ok else 1
        out(f"{'PASS' if ok else 'FAIL'} {name}: got {got!r}, want {want!r}")
    return failures
