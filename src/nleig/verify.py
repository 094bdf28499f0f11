"""Verification suites: the paper's checkable claims as report records.

Each suite returns a list of records {check, reference, predicted,
measured, tolerance, status}, where reference names the quoted value or
closed form the check tests against.  `nleig verify` writes these records
as its JSON report, and the acceptance tests assert on the same records,
so every check has one implementation.
"""

import math

from . import asymptotics, spectrum
from .models import make_model
from .ode import IntegratorConfig
from .spectrum import ConfigError


def _record(check_id, reference, predicted, measured, tolerance):
    ok = (abs(measured - predicted) <= tolerance) if \
        isinstance(predicted, float) else bool(measured == predicted)
    return {"check": check_id, "reference": reference,
            "predicted": predicted, "measured": measured,
            "tolerance": tolerance, "status": "pass" if ok else "fail"}


def three_sig(value, quoted):
    """Agreement to three significant digits with a quoted figure."""
    scale = 10.0 ** math.floor(math.log10(abs(quoted)))
    return abs(value - quoted) <= 0.005 * scale * 1.001


def walk():
    """Walk moments: the closed form against the dynamic program, p <= 60."""
    closed = asymptotics.walk_coefficients(60)
    dp = asymptotics.walk_coefficients_dp(60)
    return [{"check": "walk-closed-form-vs-dp",
             "reference": "absorbing-walk resummation: -C_p/2^(2p+1)",
             "predicted": "exact equality p<=60",
             "measured": "equal" if closed.values == dp.values else "differs",
             "tolerance": 0,
             "status": "pass" if closed.values == dp.values else "fail"}]


def limits():
    """Limit-curve identities: z(1) = 1, z(0) and the 2^8 product."""
    recs = []
    for alpha in (-0.9, -0.5, 0.0, 1.0, 5.0):
        z1 = asymptotics.limit_curve_value(alpha, 1.0)
        recs.append(_record(f"limit-z(1)-alpha={alpha:g}",
                            "turning-point matching z(1) = 1",
                            1.0, z1, 1e-12))
    z0b = asymptotics.limit_curve_value(-0.5, 0.0)
    recs.append(_record("limit-z(0)-alpha=-0.5", "closed form 2^(10/21)",
                        2.0 ** (10.0 / 21.0), z0b, 1e-12))
    z0c = asymptotics.limit_curve_value(0.0, 0.0)
    recs.append(_record("limit-z(0)-alpha=0", "closed form 2^(1/3)",
                        2.0 ** (1.0 / 3.0), z0c, 1e-12))
    worst = 0.0
    for i in range(200):
        t = (i + 0.5) / 200.0
        z = asymptotics.limit_curve_value(-0.5, t)
        lhs = ((4.0 * math.sqrt(z ** 3) - 3.0 * math.sqrt(z ** 3 - t)) ** 4
               * (math.sqrt(z ** 3) + math.sqrt(z ** 3 - t)) ** 3)
        worst = max(worst, abs(lhs - 256.0) / 256.0)
    recs.append(_record("limit-bessel-identity-200pts",
                        "product identity equal to 2^8 at alpha=-1/2",
                        0.0, worst, 1e-10))
    return recs


def growth(model_spec="cos", n_max=100, method="backward", tol=1e-8,
           cfg=None):
    """Growth law E_n ~ A n^gamma: the log-log slope of E_n from
    n = max(20, n_max // 5) on, and E_n_max / (A n_max^gamma).  Settings
    that cannot run raise ConfigError before any integration."""
    model = make_model(model_spec)
    if model.asym is None:
        raise ConfigError(f"model {model_spec!r} has no growth law")
    if n_max < 21:
        raise ConfigError(f"n_max must be at least 21, two points for the "
                          f"growth fit from n = 20, got {n_max}")
    model.check_binary64(n_max)
    gl = asymptotics.growth_law(model)
    lo = max(20, n_max // 5)
    results, errs = spectrum.spectrum_scan(
        model, range(1, n_max + 1), tol=tol, cfg=cfg, method=method)
    if errs:
        return [{"check": "growth-spectrum", "reference": "spectrum scan",
                 "predicted": "no errors", "measured": str(errs),
                 "tolerance": 0, "status": "fail"}]
    import numpy as np
    ns = np.array([r.n for r in results], dtype=float)
    es = np.array([r.E for r in results])
    mask = ns >= lo
    slope, _ = np.polyfit(np.log(ns[mask]), np.log(es[mask]), 1)
    recs = [_record(f"growth-exponent-{model_spec}",
                    "log-log slope of E_n equals gamma",
                    gl.gamma_exp, float(slope), 0.01)]
    ratio = es[-1] / gl.predict(ns[-1])
    recs.append(_record(f"growth-amplitude-{model_spec}-n{n_max}",
                        f"E_n / (A n^gamma) -> 1 with A = {gl.A:.6f}",
                        1.0, float(ratio), 0.02))
    return recs


def rgamma():
    """The published reciprocal-gamma E_10, E_20 and their asymptotes."""
    rg = make_model("rgamma")
    eig = lambda n: spectrum.find_eigen(rg, n, tol=1e-8).E
    asym = asymptotics.rgamma_asymptote
    checks = [("rgamma-E10", eig(10), "5.50e8"),
              ("rgamma-E20", eig(20), "2.86e23"),
              ("rgamma-asymptote-10", asym(10), "4.98e8"),
              ("rgamma-asymptote-20", asym(20), "2.68e23")]
    return [{"check": check, "reference": f"published value {quoted}",
             "predicted": float(quoted), "measured": value,
             "tolerance": "3 sig. digits",
             "status": "pass" if three_sig(value, float(quoted)) else "fail"}
            for check, value, quoted in checks]


def scaled_deviation_stats(n):
    """(sup, amp) of the scaled bessel:0 separatrix n against the limit
    curve z_inf (alpha = -1/2): sup |z - z_inf| over every fifth sample on
    0.1 <= t <= 0.9, and the largest |z - z_inf| on 0.45 <= t <= 0.55."""
    import numpy as np
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
    _, curve = spectrum.separatrix_curve(make_model("bessel:0"), n, "scaled",
                                         tol=1e-8, cfg=cfg)
    t, z = curve.grid, curve.values

    def deviation(idx):
        zinf = [asymptotics.limit_curve_value(-0.5, float(tt)) for tt in t[idx]]
        return float(np.max(np.abs(z[idx] - np.array(zinf))))
    return (deviation(np.nonzero((t >= 0.1) & (t <= 0.9))[0][::5]),
            deviation(np.nonzero((t >= 0.45) & (t <= 0.55))[0]))


def envelope():
    """Scaled bessel:0 separatrices against the limit curve, n = 1000, 2000."""
    sup1, amp1 = scaled_deviation_stats(1000)
    sup2, amp2 = scaled_deviation_stats(2000)
    return [_record("envelope-sup-n2000",
                    "scaled eigensolution approaches the limit curve",
                    0.0, sup2, 5e-3),
            _record("envelope-ratio-1000-2000",
                    "oscillation amplitude scales like 1/lambda",
                    2.0, amp1 / amp2, 0.3)]


# suite name -> function, in the order of `nleig verify all`
SUITES = {"walk": walk, "limits": limits, "growth": growth,
          "rgamma": rgamma, "envelope": envelope}

