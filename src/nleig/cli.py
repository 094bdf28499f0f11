"""Command-line surface: spectrum scans, separatrix export, limit curves,
walk coefficients, verification suites, SVG rendering, and a persistent
eigenvalue cache.

A separatrix is the curve refine_backward recorded, converted by ode.Frame;
scaled_deviation_stats and three_sig are shared with the acceptance tests.

Exit codes: 0 success, 1 computation failure (partial artifacts are still
written), 2 configuration error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, spectrum, svgplot
from .cache import EigenCache, atomic_write_text
from .models import check_raw, make_model
from .ode import Frame, IntegratorConfig, curve_to_csv, count_maxima
from .specfun import DomainError
from . import specfun

_CONFIG_KEYS = {
    "model", "n", "tol", "rel_tol", "abs_tol", "h_init", "h_min", "h_max",
    "x_max", "out", "cache", "coords", "svg", "alpha", "p_max", "points",
    "t_max", "method", "suite", "n_max", "no_cache",
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Merged configuration: file values overridden by flags."""
    values: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path):
        vals = {}
        with open(path) as fh:
            for i, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{i}: expected key=value")
                k, v = (s.strip() for s in line.split("=", 1))
                if k not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{i}: unknown key {k!r}")
                vals[k] = v
        return cls(vals)

    def merge_flags(self, args, keys):
        for k in keys:
            v = getattr(args, k.replace("-", "_"), None)
            if v is not None and v is not False:
                self.values[k] = v
        return self

    def get(self, key, default=None):
        return self.values.get(key, default)


def _number(rc, key, default=None, kind=float):
    """Flag or config value key converted by kind; ConfigError if it does
    not convert.  A missing key gives default (unconverted)."""
    v = rc.get(key)
    if v is None:
        return default
    try:
        return kind(v)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {what}, got {v!r}") from None


def _parse_n_range(text):
    text = str(text)
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ConfigError(f"bad index range {text!r}") from None
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad index range {text!r}")
    return range(lo, hi + 1)


def _integrator_cfg(rc):
    kw = {}
    for k in ("rel_tol", "abs_tol", "h_init", "h_min", "h_max", "x_max"):
        v = _number(rc, k)
        if v is not None:
            kw[k] = v
    try:
        return IntegratorConfig(**kw) if kw else None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _tol(rc, method):
    """The --tol value, checked as find_eigen would check it."""
    tol = _number(rc, "tol")
    if tol is None:
        return None
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be a positive number, got {tol!r}")
    if method == "bisection" and tol < spectrum.MIN_BISECTION_TOL:
        raise ConfigError(f"tol {tol!r} below {spectrum.MIN_BISECTION_TOL:g} "
                          "is not resolvable by bisection in binary64")
    return tol


def _cache_path(rc):
    return rc.get("cache") or os.environ.get("NLEIG_CACHE") or ".nleig-cache.jsonl"


def _out_dir(rc):
    d = rc.get("out", ".")
    os.makedirs(d, exist_ok=True)
    return d


def cmd_spectrum(rc):
    model = make_model(rc.get("model", ""))
    ns = _parse_n_range(rc.get("n", "1..1"))
    method = rc.get("method", "bisection")
    if method not in ("bisection", "backward"):
        raise ConfigError(f"method must be bisection or backward, "
                          f"got {method!r}")
    tol = _tol(rc, method) or spectrum.default_tol(model)
    cfg = _integrator_cfg(rc)
    out = _out_dir(rc)
    cache_path = _cache_path(rc)
    no_cache = rc.get("no_cache")
    cache = None if no_cache else EigenCache(cache_path)
    # --no-cache recomputes every index and compares with any cached value
    old_cache = (EigenCache(cache_path)
                 if no_cache and os.path.exists(cache_path) else None)
    settings = EigenCache.settings_text(spectrum._ode_cfg(tol, cfg))
    records = []
    errors = []
    mismatches = 0
    to_compute = []
    for n in ns:
        hit = cache.get(model.spec, n, tol, method, settings) if cache else None
        if hit is not None:
            print(f"cache hit: {model.spec} n={n} tol={tol:g}", file=sys.stderr)
            records.append(hit)
        else:
            to_compute.append(n)
    if to_compute:
        results, errs = spectrum.spectrum_scan(
            model, to_compute, tol=tol, cfg=cfg, method=method)
        errors.extend(errs)
        for res in results:
            # stamped with the settings it was computed under (an escalated
            # xibar index carries its tighter tol)
            rec = EigenCache.stamp(res.to_record(), EigenCache.settings_text(
                spectrum._ode_cfg(res.tol, cfg)))
            records.append(rec)
            if cache:
                cache.put(rec)
            if old_cache:
                old = old_cache.get(model.spec, res.n, tol, method, settings)
                if old is not None and abs(old["E"] - res.E) > tol * abs(res.E):
                    mismatches += 1
                    print(f"cache mismatch at n={res.n}: cached {old['E']!r} "
                          f"vs recomputed {res.E!r}", file=sys.stderr)
    records.sort(key=lambda r: r["n"])
    base = os.path.join(out, f"spectrum_{model.spec.replace(':', '_')}")
    atomic_write_text(base + ".csv", spectrum.spectrum_csv_text(records))
    atomic_write_text(base + ".json", spectrum.spectrum_json_text(records))
    for e in errors:
        print(f"n={e['n']}: {e['error']}", file=sys.stderr)
    return 1 if (errors or mismatches) else 0


def _check_coords(model, n, coords):
    """The coordinate refusals of separatrix index n, before any run."""
    if coords == "scaled" and model.kind == "xibar":
        raise DomainError("xibar has no scaled coordinates")
    if coords == "raw":
        check_raw(model, n)


def separatrix_curve(model, n, coords, tol=None, cfg=None):
    """Backward-refined separatrix as (EigenResult, SolutionCurve) in the
    requested coordinates: the curve refine_backward recorded, converted."""
    _check_coords(model, n, coords)
    res = spectrum.refine_backward(model, n, cfg=cfg, tol=tol)
    return res, Frame(model, n).convert(res.curve, coords)


def cmd_separatrix(rc):
    model = make_model(rc.get("model", ""))
    ns = _parse_n_range(rc.get("n", "1"))
    coords = rc.get("coords", "scaled")
    if coords not in ("raw", "scaled"):
        raise ConfigError(f"coords must be raw or scaled, got {coords!r}")
    _check_coords(model, ns[-1], coords)
    tol = _tol(rc, "backward")
    cfg = _integrator_cfg(rc)
    out = _out_dir(rc)
    status = 0
    for n in ns:
        try:
            res, curve = separatrix_curve(model, n, coords, tol=tol, cfg=cfg)
        except Exception as exc:  # per-index report, keep going
            print(f"separatrix {model.spec} n={n}: {exc}", file=sys.stderr)
            status = 1
            continue
        base = os.path.join(
            out, f"separatrix_{model.spec.replace(':', '_')}_n{n}_{coords}")
        curve_to_csv(curve, base + ".csv")
        print(f"n={n}: E={res.E:.12g} maxima={count_maxima(curve)} "
              f"-> {base}.csv")
        if rc.get("svg"):
            overlay = None
            if coords == "scaled":
                ts = [i / 200.0 * 3.0 for i in range(201)]
                if model.kind == "rgamma":
                    zs = [asymptotics.rgamma_limit_curve(t) for t in ts]
                elif model.asym is not None:
                    zs = [asymptotics.limit_curve_value(model.asym.alpha, t)
                          for t in ts]
                else:
                    zs = None
                if zs is not None:
                    overlay = ("limit curve", ts, zs)
            svgplot.render_csv(base + ".csv", base + ".svg", overlay=overlay)
    return status


def cmd_limit_curve(rc):
    alpha = _number(rc, "alpha", math.nan)
    if not (alpha > -1.0):
        raise ConfigError("limit-curve requires alpha > -1")
    points = _number(rc, "points", 400, int)
    t_max = _number(rc, "t_max", 3.0)
    if points < 1 or not (0.0 <= t_max < math.inf):
        raise ConfigError("limit-curve requires points >= 1 and a finite "
                          "t_max >= 0")
    grid = np.linspace(0.0, t_max, points)
    # always sample the turning point exactly
    if not np.any(np.isclose(grid, 1.0)):
        grid = np.sort(np.append(grid, 1.0))
    lc = asymptotics.limit_curve(alpha, grid)
    out = _out_dir(rc)
    path = os.path.join(out, f"limit_alpha{alpha:g}.csv")
    lines = [f"# model=limit(alpha={alpha:g}), n=-, coords=limit", "t,z"]
    for t, z in zip(lc.grid, lc.z):
        lines.append(f"{t:.16e},{z:.16e}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"z(0)={lc.origin_value:.12g} -> {path}")
    if rc.get("svg"):
        svgplot.render_csv(path, path[:-4] + ".svg")
    return 0


def cmd_walk_coeffs(rc):
    p_max = _number(rc, "p_max", 10, int)
    if not (0 <= p_max <= asymptotics.WALK_P_MAX):
        raise ConfigError(f"p_max must lie in 0..{asymptotics.WALK_P_MAX}, "
                          f"got {p_max}")
    wc = asymptotics.walk_coefficients(p_max)
    out = _out_dir(rc)
    path = os.path.join(out, f"walk_coeffs_p{p_max}.csv")
    lines = ["p,numerator,denominator"]
    for p, v in enumerate(wc.values):
        lines.append(f"{p},{v.numerator},{v.denominator}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"{p_max + 1} coefficients -> {path}")
    return 0


def cmd_plot(rc, csv_path, out_path):
    if not os.path.exists(csv_path):
        raise ConfigError(f"no such CSV: {csv_path}")
    out_path = out_path or (csv_path[:-4] if csv_path.endswith(".csv")
                            else csv_path) + ".svg"
    svgplot.render_csv(csv_path, out_path)
    print(out_path)
    return 0


def cmd_specfun_selftest():
    failures = specfun.selftest(print)
    return 1 if failures else 0


# --- verification suites -------------------------------------------------

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


def verify_walk():
    closed = asymptotics.walk_coefficients(60)
    dp = asymptotics.walk_coefficients_dp(60)
    recs = [{"check": "walk-closed-form-vs-dp",
             "reference": "absorbing-walk resummation: -C_p/2^(2p+1)",
             "predicted": "exact equality p<=60",
             "measured": "equal" if closed.values == dp.values else "differs",
             "tolerance": 0,
             "status": "pass" if closed.values == dp.values else "fail"}]
    return recs


def verify_limits():
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


def verify_growth(model_spec="cos", n_max=100, method="backward"):
    model = make_model(model_spec)
    gl = asymptotics.growth_law(model)
    results, errs = spectrum.spectrum_scan(
        model, range(1, n_max + 1), tol=1e-8, method=method)
    if errs:
        return [{"check": "growth-spectrum", "reference": "spectrum scan",
                 "predicted": "no errors", "measured": str(errs),
                 "tolerance": 0, "status": "fail"}]
    ns = np.array([r.n for r in results], dtype=float)
    es = np.array([r.E for r in results])
    lo = max(20, n_max // 5)
    mask = ns >= lo
    slope, _ = np.polyfit(np.log(ns[mask]), np.log(es[mask]), 1)
    recs = [_record(f"growth-exponent-{model_spec}",
                    "log-log slope of E_n equals gamma",
                    gl.gamma_exp, float(slope), 0.01)]
    ratio = es[-1] / (gl.A * ns[-1] ** gl.gamma_exp)
    recs.append(_record(f"growth-amplitude-{model_spec}-n{n_max}",
                        f"E_n / (A n^gamma) -> 1 with A = {gl.A:.6f}",
                        1.0, float(ratio), 0.02))
    return recs


def verify_rgamma():
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
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
    _, curve = separatrix_curve(make_model("bessel:0"), n, "scaled",
                                tol=1e-8, cfg=cfg)
    t, z = curve.grid, curve.values

    def deviation(idx):
        zinf = [asymptotics.limit_curve_value(-0.5, float(tt)) for tt in t[idx]]
        return float(np.max(np.abs(z[idx] - np.array(zinf))))
    return (deviation(np.nonzero((t >= 0.1) & (t <= 0.9))[0][::5]),
            deviation(np.nonzero((t >= 0.45) & (t <= 0.55))[0]))


def verify_envelope():
    sup1, amp1 = scaled_deviation_stats(1000)
    sup2, amp2 = scaled_deviation_stats(2000)
    recs = [_record("envelope-sup-n2000",
                    "scaled eigensolution approaches the limit curve",
                    0.0, sup2, 5e-3),
            _record("envelope-ratio-1000-2000",
                    "oscillation amplitude scales like 1/lambda",
                    2.0, amp1 / amp2, 0.3)]
    return recs


_SUITES = {
    "walk": lambda rc: verify_walk(),
    "limits": lambda rc: verify_limits(),
    "growth": lambda rc: verify_growth(rc.get("model", "cos"),
                                       _number(rc, "n_max", 100, int),
                                       rc.get("method", "backward")),
    "rgamma": lambda rc: verify_rgamma(),
    "envelope": lambda rc: verify_envelope(),
}


def cmd_verify(rc, suite):
    if suite == "all":
        names = ["walk", "limits", "growth", "rgamma", "envelope"]
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ConfigError(f"unknown suite {suite!r}; pick from "
                          f"{sorted(_SUITES) + ['all']}")
    records = []
    for name in names:
        records.extend(_SUITES[name](rc))
    out = _out_dir(rc)
    path = os.path.join(out, f"verify_{suite}.json")
    atomic_write_text(path, json.dumps(records, indent=2, sort_keys=True,
                                       default=str) + "\n")
    ok = True
    for r in records:
        ok = ok and r["status"] == "pass"
        print(f"{r['status'].upper():4s} {r['check']}: measured {r['measured']} "
              f"(expected {r['predicted']}, tol {r['tolerance']}) "
              f"[{r['reference']}]")
    print(("all checks passed" if ok else "FAILURES present") + f" -> {path}")
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="nleig",
        description="Spectra of critical initial conditions of y'(x) = F(xy) "
                    "and their large-index asymptotics.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--config", help="key=value config file")
        q.add_argument("--out", help="output directory (default .)")

    q = sub.add_parser("spectrum", help="compute eigenvalues over an index range")
    common(q)
    q.add_argument("--model", help="cos | bessel:NU | airy | rgamma | xibar")
    q.add_argument("--n", help="index or range A..B")
    q.add_argument("--tol", help="relative bisection tolerance")
    q.add_argument("--method", choices=["bisection", "backward"])
    q.add_argument("--cache", help="cache path (or env NLEIG_CACHE)")
    q.add_argument("--no-cache", action="store_true",
                   help="recompute and compare against any cached values")
    for k in ("rel_tol", "abs_tol", "x_max"):
        q.add_argument(f"--{k.replace('_', '-')}", dest=k)

    q = sub.add_parser("separatrix", help="export a backward-refined separatrix")
    common(q)
    q.add_argument("--model")
    q.add_argument("--n")
    q.add_argument("--coords", choices=["raw", "scaled"])
    q.add_argument("--svg", action="store_true")
    q.add_argument("--tol")

    q = sub.add_parser("limit-curve", help="export the limit curve for an alpha")
    common(q)
    q.add_argument("--alpha")
    q.add_argument("--points")
    q.add_argument("--t-max", dest="t_max")
    q.add_argument("--svg", action="store_true")

    q = sub.add_parser("walk-coeffs", help="export walk-moment coefficients")
    common(q)
    q.add_argument("--p-max", dest="p_max")

    q = sub.add_parser("verify", help="run a verification suite")
    common(q)
    q.add_argument("suite", help="walk | limits | growth | rgamma | envelope | all")
    q.add_argument("--model")
    q.add_argument("--n-max", dest="n_max")
    q.add_argument("--method", choices=["bisection", "backward"])

    q = sub.add_parser("plot", help="render a produced CSV to SVG")
    q.add_argument("csv")
    q.add_argument("--out")

    q = sub.add_parser("specfun-selftest", help=argparse.SUPPRESS)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = RunConfig()
        if getattr(args, "config", None):
            rc = RunConfig.load(args.config)
        rc.merge_flags(args, _CONFIG_KEYS)
        if args.command == "spectrum":
            return cmd_spectrum(rc)
        if args.command == "separatrix":
            return cmd_separatrix(rc)
        if args.command == "limit-curve":
            return cmd_limit_curve(rc)
        if args.command == "walk-coeffs":
            return cmd_walk_coeffs(rc)
        if args.command == "verify":
            return cmd_verify(rc, args.suite)
        if args.command == "plot":
            return cmd_plot(rc, args.csv, args.out)
        if args.command == "specfun-selftest":
            return cmd_specfun_selftest()
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (spectrum.BracketError, OverflowError, RuntimeError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
