"""Command-line surface: spectrum scans, separatrix export, limit curves,
walk coefficients, verification reports, SVG rendering, and a persistent
eigenvalue cache.

A separatrix is spectrum.separatrix_curve, the curve refine_backward
recorded; `verify` reports the records of the nleig.verify suites, which
the acceptance tests assert on.

Exit codes: 0 success, 1 computation failure (partial artifacts are still
written), 2 configuration error.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, specfun, spectrum, svgplot, verify
from .cache import EigenCache, atomic_write_text, record_line
from .models import make_model
from .ode import IntegratorConfig, curve_csv_text, curve_to_csv, count_maxima
from .specfun import DomainError
from .spectrum import ConfigError, _check_coords, separatrix_curve

_CONFIG_KEYS = {
    "model", "n", "tol", "rel_tol", "abs_tol", "x_max", "out", "cache",
    "coords", "svg", "alpha", "p_max", "points", "t_max", "method", "suite",
    "n_max", "no_cache",
}


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
    for k in ("rel_tol", "abs_tol", "x_max"):
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
    entries = []        # (record, its JSON line)
    errors = []
    mismatches = 0
    to_compute = []
    for n in ns:
        hit = cache.get(model.spec, n, tol, method, settings) if cache else None
        if hit is not None:
            print(f"cache hit: {model.spec} n={n} tol={tol:g}", file=sys.stderr)
            entries.append((hit, cache.line(hit)))
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
            entries.append((rec, cache.put(rec) if cache else record_line(rec)))
            if old_cache:
                old = old_cache.get(model.spec, res.n, tol, method, settings)
                if old is not None and abs(old["E"] - res.E) > tol * abs(res.E):
                    mismatches += 1
                    print(f"cache mismatch at n={res.n}: cached {old['E']!r} "
                          f"vs recomputed {res.E!r}", file=sys.stderr)
    entries.sort(key=lambda e: e[0]["n"])
    records = [rec for rec, _ in entries]
    base = os.path.join(out, f"spectrum_{model.spec.replace(':', '_')}")
    atomic_write_text(base + ".csv", spectrum.spectrum_csv_text(records))
    atomic_write_text(base + ".json", spectrum.spectrum_json_text(
        records, [line for _, line in entries]))
    for e in errors:
        print(f"n={e['n']}: {e['error']}", file=sys.stderr)
    return 1 if (errors or mismatches) else 0


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
    atomic_write_text(path, curve_csv_text(f"limit(alpha={alpha:g})", None,
                                           "limit", "t,z", lc.grid, lc.z))
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


def cmd_verify(rc, suite):
    if suite != "all" and suite not in verify.SUITES:
        raise ConfigError(f"unknown suite {suite!r}; pick from "
                          f"{sorted(verify.SUITES) + ['all']}")
    records = []
    for name in verify.SUITES if suite == "all" else [suite]:
        if name == "growth":
            records.extend(verify.growth(rc.get("model", "cos"),
                                         _number(rc, "n_max", 100, int),
                                         rc.get("method", "backward")))
        else:
            records.extend(verify.SUITES[name]())
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


@functools.cache
def build_parser():
    """The argparse tree, built once per process (argparse never changes
    it while parsing)."""
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
