"""Command-line surface: spectrum scans, separatrix export, limit curves,
walk coefficients, verification reports, SVG rendering, and a persistent
eigenvalue cache.

A separatrix is spectrum.separatrix_curve, the curve refine_backward
records from the farther start of an exported curve, written to its CSV
and drawn to its SVG from the same arrays, as a limit curve is; only
`plot` reads a CSV.  `verify` reports the records of the nleig.verify
suites, which the acceptance tests assert on.

Each setting is one entry of _KEYS, a flag and a config-file key, which
_run_config converts once.  The library function that uses a value
refuses a bad one; only what it cannot see (index ranges, points, t_max,
suite names, missing files) is checked here.

Exit codes: 0 success, 1 computation failure (partial artifacts are still
written), 2 configuration error, an OSError on a given path included.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import asymptotics, specfun, spectrum, svgplot, verify
from .cache import EigenCache, atomic_write_text, record_line
from .models import make_model
from .ode import IntegratorConfig, count_maxima, write_curve_csv
from .specfun import DomainError
from .spectrum import ConfigError, _check_coords, separatrix_curve


def _switch(text):
    """A switch value: "true" (what its flag stores) or "false"."""
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


_EXPECTED = {int: "an integer", float: "a number", _switch: "true or false"}

# every setting, key -> (conversion, help): the config-file key, and the
# flag --key with dashes for underscores (a switch's flag takes no value)
_KEYS = {
    "out": (str, "output directory (default .)"),
    "model": (str, "cos | bessel:NU | airy | rgamma | xibar"),
    "n": (str, "index or range A..B"),
    "tol": (float, "relative eigenvalue tolerance"),
    "method": (str, "bisection | backward"),
    "cache": (str, "cache path (or env NLEIG_CACHE)"),
    "no_cache": (_switch, "recompute and compare against any cached values"),
    "rel_tol": (float, "integrator relative tolerance"),
    "abs_tol": (float, "integrator absolute tolerance"),
    "x_max": (float, "first forward horizon (0: the model's own)"),
    "coords": (str, "raw | scaled"),
    "svg": (_switch, "also render the CSV as SVG"),
    "alpha": (float, "limit-curve exponent, finite and > -1"),
    "points": (int, "grid points on [0, t_max]"),
    "t_max": (float, "end of the grid"),
    "p_max": (int, "last coefficient index"),
    "n_max": (int, "last index of the growth fit"),
}

# command -> (help, the keys it takes as flags besides --out); a config
# file may hold any key of _KEYS
_COMMANDS = {
    "spectrum": ("compute eigenvalues over an index range",
                 ("model", "n", "tol", "method", "cache", "no_cache",
                  "rel_tol", "abs_tol", "x_max")),
    "separatrix": ("export a backward-refined separatrix",
                   ("model", "n", "coords", "svg", "tol")),
    "limit-curve": ("export the limit curve for an alpha",
                    ("alpha", "points", "t_max", "svg")),
    "walk-coeffs": ("export walk-moment coefficients", ("p_max",)),
    "verify": ("run a verification suite", ("model", "n_max", "method")),
}

# failures of a computation, not of its settings: exit 1
_COMPUTATION_ERRORS = (spectrum.BracketError, RuntimeError, OverflowError)


def _read_config(path):
    """key -> value text of a key = value file; unknown keys and text
    that is not UTF-8 refused."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
    vals = {}
    for i, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected key=value")
        k, v = (s.strip() for s in line.split("=", 1))
        if k not in _KEYS:
            raise ConfigError(f"{path}:{i}: unknown key {k!r}")
        vals[k] = v
    return vals


def _run_config(args):
    """The settings of a run: the --config file's values overridden by the
    flags given, each converted once by its key's conversion."""
    texts = _read_config(args.config) if args.config else {}
    for key in _KEYS:
        v = getattr(args, key, None)
        if v is not None:
            texts[key] = v
    rc = {}
    for key, v in texts.items():
        kind = _KEYS[key][0]
        try:
            rc[key] = kind(v)
        except ValueError:
            raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, "
                              f"got {v!r}") from None
    return rc


def _parse_n_range(text):
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
    kw = {k: rc[k] for k in ("rel_tol", "abs_tol", "x_max") if k in rc}
    return IntegratorConfig(**kw) if kw else None


def _cache_path(rc):
    return rc.get("cache") or os.environ.get("NLEIG_CACHE") or ".nleig-cache.jsonl"


def _out_dir(rc):
    d = rc.get("out", ".")
    os.makedirs(d, exist_ok=True)
    return d


def cmd_spectrum(rc):
    model = make_model(rc.get("model", ""))
    ns = _parse_n_range(rc.get("n", "1..1"))
    model.check_binary64(ns[-1])    # before any cache lookup of the range
    method = rc.get("method", "bisection")
    tol = spectrum._checked_tol(model, rc.get("tol"))
    cfg = _integrator_cfg(rc)
    base = os.path.join(_out_dir(rc),   # before any cache lookup or run
                        f"spectrum_{model.spec.replace(':', '_')}")
    cache = EigenCache(_cache_path(rc))     # read here, before any run
    # --no-cache recomputes every index and compares with any cached value
    no_cache = rc.get("no_cache")
    settings = EigenCache.settings_text(spectrum._ode_cfg(tol, cfg))
    entries = []        # (record, its JSON line)
    errors = []
    mismatches = 0
    to_compute = []
    for n in ns:
        hit = None if no_cache else cache.get(model.spec, n, tol, method,
                                              settings)
        if hit is not None:
            print(f"cache hit: {model.spec} n={n} tol={tol:g}", file=sys.stderr)
            entries.append((hit, cache.line(hit)))
        else:
            to_compute.append(n)
    if to_compute:
        results, errs = spectrum.spectrum_scan(
            model, to_compute, tol=tol, cfg=cfg, method=method)
        # the scan checks monotonicity among its own results only; the
        # check below covers every record reported, served ones too
        own = spectrum.monotonicity_errors([(r.n, r.E) for r in results])
        errors.extend(e for e in errs if e not in own)
        for res in results:
            rec = EigenCache.stamp(res.to_record(), settings)
            if no_cache:
                old = cache.get(model.spec, res.n, tol, method, settings)
                if old is not None and abs(old["E"] - res.E) > tol * abs(res.E):
                    mismatches += 1
                    print(f"cache mismatch at n={res.n}: cached {old['E']!r} "
                          f"vs recomputed {res.E!r}", file=sys.stderr)
                entries.append((rec, record_line(rec)))
            else:
                entries.append((rec, cache.put(rec)))
    entries.sort(key=lambda e: e[0]["n"])
    records = [rec for rec, _ in entries]
    errors += spectrum.monotonicity_errors([(r["n"], r["E"]) for r in records])
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
    _check_coords(model, ns[-1], coords)
    cfg = _integrator_cfg(rc)
    out = _out_dir(rc)
    status = 0
    for n in ns:
        try:
            res, curve = separatrix_curve(model, n, coords, tol=rc.get("tol"),
                                          cfg=cfg)
        except _COMPUTATION_ERRORS as exc:  # per-index report, keep going
            print(f"separatrix {model.spec} n={n}: {exc}", file=sys.stderr)
            status = 1
            continue
        base = os.path.join(
            out, f"separatrix_{model.spec.replace(':', '_')}_n{n}_{coords}")
        cols = "t,z" if coords == "scaled" else "x,y"
        write_curve_csv(base + ".csv", model.spec, n, coords, cols,
                        curve.grid, curve.values)
        print(f"n={n}: E={res.E:.12g} maxima={count_maxima(curve)} "
              f"-> {base}.csv")
        if rc.get("svg"):
            # memoryviews read the arrays as plain floats, copying nothing
            series = [(f"{model.spec} n={n}", memoryview(curve.grid),
                       memoryview(curve.values))]
            if coords == "scaled":
                ts = [i / 200.0 * 3.0 for i in range(201)]
                series.append(("limit curve", ts, model.limit_curve(ts)))
            svgplot.render_series(series, base + ".svg", *cols.split(","))
    return status


def cmd_limit_curve(rc):
    alpha = rc.get("alpha", math.nan)   # limit_curve_value refuses NaN
    points = rc.get("points", 400)
    t_max = rc.get("t_max", 3.0)
    if points < 1 or not (0.0 <= t_max < math.inf):
        raise ConfigError("limit-curve requires points >= 1 and a finite "
                          "t_max >= 0")
    import numpy as np
    grid = np.linspace(0.0, t_max, points)
    # always sample the turning point exactly
    if 1.0 not in grid:
        grid = np.sort(np.append(grid, 1.0))
    lc = asymptotics.limit_curve(alpha, grid)
    out = _out_dir(rc)
    path = os.path.join(out, f"limit_alpha{alpha:g}.csv")
    write_curve_csv(path, f"limit(alpha={alpha:g})", None, "limit", "t,z",
                    lc.grid, lc.z)
    print(f"z(0)={lc.origin_value:.12g} -> {path}")
    if rc.get("svg"):
        series = [(f"limit(alpha={alpha:g})", memoryview(lc.grid),
                   memoryview(lc.z))]
        svgplot.render_series(series, path[:-4] + ".svg", "t", "z")
    return 0


def cmd_walk_coeffs(rc):
    p_max = rc.get("p_max", 10)
    wc = asymptotics.walk_coefficients(p_max)
    out = _out_dir(rc)
    path = os.path.join(out, f"walk_coeffs_p{p_max}.csv")
    lines = ["p,numerator,denominator"]
    for p, v in enumerate(wc.values):
        lines.append(f"{p},{v.numerator},{v.denominator}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"{p_max + 1} coefficients -> {path}")
    return 0


def cmd_plot(csv_path, out_path):
    if not os.path.isfile(csv_path):
        raise ConfigError(f"no such CSV: {csv_path}")
    out_path = out_path or (csv_path[:-4] if csv_path.endswith(".csv")
                            else csv_path) + ".svg"
    try:
        svgplot.render_csv(csv_path, out_path)
    except ValueError as exc:   # no rows, or a row not two finite numbers
        raise ConfigError(f"cannot plot {csv_path}: {exc}") from None
    print(out_path)
    return 0


def cmd_specfun_selftest():
    failures = specfun.selftest(print)
    return 1 if failures else 0


def cmd_verify(rc, suite):
    if suite != "all" and suite not in verify.SUITES:
        raise ConfigError(f"unknown suite {suite!r}; pick from "
                          f"{sorted(verify.SUITES) + ['all']}")
    out = _out_dir(rc)
    records = []
    for name in verify.SUITES if suite == "all" else [suite]:
        if name == "growth":
            records.extend(verify.growth(rc.get("model", "cos"),
                                         rc.get("n_max", 100),
                                         rc.get("method", "backward")))
        else:
            records.extend(verify.SUITES[name]())
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
    it while parsing), with each command's flags from _COMMANDS."""
    p = argparse.ArgumentParser(
        prog="nleig",
        description="Spectra of critical initial conditions of y'(x) = F(xy) "
                    "and their large-index asymptotics.")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (what, keys) in _COMMANDS.items():
        q = sub.add_parser(command, help=what)
        if command == "verify":
            q.add_argument("suite", help=" | ".join([*verify.SUITES, "all"]))
        q.add_argument("--config", help="key=value config file")
        for key in ("out", *keys):
            kind, text = _KEYS[key]
            flag = "--" + key.replace("_", "-")
            if kind is _switch:
                q.add_argument(flag, dest=key, help=text,
                               action="store_const", const="true")
            else:
                q.add_argument(flag, dest=key, help=text)

    q = sub.add_parser("plot", help="render a produced CSV to SVG")
    q.add_argument("csv")
    q.add_argument("--out")

    sub.add_parser("specfun-selftest", help=argparse.SUPPRESS)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            return cmd_plot(args.csv, args.out)
        if args.command == "specfun-selftest":
            return cmd_specfun_selftest()
        rc = _run_config(args)
        if args.command == "verify":
            return cmd_verify(rc, args.suite)
        return {"spectrum": cmd_spectrum, "separatrix": cmd_separatrix,
                "limit-curve": cmd_limit_curve,
                "walk-coeffs": cmd_walk_coeffs}[args.command](rc)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _COMPUTATION_ERRORS as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
