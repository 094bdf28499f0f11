"""Traced run: wrappers at the layer boundaries of nleig, installed from the
benchmark's own files and removed afterwards.

Each wrapper replaces a name where the calling layer looks it up at call
time: the right-hand-side closures reach the special functions through
``nleig.specfun.bessel._j_any`` and through names that ``nleig.models``
binds at import, so a wrapper on the public ``bessel_j`` alone would see
none of the shooting work.

Spans are timed at the models, spectrum, ode (``Engine.run``), cache, cli
and asymptotics boundaries and kept in memory as per-name totals of calls,
busy time and self time.  The special functions make millions of calls, so
they only add to per-bin counters.  A span's self time is its duration
minus its child spans and minus the special-function time spent inside it
and not inside a child.

Bins are fixed argument ranges frozen here as the seed commit routes them,
so a change that reroutes an evaluation band still reports into the same
bins.
"""

import math
import os
import time

BINS = ("cospi", "j_series", "j_quad", "j_hankel", "ai_maclaurin",
        "ai_bessel_quad", "ai_bessel_hankel", "rgamma_log", "xi_bar")
(_COSPI, _J_SERIES, _J_QUAD, _J_HANKEL, _AI_MAC, _AI_QUAD, _AI_HANKEL,
 _RGAMMA, _XI) = range(len(BINS))


# --- frozen Bessel routing of the seed commit -----------------------------

def _series_cancellation(nu, x):
    if x <= 2.0 * math.sqrt(nu + 1.0):
        return 0.0
    kstar = 0.5 * (math.hypot(nu, x) - nu)
    ln_max = ((nu + 2.0 * kstar) * math.log(0.5 * x)
              - math.lgamma(kstar + 1.0) - math.lgamma(nu + kstar + 1.0))
    ln_amp = 0.5 * math.log(2.0 / (math.pi * max(x, 1.0)))
    return ln_max - ln_amp


def _hankel_ok(nu, x):
    mu = 4.0 * nu * nu
    if x < 16.0:
        return False
    return mu / (8.0 * x) < 2.5 and 2.0 * x - mu / (8.0 * x) > 29.0


def _threshold(pred, lo, hi):
    """Smallest x in (lo, hi] with pred(x), for pred monotone in x."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def j_band_edges(nu):
    """(series_max, hankel_min): J_nu takes the ascending series for
    x <= series_max, the Hankel expansion for x >= hankel_min and the
    quadrature in between."""
    switch = max(12.0, 2.0 * nu)
    start = 2.0 * math.sqrt(abs(nu) + 1.0) if nu > -1.0 else 0.0
    if _series_cancellation(nu, switch) < 7.0:
        series_max = switch
    else:
        series_max = _threshold(lambda x: _series_cancellation(nu, x) >= 7.0,
                                min(start, switch), switch)
    hi = 16.0
    while not _hankel_ok(nu, hi):
        hi *= 2.0
    hankel_min = hi if hi == 16.0 else _threshold(
        lambda x: _hankel_ok(nu, x), 0.5 * hi, hi)
    return series_max, hankel_min


# Ai(-u) takes the Maclaurin pair for u <= 7 and the Bessel connection
# J_{+-1/3}((2/3) u^(3/2)) beyond, quadrature below the Hankel edge.
AI_MACLAURIN_U = 7.0
AI_HANKEL_U = (1.5 * j_band_edges(1.0 / 3.0)[1]) ** (2.0 / 3.0)


class Tracer:
    """Installs the wrappers, accumulates counters and spans, and turns
    them into the per-layer metrics."""

    def __init__(self):
        self.calls = [0] * len(BINS)
        self.busy = [0.0] * len(BINS)
        self.spec = [0, 0.0]         # all special-function calls, seconds
        self.layer = {}              # span name -> [calls, busy, self]
        self.stack = []              # open spans: [child_dur, child_spec]
        self.c = dict.fromkeys(
            ("engines", "steps", "nfev", "nfev_by_engine",
             "run_spec_calls", "horizon_ext", "shots", "eigs",
             "spec_nfev", "spec_steps", "spec_shots", "spec_ext",
             "find_eigen_calls", "zeros", "cache_hits", "bytes_read",
             "bytes_written"), 0)
        self.model_run = {}          # model spec -> [run s, self s, steps]
        self._spectrum_depth = 0
        self._model = None
        self._j_edges = {}
        self._saved = []

    # --- special functions -------------------------------------------------

    def _counted(self, fn, binner):
        calls, busy, spec = self.calls, self.busy, self.spec
        clock = time.perf_counter
        if isinstance(binner, int):
            b0 = binner

            def wrapper(*args):
                t0 = clock()
                try:
                    return fn(*args)
                finally:
                    dt = clock() - t0
                    calls[b0] += 1
                    busy[b0] += dt
                    spec[0] += 1
                    spec[1] += dt
        else:
            def wrapper(*args):
                t0 = clock()
                try:
                    return fn(*args)
                finally:
                    dt = clock() - t0
                    b = binner(*args)
                    calls[b] += 1
                    busy[b] += dt
                    spec[0] += 1
                    spec[1] += dt
        return wrapper

    def _j_bin(self, nu, x):
        edges = self._j_edges.get(nu)
        if edges is None:
            edges = self._j_edges[nu] = j_band_edges(nu)
        if x <= edges[0]:
            return _J_SERIES
        return _J_HANKEL if x >= edges[1] else _J_QUAD

    @staticmethod
    def _ai_bin(x):
        if x >= -AI_MACLAURIN_U:
            return _AI_MAC
        return _AI_HANKEL if x <= -AI_HANKEL_U else _AI_QUAD

    # --- spans -------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        """Wrap fn in a span.  before(args) returns a token for
        after(token, args, result, duration, self_time); both run outside
        the timed interval."""
        stack, spec = self.stack, self.spec
        agg = self.layer.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kw):
            token = before(args) if before else None
            result = None
            stack.append([0.0, 0.0])
            s0 = spec[1]
            t0 = clock()
            try:
                result = fn(*args, **kw)
                return result
            finally:
                dur = clock() - t0
                inner_spec = spec[1] - s0
                child_dur, child_spec = stack.pop()
                self_t = dur - child_dur - (inner_spec - child_spec)
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += inner_spec
                agg[0] += 1
                agg[1] += dur
                agg[2] += self_t
                if after:
                    after(token, args, result, dur, self_t)
        return wrapper

    # --- ode ---------------------------------------------------------------

    def _engine_init(self, fn):
        c = self.c

        def wrapper(eng, *args, **kw):
            fn(eng, *args, **kw)
            c["engines"] += 1
            eng._bench_nfev_seen = eng.nfev
            eng._bench_runs = 0
        return wrapper

    def _engine_run(self, fn):
        c, spec = self.c, self.spec

        def before(args):
            eng = args[0]
            return eng.nfev, eng.nsteps, spec[0]

        def after(token, args, result, dur, self_t):
            eng = args[0]
            nfev0, steps0, calls0 = token
            c["nfev"] += eng.nfev - nfev0
            c["steps"] += eng.nsteps - steps0
            c["run_spec_calls"] += spec[0] - calls0
            c["nfev_by_engine"] += eng.nfev - eng._bench_nfev_seen
            eng._bench_nfev_seen = eng.nfev
            if eng._bench_runs:
                c["horizon_ext"] += 1
            eng._bench_runs += 1
            acc = self.model_run.setdefault(self._model, [0.0, 0.0, 0])
            acc[0] += dur
            acc[1] += self_t
            acc[2] += eng.nsteps - steps0
        return self._span("ode.run", fn, before, after)

    # --- spectrum ----------------------------------------------------------

    def _spectrum(self, name, fn, eig_count):
        c = self.c

        def before(args):
            outer = self._spectrum_depth == 0
            self._spectrum_depth += 1
            if outer:
                self._model = args[0].spec
                return (c["nfev"], c["steps"], c["shots"], c["horizon_ext"])
            return None

        def after(token, args, result, dur, self_t):
            self._spectrum_depth -= 1
            if name == "spectrum.find_eigen":
                c["find_eigen_calls"] += 1
            if token is None:
                return
            self._model = None
            c["spec_nfev"] += c["nfev"] - token[0]
            c["spec_steps"] += c["steps"] - token[1]
            c["spec_shots"] += c["shots"] - token[2]
            c["spec_ext"] += c["horizon_ext"] - token[3]
            if result is not None:
                c["eigs"] += eig_count(result)
        return self._span(name, fn, before, after)

    def _counter(self, fn, key):
        c = self.c

        def wrapper(*args, **kw):
            c[key] += 1
            return fn(*args, **kw)
        return wrapper

    # --- cache and cli -----------------------------------------------------

    def _cache_load(self, fn):
        c = self.c

        def wrapper(cache):
            if os.path.exists(cache.path):
                c["bytes_read"] += os.path.getsize(cache.path)
            return fn(cache)
        return wrapper

    def _cache_get(self, fn):
        c = self.c

        def after(token, args, result, dur, self_t):
            if result is not None:
                c["cache_hits"] += 1
        return self._span("cache.get", fn, after=after)

    def _artifact(self, fn):
        c = self.c

        def after(token, args, result, dur, self_t):
            c["bytes_written"] += len(args[1].encode())
        return self._span("cli.artifact", fn, after=after)

    # --- install / remove --------------------------------------------------

    def _patch(self, obj, name, wrapper):
        self._saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, wrapper)

    def install(self):
        import nleig.specfun as sf
        from nleig import asymptotics, cache, cli, models, ode, spectrum
        from nleig.specfun import bessel
        P = self._patch
        # special functions, where each caller looks them up
        P(models, "cospi", self._counted(models.cospi, _COSPI))
        P(bessel, "_j_any", self._counted(bessel._j_any, self._j_bin))
        for mod in (models, sf):
            P(mod, "airy_ai", self._counted(mod.airy_ai, self._ai_bin))
            P(mod, "xi_bar", self._counted(mod.xi_bar, _XI))
        P(models, "recip_gamma_log",
          self._counted(models.recip_gamma_log, _RGAMMA))
        P(models, "recip_gamma", self._counted(models.recip_gamma, _RGAMMA))
        # models
        zt = models.ZeroTable
        c = self.c

        def zero_after(token, args, result, dur, self_t):
            c["zeros"] += 1
        P(zt, "_append_next",
          self._span("models.zero_table", zt._append_next, after=zero_after))
        # ode
        P(ode.Engine, "__init__", self._engine_init(ode.Engine.__init__))
        P(ode.Engine, "run", self._engine_run(ode.Engine.run))
        for mod in (spectrum, cli):
            P(mod, "count_maxima",
              self._span("ode.count_maxima", mod.count_maxima))
        # spectrum
        P(spectrum, "spectrum_scan",
          self._spectrum("spectrum.spectrum_scan", spectrum.spectrum_scan,
                         lambda r: len(r[0])))
        P(spectrum, "find_eigen",
          self._spectrum("spectrum.find_eigen", spectrum.find_eigen,
                         lambda r: 1))
        P(spectrum, "refine_backward",
          self._spectrum("spectrum.refine_backward", spectrum.refine_backward,
                         lambda r: 1))
        P(spectrum._Shooter, "shoot",
          self._counter(spectrum._Shooter.shoot, "shots"))
        # asymptotics
        for name in ("limit_curve_value", "growth_law"):
            P(asymptotics, name,
              self._span(f"asymptotics.{name}", getattr(asymptotics, name)))
        # cache
        ec = cache.EigenCache
        P(ec, "load", self._cache_load(ec.load))
        P(ec, "get", self._cache_get(ec.get))
        P(ec, "put", self._span("cache.put", ec.put))
        P(cli, "atomic_write_text", self._artifact(cli.atomic_write_text))
        # cli
        P(cli, "main", self._span("cli.main", cli.main))
        P(cli, "separatrix_curve",
          self._span("cli.separatrix_curve", cli.separatrix_curve))

    def remove(self):
        while self._saved:
            obj, name, orig = self._saved.pop()
            setattr(obj, name, orig)

    # --- metrics -----------------------------------------------------------

    def _lay(self, name):
        return self.layer.get(name, [0, 0.0, 0.0])

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        c = self.c
        out = {}
        for i, b in enumerate(BINS):
            n, s = self.calls[i], self.busy[i]
            out[f"specfun.{b}.calls"] = (n, "count")
            out[f"specfun.{b}.busy_s"] = (s, "s")
            out[f"specfun.{b}.us_per_call"] = (1e6 * s / n if n else 0.0, "us")
        zt = self._lay("models.zero_table")
        out["models.zero_table.zeros"] = (c["zeros"], "count")
        out["models.zero_table.busy_s"] = (zt[1], "s")
        run = self._lay("ode.run")
        steps, nfev, engines = c["steps"], c["nfev"], c["engines"]
        out["ode.engines"] = (engines, "count")
        out["ode.runs"] = (run[0], "count")
        out["ode.steps"] = (steps, "count")
        out["ode.nfev"] = (nfev, "count")
        out["ode.accept_ratio"] = (6.0 * steps / nfev if nfev else 0.0,
                                   "ratio")
        out["ode.self_s"] = (run[2], "s")
        out["ode.us_per_step"] = (1e6 * run[2] / steps if steps else 0.0, "us")
        out["ode.uncounted_fev"] = (c["run_spec_calls"] - nfev, "count")
        out["ode.count_maxima.busy_s"] = (self._lay("ode.count_maxima")[1],
                                          "s")
        eigs = c["eigs"]

        def per_eig(v):
            return v / eigs if eigs else 0.0
        out["spectrum.eigs"] = (eigs, "count")
        out["spectrum.shots_per_eig"] = (per_eig(c["spec_shots"]), "shots/eig")
        out["spectrum.horizon_ext_per_eig"] = (per_eig(c["spec_ext"]),
                                               "ext/eig")
        out["spectrum.nfev_per_eig"] = (per_eig(c["spec_nfev"]), "fev/eig")
        out["spectrum.steps_per_eig"] = (per_eig(c["spec_steps"]), "steps/eig")
        out["spectrum.find_eigen_calls"] = (c["find_eigen_calls"], "count")
        out["spectrum.self_s"] = (sum(self._lay(n)[2] for n in (
            "spectrum.spectrum_scan", "spectrum.find_eigen",
            "spectrum.refine_backward")), "s")
        lcv = self._lay("asymptotics.limit_curve_value")
        out["asymptotics.limit_curve_value.calls"] = (lcv[0], "count")
        out["asymptotics.limit_curve_value.busy_s"] = (lcv[1], "s")
        get, put = self._lay("cache.get"), self._lay("cache.put")
        out["cache.get.calls"] = (get[0], "count")
        out["cache.get.busy_s"] = (get[1], "s")
        out["cache.bytes_read"] = (c["bytes_read"], "B")
        out["cache.hit_ratio"] = (c["cache_hits"] / get[0] if get[0] else 0.0,
                                  "ratio")
        out["cache.put.calls"] = (put[0], "count")
        out["cache.put.busy_s"] = (put[1], "s")
        main, art = self._lay("cli.main"), self._lay("cli.artifact")
        out["cli.main.calls"] = (main[0], "count")
        out["cli.self_s"] = (main[2] + self._lay("cli.separatrix_curve")[2],
                             "s")
        out["cli.artifact.bytes_written"] = (c["bytes_written"], "B")
        out["cli.artifact.busy_s"] = (art[1], "s")
        return out

    def reconciliation(self):
        """Counts the benchmark's own tests check against each other."""
        c = self.c
        return {"nfev_run_deltas": c["nfev"],
                "nfev_by_engine": c["nfev_by_engine"],
                "specfun_calls_in_run": c["run_spec_calls"],
                "eigs": c["eigs"],
                "spans": sum(agg[0] for agg in self.layer.values())}
