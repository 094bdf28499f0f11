"""Critical-initial-condition (eigenvalue) computation.

A trajectory's class is the number of completed oscillations: each minimum
of y marks the crossing of an unstable zero of F, so the class jumps from
n-1 to n exactly at the n-th eigenvalue.  When a run commits to a stable
asymptote, the attractor's index settles any count still in doubt; when it
is still hugging a separatrix at the horizon, the horizon is extended (the
deviation grows like exp(F' x^2 / 2), so doublings resolve fast).

find_eigen brackets the class jump around the growth-law prediction and
bisects; refine_backward instead seeds the large-x expansion of u = xy at
the n-th unstable zero and integrates backward to read E off at the origin.
That one backward run records the separatrix, returned as EigenResult.curve;
separatrix_curve converts it to the requested coordinates, after refusing
the coordinates a model cannot run in.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .cache import record_line
from .rootfind import RootError
from .models import (Frame, check_binary64, check_raw, eval_F_prime,
                     zero_table)
from .ode import Engine, IntegratorConfig, SolutionCurve, count_maxima
from .specfun import DomainError, log_gamma

__all__ = [
    "EigenResult", "classify", "find_eigen", "refine_backward",
    "separatrix_curve", "spectrum_scan", "default_tol", "spectrum_csv_text",
    "spectrum_json_text", "BracketError", "ConfigError", "MIN_BISECTION_TOL",
]

_DEFAULT_TOL = {"cosine": 1e-10, "bessel": 1e-10, "airy": 1e-10,
                "rgamma": 1e-8, "xibar": 1e-6}

_WIDEN = 1.6
_WIDEN_CAP = 40
_EXTENSIONS = 7

# finest relative tolerance find_eigen accepts
MIN_BISECTION_TOL = 1e-12


class ConfigError(ValueError):
    """Settings that cannot run, refused before any integration."""


class BracketError(RuntimeError):
    """No class jump found after the widening cap."""

    def __init__(self, msg, at_lower_bound=False):
        super().__init__(msg)
        self.at_lower_bound = at_lower_bound


def default_tol(model):
    return _DEFAULT_TOL[model.kind]


def _checked_tol(model, tol, method):
    """tol, or the model's default when None; refused unless finite and
    positive and, for bisection, at least MIN_BISECTION_TOL."""
    if tol is None:
        return default_tol(model)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be a positive number, got {tol!r}")
    if method == "bisection" and tol < MIN_BISECTION_TOL:
        raise ConfigError(f"tol {tol!r} below {MIN_BISECTION_TOL:g} is not "
                          "resolvable by bisection in binary64")
    return tol


@dataclass
class EigenResult:
    n: int
    E: float
    bracket: tuple
    method: str                  # "bisection" | "backward"
    evidence: dict
    residual: float
    maxima: int | None
    model: str
    tol: float
    z0: float | None = None     # scaled initial value (when a scaling exists)
    log10_E: float | None = None
    # the recorded separatrix of a backward result; not part of the record
    curve: SolutionCurve | None = field(default=None, repr=False,
                                        compare=False)

    def to_record(self):
        rec = {"model": self.model, "n": self.n, "tol": self.tol,
               "E": self.E, "lo": self.bracket[0], "hi": self.bracket[1],
               "method": self.method, "evidence": self.evidence,
               "residual": self.residual, "maxima": self.maxima}
        if self.z0 is not None:
            rec["z0"] = self.z0
        if self.log10_E is not None:
            rec["log10_E"] = self.log10_E
        return rec


def _ode_cfg(tol, cfg):
    if cfg is not None:
        return cfg
    rt = min(1e-9, max(1e-13, 0.01 * tol))
    return IntegratorConfig(rel_tol=rt, abs_tol=rt * 1e-2)


class _Shooter:
    """Classification context: forward runs in one Frame."""

    def __init__(self, model, n=None, cfg=None):
        self.frame = Frame(model, n)
        self.cfg = cfg or IntegratorConfig()

    def shoot(self, y0, stop_at=None, record=False):
        """Integrate from the origin; returns (class, signal, engine)."""
        eng = Engine(self.frame, 0.0, y0, self.cfg, record=record,
                     max_minima=stop_at)
        horizon = self.frame.horizon(y0, self.cfg)
        eng.run(horizon)
        ext = 0
        while eng.status == "reached_end" and ext < _EXTENSIONS:
            horizon *= 2.0
            eng.run(horizon)
            ext += 1
        if eng.status == "max_minima":
            return len(eng.minima), "maxima-jump", eng
        if eng.status in ("settled", "floor"):
            cls = self.frame.zeros.unstable_below(eng.terminal_u)
            return cls, "attractor-jump", eng
        return len(eng.minima), "unresolved", eng


def classify(model, E, cfg=None, n_hint=None):
    """Forward-integrate y' = F(xy), y(0) = E and return the class index
    (completed oscillations; ties broken by the attractor index)."""
    if not (E > 0.0):
        raise ValueError("classify: need E > 0")
    sh = _Shooter(model, n_hint, cfg or IntegratorConfig())
    v = E / sh.frame.y_scale
    cls, _, _ = sh.shoot(v)
    return cls


def _predict(model, n):
    """Growth-law/asymptote prediction in the bisection variable."""
    if model.kind == "rgamma":
        return 1.0  # z(0) -> z_inf(0) = 1
    if model.kind == "xibar":
        u_n = zero_table(model).nth_unstable(n).u
        return 0.55 * math.sqrt(u_n)
    from .asymptotics import growth_law
    gl = growth_law(model)
    return gl.A * n ** gl.gamma_exp


def find_eigen(model, n, tol=None, cfg=None, seed=None, lo_bound=None,
               count_maxima_at_lo=True):
    """n-th eigenvalue by bisection on the classifier.

    The initial bracket is centered on the growth-law prediction with a
    +-50% margin and widened geometrically (factor 1.6, cap 40) until the
    class jumps from n-1 to n across it.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"find_eigen: need integer n >= 1, got {n!r}")
    n = int(n)
    check_binary64(model, n)
    tol = _checked_tol(model, tol, "bisection")
    sh = _Shooter(model, n, _ode_cfg(tol, cfg))
    frame = sh.frame
    pred = _predict(model, n) if seed is None else seed / frame.y_scale
    floor = None
    if lo_bound is not None:
        floor = lo_bound / frame.y_scale
    lo, hi = 0.5 * pred, 1.5 * pred
    if floor is not None:
        lo = max(lo, floor * (1.0 + 2.0 * tol))
        hi = max(hi, floor * (1.0 + 4.0 * tol))
    cache = {}

    def above(v):
        if v not in cache:
            cls, signal, _ = sh.shoot(v, stop_at=n)
            cache[v] = (cls >= n, cls, signal)
        return cache[v]

    widened = 0
    while True:
        if not above(lo)[0]:
            break
        if floor is not None and lo <= floor * (1.0 + 2.0 * tol):
            # hyperfine neighbor: the jump sits inside the margin sliver
            # just above the previous eigenvalue
            if above(floor)[0]:
                raise BracketError(
                    f"class >= {n} already at the lower bound {floor!r}",
                    at_lower_bound=True)
            hi, lo = lo, floor
            break
        lo /= _WIDEN
        if floor is not None:
            lo = max(lo, floor * (1.0 + 2.0 * tol))
        widened += 1
        if widened > _WIDEN_CAP:
            raise BracketError(f"no class-{n - 1} floor found for n={n}")
    while True:
        if above(hi)[0]:
            break
        hi *= _WIDEN
        widened += 1
        if widened > _WIDEN_CAP:
            raise BracketError(f"no class-{n} ceiling found for n={n}")
    for _ in range(300):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if above(mid)[0]:
            hi = mid
        else:
            lo = mid
    # evidence of the final bracket, whose ends were both shot already
    _, cls_lo, sig_lo = cache[lo]
    _, cls_hi, sig_hi = cache[hi]
    evid = {"lo_class": cls_lo, "lo_signal": sig_lo,
            "hi_class": cls_hi, "hi_signal": sig_hi,
            "classifier": ("maxima-jump" if sig_hi == "maxima-jump"
                           else "attractor-jump")}
    maxima = None
    if count_maxima_at_lo:
        _, _, eng = sh.shoot(lo, record=True)
        maxima = count_maxima(eng.curve())
    E = hi * frame.y_scale
    log10 = None
    z0 = None
    if frame.coords == "scaled":
        z0 = hi
        log10 = (math.log10(frame.y_scale) + math.log10(hi))
    return EigenResult(n=n, E=E, bracket=(lo * frame.y_scale, E),
                       method="bisection", evidence=evid,
                       residual=(hi - lo) / hi, maxima=maxima,
                       model=model.spec, tol=tol, z0=z0, log10_E=log10)


def refine_backward(model, n, cfg=None, tol=None):
    """Eigenvalue read off at the origin of a backward-integrated
    separatrix, seeded on the n-th unstable zero s via the large-x
    expansion u(x0) = s - s/(x0^2 F'(s)).

    rgamma runs in scaled coordinates from t0 = 3, every other model in
    raw ones.  The result carries the recorded separatrix as .curve, in
    those coordinates.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"refine_backward: need integer n >= 1, got {n!r}")
    n = int(n)
    check_binary64(model, n)
    tol = _checked_tol(model, tol, "backward")
    cfg = _ode_cfg(tol, cfg)
    table = zero_table(model)
    s = table.nth_unstable(n)
    try:
        fp = eval_F_prime(model, s.u)
    except OverflowError:
        if model.kind != "rgamma":
            raise
        fp = math.inf   # Gamma(2n) past binary64 (n >= 86): logs only below
    if not (fp > 0.0):
        raise RuntimeError(f"F'({s.u}) <= 0: not a separatrix asymptote")
    if model.kind == "rgamma":
        frame = Frame(model, n)
        x0 = 3.0
        # x0^2 F'(s) in raw units, via logs to dodge the huge factors, with
        # ln F'(s) = ln Gamma(s + 1) where F'(s) overflows; with s = lambda,
        # z(x0) = u(x0)/(lambda x0) is (1 - corr)/x0
        ln_fp = math.log(fp) if fp < math.inf else log_gamma(s.u + 1.0)
        ln_x2fp = (2.0 * math.log(x0) + math.log(frame.lam) - frame.ln_xi
                   + ln_fp)
        corr = math.exp(-ln_x2fp) if ln_x2fp < 700.0 else 0.0
        y0 = (1.0 - corr) / x0
    else:
        frame = Frame(model)
        # Start deep enough that (a) the first-correction seed is valid
        # (correction well inside the basin) and (b) the backward
        # contraction exp(-F'(x0^2-x_tp^2)/2) drives the residual seed
        # error below machine precision.  This stays out of the stiff
        # zone x F'(s) >> 1, where an explicit pair is stability-limited.
        x_turn = (s.u / 0.6 if model.kind == "xibar"  # y(x_turn) ~ 1
                  else Frame(model, n).x_scale)
        # half the narrower gap from s to its neighbouring zeros; xibar's
        # first zero has only an upper neighbour
        zs = table.ordinates(s.u)
        i = bisect_left(zs, s.u)
        below = s.u - zs[i - 1] if i else math.inf
        halfgap = 0.5 * min(zs[i + 1] - s.u, below)
        du_cap = min(0.1 * halfgap, 0.02 * s.u)
        x0 = math.sqrt(max(s.u / (fp * du_cap),
                           x_turn * x_turn + 90.0 / fp,
                           (1.3 * x_turn) ** 2))
        y0 = (s.u - s.u / (x0 * x0 * fp)) / x0
    eng = Engine(frame, x0, y0, cfg, direction=-1, record=True)
    eng.run(0.0)
    v = eng.y
    if not (v > 0.0) or not math.isfinite(v):
        raise RuntimeError(f"backward run blew up (y(0)={v!r}); "
                           "seed too far from the separatrix")
    curve = eng.curve({"model": model.spec, "n": n})
    E = v * frame.y_scale
    est = 10.0 * cfg.rel_tol
    return EigenResult(n=n, E=E, bracket=(E * (1.0 - est), E),
                       method="backward",
                       evidence={"classifier": "backward-seed",
                                 "seed_zero": s.u, "x0": x0 * frame.x_scale},
                       residual=est, maxima=count_maxima(curve),
                       model=model.spec, tol=tol,
                       z0=v if frame.coords == "scaled" else None,
                       log10_E=(math.log10(frame.y_scale)
                                + math.log10(max(v, 1e-300))),
                       curve=curve)


def _check_coords(model, n, coords):
    """The coordinate and binary64 refusals of separatrix index n, before
    any run."""
    if coords not in ("raw", "scaled"):
        raise ConfigError(f"coords must be raw or scaled, got {coords!r}")
    check_binary64(model, n)
    if coords == "scaled" and model.kind == "xibar":
        raise DomainError("xibar has no scaled coordinates")
    if coords == "raw":
        check_raw(model, n)


def separatrix_curve(model, n, coords, tol=None, cfg=None):
    """Backward-refined separatrix as (EigenResult, SolutionCurve) in the
    requested coordinates: the curve refine_backward recorded, converted."""
    _check_coords(model, n, coords)
    res = refine_backward(model, n, cfg=cfg, tol=tol)
    return res, Frame(model, n).convert(res.curve, coords)


def spectrum_scan(model, n_range, tol=None, cfg=None, method="bisection"):
    """Eigenvalues for every index in n_range (increasing).

    method "bisection" shoots forward and bisects the classifier jump;
    "backward" integrates each separatrix down from its seeded asymptote
    (much faster for large indices, cross-validated by the bisection path
    at small ones).  Failures are recorded per index without aborting; the
    monotonicity of the successful results is verified.  The results carry
    no curves, so a long backward scan holds no recorded separatrices.
    A xibar bisection seeds each index from the one before it, so it scans
    from n = 1 and returns the requested indices only.  Returns (results,
    errors).
    """
    ns = list(n_range)
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_range must be nonempty and increasing")
    if method not in ("bisection", "backward"):
        raise ConfigError(f"method must be bisection or backward, "
                          f"got {method!r}")
    check_binary64(model, ns[-1])
    tol = _checked_tol(model, tol, method)
    wanted = set(ns)
    if model.kind == "xibar" and method == "bisection":
        ns = range(1, ns[-1] + 1)
    results = []
    errors = []
    prev = None
    for n in ns:
        seed = None
        lo_bound = None
        if model.kind == "xibar" and prev is not None:
            table = zero_table(model)
            u_prev = table.nth_unstable(prev.n).u
            u_n = table.nth_unstable(n).u
            seed = prev.E * math.sqrt(u_n / u_prev)
            lo_bound = prev.E
        try:
            if method == "backward":
                res = refine_backward(model, n, cfg=cfg, tol=tol)
            else:
                try:
                    res = find_eigen(model, n, tol=tol, cfg=cfg, seed=seed,
                                     lo_bound=lo_bound)
                except BracketError as exc:
                    if not getattr(exc, "at_lower_bound", False) or prev is None:
                        raise
                    # hyperfine pair narrower than tol: re-tighten the
                    # previous eigenvalue, then retry this one in the gap
                    tight = max(tol * 1e-4, 1e-11)
                    prev_lo = results[-2].E if len(results) >= 2 else None
                    prev2 = find_eigen(model, prev.n, tol=tight, cfg=cfg,
                                       seed=prev.E, lo_bound=prev_lo,
                                       count_maxima_at_lo=False)
                    prev2.maxima = prev.maxima
                    results[-1] = prev2
                    prev = prev2
                    res = find_eigen(model, n, tol=tight, cfg=cfg,
                                     seed=prev2.E * (1.0 + 100.0 * tight),
                                     lo_bound=prev2.E)
            res.curve = None
            results.append(res)
            prev = res
        except (BracketError, RootError, RuntimeError, OverflowError) as exc:
            errors.append({"n": n, "error": f"{type(exc).__name__}: {exc}"})
    for a, b in zip(results, results[1:]):
        if not (b.E > a.E):
            errors.append({"n": b.n,
                           "error": f"monotonicity violated: E_{b.n} <= E_{a.n}"})
    return ([r for r in results if r.n in wanted],
            [e for e in errors if e["n"] in wanted])


def spectrum_csv_text(records):
    """CSV text (n,E,residual,method,maxima) of eigenvalue records, the
    dicts of EigenResult.to_record."""
    lines = ["n,E,residual,method,maxima"]
    for r in records:
        mx = r.get("maxima")
        lines.append(f"{r['n']},{r['E']:.16e},{r['residual']:.16e},"
                     f"{r['method']},{mx if mx is not None else ''}")
    return "\n".join(lines) + "\n"


def spectrum_json_text(records, lines=None):
    """JSON text of eigenvalue records: an array with one record per line,
    each line the record's cache.record_line.  lines, when given, are those
    lines already (as an EigenCache holds them), in the order of records."""
    if lines is None:
        lines = [record_line(r) for r in records]
    if not lines:
        return "[]\n"
    body = ",\n".join(lines)
    return f"[\n{body}\n]\n"
