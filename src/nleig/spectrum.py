"""Critical-initial-condition (eigenvalue) computation.

A trajectory's class is the number of completed oscillations: each minimum
of y marks the crossing of an unstable zero of F, so the class jumps from
n-1 to n exactly at the n-th eigenvalue.  When a run commits to a stable
asymptote, the attractor's index settles any count still in doubt; when it
is still hugging a separatrix at the horizon, the horizon is extended (the
deviation grows like exp(F' x^2 / 2), so doublings resolve fast).

find_eigen brackets the class jump around the growth-law prediction and
bisects with tight shots (_ode_cfg(tol, cfg)).  One backward run at the
same tight rel_tol first estimates E_n, and a midpoint farther from
that estimate than its error margin (10 n rel_tol, or the kind's
seed_floor(n) where that is larger) is decided by the estimate alone, with
no shot.  The two ends of the final bracket are then shot, where they were
decided unshot, and those shots alone give the evidence and the maxima
count.  The class is monotone in E, so an estimated decision that was not
the shot one leaves the jump outside the final bracket and fails an end
check; when both checks pass, the result is the no-estimate search's bit
for bit.  A failed check or an error sends the search round once more
with no estimate, and that is the one fallback.  Near-degenerate eigenvalues
(xibar's) put more than one jump within tol, so every final bracket is
narrowed further until it holds the n-th jump alone: a record depends on
its index only, never on the scan around it, and an E_n that shares a
pair of adjacent doubles with E_{n+1} is that index's BracketError.
refine_backward instead seeds the large-x expansion of u = xy at
the n-th unstable zero and integrates backward to read E off at the origin.
An eigenvalue run starts where backward contraction has erased the seed's
error (rgamma: where the seed's correction is small), since the farther
stretch changes nothing in E.  It records nothing and counts its maxima
off the step ends (ode.count_maxima), as the recorded run would.  The one
recorded separatrix of an index is separatrix_curve's: the same run from
farther out, where the exported curve starts, converted to the requested
coordinates after refusing the coordinates a model cannot run in, and
returned with its EigenResult, whose .curve it is.
"""

import math
from dataclasses import dataclass, field

from .cache import record_line
from .rootfind import RootError
from .models import Frame, zero_table
from .ode import Engine, IntegratorConfig, SolutionCurve, count_maxima
from .specfun import DomainError

__all__ = [
    "EigenResult", "classify", "find_eigen", "refine_backward",
    "separatrix_curve", "spectrum_scan", "spectrum_csv_text",
    "spectrum_json_text", "BracketError", "ConfigError", "MIN_TOL",
]

_WIDEN = 1.6
_WIDEN_CAP = 40
_EXTENSIONS = 7

# finest relative tolerance any method accepts: bisection cannot resolve a
# finer one in binary64, and a backward run's rel_tol floor (1e-13) cannot
# meet one
MIN_TOL = 1e-12


class ConfigError(ValueError):
    """Settings that cannot run, refused before any integration."""


class BracketError(RuntimeError):
    """No class jump found after the widening cap, or E_n and E_{n+1} in
    one pair of adjacent doubles, where no bracket isolates E_n's jump."""


def _checked_tol(model, tol):
    """tol, or the model's default when None; refused unless finite and at
    least MIN_TOL."""
    if tol is None:
        return model.default_tol
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be a positive number, got {tol!r}")
    if tol < MIN_TOL:
        raise ConfigError(f"tol {tol!r} below {MIN_TOL:g} is not "
                          "resolvable in binary64")
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
    # the separatrix of a separatrix_curve result, in its requested
    # coordinates; not part of the record
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

    def shoot(self, y0, stop_at=None):
        """Integrate from the origin under the shooter's config, unrecorded;
        returns (class, signal, engine).  Raises RuntimeError when the run
        neither settles nor collapses by the last horizon, where its count
        of oscillations is not yet a class."""
        eng = Engine(self.frame, 0.0, y0, self.cfg, record=False,
                     max_minima=stop_at)
        return self.resume(eng)

    def resume(self, eng):
        """Run eng on from where it stopped, to its first horizon doubled
        up to _EXTENSIONS times, and classify it as shoot does: a run
        stopped by max_minima continues once its max_minima is raised."""
        y0 = eng.start[1]
        horizon = self.frame.horizon(y0, eng.cfg)
        ext = 0
        while True:
            if eng.x < horizon:
                eng.run(horizon)
                if eng.status != "reached_end":
                    break
            if ext == _EXTENSIONS:
                break
            horizon *= 2.0
            ext += 1
        if eng.status == "max_minima":
            return len(eng.minima), "maxima-jump", eng
        if eng.status in ("settled", "floor"):
            cls = self.frame.zeros.unstable_below(eng.terminal_u)
            return cls, "attractor-jump", eng
        raise RuntimeError(
            f"class of E={y0 * self.frame.y_scale!r} unresolved at the "
            f"horizon x={eng.x * self.frame.x_scale!r} "
            f"({len(eng.minima)} minima)")


def classify(model, E, cfg=None, n_hint=None):
    """Forward-integrate y' = F(xy), y(0) = E and return the class index
    (completed oscillations; ties broken by the attractor index).  Raises
    RuntimeError when the shot is unresolved at the horizon
    (_Shooter.shoot)."""
    if not (E > 0.0):
        raise ValueError("classify: need E > 0")
    sh = _Shooter(model, n_hint, cfg or IntegratorConfig())
    return sh.shoot(E / sh.frame.y_scale)[0]


def _backward_estimate(model, n, rel_tol):
    """E_n of one backward run (refine_backward) at rel_tol, abs_tol
    rel_tol * 1e-2, or None when the run raises."""
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2)
    try:
        return refine_backward(model, n, cfg=cfg).E
    except (BracketError, RootError, RuntimeError, OverflowError,
            DomainError):
        return None


def find_eigen(model, n, tol=None, cfg=None):
    """n-th eigenvalue by bisection on the classifier.

    The initial bracket is centered on the growth-law prediction with a
    +-50% margin and widened geometrically (factor 1.6, cap 40) until the
    class jumps from n-1 to n across it.

    Every shot runs at the tight tolerance _ode_cfg(tol, cfg), rel_tol rt.
    Before the search, one backward run (refine_backward at
    rel_tol rt, abs_tol rt 1e-2) estimates E_n as est; a point v with
    |v - est| > margin est, margin = max(model.seed_floor(n), 10 n rt) since
    the backward error grows with n, is answered v > est without a shot.
    A backward run that raises leaves no estimate, and every decision is a
    shot.  An estimated decision that a wrong class would turn into a wider
    bracket (widen) is shot instead; every other wrong decision leaves the
    jump outside the final bracket.  So the ends of that bracket are shot
    (where they were estimated): when lo is below class n and hi is not,
    every decision was the shot one and the result is that of the
    no-estimate search bit for bit, whatever the estimate.  lo's shot,
    which never reached the minima stop, supplies the maxima count.  When
    an end check fails, or the search raises (BracketError or
    RuntimeError), the search runs again with no estimate, reusing the
    shots already taken, and its result or error is the one reported.

    The shots stop at the n-th minimum, so hi's class reads at most n.
    The final bracket must hold E_n's jump alone: hi's run goes on to
    minimum n+1 or until it settles, and while it reads a class above n
    (E_{n+1} lies in the bracket too) or lo reads one below n-1 (E_{n-1}
    does), the bracket is bisected on with shots stopped at minimum
    n+1.  Every record is thus that of its own index, whatever the scan
    around it.  When lo and hi become adjacent doubles while hi reads above
    n, E_n and E_{n+1} coincide in binary64 at these settings and
    BracketError says so; while only lo reads below n-1, the record keeps
    that lo, and index n-1 is the one that fails.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"find_eigen: need integer n >= 1, got {n!r}")
    n = int(n)
    model.check_binary64(n)
    tol = _checked_tol(model, tol)
    sh = _Shooter(model, n, _ode_cfg(tol, cfg))
    frame = sh.frame
    rt = sh.cfg.rel_tol
    pred = model.predict(n)
    est = _backward_estimate(model, n, rt)
    if est is not None:
        est /= frame.y_scale
    margin = max(model.seed_floor(n), 10.0 * n * rt)
    cache = {}      # v -> (class, signal, engine) of the shot at v

    def shot(v):
        hit = cache.get(v)
        if hit is None:
            hit = cache[v] = sh.shoot(v, stop_at=n)
        return hit

    def search(use_estimate):
        """Final (lo, hi) of the bracket-and-bisect search, each decision
        far from the estimate taken from it when use_estimate, and every
        other decision a shot."""

        def above(v, widen=None):
            # an estimated answer equal to widen would widen the bracket,
            # which no end check would catch, so a shot has to give it
            if (use_estimate and est is not None
                    and abs(v - est) > margin * est and (v > est) != widen):
                return v > est
            return shot(v)[0] >= n

        lo, hi = 0.5 * pred, 1.5 * pred
        widened = 0
        while above(lo, True):
            lo /= _WIDEN
            widened += 1
            if widened > _WIDEN_CAP:
                raise BracketError(f"no class-{n - 1} floor found for n={n}")
        while not above(hi, False):
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
            if above(mid):
                hi = mid
            else:
                lo = mid
        return lo, hi

    try:
        lo, hi = search(True)
        sound = shot(lo)[0] < n <= shot(hi)[0]
    except (BracketError, RuntimeError):
        sound = False
    if not sound:
        lo, hi = search(False)
    # the final bracket, whose ends were both shot, is bisected on with
    # shots stopped at minimum n + 1 until it holds E_n's jump alone: hi
    # reads n past the minima stop and lo reads n - 1
    cls_lo, sig_lo, eng_lo = cache[lo]
    cls_hi, sig_hi, eng_hi = cache[hi]
    past = cls_hi       # hi's class read past n; a settled run's is final
    if sig_hi == "maxima-jump":
        eng_hi.max_minima = n + 1
        past = sh.resume(eng_hi)[0]
    while past > n or cls_lo < n - 1:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            if past > n:
                raise BracketError(
                    f"E_{n} and E_{n + 1} coincide in binary64 at these "
                    f"settings (between {lo * frame.y_scale!r} and "
                    f"{hi * frame.y_scale!r})")
            break       # E_{n-1} shares these doubles; its record says so
        cls, signal, eng = sh.shoot(mid, stop_at=n + 1)
        if cls < n:
            lo, cls_lo, sig_lo, eng_lo = mid, cls, signal, eng
        else:
            hi, cls_hi, sig_hi, past = mid, cls, signal, cls
    evid = {"lo_class": cls_lo, "lo_signal": sig_lo,
            "hi_class": cls_hi, "hi_signal": sig_hi,
            "classifier": ("maxima-jump" if sig_hi == "maxima-jump"
                           else "attractor-jump")}
    maxima = count_maxima(eng_lo.curve())
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


def refine_backward(model, n, cfg=None, tol=None, *, _export=False):
    """Eigenvalue read off at the origin of a backward-integrated
    separatrix, seeded on the n-th unstable zero s via the large-x
    expansion u(x0) = s - s/(x0^2 F'(s)).

    The kind's backward_start places the run.  rgamma runs in scaled
    coordinates, from the smallest t0 in [1.3, 3] where the seed's
    relative correction 1/(t0^2 F'(s)) is at most 4e-3 (from 3 where none
    is), since the stiff stretch beyond changes nothing in E.  Every other
    model runs in raw coordinates, from where backward contraction has
    erased the seed's error, x0^2 =
    max(x_t^2 + 90/F'(s), (1.3 x_t)^2) with x_t the turning point, unless
    the seed's first correction s/(x0^2 F'(s)) would leave the basin of
    s: it is kept within half the gap to s's nearer neighbour and a tenth
    of s, where F' keeps the sign of F'(s).  separatrix_curve passes
    _export to start the run where an exported curve starts: t0 = 3 for
    rgamma, otherwise out to where the correction is a tenth of that
    half-gap and 2 % of s.  maxima counts the run's every maximum
    (ode.count_maxima).  An eigenvalue run records nothing: it counts
    those maxima off its step ends, and the result carries no curve.  Only
    an _export run records, and its result carries the separatrix as
    .curve, in the run's coordinates, for separatrix_curve to convert.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"refine_backward: need integer n >= 1, got {n!r}")
    n = int(n)
    model.check_binary64(n)
    tol = _checked_tol(model, tol)
    cfg = _ode_cfg(tol, cfg)
    s = zero_table(model).nth_unstable(n).u
    frame, x0, y0 = model.backward_start(n, s, _export)
    eng = Engine(frame, x0, y0, cfg, direction=-1, record=_export)
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
                                 "seed_zero": s, "x0": x0 * frame.x_scale},
                       residual=est, maxima=count_maxima(curve),
                       model=model.spec, tol=tol,
                       z0=v if frame.coords == "scaled" else None,
                       log10_E=(math.log10(frame.y_scale)
                                + math.log10(max(v, 1e-300))),
                       curve=curve if _export else None)


def _check_coords(model, n, coords):
    """The coordinate and binary64 refusals of separatrix index n, before
    any run."""
    if coords not in ("raw", "scaled"):
        raise ConfigError(f"coords must be raw or scaled, got {coords!r}")
    model.check_binary64(n)
    if coords == "scaled" and not model.has_scaling:
        raise DomainError(f"{model.spec} has no scaled coordinates")
    if coords == "raw":
        model.check_raw(n)


def separatrix_curve(model, n, coords, tol=None, cfg=None):
    """Backward-refined separatrix as (EigenResult, SolutionCurve) in the
    requested coordinates: the curve refine_backward records from the
    export start, converted once its run's buffers are gone, and the
    result's .curve is that converted curve, so no unconverted copy
    outlives the call.  Raw runs start where the seed's first correction
    is a tenth of the half-gap from s to its nearer neighbour, so the
    curve runs out to where it sits that close to its asymptote; its E
    agrees with refine_backward's up to the integration error."""
    _check_coords(model, n, coords)
    res = refine_backward(model, n, cfg=cfg, tol=tol, _export=True)
    res.curve = Frame(model, n).convert(res.curve, coords)
    return res, res.curve


def spectrum_scan(model, n_range, tol=None, cfg=None, method="bisection"):
    """Eigenvalues for every index in n_range (increasing).

    method "bisection" shoots forward and bisects the classifier jump
    (find_eigen); "backward" integrates each separatrix down from its
    seeded asymptote (much faster for large indices, cross-validated by
    the bisection path at small ones).  Each index is computed on its own,
    so its record is find_eigen's or refine_backward's bit for bit, whatever
    the range.  Failures are recorded per index without aborting; the
    monotonicity of the successful results is verified.  The results carry
    no curves.  Returns (results, errors).
    """
    ns = list(n_range)
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_range must be nonempty and increasing")
    if method not in ("bisection", "backward"):
        raise ConfigError(f"method must be bisection or backward, "
                          f"got {method!r}")
    model.check_binary64(ns[-1])
    tol = _checked_tol(model, tol)
    results = []
    errors = []
    for n in ns:
        try:
            if method == "backward":
                res = refine_backward(model, n, cfg=cfg, tol=tol)
            else:
                res = find_eigen(model, n, tol=tol, cfg=cfg)
            results.append(res)
        except (BracketError, RootError, RuntimeError, OverflowError) as exc:
            errors.append({"n": n, "error": f"{type(exc).__name__}: {exc}"})
    for a, b in zip(results, results[1:]):
        if not (b.E > a.E):
            errors.append({"n": b.n,
                           "error": f"monotonicity violated: E_{b.n} <= E_{a.n}"})
    return results, errors


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
