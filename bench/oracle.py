"""Correctness oracle: every operation's output is checked, and any miss
fails the operation.

The checks:

* each E is within the recorded tolerance of ``reference.json``, which was
  computed at the seed commit (``record_reference.py``);
* the paper's invariants: the n-th separatrix has n maxima; the bisection
  evidence brackets the class jump (class n-1 below, class >= n above);
  the spectrum strictly increases within each model; the criterion-5
  envelope bounds hold (sup <= 5e-3 at n=2000, amplitude ratio
  n=1000/n=2000 in [1.7, 2.3]);
* for the CLI: exit code 0, one CSV row per index and one "cache hit"
  line per cached index.

Two invariants do not hold exactly at the seed commit: ``count_maxima``
misses the exponentially small late maxima of the rgamma separatrices
(n >= 6), and ``find_eigen`` records the classes of its *initial* bracket,
so ``lo_class`` can sit below n-1.  Where an output differs from the paper
value but equals the value recorded at the seed, it passes and is counted
as a known deviation, printed with every run; any other value fails.
"""

import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

SUP_MAX = 5e-3
RATIO_RANGE = (1.7, 2.3)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["records"]


def ref_key(spec, n, method):
    return f"{spec}|{n}|{method}"


def _log10(rec):
    e = rec["E"]
    if math.isfinite(e) and e > 0.0:
        return math.log10(e)
    return rec.get("log10_E", math.nan)


class Verdict:
    """Failures and known deviations of one operation."""

    def __init__(self):
        self.failures = []
        self.deviations = []

    @property
    def ok(self):
        return not self.failures


def _check_record(rec, spec, method, ref, v):
    n = rec["n"]
    want = ref.get(ref_key(spec, n, method))
    if want is None:
        v.failures.append(f"{spec} n={n}: no reference value")
        return
    e, e_ref = rec["E"], want["E"]
    if not (abs(e - e_ref) <= want["tol"] * abs(e_ref)):
        v.failures.append(f"{spec} n={n}: E={e!r} vs reference {e_ref!r} "
                          f"(tol {want['tol']:g})")
    _paper_or_seed(v, f"{spec} n={n} maxima", rec.get("maxima"), n,
                   want["maxima"])
    if method == "bisection":
        ev = rec.get("evidence", {})
        if not ev.get("hi_class", -1) >= n:
            v.failures.append(f"{spec} n={n}: hi_class "
                              f"{ev.get('hi_class')!r} < {n}")
        _paper_or_seed(v, f"{spec} n={n} lo_class", ev.get("lo_class"),
                       n - 1, want["lo_class"])


def _paper_or_seed(v, what, got, paper, seed):
    if got == paper:
        return
    if got == seed:
        v.deviations.append(f"{what} = {got} (paper {paper}; as at the seed)")
    else:
        v.failures.append(f"{what} = {got!r}, expected {paper}")


def _check_cli(out, ref, v):
    op, extra = out.op, out.extra
    if extra.get("code") != 0:
        v.failures.append(f"cli exit code {extra.get('code')!r}")
    hits = extra.get("stderr", "").count("cache hit")
    if hits != op.hits:
        v.failures.append(f"cli: {hits} cache hits, expected {op.hits}")
    lines = extra.get("csv", "").splitlines()
    if not lines or lines[0] != "n,E,residual,method,maxima":
        v.failures.append("cli: missing CSV header")
        return
    recs = []
    for line in lines[1:]:
        n, e, _, method, maxima = line.split(",")
        recs.append({"n": int(n), "E": float(e), "method": method,
                     "maxima": int(maxima) if maxima else None})
    if [r["n"] for r in recs] != op.ns:
        v.failures.append(f"cli: CSV rows for n={[r['n'] for r in recs]}, "
                          f"expected {op.ns[0]}..{op.ns[-1]}")
    for r in recs:
        _check_record(r, op.spec, op.method, ref, v)
    for a, b in zip(recs, recs[1:]):
        if not b["E"] > a["E"]:
            v.failures.append(f"cli monotonicity: E_{b['n']} <= E_{a['n']}")


def check(outcomes, ref):
    """Check one pass.  Returns (verdicts, records delivered by ok ops)."""
    verdicts = [Verdict() for _ in outcomes]
    by_model = {}
    envelope = {}
    for out, v in zip(outcomes, verdicts):
        op = out.op
        if out.error:
            v.failures.append(out.error)
        if op.kind == "cli":
            _check_cli(out, ref, v)
            continue
        method = "separatrix" if op.kind == "separatrix" else op.method
        got = [r["n"] for r in out.records]
        if got != op.ns:
            v.failures.append(f"{op.spec}: records for n={got}, "
                              f"expected {op.ns}")
        for rec in out.records:
            _check_record(rec, op.spec, method, ref, v)
            by_model.setdefault((op.spec, method), []).append((rec, v))
        if op.kind == "separatrix" and "amp" in out.extra:
            envelope[op.ns[0]] = (out.extra, v)
    for items in by_model.values():
        items.sort(key=lambda item: item[0]["n"])
        for (a, _), (b, vb) in zip(items, items[1:]):
            if not _log10(b) > _log10(a):
                vb.failures.append(f"monotonicity: E_{b['n']} <= E_{a['n']}")
    if len(envelope) == 2:
        (lo_stats, v_lo), (hi_stats, v_hi) = (envelope[n] for n in
                                              sorted(envelope))
        if not hi_stats["sup"] <= SUP_MAX:
            v_hi.failures.append(f"envelope sup {hi_stats['sup']:.3e} > "
                                 f"{SUP_MAX:g}")
        ratio = lo_stats["amp"] / hi_stats["amp"]
        if not RATIO_RANGE[0] <= ratio <= RATIO_RANGE[1]:
            for v in (v_lo, v_hi):
                v.failures.append(f"envelope ratio {ratio:.3f} outside "
                                  f"{RATIO_RANGE}")
    delivered = sum(len(out.op.ns) for out, v in zip(outcomes, verdicts)
                    if v.ok)
    return verdicts, delivered
