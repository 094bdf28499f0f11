#!/usr/bin/env python3
"""nleig benchmark: one command, three closed-loop workloads.

    python3 bench/run.py --workload bisect-small|backward-large|cli-cache \\
        --seed N --seconds S --trace 0|1

The library is imported from the ``src`` directory next to ``bench``; the
command fails (exit 2, no result line) when it is missing.  Every run is a
fresh interpreter working in a fresh temporary directory under
``.bench_tmp`` with ``NLEIG_CACHE`` pointing inside it; the directory is
removed on exit and no bytecode is written.

``--trace 0`` measures the end-to-end metrics with no wrappers installed:
set-up is timed in this process and in further fresh interpreters (median
reported), then full passes over the workload's operations repeat while
another pass still fits in ``--seconds``.  Every time but that of the
package import is scaled to the reference host speed by the calibration
kernel of ``calib.py``, timed beside and during each timed section; the raw
wall times are printed with them.  ``--trace 1`` installs the layer wrappers of ``tracer.py``, runs
set-up and one traced pass, removes the wrappers and runs one untraced pass
to measure the tracing overhead; it reports the per-layer metrics.

Every output is checked by ``oracle.py``.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics.
"""

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import calib  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# set-up is timed at least this many times, more while they take < 3 s
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 3.0
TAIL_BEYOND = 10
# stop starting passes once this much is spent, so a run ends within 180 s
MAX_TIMED_S = 120.0

UNITS = {"setup_s": "s", "wall_s": "s", "eig_per_s": "1/s", "op_p50_s": "s",
         "op_tail_s": "s", "failed_frac": "ratio", "peak_rss_mb": "MB"}
# The end-to-end metrics in the result line, each gated by BENCHMARK.json.
# op_tail_s is not: on backward-large its rank falls where the ten costliest
# ops give way to the rest, and the seed moves the large indices there, so
# it jumps between two levels (0.29 of the median over five seeds).
# failed_frac is 0 when the program is right; the result line carries it as
# "failed" of "attempted".  All seven are printed with every run.
GATED = ("setup_s", "wall_s", "eig_per_s", "op_p50_s", "peak_rss_mb")


def _library_found():
    """True when ``import nleig`` resolves to this checkout's sources."""
    spec = importlib.util.find_spec("nleig")
    return bool(spec and spec.origin and os.path.abspath(
        spec.origin).startswith(SRC + os.sep))


def _timed_setup(ops):
    """Set-up time and the models.

    Importing the package (numpy with it) is file and dynamic-loader work
    whose time the calibration kernel does not follow: on the reference
    host the numpy import took 0.151-0.160 s while the kernel read 1.07-1.74
    ms.  So the import is timed raw, and the rest of set-up, which is
    interpreted code, is scaled to the reference host speed."""
    t0 = time.perf_counter()
    import nleig.cli  # noqa: F401
    imported = time.perf_counter() - t0
    models, scaled, _ = calib.Clock().measure(lambda: workloads.setup(ops))
    return imported + scaled, models


def _child_setup(args, workdir):
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, "-B", os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-sample"]
    proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                          timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _measure_pass(ops, models, ref, workdir, probe=True):
    """One timed pass, then its check; keeps only what the metrics need."""
    outcomes, wall, raw_wall = workloads.run_pass(
        ops, models, tempfile.mkdtemp(dir=workdir), probe)
    verdicts, delivered = oracle.check(outcomes, ref)
    return {"wall": wall, "raw_wall": raw_wall, "delivered": delivered,
            "latencies": [o.latency for o in outcomes
                          for _ in range(o.samples)],
            "attempted": len(verdicts),
            "failed": sum(not v.ok for v in verdicts),
            "failures": [f for v in verdicts for f in v.failures],
            "deviations": [d for v in verdicts for d in v.deviations]}


def _totals(passes):
    """(attempted, failed, failure messages, known deviations)."""
    return (sum(p["attempted"] for p in passes),
            sum(p["failed"] for p in passes),
            [f for p in passes for f in p["failures"]],
            passes[0]["deviations"])


def _latency_stats(passes):
    lat = sorted(x for p in passes for x in p["latencies"])
    per_pass = len(passes[0]["latencies"])
    # the highest percentile with TAIL_BEYOND samples beyond it in one pass
    rank = len(passes) * max(per_pass - TAIL_BEYOND, 1)
    return {"p50": statistics.median(lat), "tail": lat[rank - 1],
            "tail_pct": 100.0 * rank / len(lat), "samples": len(lat)}


def run_untraced(args, ops, ref, workdir):
    setup_s, models = _timed_setup(ops)
    samples = [setup_s]
    while (len(samples) < SETUP_SAMPLES
           or sum(samples) + samples[-1] < SETUP_BUDGET_S):
        samples.append(_child_setup(args, workdir))
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_measure_pass(ops, models, ref, workdir))
        spent = time.perf_counter() - start
        if (spent + spent / len(passes) > args.seconds
                or spent > MAX_TIMED_S):
            break
    walls = [p["wall"] for p in passes]
    delivered = sum(p["delivered"] for p in passes)
    attempted, failed, failures, deviations = _totals(passes)
    lat = _latency_stats(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(samples),
               "wall_s": statistics.median(walls),
               "eig_per_s": delivered / sum(walls),
               "op_p50_s": lat["p50"], "op_tail_s": lat["tail"],
               "failed_frac": failed / attempted, "peak_rss_mb": rss_mb}
    raw = statistics.median(p["raw_wall"] for p in passes)
    notes = {"setup_s": f"median of {len(samples)} set-ups",
             "wall_s": f"median of {len(walls)} passes; raw {raw:.3f} s",
             "eig_per_s": f"{delivered} correct records",
             "op_p50_s": f"{lat['samples']} samples",
             "op_tail_s": f"p{lat['tail_pct']:.1f}, {lat['samples']} samples",
             "failed_frac": f"{failed} of {attempted} ops",
             "peak_rss_mb": "1 sample, ru_maxrss of this process"}
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} "
          f"pass(es) of {len(ops)} ops, closed loop, 1 client")
    for name, value in metrics.items():
        print(f"  {name:12s} {value!r:>22s} {UNITS[name]:5s} "
              f"({notes[name]})")
    return ({n: (metrics[n], UNITS[n]) for n in GATED},
            attempted, failed, failures, deviations)


ROADMAP_RATES = (("cospi", ("cospi",), "490k/s"),
                 ("J_0, all bands", ("j_series", "j_quad", "j_hankel"),
                  "53k-146k/s"),
                 ("Ai(-u), Bessel-quadrature band", ("ai_bessel_quad",),
                  "15k/s"))


def _roadmap_check(tr):
    """The ROADMAP re-anchor figures beside the traced ones (no gate)."""
    from tracer import BINS
    print("  ROADMAP baseline check (report only):")
    for label, bins, quoted in ROADMAP_RATES:
        idx = [BINS.index(b) for b in bins]
        calls = sum(tr.calls[i] for i in idx)
        busy = sum(tr.busy[i] for i in idx)
        rate = f"{calls / busy / 1e3:.0f}k/s" if busy else "no calls"
        per_bin = ", ".join(
            f"{b} {tr.calls[i] / tr.busy[i] / 1e3:.0f}k/s"
            for b, i in zip(bins, idx) if tr.busy[i]) if len(idx) > 1 else ""
        print(f"    {label:32s} traced {rate:>10s}  roadmap {quoted}"
              + (f"  [{per_bin}]" if per_bin else ""))
    run_s, self_s, steps = tr.model_run.get("cos", (0.0, 0.0, 0))
    if steps:
        print(f"    {'ode us/step on cos':32s} traced "
              f"{1e6 * run_s / steps:.2f} us in Engine.run "
              f"({1e6 * self_s / steps:.2f} us without specfun)  "
              f"roadmap 8.5 us")


def run_traced(args, ops, ref, workdir):
    import tracer
    import nleig.cli  # noqa: F401  (the import is not part of the trace)
    tr = tracer.Tracer()
    tr.install()
    try:
        models = workloads.setup(ops)
        traced = _measure_pass(ops, models, ref, workdir, probe=False)
    finally:
        tr.remove()
    plain = _measure_pass(ops, models, ref, workdir, probe=False)
    attempted, failed, failures, deviations = _totals([traced, plain])
    metrics = tr.metrics()
    metrics["trace.overhead_s"] = (traced["wall"] - plain["wall"], "s")
    print(f"workload {args.workload} seed {args.seed}: traced set-up and "
          f"pass, then one untraced pass; {len(ops)} ops each")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:16.8g} {unit}")
    _roadmap_check(tr)
    rec = tr.reconciliation()
    print("  reconciliation: " + ", ".join(f"{k}={v}" for k, v in rec.items()))
    return metrics, attempted, failed, failures, deviations


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-sample", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not _library_found():
        print(f"error: the nleig sources are not under {SRC}",
              file=sys.stderr)
        return 2
    ops = workloads.make_ops(args.workload, args.seed)
    if args.setup_sample:
        print(repr(_timed_setup(ops)[0]))
        return 0
    ref = oracle.load_reference()
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    old_cwd = os.getcwd()
    os.environ["NLEIG_CACHE"] = os.path.join(workdir, "nleig-cache.jsonl")
    os.chdir(workdir)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, failures, deviations = run(
            args, ops, ref, workdir)
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it
    if deviations:
        print(f"  known deviations from the paper's invariants, unchanged "
              f"since the seed commit ({len(deviations)}):")
        for d in deviations:
            print(f"    {d}")
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
