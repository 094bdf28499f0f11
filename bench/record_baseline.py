#!/usr/bin/env python3
"""Measure the benchmark's baseline and write bench/baseline.json.

    python3 bench/record_baseline.py [--seeds 10] [--first-seed 1]

Runs every workload once per seed with tracing off, one run at a time,
and records each of the seven end-to-end metrics the runs print (gated or
not) with its values, median and quartiles
(``statistics.quantiles(values, n=4)``) and spread (q3 - q1) / median.
Then one traced run per workload records the per-layer metrics and the
ROADMAP re-anchor figures beside the traced special-function rates and
integrator cost; those are reported, not gated.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import UNITS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True).stdout.splitlines()
    return json.loads(out[-1]), out


def _printed_metrics(lines):
    """The end-to-end metrics of an untraced run's report lines."""
    values = {}
    for line in lines:
        words = line.split()
        if len(words) > 1 and words[0] in UNITS:
            values[words[0]] = float(words[1])
    return values


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True).stdout.strip()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    end_to_end = {}
    for workload in names:
        runs = [_run(workload, s, spec["run_seconds"], 0) for s in seeds]
        if not all(r["correct"] for r, _ in runs):
            raise SystemExit(f"{workload}: a run reported incorrect output")
        printed = [_printed_metrics(lines) for _, lines in runs]
        per_metric = {}
        for name, unit in UNITS.items():
            values = [p[name] for p in printed]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            per_metric[name] = {"unit": unit, "median": median, "q1": q1,
                                "q3": q3, "values": values,
                                "spread": (q3 - q1) / median if median
                                else None}
        end_to_end[workload] = {"attempted": runs[0][0]["attempted"],
                                "failed": sum(r["failed"] for r, _ in runs),
                                "metrics": per_metric}
        print(f"{workload}: " + ", ".join(
            f"{k} {v['median']:.4g} (spread {v['spread'] or 0:.3f})"
            for k, v in per_metric.items()), flush=True)
    traced = {}
    for workload in names:
        result, lines = _run(workload, seeds[0], spec["run_seconds"], 1)
        start = next(i for i, line in enumerate(lines)
                     if "ROADMAP baseline check" in line) + 1
        end = next(i for i in range(start, len(lines))
                   if not lines[i].startswith("    "))
        traced[workload] = {
            "seed": seeds[0],
            "roadmap_check": [line.strip() for line in lines[start:end]],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
    record = {
        "commit": _commit() or "unknown",
        "machine": {"cpu": _cpu_model(), "cores": os.cpu_count(),
                    "python": platform.python_version()},
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"],
                                "bound": m.get("bound"), "workloads": names}
                    for m in spec["end_to_end"] + spec["per_layer"]},
        "reported_not_gated": sorted(set(UNITS) - {
            m["name"] for m in spec["end_to_end"]}),
        "end_to_end": end_to_end,
        "traced": traced,
    }
    path = os.path.join(BENCH, "baseline.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"-> {path}")


if __name__ == "__main__":
    main()
