#!/usr/bin/env python3
"""Write bench/reference.json: the eigenvalue record of every operation any
seed can generate, computed at the current commit.

    python3 bench/record_reference.py

The table was recorded once, at the commit that defined the benchmark; the
oracle compares every later run against it.  Re-recording it moves the
yardstick, so do it only when a change is meant to move published values.
"""

import json
import subprocess
import sys

sys.dont_write_bytecode = True

from run import ROOT  # noqa: E402  (puts the checkout's src on sys.path)
import oracle  # noqa: E402
import workloads  # noqa: E402


def main():
    ops = workloads.reachable_ops()
    models = workloads.setup(ops)
    outcomes, _, wall = workloads.run_pass(ops, models, workdir=None)
    records = {}
    for out in outcomes:
        if out.error:
            raise SystemExit(f"{out.op}: {out.error}")
        method = "separatrix" if out.op.kind == "separatrix" else out.op.method
        for rec in out.records:
            entry = {"E": rec["E"], "tol": rec["tol"], "maxima": rec["maxima"]}
            if method == "bisection":
                entry["lo_class"] = rec["evidence"]["lo_class"]
                entry["hi_class"] = rec["evidence"]["hi_class"]
            entry.update(out.extra)
            records[oracle.ref_key(out.op.spec, rec["n"], method)] = entry
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    with open(oracle.REFERENCE, "w") as fh:
        json.dump({"commit": commit or "unknown", "records": records}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(records)} records in {wall:.1f} s -> {oracle.REFERENCE}")


if __name__ == "__main__":
    main()
