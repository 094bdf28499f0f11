#!/usr/bin/env python3
"""Print sha256 digests of the eigenvalue records of every benchmark
operation any seed can generate (bench/workloads.reachable_ops()).

    python3 tests/records_digest.py

Each record is serialized as one line of key-sorted JSON, its floats
written as float.hex() strings (so the digest sees every bit), with a
separatrix op's sup/amp deviation statistics merged into the record.
Prints one digest per model spec, over the concatenation of that spec's
lines in op order, and one over all lines: two checkouts agree on a spec
exactly when its records agree bit for bit.  The script runs the checkout
it lives in (its src/ and bench/) and writes nothing.  pytest does not
collect it.  tests/records_digest.expected holds its output for the
records the benchmark oracle expects, and CI diffs the two, so a change
that moves a record's bits must update that file:

    python3 tests/records_digest.py | diff tests/records_digest.expected -
"""

import hashlib
import json
import os
import sys

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402


def hexed(v):
    """v with every float, at any depth, replaced by its hex string."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, dict):
        return {k: hexed(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [hexed(x) for x in v]
    return v


def record_lines(ops):
    """(spec, line) per delivered record, in op order."""
    models = workloads.setup(ops)
    outcomes, _, _ = workloads.run_pass(ops, models, workdir=None,
                                        probe=False)
    for out in outcomes:
        if out.error:
            raise SystemExit(f"{out.op}: {out.error}")
        for rec in out.records:
            line = json.dumps(hexed({**rec, **out.extra}), sort_keys=True)
            yield out.op.spec, line


def main():
    per_spec = {}
    every = hashlib.sha256()
    for spec, line in record_lines(workloads.reachable_ops()):
        data = line.encode()
        per_spec.setdefault(spec, hashlib.sha256()).update(data)
        every.update(data)
    for spec, h in per_spec.items():
        print(f"{spec:10s} {h.hexdigest()}")
    print(f"{'all':10s} {every.hexdigest()}")


if __name__ == "__main__":
    main()
