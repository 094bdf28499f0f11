"""The benchmark's own checks: trace reconciliation, repeatable counts, the
metric list of BENCHMARK.json, the reference table and the failure mode.

    python3 -m pytest -q bench/test_bench.py

Traced runs here use a cheap prefix of each workload and run in a fresh
interpreter (this file doubles as that child's entry point), so module
caches start cold as they do in a benchmark run.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

sys.dont_write_bytecode = True
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import GATED, UNITS  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def _subset(workload, ops):
    if workload == "cli-cache":
        rerun = ops[4]
        return ops[:5] + [workloads.Op("cli", rerun.spec, rerun.ns,
                                       rerun.method, hits=len(rerun.ns))]
    cheap = [op for op in ops if op.kind == "scan"
             and op.spec in ("cos", "rgamma") and op.ns[-1] <= 6]
    return cheap + [op for op in ops if op.kind == "separatrix"][:1]


def _traced_subset(workload, seed):
    """Child side: traced set-up and pass over the subset."""
    ops = _subset(workload, workloads.make_ops(workload, seed))
    import nleig.cli  # noqa: F401
    tr = tracer.Tracer()
    tr.install()
    workdir = tempfile.mkdtemp()
    try:
        models = workloads.setup(ops)
        outcomes, _, _ = workloads.run_pass(ops, models, workdir)
    finally:
        tr.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    verdicts, delivered = oracle.check(outcomes, oracle.load_reference())
    metrics = {k: v for k, (v, _) in tr.metrics().items()}
    return {"metrics": metrics, "rec": tr.reconciliation(),
            "delivered": delivered,
            "failures": [f for v in verdicts for f in v.failures]}


def _run_child(workload, seed):
    proc = subprocess.run([sys.executable, "-B", os.path.abspath(__file__),
                           workload, str(seed)], capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: (_run_child(w, 7), _run_child(w, 7)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_reconciles(traced, workload):
    run, _ = traced[workload]
    m, rec = run["metrics"], run["rec"]
    assert not run["failures"]
    assert rec["nfev_run_deltas"] == rec["nfev_by_engine"] == m["ode.nfev"]
    assert rec["specfun_calls_in_run"] >= m["ode.nfev"]
    # cache-served records never reach the spectrum layer
    computed = run["delivered"] - round(m["cache.hit_ratio"]
                                        * m["cache.get.calls"])
    assert m["spectrum.eigs"] == computed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat(traced, workload):
    a, b = (r["metrics"] for r in traced[workload])
    for name in ("ode.nfev", "ode.steps", "spectrum.shots_per_eig"):
        assert a[name] == b[name], name


def test_wrappers_removed():
    import nleig.cli
    from nleig import models, ode, spectrum
    from nleig.specfun import bessel
    before = (bessel._j_any, models.cospi, ode.Engine.run, spectrum.find_eigen,
              nleig.cli.main)
    tr = tracer.Tracer()
    tr.install()
    assert bessel._j_any is not before[0]
    tr.remove()
    assert (bessel._j_any, models.cospi, ode.Engine.run, spectrum.find_eigen,
            nleig.cli.main) == before


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        n: UNITS[n] for n in GATED}
    layer = {k: u for k, (_, u) in tracer.Tracer().metrics().items()}
    layer["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_covers_every_seed():
    ref = oracle.load_reference()
    for seed in range(200):
        for workload in WORKLOADS:
            for op in workloads.make_ops(workload, seed):
                method = "separatrix" if op.kind == "separatrix" else op.method
                for n in op.ns:
                    assert oracle.ref_key(op.spec, n, method) in ref


def test_band_edges_order():
    for nu in (0.0, 1.0, 1.0 / 3.0):
        series_max, hankel_min = tracer.j_band_edges(nu)
        assert 0.0 < series_max < hankel_min
    assert 7.0 < tracer.AI_HANKEL_U < 9.0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "cli-cache", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    print(json.dumps(_traced_subset(sys.argv[1], int(sys.argv[2]))))
