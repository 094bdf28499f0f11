"""Command-line surface: artifacts, caching, determinism, config parsing,
and exit codes."""

import hashlib
import json
import math
import os
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from nleig import ode, spectrum, svgplot, verify
from nleig.cache import EigenCache
from nleig.cli import main, separatrix_curve
from nleig.models import Frame, make_model
from nleig.svgplot import read_curve_csv


def run(args, cwd):
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


class TestSpectrumCommand:
    def test_unresolved_shot_is_computation_failure(self, tmp_path, capsys):
        rc = run(["spectrum", "--model", "cos", "--n", "3", "--method",
                  "bisection", "--x-max", "0.001", "--no-cache"], tmp_path)
        assert rc == 1
        assert "unresolved at the horizon" in capsys.readouterr().err

    def test_row_count_and_artifacts(self, tmp_path):
        rc = run(["spectrum", "--model", "bessel:0", "--n", "1..5",
                  "--tol", "1e-8"], tmp_path)
        assert rc == 0
        lines = (tmp_path / "spectrum_bessel_0.csv").read_text().splitlines()
        assert lines[0] == "n,E,residual,method,maxima"
        assert len(lines) == 6
        payload = json.loads((tmp_path / "spectrum_bessel_0.json").read_text())
        assert [p["n"] for p in payload] == [1, 2, 3, 4, 5]

    def test_cache_hit_is_byte_identical(self, tmp_path):
        args = ["spectrum", "--model", "cos", "--n", "1..3", "--tol", "1e-8"]
        assert run(args, tmp_path) == 0
        first = (tmp_path / "spectrum_cos.csv").read_bytes()
        first_json = (tmp_path / "spectrum_cos.json").read_bytes()
        cache = (tmp_path / ".nleig-cache.jsonl").read_text()
        assert len(cache.strip().splitlines()) == 3
        assert run(args, tmp_path) == 0
        assert (tmp_path / "spectrum_cos.csv").read_bytes() == first
        assert (tmp_path / "spectrum_cos.json").read_bytes() == first_json

    # (model, --n, sha256 of the JSON artifact, sha256 of the cache file)
    # after each backward run of a miss / partial-hit / all-hit sequence
    MISS_HIT_BYTES = [
        ("cos", "1..2",
         "8d05ece2ca5725add29bff1705836632054ba68974d34a9afa337598a60805e0",
         "a5d8e37184a12f6d379f9f77b7815122c08d973ba69d0871123605712eaefaa8"),
        ("cos", "1..4",
         "497ebcbb9db5f5c48b112d6d71ecc72d20abbb3ec7968572e46d9a228f6752de",
         "50554bf0277731f8805b54b95aa3f09a19a3c059724ee7d1ed1601287fe8f90c"),
        ("cos", "2..3",
         "443df0a99a87edc4f12cf318ebd4e072143f7bc151cd34cc40ba8a80ab5785ff",
         "50554bf0277731f8805b54b95aa3f09a19a3c059724ee7d1ed1601287fe8f90c"),
        ("rgamma", "1..2",
         "e1411512ff7b43a6eefacef393e58743e962a0f8b196bb0264a0def64c33a9a2",
         "fdea96e7d7acaeecd37b81f33547f4b9797dacd1e5aee0fe9bab000ec772c88e"),
        # n = 3 runs from t0 = 2.81, where its seed correction is 4e-3
        ("rgamma", "1..3",
         "9776db575d241c878dddadf4b5ef112ddf665cf85addb3ae93b93cd4db612698",
         "63d26ec1c45fba1735b236eb2abce03fffc5fc94920a8cbabf83eaa21fb5c57c"),
    ]

    def test_miss_hit_bytes_pinned(self, tmp_path):
        """Artifact and cache bytes over cache misses and hits are pinned,
        and every artifact line is the cache line of its record."""
        def digest(name):
            return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for spec, ns, json_sha, cache_sha in self.MISS_HIT_BYTES:
            assert run(["spectrum", "--model", spec, "--method", "backward",
                        "--n", ns], tmp_path) == 0
            assert (digest(f"spectrum_{spec}.json"),
                    digest(".nleig-cache.jsonl")) == (json_sha, cache_sha)
            cached = set((tmp_path / ".nleig-cache.jsonl").read_text()
                         .splitlines())
            body = (tmp_path / f"spectrum_{spec}.json").read_text()
            lines = body.splitlines()[1:-1]
            assert lines and all(line.rstrip(",") in cached for line in lines)

    def test_xibar_rerun_over_its_cache(self, tmp_path, capsys,
                                        monkeypatch):
        # every record carries the requested tol and the run's settings,
        # the near-degenerate E_8, E_9 too, so a rerun serves all 10 from
        # the cache, computes nothing and rewrites the same artifacts
        args = ["spectrum", "--model", "xibar", "--n", "1..10",
                "--cache", "c.jsonl"]
        assert run(args, tmp_path) == 0
        first = [(tmp_path / f"spectrum_xibar.{ext}").read_bytes()
                 for ext in ("csv", "json")]
        capsys.readouterr()

        def no_scan(*args, **kwargs):
            raise AssertionError("a rerun over the cache computed")
        monkeypatch.setattr(spectrum, "spectrum_scan", no_scan)
        for _ in range(2):
            assert run(args, tmp_path) == 0
            assert capsys.readouterr().err.count("cache hit") == 10
            assert [(tmp_path / f"spectrum_xibar.{ext}").read_bytes()
                    for ext in ("csv", "json")] == first
            assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 10

    def test_exit_code_does_not_depend_on_the_cache(self, tmp_path, capsys):
        # xibar's backward E_11 falls below E_10: the run reports it whether
        # E_10 and E_11 were computed, both served or one of each
        args = ["spectrum", "--model", "xibar", "--method", "backward",
                "--cache", "c.jsonl", "--n"]
        error = "n=11: monotonicity violated: E_11 <= E_10"
        fresh, split = tmp_path / "fresh", tmp_path / "split"
        fresh.mkdir()
        split.mkdir()
        assert run(args + ["1..10"], split) == 0
        capsys.readouterr()
        for cwd in (fresh, fresh, split):
            assert run(args + ["1..11"], cwd) == 1
            lines = capsys.readouterr().err.splitlines()
            assert [s for s in lines if "cache hit" not in s] == [error]
        assert ((fresh / "spectrum_xibar.csv").read_bytes()
                == (split / "spectrum_xibar.csv").read_bytes())

    def test_env_cache_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLEIG_CACHE", str(tmp_path / "custom.jsonl"))
        assert run(["spectrum", "--model", "cos", "--n", "1..2",
                    "--tol", "1e-8"], tmp_path) == 0
        assert (tmp_path / "custom.jsonl").exists()

    def test_corrupt_cache_line_skipped(self, tmp_path):
        args = ["spectrum", "--model", "cos", "--n", "1..2", "--tol", "1e-8"]
        assert run(args, tmp_path) == 0
        path = tmp_path / ".nleig-cache.jsonl"
        path.write_text("not json at all\n" + path.read_text())
        with pytest.warns(RuntimeWarning):
            assert run(args, tmp_path) == 0

    def test_bad_model_is_config_error(self, tmp_path):
        assert run(["spectrum", "--model", "nope", "--n", "1"], tmp_path) == 2

    def test_cache_keyed_by_method_and_integrator(self, tmp_path, capsys):
        base = ["spectrum", "--model", "cos", "--n", "1..2"]
        assert run(base + ["--method", "backward"], tmp_path) == 0
        capsys.readouterr()
        assert run(base + ["--method", "bisection", "--rel-tol", "1e-12"],
                   tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().err
        rows = (tmp_path / "spectrum_cos.csv").read_text().splitlines()[1:]
        assert [r.split(",")[3] for r in rows] == ["bisection", "bisection"]

    def test_bessel_orders_keyed_apart(self, tmp_path, capsys):
        # bessel:2.5000001 once printed as bessel:2.5, so it was served
        # order 2.5's records and wrote over its artifacts
        base = ["spectrum", "--n", "1..2", "--method", "backward"]
        assert run(base + ["--model", "bessel:2.5"], tmp_path) == 0
        capsys.readouterr()
        assert run(base + ["--model", "bessel:2.5000001"], tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().err
        pairs = [[(tmp_path / f"spectrum_bessel_{nu}.{ext}").read_text()
                  for ext in ("csv", "json")] for nu in ("2.5", "2.5000001")]
        assert pairs[0][0] != pairs[1][0] and pairs[0][1] != pairs[1][1]

    def test_cache_file_read_once(self, tmp_path, capsys, monkeypatch):
        args = ["spectrum", "--model", "cos", "--method", "backward"]
        assert run(args + ["--n", "1..3"], tmp_path) == 0
        capsys.readouterr()
        loads = []
        real_load = EigenCache.load

        def counting_load(cache):
            loads.append(cache.path)
            return real_load(cache)

        monkeypatch.setattr(EigenCache, "load", counting_load)
        assert run(args + ["--n", "1..4"], tmp_path) == 0
        assert capsys.readouterr().err.count("cache hit") == 3
        assert len(loads) == 1
        assert run(args + ["--n", "1..4", "--no-cache"], tmp_path) == 0
        assert len(loads) == 2

    def test_seed_format_cache_lines_recomputed(self, tmp_path, capsys):
        args = ["spectrum", "--model", "cos", "--n", "1..2", "--tol", "1e-8"]
        assert run(args, tmp_path) == 0
        path = tmp_path / ".nleig-cache.jsonl"
        old = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in old:
            del rec["schema"], rec["integrator"]
        path.write_text("".join(json.dumps(r) + "\n" for r in old))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(args, tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().err
        assert len(path.read_text().splitlines()) == 4

    def test_six_field_settings_records_recomputed(self, tmp_path, capsys):
        # records stamped while IntegratorConfig still carried h_init,
        # h_min and h_max never match a key of the three-field settings
        args = ["spectrum", "--model", "cos", "--n", "1..2", "--tol", "1e-8"]
        assert run(args, tmp_path) == 0
        path = tmp_path / ".nleig-cache.jsonl"
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        old = []
        for rec in recs:
            fields = dict(f.split("=") for f in rec["integrator"].split())
            assert sorted(fields) == ["abs_tol", "rel_tol", "x_max"]
            fields.update(h_init="0.0", h_max="0.0", h_min="1e-14")
            old.append(dict(rec, integrator=" ".join(
                f"{k}={v}" for k, v in sorted(fields.items()))))
        path.write_text("".join(json.dumps(r) + "\n" for r in old))
        capsys.readouterr()
        assert run(args, tmp_path) == 0
        assert "cache hit" not in capsys.readouterr().err
        new = [json.loads(line) for line in path.read_text().splitlines()]
        assert new[2:] == recs


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "cos", "--tol", "abc"],
        ["spectrum", "--model", "cos", "--tol", "1e-13"],
        ["spectrum", "--model", "cos", "--n", "3", "--method", "backward",
         "--tol", "1e-300"],
        ["spectrum", "--model", "cos", "--rel-tol", "abc"],
        ["walk-coeffs", "--p-max", "99"],
        ["limit-curve", "--alpha", "abc"],
        ["limit-curve", "--alpha", "0", "--points", "-5"],
        ["limit-curve", "--alpha", "0", "--t-max", "-1"],
        ["separatrix", "--model", "xibar", "--coords", "scaled"],
        ["separatrix", "--model", "rgamma", "--n", "6", "--coords", "raw"],
        ["verify", "growth", "--n-max", "0"],
        ["verify", "growth", "--n-max", "10"],
        ["verify", "growth", "--model", "xibar"],
        ["spectrum", "--model", "cos", "--method", "foo"],
        ["limit-curve", "--alpha", "inf"],
        ["spectrum", "--model", "cos", "--abs-tol", "inf"],
        ["spectrum", "--model", "cos", "--x-max", "nan"],
        # the item after --config is the text of the file passed
        ["limit-curve", "--alpha", "0", "--config", "svg = maybe"],
        ["verify", "limits", "--config", "suite = walk"],
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, argv):
        if "--config" in argv:
            i = argv.index("--config") + 1
            cfg = tmp_path / "run.cfg"
            cfg.write_text(argv[i] + "\n")
            argv = argv[:i] + [str(cfg)] + argv[i + 1:]
        assert run(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "cos", "--n", "1..2", "--out", "FILE"],
        ["separatrix", "--model", "cos", "--n", "2", "--out", "FILE"],
        ["walk-coeffs", "--out", "FILE"],
        ["verify", "walk", "--out", "FILE"],
        ["spectrum", "--model", "cos", "--n", "1", "--cache", "DIR"],
        ["limit-curve", "--alpha", "0", "--config", "DIR"],
        ["limit-curve", "--alpha", "0", "--config", "LATIN1"],
        ["spectrum", "--model", "cos", "--n", "1..2", "--no-cache",
         "--cache", "DIR"],
    ])
    def test_bad_path_is_config_error(self, tmp_path, capsys, monkeypatch,
                                      argv):
        # --out naming a file, --cache or --config naming a directory, and
        # a config file that is not UTF-8 exit 2 before any integration
        (tmp_path / "FILE").write_text("x\n")
        (tmp_path / "DIR").mkdir()
        (tmp_path / "LATIN1").write_bytes("alpha = 0  # \xe9\n"
                                          .encode("latin-1"))
        runs = []
        monkeypatch.setattr(ode.Engine, "run", lambda *a: runs.append(a))
        assert run(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err and runs == []

    def test_removed_step_key_is_config_error(self, tmp_path, capsys):
        # the step size is the integrator's own: h_max is no config key
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = cos\nn = 1\nh_max = 0.1\n")
        assert run(["spectrum", "--config", str(cfg)], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "'h_max'" in err and "Traceback" not in err


class TestIndexLimits:
    """An index past the kind's finite n_max exits 2 at once, before any
    zero table or cache lookup, through every command that takes one."""

    @pytest.mark.parametrize("spec", ["cos", "bessel:0", "airy", "rgamma",
                                      "xibar"])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--method", "bisection", "--n", str(10 ** 20)],
        ["spectrum", "--method", "backward", "--n", str(10 ** 20)],
        ["spectrum", "--method", "backward", "--n", f"1..{10 ** 20}"],
        ["separatrix", "--n", str(10 ** 20)],
    ])
    def test_huge_index_exits_2_at_once(self, tmp_path, capsys, spec, argv):
        start = time.perf_counter()
        code = run(argv + ["--model", spec], tmp_path)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and elapsed < 1.0
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"n > {make_model(spec).n_max}" in err


class TestSeparatrixCommand:
    def test_scaled_csv_with_svg(self, tmp_path):
        rc = run(["separatrix", "--model", "bessel:0", "--n", "2",
                  "--coords", "scaled", "--svg"], tmp_path)
        assert rc == 0
        csv = tmp_path / "separatrix_bessel_0_n2_scaled.csv"
        svg = tmp_path / "separatrix_bessel_0_n2_scaled.svg"
        assert csv.exists() and svg.exists()
        head = csv.read_text().splitlines()[0]
        assert "model=bessel:0" in head and "coords=scaled" in head
        assert "<svg" in svg.read_text()

    def test_rgamma_scaled_settles_to_reciprocal(self, tmp_path):
        rc = run(["separatrix", "--model", "rgamma", "--n", "3",
                  "--coords", "scaled"], tmp_path)
        assert rc == 0
        from nleig.svgplot import read_curve_csv
        _, cols, ts, zs = read_curve_csv(
            tmp_path / "separatrix_rgamma_n3_scaled.csv")
        assert cols == ["t", "z"]
        # forbidden region hugs 1/t
        pairs = [(t, z) for t, z in zip(ts, zs) if t > 1.5]
        assert pairs
        for t, z in pairs[:: max(1, len(pairs) // 7)]:
            assert abs(z - 1.0 / t) < 0.02


    def test_raw_csv(self, tmp_path):
        rc = run(["separatrix", "--model", "cos", "--n", "3",
                  "--coords", "raw"], tmp_path)
        assert rc == 0
        meta, cols, xs, ys = read_curve_csv(
            tmp_path / "separatrix_cos_n3_raw.csv")
        assert meta["coords"] == "raw" and cols == ["x", "y"]
        curve = spectrum.refine_backward(make_model("cos"), 3,
                                         _export=True).curve
        assert list(xs) == list(curve.grid) and list(ys) == list(curve.values)

    # sha256 of each file `separatrix --svg` writes
    EXPORT_BYTES = [
        ("cos", "3", "raw", "separatrix_cos_n3_raw",
         "d394b0b281c9594133b29fad5b9be7496ed726c7f4871a3d11255e152b7b85a2",
         "a0e4f2e5b9d837655bbd6181c11277bfd30deddaeaea9595587ab88a490b5967"),
        ("bessel:0", "2", "scaled", "separatrix_bessel_0_n2_scaled",
         "50a65af0c3c40431516152b7276caffd3229d307d75b71566932420cddcf16b1",
         "c51a7492a215da9f49aa8b2fa5d09e3415a1eec346a872e152984926dea806d6"),
        ("rgamma", "3", "scaled", "separatrix_rgamma_n3_scaled",
         "63a8e6bf397b907e04bc85afb0523e4db725e79f8856a3f43f6fc81b05de7c2e",
         "18eb2af7d38068a5a00eb7f2ea02519e592fc36e0941cab323ffeb49dabe385a"),
    ]

    @pytest.mark.parametrize("spec, n, coords, stem, csv_sha, svg_sha",
                             EXPORT_BYTES)
    def test_export_bytes_pinned(self, tmp_path, spec, n, coords, stem,
                                 csv_sha, svg_sha):
        # an exported curve starts where it sits within a tenth of a
        # half-gap of its asymptote, farther out than an eigenvalue run
        assert run(["separatrix", "--model", spec, "--n", n, "--coords",
                    coords, "--svg"], tmp_path) == 0
        assert [hashlib.sha256((tmp_path / f"{stem}.{ext}").read_bytes())
                .hexdigest() for ext in ("csv", "svg")] == [csv_sha, svg_sha]

    def test_svg_drawn_from_the_held_curve(self, tmp_path, monkeypatch):
        # --svg draws the arrays the CSV was written from: by then the run's
        # unconverted curve is gone, and no file is read back
        runs, alive = [], []
        refine, render = spectrum.refine_backward, svgplot.render_series

        def kept(*args, **kw):
            res = refine(*args, **kw)
            runs.append(weakref.ref(res.curve))
            return res

        def checked(*args, **kw):
            alive.extend(ref() is not None for ref in runs)
            return render(*args, **kw)
        monkeypatch.setattr(spectrum, "refine_backward", kept)
        monkeypatch.setattr(svgplot, "render_series", checked)
        monkeypatch.setattr(svgplot, "read_curve_csv", None)
        assert run(["separatrix", "--model", "bessel:0", "--n", "2",
                    "--coords", "scaled", "--svg"], tmp_path) == 0
        assert alive == [False]
        svg = tmp_path / "separatrix_bessel_0_n2_scaled.svg"
        assert svg.read_text().count("<polyline") == 2

    @pytest.mark.parametrize("spec,n_range,coords", [
        ("rgamma", "4..6", "raw"), ("xibar", "1..2", "scaled")])
    def test_refused_before_any_run(self, tmp_path, capsys, monkeypatch,
                                    spec, n_range, coords):
        calls = []
        monkeypatch.setattr(spectrum, "refine_backward",
                            lambda *a, **k: calls.append(a))
        assert run(["separatrix", "--model", spec, "--n", n_range,
                    "--coords", coords], tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == [] and not list(tmp_path.glob("*.csv"))


class TestSeparatrixCurve:
    def test_one_engine_per_curve(self, monkeypatch):
        built = []
        real_init = ode.Engine.__init__

        def counting_init(eng, *args, **kw):
            built.append(args)
            real_init(eng, *args, **kw)

        monkeypatch.setattr(ode.Engine, "__init__", counting_init)
        for spec, n, coords in (("cos", 3, "scaled"), ("bessel:0", 2, "raw"),
                                ("rgamma", 3, "raw")):
            built.clear()
            separatrix_curve(make_model(spec), n, coords)
            assert len(built) == 1

    @pytest.mark.parametrize("spec,n,coords", [
        ("cos", 3, "raw"), ("bessel:0", 2, "raw"), ("airy", 2, "raw"),
        ("xibar", 2, "raw"), ("rgamma", 3, "scaled")])
    def test_curve_is_the_backward_run(self, spec, n, coords):
        # the export-seeded run, converted; its E is the eigenvalue run's
        # up to the integration error
        model = make_model(spec)
        res, curve = separatrix_curve(model, n, coords)
        exported = spectrum.refine_backward(model, n, _export=True)
        rec = Frame(model, n).convert(exported.curve, coords)
        assert curve.coords == rec.coords == coords
        assert np.array_equal(curve.grid, rec.grid)
        assert np.array_equal(curve.values, rec.values)
        assert (curve.maxima, curve.maxima_values, curve.minima,
                curve.minima_values) == (rec.maxima, rec.maxima_values,
                                         rec.minima, rec.minima_values)
        assert res.E == exported.E
        E = spectrum.refine_backward(model, n).E
        assert abs(res.E - E) <= 1e-10 * E

    def test_events_follow_the_conversion(self):
        model = make_model("bessel:0")
        _, raw = separatrix_curve(model, 2, "raw")
        _, scaled = separatrix_curve(model, 2, "scaled")
        frame = Frame(model, 2)
        assert scaled.maxima == [x / frame.x_scale for x in raw.maxima]
        assert scaled.maxima_values == [y / frame.y_scale
                                        for y in raw.maxima_values]
        assert scaled.minima == [x / frame.x_scale for x in raw.minima]
        assert scaled.minima_values == [y / frame.y_scale
                                        for y in raw.minima_values]
        assert scaled.maxima[0] == pytest.approx(0.9749 / frame.x_scale,
                                                 rel=1e-4)
        # every event of the scaled curve lies on its own samples' scale
        assert max(scaled.maxima_values) <= 1.01 * max(scaled.values)


class TestLimitCurveCommand:
    def test_turning_point_row_present(self, tmp_path):
        rc = run(["limit-curve", "--alpha", "-0.5", "--points", "40"],
                 tmp_path)
        assert rc == 0
        body = (tmp_path / "limit_alpha-0.5.csv").read_text()
        rows = [r for r in body.splitlines() if r and not r.startswith("#")
                and not r.startswith("t,")]
        one = [r for r in rows if float(r.split(",")[0]) == 1.0]
        assert len(one) == 1
        assert float(one[0].split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_turning_point_sampled_on_a_near_miss_grid(self, tmp_path):
        # 100002 points on [0, 3] hold 1.000009999900001, within np.isclose
        # of 1 but not 1: the turning point is still appended, exactly once
        assert run(["limit-curve", "--alpha", "0", "--points", "100002"],
                   tmp_path) == 0
        rows = (tmp_path / "limit_alpha0.csv").read_text().splitlines()[2:]
        ts = [float(r.split(",")[0]) for r in rows]
        assert len(ts) == 100003 and ts.count(1.0) == 1 and ts == sorted(ts)
        assert 1.000009999900001 in ts

    def test_alpha_required_in_range(self, tmp_path):
        assert run(["limit-curve", "--alpha", "-1.5"], tmp_path) == 2

    def test_bytes_pinned(self, tmp_path):
        # written through ode.write_curve_csv, the curve CSV writer; its z
        # column holds the correctly rounded 2^(1/3) at t = 0
        assert run(["limit-curve", "--alpha", "0", "--points", "5"],
                   tmp_path) == 0
        body = (tmp_path / "limit_alpha0.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == (
            "2fe49af7ba2bd585d6aea0b0765cb27e872ad31361bb8dcf8aaf377cb1c5ae59")

    @pytest.mark.parametrize("alpha,points,svg_sha", [
        ("0", "5",
         "6055bd753ed04fb03b3075daf11b7299e9574b172958a5448f0410433743ad45"),
        ("-0.5", "400",
         "421d3ce0c980f541cde13f9ca61730733c8ba6d5cfb2de2fa107b3d8763dc25d"),
        ("3", "1000",
         "69358592f9a9f9b07fc91eaf7fc8e352dcc2944cdda17f09d084e1a2521c50c0"),
        ("-0.9", "37",
         "2ea062abdca9f98d94eb0836ba79c4750d3dde977dbb4414ea9fda1e4ca4853d"),
    ])
    def test_svg_drawn_from_memory(self, tmp_path, monkeypatch, alpha, points,
                                   svg_sha):
        # --svg draws the arrays the CSV was written from and reads no file
        # back; the bytes are those of the figure rendered from the CSV
        monkeypatch.setattr(svgplot, "read_curve_csv", None)
        assert run(["limit-curve", "--alpha", alpha, "--points", points,
                    "--svg"], tmp_path) == 0
        svg = (tmp_path / f"limit_alpha{alpha}.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == svg_sha

    @pytest.mark.parametrize("alpha", ["3", "100"])
    def test_origin_row_is_printed_z0(self, tmp_path, capsys, alpha):
        assert run(["limit-curve", "--alpha", alpha, "--points", "5"],
                   tmp_path) == 0
        printed = capsys.readouterr().out.split()[0]
        body = (tmp_path / f"limit_alpha{alpha}.csv").read_text()
        origin = [r for r in body.splitlines() if r.startswith("0.0")]
        assert len(origin) == 1
        assert printed == f"z(0)={float(origin[0].split(',')[1]):.12g}"


class TestWalkCommand:
    def test_table_ends_at_minus_21_over_1024(self, tmp_path):
        rc = run(["walk-coeffs", "--p-max", "5"], tmp_path)
        assert rc == 0
        rows = (tmp_path / "walk_coeffs_p5.csv").read_text().splitlines()
        assert rows[0] == "p,numerator,denominator"
        assert len(rows) == 7
        assert rows[-1] == "5,-21,1024"


class TestPlotCommand:
    def test_deterministic_svg(self, tmp_path):
        run(["limit-curve", "--alpha", "0", "--points", "30"], tmp_path)
        csv = str(tmp_path / "limit_alpha0.csv")
        assert run(["plot", csv, "--out", str(tmp_path / "a.svg")],
                   tmp_path) == 0
        assert run(["plot", csv, "--out", str(tmp_path / "b.svg")],
                   tmp_path) == 0
        assert (tmp_path / "a.svg").read_bytes() == \
            (tmp_path / "b.svg").read_bytes()

    def test_missing_csv_is_config_error(self, tmp_path):
        assert run(["plot", "missing.csv"], tmp_path) == 2
        (tmp_path / "dir.csv").mkdir()
        assert run(["plot", "dir.csv"], tmp_path) == 2

    @pytest.mark.parametrize("body", ["t,z\n0,1\n1,2\nx,y,z\n", "",
                                      "t\n0\n1\n", "t,z\n0,1\ninf,2\n",
                                      "t,z\n0,1\n1,nan\n",
                                      "t,z\n0,1\n1,-inf\n"],
                             ids=["header-after-data", "empty", "one-column",
                                  "inf-row", "nan-row", "minus-inf-row"])
    def test_unplottable_csv_is_config_error(self, tmp_path, capsys, body):
        (tmp_path / "bad.csv").write_text(body)
        assert run(["plot", "bad.csv"], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "bad.svg").exists()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_series_refuses_non_finite(self, tmp_path, bad):
        # an overlay reaches render_series without read_curve_csv
        path = tmp_path / "s.svg"
        with pytest.raises(ValueError, match="not finite"):
            svgplot.render_series([("a", [0.0, 1.0], [1.0, 2.0]),
                                   ("b", [0.0, 1.0], [1.0, bad])], path)
        assert not path.exists()

    def test_polyline_chunks_keep_the_bytes(self, tmp_path, monkeypatch):
        # a polyline's points are written svgplot._POINTS at a time; the
        # file is the one a single chunk writes
        n = 2 * svgplot._POINTS + 3
        ts = [3.0 * i / n for i in range(n)]
        series = [("a", ts, [math.sin(t) for t in ts]), ("b", [], []),
                  ("", [0.0, 3.0], [0.5, 0.25])]
        svgplot.render_series(series, tmp_path / "chunked.svg")
        monkeypatch.setattr(svgplot, "_POINTS", n)
        svgplot.render_series(series, tmp_path / "whole.svg")
        body = (tmp_path / "whole.svg").read_bytes()
        assert (tmp_path / "chunked.svg").read_bytes() == body
        assert body.count(b"<polyline") == 3

    def test_csv_render_streams(self, tmp_path):
        # render_csv holds the columns as float arrays, 8 bytes a value,
        # and one chunk of the polyline: about 23 bytes a row at its peak,
        # where lists of floats and one points string took 171
        rows = 20 * svgplot._POINTS
        ts = np.linspace(0.0, 3.0, rows)
        csv = ode.write_curve_csv(tmp_path / "c.csv", "cos", 1, "scaled",
                                  "t,z", ts, np.sin(ts))
        tracemalloc.start()
        try:
            svgplot.render_csv(csv, tmp_path / "c.svg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rows < 48


class TestVerifyCommand:
    def test_walk_suite_passes(self, tmp_path, capsys):
        assert run(["verify", "walk"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert (tmp_path / "verify_walk.json").exists()

    def test_limits_suite_passes(self, tmp_path):
        assert run(["verify", "limits"], tmp_path) == 0
        report = json.loads((tmp_path / "verify_limits.json").read_text())
        assert report == verify.limits()

    def test_unknown_suite(self, tmp_path):
        assert run(["verify", "nonsense"], tmp_path) == 2


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = cos\nn = 1..2\ntol = 1e-8\n")
        rc = run(["spectrum", "--config", str(cfg), "--n", "1..3"], tmp_path)
        assert rc == 0
        rows = (tmp_path / "spectrum_cos.csv").read_text().splitlines()
        assert len(rows) == 4  # flag range won over the file's

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = cos\nwibble = 3\n")
        assert run(["spectrum", "--config", str(cfg), "--n", "1"],
                   tmp_path) == 2

    def test_switch_false_in_file(self, tmp_path):
        # a switch in a file is on only for "true"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0\npoints = 5\nsvg = false\n")
        assert run(["limit-curve", "--config", str(cfg)], tmp_path) == 0
        assert (tmp_path / "limit_alpha0.csv").exists()
        assert not list(tmp_path.glob("*.svg"))
        cfg.write_text("alpha = 0\npoints = 5\nsvg = true\n")
        assert run(["limit-curve", "--config", str(cfg)], tmp_path) == 0
        assert (tmp_path / "limit_alpha0.svg").exists()

    def test_no_cache_false_keeps_the_cache(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = cos\nn = 1..2\nmethod = backward\n"
                       "no_cache = false\n")
        assert run(["spectrum", "--config", str(cfg)], tmp_path) == 0
        cache = tmp_path / ".nleig-cache.jsonl"
        assert len(cache.read_text().splitlines()) == 2

    def test_comments_and_blanks_ok(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nmodel = cos # trailing\nn = 1..1\n"
                       "tol = 1e-8\n")
        assert run(["spectrum", "--config", str(cfg)], tmp_path) == 0


class TestSelftest:
    def test_specfun_selftest(self, tmp_path, capsys):
        assert run(["specfun-selftest"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
