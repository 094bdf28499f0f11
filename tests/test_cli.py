"""Command-line surface: artifacts, caching, determinism, config parsing,
and exit codes."""

import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from nleig import ode, spectrum, verify
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
         "975f8103a9ddc32681f174adf0ad8e053464f528b70e8f1976241a5c5f6dcbeb",
         "1953d17f86e0bd804b32566dbf419bba66c0c24cacb58e02a505ba78d0d68bee"),
        ("cos", "2..3",
         "6f882ff899e076cb2ea1f8477f996b2cda0d62fe7de1fb48783bf1819ca33cfb",
         "1953d17f86e0bd804b32566dbf419bba66c0c24cacb58e02a505ba78d0d68bee"),
        ("rgamma", "1..2",
         "e1411512ff7b43a6eefacef393e58743e962a0f8b196bb0264a0def64c33a9a2",
         "2848add251302a2201b4f86d3b6542eee88f01c07aff281a2d9fe29ab2a795d4"),
        ("rgamma", "1..3",
         "a2fe8358ed6998259522b9ffa165f495e0fd6244d495015bba055dff022880ef",
         "fbb323c6ca40efc32829633b4275d6a5d6a063590256ebc990ed46bdb352c5fe"),
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

    def test_xibar_rerun_over_its_cache(self, tmp_path):
        # a rerun computes only the escalated n = 8, 9 (their records carry
        # the tighter tol), from a scan that starts at n = 1; their lines
        # equal the stored ones, so the cache keeps its 10 lines
        args = ["spectrum", "--model", "xibar", "--n", "1..10",
                "--cache", "c.jsonl"]
        assert run(args, tmp_path) == 0
        first = [(tmp_path / f"spectrum_xibar.{ext}").read_bytes()
                 for ext in ("csv", "json")]
        for _ in range(2):
            assert run(args, tmp_path) == 0
            assert [(tmp_path / f"spectrum_xibar.{ext}").read_bytes()
                    for ext in ("csv", "json")] == first
            assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 10

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

    def test_removed_step_key_is_config_error(self, tmp_path, capsys):
        # the step size is the integrator's own: h_max is no config key
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = cos\nn = 1\nh_max = 0.1\n")
        assert run(["spectrum", "--config", str(cfg)], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "'h_max'" in err and "Traceback" not in err


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
        curve = spectrum.refine_backward(make_model("cos"), 3).curve
        assert xs == list(curve.grid) and ys == list(curve.values)

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
        model = make_model(spec)
        res, curve = separatrix_curve(model, n, coords)
        rec = spectrum.refine_backward(model, n).curve
        assert curve.coords == rec.coords == coords
        assert np.array_equal(curve.grid, rec.grid)
        assert np.array_equal(curve.values, rec.values)
        assert (curve.maxima, curve.maxima_values, curve.minima,
                curve.minima_values) == (rec.maxima, rec.maxima_values,
                                         rec.minima, rec.minima_values)
        assert res.E == spectrum.refine_backward(model, n).E

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

    def test_alpha_required_in_range(self, tmp_path):
        assert run(["limit-curve", "--alpha", "-1.5"], tmp_path) == 2

    def test_bytes_pinned(self, tmp_path):
        # written through ode.curve_csv_text, the curve CSV writer; the
        # bytes of the command's earlier inline format
        assert run(["limit-curve", "--alpha", "0", "--points", "5"],
                   tmp_path) == 0
        body = (tmp_path / "limit_alpha0.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == (
            "aad7afe7ae803be38d9cabaea2f4c292f68b29b0de5b109b07479abcc8418cc4")


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
