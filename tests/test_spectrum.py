"""Eigenvalue machinery: classifier behavior, bisection/backward agreement,
spectrum sweeps, and serialization."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nleig import ode, spectrum
from nleig.cache import record_line
from nleig.cli import main
from nleig.models import (RGAMMA_N_MAX, Frame, eval_F_prime, make_model,
                          zero_table)
from nleig.ode import IntegratorConfig
from nleig.rootfind import RootError
from nleig.spectrum import (BracketError, ConfigError, classify, find_eigen,
                            refine_backward, separatrix_curve,
                            spectrum_csv_text, spectrum_json_text,
                            spectrum_scan)
from nleig.specfun import DomainError

# E_1 for y' = cos(pi x y): confirmed by an independent reference
# integration (the attractor of x*y jumps from 0.5 to 2.5 between
# E = 1.602 and E = 1.603)
COS_E1 = 1.6025729321


class TestClassify:
    def test_below_first_eigenvalue(self):
        assert classify(make_model("cos"), 0.3) == 0

    def test_well_below_with_tiny_value(self):
        assert classify(make_model("cos"), 1e-3) == 0

    def test_between_first_and_second(self):
        assert classify(make_model("cos"), 2.0) == 1

    def test_just_above_eigenvalue(self):
        m = make_model("bessel:0")
        r = find_eigen(m, 3, tol=1e-9)
        assert classify(m, r.E * (1.0 + 1e-6), n_hint=3) == 3

    def test_monotone_in_E(self):
        m = make_model("cos")
        cls = [classify(m, e) for e in np.linspace(0.5, 3.1, 21)]
        assert all(b >= a for a, b in zip(cls, cls[1:]))

    def test_needs_positive(self):
        with pytest.raises(ValueError):
            classify(make_model("cos"), 0.0)

    @pytest.mark.parametrize("n_hint", [7, 8])
    def test_unresolved_shot_raises(self, n_hint):
        # a hint far above the index starts the scaled shot so low that the
        # last horizon holds one minimum or none; that count is no class
        # (it read 1 and 0, where hints 3..6 and the raw run give 3)
        with pytest.raises(RuntimeError, match="unresolved at the horizon"):
            classify(make_model("rgamma"), 50.0, n_hint=n_hint)

    def test_rgamma_raw_frame(self):
        # without n_hint the shot runs in raw coordinates, where trial
        # stages probe xy far below -1; the clamp at -1 keeps them inside
        # the domain of 1/Gamma(-u), and the class is the scaled frame's
        m = make_model("rgamma")
        assert classify(m, 1e4) == classify(m, 1e4, n_hint=6) == 6


class TestFindEigen:
    def test_cosine_first(self):
        r = find_eigen(make_model("cos"), 1, tol=1e-10)
        assert r.E == pytest.approx(COS_E1, rel=1e-9)
        assert r.bracket[0] < r.E <= r.bracket[1]
        assert r.residual <= 1e-10
        assert r.maxima == 1
        assert r.method == "bisection"

    @pytest.mark.parametrize("x_max", [0.001, 0.01])
    def test_unresolved_shot_raises(self, x_max):
        # horizons this short end cos shots before they settle; their
        # minima counts (0 and 2) once bracketed E_3 at 18.34 and 2.97737
        with pytest.raises(RuntimeError, match="unresolved at the horizon"):
            find_eigen(make_model("cos"), 3, cfg=IntegratorConfig(x_max=x_max))

    def test_evidence_brackets_class_jump(self):
        r = find_eigen(make_model("cos"), 2, tol=1e-9)
        assert r.evidence["lo_class"] == 1
        assert r.evidence["hi_class"] >= 2
        assert r.evidence["classifier"] in ("maxima-jump", "attractor-jump")

    @pytest.mark.parametrize("spec,n", [("cos", 3), ("bessel:0", 2)])
    def test_evidence_from_final_bracket(self, spec, n):
        # the initial bracket of these indices starts below class n-1
        ev = find_eigen(make_model(spec), n).evidence
        assert ev["lo_class"] == n - 1
        assert ev["hi_class"] == n

    def test_bracket_endpoint_classes(self):
        m = make_model("cos")
        r = find_eigen(m, 2, tol=1e-9)
        assert classify(m, r.bracket[0], n_hint=2) == 1
        assert classify(m, r.bracket[1] * (1 + 1e-12), n_hint=2) == 2

    def test_growth_prediction_brackets_large_n(self):
        # bracket comes from A n^gamma +- 50% without widening for big n
        r = find_eigen(make_model("cos"), 12, tol=1e-9)
        assert r.E == pytest.approx(2.0 ** (5.0 / 6.0) * math.sqrt(12.0),
                                    rel=0.05)

    def test_default_tolerances(self):
        assert make_model("cos").default_tol == 1e-10
        assert make_model("rgamma").default_tol == 1e-8
        assert make_model("xibar").default_tol == 1e-6


class TestCrossMethod:
    @pytest.mark.parametrize("spec,n", [("cos", 1), ("cos", 6),
                                        ("bessel:0", 4), ("bessel:1", 2),
                                        ("airy", 3)])
    def test_backward_agrees_with_bisection(self, spec, n):
        m = make_model(spec)
        rb = refine_backward(m, n)
        rf = find_eigen(m, n, tol=1e-10)
        assert abs(rb.E - rf.E) / rf.E <= 1e-8
        assert rb.method == "backward"
        assert rb.maxima == n

    def test_rgamma_cross(self):
        m = make_model("rgamma")
        rb = refine_backward(m, 1)
        rf = find_eigen(m, 1, tol=1e-8)
        assert abs(rb.E - rf.E) / rf.E <= 1e-6


class TestBackwardCurve:
    RECORD_KEYS = {"model", "n", "tol", "E", "lo", "hi", "method",
                   "evidence", "residual", "maxima", "log10_E"}

    def test_curve_attached_outside_the_record(self):
        # only an export records; an eigenvalue run's result has no curve
        assert refine_backward(make_model("cos"), 3).curve is None
        r, _ = separatrix_curve(make_model("cos"), 3, "raw")
        assert r.curve.coords == "raw"
        assert r.curve.meta == {"model": "cos", "n": 3}
        assert r.maxima == 3
        assert set(r.to_record()) == self.RECORD_KEYS
        rg, _ = separatrix_curve(make_model("rgamma"), 3, "scaled")
        assert rg.curve.coords == "scaled"
        assert set(rg.to_record()) == self.RECORD_KEYS | {"z0"}
        assert "curve" not in repr(r)

    def test_export_result_holds_the_converted_curve(self):
        # the result keeps the returned curve, not the run's unconverted one
        res, curve = separatrix_curve(make_model("bessel:0"), 2, "scaled")
        assert res.curve is curve and curve.coords == "scaled"

    def test_equality_ignores_the_curve(self):
        m = make_model("bessel:0")
        a, b = (separatrix_curve(m, 2, "scaled")[0] for _ in range(2))
        assert a.curve is not b.curve
        assert a == b
        assert a == dataclasses.replace(a, curve=None)
        assert a != dataclasses.replace(a, E=a.E * 2.0)

    def test_scan_results_carry_no_curve(self):
        res, _ = spectrum_scan(make_model("cos"), range(1, 3),
                               method="backward")
        assert [r.curve for r in res] == [None, None]


def rgamma_eigenvalue_from(n, t0, cfg):
    """E_n of a backward run from t0 seeded with z(t0) = (1 - corr)/t0,
    corr = 1/(t0^2 F'(s)) in raw units, F'(s) = Gamma(2n) at s = 2n - 1."""
    frame = Frame(make_model("rgamma"), n)
    corr = math.exp(-(2.0 * math.log(t0) + math.log(frame.lam)
                      - frame.ln_xi + math.lgamma(2.0 * n)))
    eng = ode.Engine(frame, t0, (1.0 - corr) / t0, cfg, direction=-1)
    eng.run(0.0)
    return eng.y * frame.y_scale


class TestSeedPlacement:
    """An eigenvalue run starts at the contraction bound; an exported curve
    starts where its seed correction is a tenth of the half-gap from s to
    its nearer neighbour (and at most 2 % of s).  rgamma runs in scaled
    coordinates, where both starts are its own."""

    @staticmethod
    def bounds(model, n):
        """(contraction bound, export start) of index n, raw."""
        table = zero_table(model)
        s = table.nth_unstable(n).u
        fp = eval_F_prime(model, s)
        xt = Frame(model, n).x_scale
        k = 2 * n       # s is the k-th zero
        halfgap = 0.5 * min(table.zero(k + 1).u - s, s - table.zero(k - 1).u)
        contraction = max(xt * xt + 90.0 / fp, (1.3 * xt) ** 2)
        export = max(s / (fp * min(0.1 * halfgap, 0.02 * s)), contraction)
        return math.sqrt(contraction), math.sqrt(export)

    @pytest.mark.parametrize("spec, n", [("cos", 40), ("bessel:0", 60),
                                         ("bessel:2.5", 20), ("airy", 30)])
    def test_starts(self, spec, n):
        m = make_model(spec)
        contraction, export = self.bounds(m, n)
        assert export > 1.5 * contraction
        assert refine_backward(m, n).evidence["x0"] == contraction
        assert refine_backward(m, n, _export=True).evidence["x0"] == export

    @pytest.mark.parametrize("spec, n", [("cos", 65), ("cos", 130),
                                         ("airy", 200), ("bessel:0", 500)])
    def test_contraction_erases_the_tail(self, spec, n):
        # the stretch between the two starts changes E by less than the
        # integration error: against a rel_tol 1e-13 run the eigenvalue
        # start is as accurate as the export start
        m = make_model(spec)
        eig = refine_backward(m, n).E
        exported = refine_backward(m, n, _export=True).E
        ref = refine_backward(m, n, _export=True, cfg=IntegratorConfig(
            rel_tol=1e-13, abs_tol=1e-15)).E
        assert abs(eig - exported) <= 1e-10 * exported
        assert abs(eig - ref) <= 1.2 * abs(exported - ref)

    # E_1 and E_2 as they were from t0 = 3
    RGAMMA_E_AT_3 = {1: "0x1.adc05ff5dc007p-1", 2: "0x1.35de90b642ab5p+1"}

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 20, 150])
    def test_rgamma_start(self, n):
        # the smallest t0 in [1.3, 3] where the seed correction
        # 1/(t0^2 F'(s)) is at most 4e-3, and 3 where none is; an exported
        # curve starts at 3
        rgamma = make_model("rgamma")
        frame = Frame(rgamma, n)
        corr_1 = math.exp(-(math.log(frame.lam) - frame.ln_xi
                            + math.lgamma(2.0 * n)))     # at t0 = 1
        t0 = refine_backward(rgamma, n).evidence["x0"] / frame.x_scale
        bound = math.sqrt(corr_1 / 4e-3)
        if bound >= 3.0:
            assert t0 == 3.0
        else:
            assert t0 == pytest.approx(max(1.3, bound), rel=1e-12)
        assert (refine_backward(rgamma, n, _export=True).evidence["x0"]
                == 3.0 * frame.x_scale)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rgamma_first_two_stay_at_3(self, n):
        res = refine_backward(make_model("rgamma"), n)
        assert res.E.hex() == self.RGAMMA_E_AT_3[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 20, 80, 150])
    def test_rgamma_start_erases_the_seed_error(self, n):
        # against rel_tol 1e-13 runs from t0 = 6, twice the export start:
        # where the start moved below 3 (n >= 3) the seed error is gone
        # (n = 1 keeps 4.5e-10 of it at t0 = 3)
        rgamma = make_model("rgamma")
        tight = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
        conv = rgamma_eigenvalue_from(n, 6.0, tight)
        if n >= 3:
            assert abs(refine_backward(rgamma, n, cfg=tight).E - conv) \
                <= 1e-12 * conv
        # at the default rel_tol 1e-10 the integration error grows with n,
        # to 2.6e-9 and 3.6e-9 at n = 80 and 150 (1.9e-9 and 3.4e-9 from
        # t0 = 3), past a quarter of tol; up to n = 20 it stays inside
        if n <= 20:
            res = refine_backward(rgamma, n)
            assert abs(res.E - conv) <= res.tol / 4.0 * conv


class TestBackwardProperties:
    @given(st.sampled_from(["cos", "bessel:0"]), st.integers(1, 40),
           st.integers(2, 4))
    @settings(max_examples=6, deadline=None)
    def test_spectrum_strictly_increasing(self, spec, start, count):
        res, errs = spectrum_scan(make_model(spec),
                                  range(start, start + count),
                                  method="backward")
        assert not errs
        es = [r.E for r in res]
        assert len(es) == count
        assert all(b > a for a, b in zip(es, es[1:]))

    @given(st.sampled_from(["cos", "bessel:0", "airy", "rgamma"]),
           st.integers(1, 60))
    @settings(max_examples=8, deadline=None)
    def test_separatrix_maxima_equal_index(self, spec, n):
        assert refine_backward(make_model(spec), n).maxima == n

    @given(st.sampled_from(["cos", "bessel:0", "airy", "rgamma", "xibar"]),
           st.integers(1, 30), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_scan_records_equal_refine_backward(self, spec, start, count):
        # a scan's runs record nothing; each record is still refine_backward's
        # bit for bit, maxima included (rgamma n = 1 has no event)
        model = make_model(spec)
        if spec == "xibar":
            start = 1 + start % 5
        ns = range(start, start + count)
        res, errs = spectrum_scan(model, ns, method="backward")
        assert not errs and [r.curve for r in res] == [None] * count
        assert [record_line(r.to_record()) for r in res] == [
            record_line(refine_backward(model, n).to_record()) for n in ns]


class TestSpectrumScan:
    def test_cosine_strictly_increasing(self):
        res, errs = spectrum_scan(make_model("cos"), range(1, 7), tol=1e-9)
        assert not errs
        es = [r.E for r in res]
        assert all(b > a for a, b in zip(es, es[1:]))
        assert [r.maxima for r in res] == [1, 2, 3, 4, 5, 6]

    def test_backward_method(self):
        res, errs = spectrum_scan(make_model("cos"), range(1, 5),
                                  tol=1e-9, method="backward")
        assert not errs
        assert all(r.method == "backward" for r in res)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            spectrum_scan(make_model("cos"), [])
        with pytest.raises(ValueError):
            spectrum_scan(make_model("cos"), [3, 2])

    @pytest.mark.parametrize("kw", [
        {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"tol": 1e-13},
        {"tol": -1e-8, "method": "backward"}, {"method": "foo"}])
    def test_bad_settings_refused_before_any_engine(self, monkeypatch, kw):
        def no_engine(*args, **kw):
            raise AssertionError("an Engine was built")
        monkeypatch.setattr(ode.Engine, "__init__", no_engine)
        with pytest.raises(ConfigError):
            spectrum_scan(make_model("cos"), [1, 2], **kw)

    def test_serialization(self):
        res, _ = spectrum_scan(make_model("cos"), range(1, 4), tol=1e-9)
        records = [r.to_record() for r in res]
        lines = spectrum_csv_text(records).strip().splitlines()
        assert lines[0] == "n,E,residual,method,maxima"
        assert len(lines) == 4
        payload = json.loads(spectrum_json_text(records))
        assert [p["n"] for p in payload] == [1, 2, 3]
        assert payload[0]["E"] == res[0].E
        for key in ("model", "n", "tol", "E", "lo", "hi", "method",
                    "evidence", "residual", "maxima"):
            assert key in payload[0]


# spectrum_scan(xibar, [1, 2, 3, 4]) at the default tol: (n, E hex, maxima,
# lo_class, hi_class), and the first 60 zeros of the xibar zero table
XIBAR_SCAN_1_4 = [
    (1, "0x1.466f0e3ff0834p+2", 1, 0, 1),
    (2, "0x1.74a0b80827492p+2", 2, 1, 2),
    (3, "0x1.76a1709fcb4ccp+2", 3, 2, 3),
    (4, "0x1.bc7403c969f5ep+2", 4, 3, 4),
]
XIBAR_ZEROS_60 = """
0x1.c44fab19b657ep+3 0x1.505a463c7bd9cp+4 0x1.902c78ff7a3fcp+4
0x1.e6cc4ae896b42p+4 0x1.077b0191d8b01p+5 0x1.2cb07e2cae4bbp+5
0x1.4759895a7b18fp+5 0x1.5a9dd898a7696p+5 0x1.800a8c8b91450p+5
0x1.8e30cf15017bdp+5 0x1.a7c337e82b1f7p+5 0x1.c391ea50066a6p+5
0x1.dac6bf018b987p+5 0x1.e6a77b7fc5b59p+5 0x1.04733ebf377b4p+6
0x1.0c51b9d9f8374p+6 0x1.162f83ee1fe2cp+6 0x1.2044c4fb3e4c2p+6
0x1.2ed19a7049728p+6 0x1.349450f47be02p+6 0x1.3d5978d659d58p+6
0x1.4ba43ae0ecd0ep+6 0x1.52f1251267094p+6 0x1.5db37b302cc5ep+6
0x1.633c87a5fe78ep+6 0x1.71f7b4713fe5ap+6 0x1.7a9af9eea1ea0p+6
0x1.7f7b878a045d8p+6 0x1.8b532493bf102p+6 0x1.95457abbea76ep+6
0x1.9ee6f371af702p+6 0x1.a5c9578dad858p+6 0x1.acaca86908d40p+6
0x1.bc1e3e90bfeecp+6 0x1.bf7fa6a7c1508p+6 0x1.c947e7fddd75cp+6
0x1.d0e81ee2d2eb0p+6 0x1.db29c2fbce6cap+6 0x1.e57b020c734f8p+6
0x1.ebc98d9e4ad06p+6 0x1.f106fb716fae8p+6 0x1.fe11159434f44p+6
0x1.03284beab9bcbp+7 0x1.062ce582d92e0p+7 0x1.0afed76921c18p+7
0x1.0d83553f13b17p+7 0x1.143b69dd3a5d4p+7 0x1.1778f06138c41p+7
0x1.1a3f5693ad171p+7 0x1.1e3943da8bda1p+7 0x1.240080c6c90d5p+7
0x1.26d874b2f0597p+7 0x1.2c1b670751e12p+7 0x1.2dd9bb5da1e82p+7
0x1.320ca4aacf070p+7 0x1.3839cf3f3c54cp+7 0x1.3b31f78e01d8dp+7
0x1.3db331a64c79ep+7 0x1.4260bfe84e2e9p+7 0x1.460fb92e1c3b7p+7
""".split()


class TestXiBarPins:
    """The xibar eigenvalues and zeros, pinned bit for bit: xi_bar's
    evaluation may be restructured, its classifications may not move, and
    the zero ordinates come from its direct route alone."""

    def test_scan_1_to_4(self):
        res, errs = spectrum_scan(make_model("xibar"), [1, 2, 3, 4])
        assert not errs
        assert [(r.n, r.E.hex(), r.maxima, r.evidence["lo_class"],
                 r.evidence["hi_class"]) for r in res] == XIBAR_SCAN_1_4

    def test_scan_from_a_later_index(self):
        # each index is computed on its own, so a scan from 7 or 8 is the
        # tail of the scan from 1 (E_8, E_9 lie 2e-12 apart, a pair whose
        # brackets each hold one jump)
        xb = make_model("xibar")
        full, errs = spectrum_scan(xb, range(1, 11))
        assert not errs

        def key(res):
            return [(r.n, r.E.hex(), r.tol) for r in res]
        for start in (7, 8):
            tail, errs = spectrum_scan(xb, range(start, 11))
            assert not errs
            assert key(tail) == key(full[start - 1:])

    def test_zero_table(self):
        tab = zero_table(make_model("xibar"))
        assert [tab.zero(k).u.hex() for k in range(1, 61)] == XIBAR_ZEROS_60


class TestJumpIsolation:
    """find_eigen narrows its final bracket until it holds E_n's jump alone
    (hi reads n past the n-th minimum, lo reads n - 1), so a record is the
    same in any scan, and E_n sharing a pair of adjacent doubles with
    E_{n+1} is an error of index n."""

    @pytest.fixture(scope="class")
    def scan_1_12(self):
        return spectrum_scan(make_model("xibar"), range(1, 13))

    @staticmethod
    def read_past(model, n, E, tol):
        """Class of E with the minima stop one past n, at find_eigen's
        tight settings."""
        sh = spectrum._Shooter(model, n, spectrum._ode_cfg(tol, None))
        return sh.shoot(E / sh.frame.y_scale, stop_at=n + 1)[0]

    def test_xibar_records_hold_one_jump(self, scan_1_12):
        xb = make_model("xibar")
        results, _ = scan_1_12
        assert [r.n for r in results[:10]] == list(range(1, 11))
        for r in results[:10]:
            n = r.n
            assert find_eigen(xb, n) == r
            assert r.tol == 1e-6
            assert (r.evidence["lo_class"], r.evidence["hi_class"]) == (n - 1,
                                                                        n)
            assert self.read_past(xb, n, r.E, r.tol) == n
            assert self.read_past(xb, n, r.bracket[0], r.tol) == n - 1

    def test_first_binary64_coincidence(self, scan_1_12, tmp_path, capsys,
                                        monkeypatch):
        xb = make_model("xibar")
        results, errors = scan_1_12
        assert [r.n for r in results] == list(range(1, 12))
        assert [e["n"] for e in errors] == [12]
        assert errors[0]["error"].startswith(
            "BracketError: E_12 and E_13 coincide in binary64")
        # the reported bracket: adjacent doubles, class 11 below and class
        # 13 above, read past the 12th minimum
        lo, hi = map(float, re.search(r"between (\S+) and (\S+)\)",
                                      errors[0]["error"]).groups())
        assert math.nextafter(lo, math.inf) == hi
        assert self.read_past(xb, 12, lo, 1e-6) == 11
        assert self.read_past(xb, 12, hi, 1e-6) == 13
        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--model", "xibar", "--n", "12",
                     "--no-cache"]) == 1
        assert ("n=12: BracketError: E_12 and E_13 coincide"
                in capsys.readouterr().err)


# spectrum_scan(model, [n]) at the default tol: (spec, n, E hex, lo hex,
# maxima, signal of the class-n end: "M" maxima-jump, "A" attractor-jump)
BISECTION_PINS = [
    ("cos", 1, "0x1.9a42383cca8a9p+0", "0x1.9a42383c3ee0ap+0", 1, "M"),
    ("cos", 2, "0x1.31b5b839da42ap+1", "0x1.31b5b8398ed54p+1", 2, "M"),
    ("cos", 3, "0x1.7d03ee45ac49fp+1", "0x1.7d03ee4522c5cp+1", 3, "M"),
    ("cos", 4, "0x1.bbd8666d2710ap+1", "0x1.bbd8666c6da37p+1", 4, "M"),
    ("cos", 5, "0x1.f2e0c13e93b5fp+1", "0x1.f2e0c13e1f0cap+1", 5, "M"),
    ("cos", 6, "0x1.1238eb9293a14p+2", "0x1.1238eb9246638p+2", 6, "M"),
    ("cos", 7, "0x1.28f3fdec138a0p+2", "0x1.28f3fdebb9251p+2", 7, "M"),
    ("cos", 8, "0x1.3e11b1e56b169p+2", "0x1.3e11b1e5038abp+2", 8, "M"),
    ("bessel:0", 1, "0x1.5cee036412dd0p+0", "0x1.5cee0363bcc21p+0", 1, "M"),
    ("bessel:0", 2, "0x1.d9abf6d31e21fp+0", "0x1.d9abf6d28b038p+0", 2, "M"),
    ("airy", 1, "0x1.420ee104f21c4p+0", "0x1.420ee104abeacp+0", 1, "M"),
    ("airy", 2, "0x1.ad1a82d663608p+0", "0x1.ad1a82d5fe61ap+0", 2, "M"),
    ("rgamma", 1, "0x1.adc0601ea9a54p-1", "0x1.adc05fde134a6p-1", 1, "M"),
    ("rgamma", 2, "0x1.35de90bf65ba0p+1", "0x1.35de90a1fdb50p+1", 2, "M"),
    ("rgamma", 3, "0x1.8020c8d3f6966p+3", "0x1.8020c8ad07e11p+3", 3, "M"),
    ("rgamma", 4, "0x1.51fa70b2d94cap+6", "0x1.51fa708f75e7cp+6", 4, "M"),
    ("rgamma", 5, "0x1.7edc64598bc54p+9", "0x1.7edc64308ea14p+9", 5, "M"),
    ("rgamma", 6, "0x1.0928c00a9a9a1p+13", "0x1.0928bfedbe6c8p+13", 6, "M"),
    ("rgamma", 7, "0x1.b21fefb179685p+16", "0x1.b21fef819d3dbp+16", 7, "M"),
    ("rgamma", 8, "0x1.9a0a183b2126fp+20", "0x1.9a0a180d74fb0p+20", 8, "M"),
    ("rgamma", 9, "0x1.b6df0da2962c3p+24", "0x1.b6df0d71494afp+24", 9, "M"),
    ("rgamma", 10, "0x1.0672c5d421115p+29", "0x1.0672c5b66fb56p+29", 10, "M"),
]


class TestBisectionPins:
    """Every bisection eigenvalue of the bisect-small benchmark workload,
    pinned bit for bit with its final bracket and evidence: the forward
    shots may stop earlier, the classes they report may not move."""

    @pytest.mark.parametrize("spec, n, e_hex, lo_hex, maxima, signal",
                             BISECTION_PINS)
    def test_record(self, spec, n, e_hex, lo_hex, maxima, signal):
        res, errs = spectrum_scan(make_model(spec), [n])
        assert not errs
        r = res[0]
        hi_signal = {"M": "maxima-jump", "A": "attractor-jump"}[signal]
        assert (r.E.hex(), r.bracket[0].hex(), r.maxima) == (e_hex, lo_hex,
                                                             maxima)
        assert r.evidence == {"lo_class": n - 1, "lo_signal": "attractor-jump",
                              "hi_class": n, "hi_signal": hi_signal,
                              "classifier": hi_signal}


def _record_shots(monkeypatch):
    """Wrap _Shooter.shoot to log (y0, stop_at, class) per shot."""
    shots = []
    shoot = spectrum._Shooter.shoot

    def wrapper(self, y0, stop_at=None):
        res = shoot(self, y0, stop_at)
        shots.append((y0, stop_at, res[0]))
        return res
    monkeypatch.setattr(spectrum._Shooter, "shoot", wrapper)
    return shots


def _pinned(spec, n):
    row = next(p for p in BISECTION_PINS if p[:2] == (spec, n))
    return row[2], row[3], row[4]


def _no_estimate(mp):
    """Run find_eigen's search without the backward estimate, so that every
    decision is a shot."""
    mp.setattr(spectrum, "_backward_estimate", lambda *args: None)


class TestBackwardEstimate:
    """find_eigen answers a bisection decision far from its backward
    estimate without a shot, and the result is the no-estimate search's bit
    for bit; a wrong estimate fails an end check and falls back, and a
    backward run that raises leaves the no-estimate search."""

    # the no-estimate fallback bisects (0.5 pred, 1.5 pred) down to a
    # relative width of 1e-6: at least log2(1 / 1.5e-6) > 19 midpoint shots
    # alone
    FALLBACK_SHOTS = 19

    @staticmethod
    def key(r):
        return r.E.hex(), r.bracket[0].hex(), r.evidence, r.maxima

    @given(st.one_of(
               st.tuples(st.sampled_from(["cos", "bessel:0", "airy", "rgamma",
                                          "bessel:2.5"]), st.integers(1, 5)),
               st.tuples(st.just("xibar"), st.integers(1, 4))),
           st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]))
    @settings(max_examples=20, deadline=None)
    def test_equals_all_tight_search(self, case, tol):
        spec, n = case
        model = make_model(spec)
        estimated = find_eigen(model, n, tol=tol)
        with pytest.MonkeyPatch.context() as mp:
            _no_estimate(mp)
            all_tight = find_eigen(model, n, tol=tol)
        assert self.key(estimated) == self.key(all_tight)

    @pytest.mark.parametrize("factor", [1.2, 0.3])
    def test_wrong_side_estimate_falls_back(self, monkeypatch, factor):
        model = make_model("cos")
        e3 = float.fromhex(_pinned("cos", 3)[0])
        with pytest.MonkeyPatch.context() as mp:
            _no_estimate(mp)
            all_tight = _record_shots(mp)
            find_eigen(model, 3)
        monkeypatch.setattr(spectrum, "_backward_estimate",
                            lambda *args: factor * e3)
        shots = _record_shots(monkeypatch)
        r = find_eigen(model, 3)
        assert (r.E.hex(), r.bracket[0].hex(), r.maxima) == _pinned("cos", 3)
        assert {y0 for y0, _, _ in all_tight} <= {y0 for y0, _, _ in shots}
        if factor < 0.5:
            # the estimate lies below the lower end, so each widening it
            # predicts there is shot first: the initial lower end reads
            # class 3 and widens, the next one reads below 3 and stays
            lo = 0.5 * model.predict(3)
            assert shots[0] == (lo, 3, 3)
            assert shots[1][:2] == (lo / 1.6, 3) and shots[1][2] < 3

    @pytest.mark.parametrize("exc", [BracketError, RootError, RuntimeError,
                                     OverflowError, DomainError])
    def test_failed_backward_run_searches_without_estimate(self, monkeypatch,
                                                           exc):
        model = make_model("cos")
        with pytest.MonkeyPatch.context() as mp:
            _no_estimate(mp)
            all_tight = _record_shots(mp)
            find_eigen(model, 3)

        def fail(*args, **kwargs):
            raise exc("backward run failed")
        monkeypatch.setattr(spectrum, "refine_backward", fail)
        shots = _record_shots(monkeypatch)
        r = find_eigen(model, 3)
        assert (r.E.hex(), r.bracket[0].hex(), r.maxima) == _pinned("cos", 3)
        assert shots == all_tight

    @pytest.mark.parametrize("n, budget", [(3, 12), (30, 15)])
    def test_shot_budget(self, monkeypatch, n, budget):
        shots = _record_shots(monkeypatch)
        find_eigen(make_model("cos"), n)
        assert len(shots) <= budget

    def test_workload_shot_budget(self, monkeypatch):
        # every pinned bisection eigenvalue and xibar 1..4, at the default
        # tol: 2.73 shots per eigenvalue when the estimate is tight
        cases = [(spec, n) for spec, n, *_ in BISECTION_PINS]
        cases += [("xibar", n) for n in range(1, 5)]
        shots = _record_shots(monkeypatch)
        for spec, n in cases:
            find_eigen(make_model(spec), n)
        assert len(shots) <= 3.5 * len(cases)

    # rgamma's records at tol 1e-12, (E, lower bracket end) as hex and the
    # maxima, as every decision shot gives them
    RGAMMA_TIGHT = {
        2: ("0x1.35de90b646ae3p+1", "0x1.35de90b645c2fp+1", 2),
        3: ("0x1.8020c8b683130p+3", "0x1.8020c8b681db9p+3", 3),
        4: ("0x1.51fa708fb2baap+6", "0x1.51fa708fb19f8p+6", 4),
        5: ("0x1.7edc6444fdd45p+9", "0x1.7edc6444fc8c6p+9", 5),
        6: ("0x1.0928c00606296p+13", "0x1.0928c00605428p+13", 6),
        7: ("0x1.b21fefaf21a95p+16", "0x1.b21fefaf202a7p+16", 7),
        8: ("0x1.9a0a18149abcap+20", "0x1.9a0a1814994f4p+20", 8),
    }

    @pytest.mark.parametrize("spec, n", [("rgamma", 1), ("rgamma", 2),
                                         ("xibar", 1)]
                             + [("rgamma", n) for n in range(3, 9)])
    def test_seed_floor(self, monkeypatch, spec, n):
        # the seed leaves 4.5e-10 in rgamma's backward E_1 and about 5e-12
        # in xibar's every E_n, at every rel_tol: without the kind's
        # seed_floor(n) the margin at tol 1e-12 is 1e-12 n, and rgamma n = 1
        # falls back after 47 shots.  rgamma's E_2 onward carry no seed
        # error, and a floor of 1e-9 there cost 12 shots where 4 or 5 do
        shots = _record_shots(monkeypatch)
        r = find_eigen(make_model(spec), n, tol=1e-12)
        assert len(shots) < self.FALLBACK_SHOTS
        if spec == "rgamma" and n > 1:
            assert len(shots) <= 6
            assert (r.E.hex(), r.bracket[0].hex(),
                    r.maxima) == self.RGAMMA_TIGHT[n]

    def test_no_fallback_at_large_n(self, monkeypatch):
        # the backward error grows with n, and so does the margin
        shots = _record_shots(monkeypatch)
        for spec, ns in [("cos", range(18, 31)), ("rgamma", range(20, 31))]:
            model = make_model(spec)
            for n in ns:
                shots.clear()
                find_eigen(model, n)
                assert len(shots) < self.FALLBACK_SHOTS, (spec, n)


class TestGrowthConstantEmpirical:
    def test_airy_constant_from_spectrum(self):
        # the closed-form amplitude for airy evaluates to ~1.72331; two
        # backward eigenvalues pin the empirical constant to a percent
        from nleig.asymptotics import growth_law
        m = make_model("airy")
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
        es = {n: refine_backward(m, n, cfg=cfg, tol=1e-8).E
              for n in (50, 200)}
        design = np.array([[50.0 ** 0.25, 50.0 ** -0.25],
                           [200.0 ** 0.25, 200.0 ** -0.25]])
        coef = np.linalg.solve(design, np.array([es[50], es[200]]))
        assert coef[0] == pytest.approx(growth_law(m).A, rel=0.01)


class TestRGammaReporting:
    def test_scaled_value_reported(self):
        r = find_eigen(make_model("rgamma"), 3, tol=1e-7)
        assert r.z0 is not None
        assert 0.8 < r.z0 < 1.5
        assert r.log10_E == pytest.approx(math.log10(r.E), abs=1e-9)

    def test_scaled_attempt_beyond_linear_range(self):
        # n = 80: the scaled backward pass works and reports log10(E)
        r = refine_backward(make_model("rgamma"), 80, tol=1e-8)
        assert r.z0 is not None and 0.9 < r.z0 < 1.3
        assert r.log10_E is not None and 140.0 < r.log10_E < 144.0

    @pytest.mark.parametrize("n", [86, 150, 159])
    def test_backward_past_gamma_overflow(self, n):
        # F'(2n - 1) = Gamma(2n) exceeds binary64 from n = 86 on; E_n
        # itself fits up to RGAMMA_N_MAX = 150 and is refused past it
        m = make_model("rgamma")
        if n > RGAMMA_N_MAX:
            with pytest.raises(DomainError, match="binary64"):
                refine_backward(m, n)
            return
        prev, r = refine_backward(m, n - 1), refine_backward(m, n)
        assert math.isfinite(r.E) and r.E > prev.E
        assert r.log10_E == pytest.approx(math.log10(r.E), abs=1e-9)

    @pytest.mark.parametrize("call", [
        lambda m: refine_backward(m, 160),
        lambda m: find_eigen(m, 151),
        lambda m: spectrum_scan(m, [149, 150, 151], method="backward"),
    ])
    def test_refused_past_binary64(self, call):
        with pytest.raises(DomainError, match=f"n > {RGAMMA_N_MAX}"):
            call(make_model("rgamma"))
