"""Eigenvalue cache: exact-key lookups and records of an older layout."""

import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from nleig import cache as cache_mod
from nleig.cache import EigenCache, record_line
from nleig.ode import IntegratorConfig

# (n, tol, method, rel_tol): every field a lookup must match
KEYS = st.tuples(st.integers(1, 3), st.sampled_from([1e-8, 1e-10]),
                 st.sampled_from(["bisection", "backward"]),
                 st.sampled_from([1e-9, 1e-12]))
ALL_KEYS = [(n, tol, m, rt) for n in (1, 2, 3) for tol in (1e-8, 1e-10)
            for m in ("bisection", "backward") for rt in (1e-9, 1e-12)]


def _settings(rel_tol):
    return EigenCache.settings_text(
        IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2))


def _get(cache, key):
    n, tol, method, rel_tol = key
    return cache.get("cos", n, tol, method, _settings(rel_tol))


def _record(key, serial):
    n, tol, method, rel_tol = key
    return EigenCache.stamp({"model": "cos", "n": n, "tol": tol,
                             "method": method, "E": float(serial)},
                            _settings(rel_tol))


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), KEYS), max_size=16))
def test_get_returns_last_put_under_exact_key(ops):
    """Interleaved puts (True) and gets (False): each get returns the last
    record put under exactly its key and None for any other key; a fresh
    instance on the same file agrees on every key."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cache.jsonl")
        cache = EigenCache(path)
        want = {}
        for serial, (is_put, key) in enumerate(ops):
            if is_put:
                cache.put(_record(key, serial))
                want[key] = serial
            else:
                got = _get(cache, key)
                assert (None if got is None else got["E"]) == want.get(key)
        fresh = EigenCache(path)
        for key in ALL_KEYS:
            for c in (cache, fresh):
                got = _get(c, key)
                assert (None if got is None else got["E"]) == want.get(key)


def test_older_schema_lines_are_not_served(tmp_path):
    path = tmp_path / "cache.jsonl"
    key = (2, 1e-10, "bisection", 1e-12)
    rec = _record(key, 3)
    seed_format = {k: v for k, v in rec.items()
                   if k not in ("schema", "integrator")}
    other_version = dict(rec, schema=cache_mod.SCHEMA + 1)
    path.write_text(json.dumps(seed_format) + "\n"
                    + json.dumps(other_version) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _get(EigenCache(path), key) is None


def test_put_of_a_held_line_appends_nothing(tmp_path):
    path = tmp_path / "cache.jsonl"
    key = (1, 1e-8, "backward", 1e-9)
    EigenCache(path).put(_record(key, 1))
    cache = EigenCache(path)
    line = path.read_text()
    assert cache.put(_record(key, 1)) + "\n" == line
    assert path.read_text() == line
    cache.put(_record(key, 2))      # same key, another line: appended
    assert path.read_text().count("\n") == 2
    assert _get(EigenCache(path), key)["E"] == 2.0


def test_line_that_is_not_utf8_is_skipped(tmp_path):
    # one line of stray bytes and one record whose note holds a byte that
    # is not UTF-8, which would otherwise replace the first key's record:
    # both skipped with a warning, the other records still served
    path = tmp_path / "cache.jsonl"
    keys = [(1, 1e-8, "bisection", 1e-9), (2, 1e-10, "backward", 1e-12)]
    good = "".join(record_line(_record(k, i)) + "\n"
                   for i, k in enumerate(keys))
    noted = record_line({**_record(keys[0], 7), "note": "X"}).encode()
    path.write_bytes(good.encode() + b"\x80\x81 stray\n"
                     + noted.replace(b'"X"', b'"\xff"') + b"\n")
    with pytest.warns(RuntimeWarning) as warned:
        cache = EigenCache(path)
        assert [_get(cache, k)["E"] for k in keys] == [0.0, 1.0]
    assert [str(w.message).split(": ")[0] for w in warned] == [
        f"{path}:3", f"{path}:4"]
