"""Eigenvalue cache: exact-key lookups and records of an older layout."""

import json
import os
import tempfile
import warnings

from hypothesis import given, settings, strategies as st

from nleig import cache as cache_mod
from nleig.cache import EigenCache
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
