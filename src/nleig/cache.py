"""Atomic file writes and the append-only eigenvalue cache.

The cache is a JSON-lines file keyed by (model spec, n, tol, method, the
effective integrator settings, schema version).  An instance parses the file
once, when it is made, and serves every lookup from memory; each new
instance sees the file as it is on disk when it is made, so a path that
cannot be read fails before any work that would use the cache.  Lines of
another schema version (records written before the version field existed
carry none) are never served; corrupt lines, those that are not UTF-8
included, are skipped with a warning; later entries win; a record whose
key already holds the same line is not appended again; appends go through
the OS append mode so a crash can at worst truncate the final line.

A record is serialized once, by record_line: the instance keeps each
entry's line as read or appended, and the spectrum JSON artifact reuses
those lines, so an artifact line and the cache line of the same record are
the same bytes.
"""

import json
import os
import tempfile
import warnings

__all__ = ["atomic_write", "atomic_write_text", "record_line", "EigenCache",
           "SCHEMA"]

# Version of the record layout and key; records of any other version are
# recomputed rather than served.
SCHEMA = 2


def atomic_write(path, chunks):
    """Write the strings of the iterable chunks to path via a temp file +
    rename, each chunk as it comes, so a large artifact is never held as
    one string; path is untouched when a chunk raises."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-nleig-")
    try:
        with os.fdopen(fd, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename (atomic_write of one
    chunk)."""
    return atomic_write(path, (text,))


def record_line(rec):
    """The one serialization of an eigenvalue record: key-sorted JSON on one
    line, from json.dumps without ``indent`` (the C encoder)."""
    return json.dumps(rec, sort_keys=True)


class EigenCache:
    """Append-only JSONL store of eigenvalue results.

    Records carry their own key fields: ``model``, ``n``, ``tol``,
    ``method``, ``integrator`` (the effective ``IntegratorConfig`` as
    ``settings_text`` writes it) and ``schema``; ``stamp`` adds the last
    two.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._entries = self.load()

    @staticmethod
    def settings_text(cfg):
        """The fields of IntegratorConfig cfg as one line of text, exact to
        the last bit ("abs_tol=1e-14 rel_tol=1e-12 x_max=0.0").  One string
        per record keeps records and artifacts small."""
        return " ".join(f"{k}={float(v)!r}"
                        for k, v in sorted(vars(cfg).items()))

    @staticmethod
    def stamp(rec, settings):
        """rec with the settings_text settings and the schema version."""
        return {**rec, "integrator": settings, "schema": SCHEMA}

    @staticmethod
    def key(model_spec, n, tol, method, integrator):
        """Lookup key; integrator is the settings_text of the effective
        IntegratorConfig."""
        return (model_spec, n, tol, method, integrator)

    @classmethod
    def _record_key(cls, rec):
        return cls.key(rec["model"], rec["n"], rec["tol"], rec["method"],
                       rec["integrator"])

    def load(self):
        """Parse the file into {key: (record, line)}, skipping other
        schemas; line is the record's text as read.  Bytes that are not
        UTF-8 read as U+FFFD, which record_line never writes, so their
        line is skipped with the other corrupt ones."""
        entries = {}
        if not os.path.exists(self.path):
            return entries
        with open(self.path, encoding="utf-8", errors="replace") as fh:
            for i, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    if not isinstance(rec, dict) or "\ufffd" in line:
                        raise ValueError("not a record")
                    if rec.get("schema") != SCHEMA:
                        continue
                    entries[self._record_key(rec)] = (rec, line)
                except (ValueError, KeyError, TypeError, AttributeError):
                    warnings.warn(f"{self.path}:{i}: skipping corrupt cache "
                                  "line", RuntimeWarning)
        return entries

    def get(self, model_spec, n, tol, method, settings):
        """The record stored under exactly this key (settings is the
        settings_text of the effective IntegratorConfig), or None."""
        entry = self._entries.get(self.key(model_spec, n, tol, method,
                                           settings))
        return None if entry is None else entry[0]

    def line(self, rec):
        """The stored line of rec, a record that get returned."""
        return self._entries[self._record_key(rec)][1]

    def put(self, rec):
        """Append a stamped record to the file and to the loaded entries,
        unless its key already holds the same line; returns its line
        (record_line, without the newline)."""
        key = self._record_key(rec)
        line = record_line(rec)
        entries = self._entries
        held = entries.get(key)
        if held is not None and held[1] == line:
            return line
        d = os.path.dirname(os.path.abspath(self.path))
        if d:
            os.makedirs(d, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
        entries[key] = (rec, line)
        return line
