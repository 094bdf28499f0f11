"""The README's library quickstart runs as written."""

import pathlib

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart_block():
    """The first python block under the "Library quickstart" heading."""
    text = README.read_text().split("## Library quickstart", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quickstart_runs(capsys):
    ns = {}
    exec(compile(quickstart_block(), str(README), "exec"), ns)
    # the two methods agree as the comment says, and the last run is in
    # the scaled coordinates of index 2000
    assert ns["r"].E == pytest.approx(ns["rb"].E, rel=1e-9)
    assert capsys.readouterr().out.split() == [repr(ns["r"].E),
                                               repr(ns["rb"].E)]
    curve = ns["curve"]
    assert (curve.coords, curve.meta["n"]) == ("scaled", 2000)
    assert curve.grid[-1] == 3.0 and ns["sep"] is ns["rs"].curve
    assert ns["sep"].coords == "scaled" and ns["rb"].curve is None
