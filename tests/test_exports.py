"""Every name a public module lists in __all__ resolves on that module."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["nleig", "nleig.asymptotics",
                                  "nleig.specfun", "nleig.ode"])
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if getattr(module, n, None) is None]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
