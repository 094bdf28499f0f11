"""numpy loads on first use: importing nleig and the cos and rgamma spectrum
paths leave it unloaded; the paths that build arrays import it themselves.
Each check runs in a fresh interpreter, since this one has numpy already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nleig

_SRC = str(Path(nleig.__file__).resolve().parents[1])


def fresh(code, cwd):
    """The last stdout line of code run by a new interpreter in cwd."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH"))
                           if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_leaves_numpy_unloaded(tmp_path):
    code = "import sys, nleig, nleig.cli; print('numpy' in sys.modules)"
    assert fresh(code, tmp_path) == "False"


@pytest.mark.parametrize("model, method, n", [
    ("cos", "backward", "1..5"), ("cos", "bisection", "1..2"),
    ("rgamma", "backward", "1..3"), ("rgamma", "bisection", "1..2")])
def test_spectrum_leaves_numpy_unloaded(tmp_path, model, method, n):
    # the first run computes and fills the cache, the second is served by it
    code = f"""
import sys
from nleig import cli
argv = ["spectrum", "--model", "{model}", "--method", "{method}",
        "--n", "{n}", "--cache", "c.jsonl"]
print([cli.main(argv) for _ in range(2)], "numpy" in sys.modules)
"""
    assert fresh(code, tmp_path) == "[0, 0] False"


def test_airy_spectrum_loads_numpy(tmp_path):
    code = """
import sys
from nleig import cli
rc = cli.main(["spectrum", "--model", "airy", "--n", "1..2", "--no-cache"])
print(rc, "numpy" in sys.modules)
"""
    assert fresh(code, tmp_path) == "0 True"


def test_recorded_curve_holds_arrays(tmp_path):
    code = """
import numpy as np
from nleig.cli import separatrix_curve
from nleig.models import make_model
_, c = separatrix_curve(make_model("bessel:0"), 3, "scaled")
print(type(c.grid) is np.ndarray, type(c.values) is np.ndarray, len(c.grid) > 2)
"""
    assert fresh(code, tmp_path) == "True True True"


def test_refine_backward_leaves_numpy_unloaded(tmp_path):
    # an eigenvalue run records nothing, so it builds no array
    code = """
import sys
from nleig import make_model, refine_backward
rs = [refine_backward(make_model("cos"), 5),
      refine_backward(make_model("rgamma"), 3)]
print([r.maxima for r in rs], [r.curve for r in rs], "numpy" in sys.modules)
"""
    assert fresh(code, tmp_path) == "[5, 3] [None, None] False"
