"""poltrans._scipy: SciPy's compiled routines without SciPy's package
initializers."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from poltrans import _scipy

IDENTITIES = """
assert _scipy.dpotrf is scipy.linalg.lapack.dpotrf
assert _scipy.dpotrs is scipy.linalg.lapack.dpotrs
assert _scipy.linear_sum_assignment is scipy.optimize.linear_sum_assignment
assert _scipy.ndtr is scipy.special.ndtr
"""


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("first", ["poltrans", "scipy"])
def test_routines_are_scipys_own_objects(first):
    """Whichever is imported first in a fresh process, each routine is the
    very object SciPy's packages export: one copy of each extension."""
    imports = ["from poltrans import _scipy", "import scipy.linalg.lapack, scipy.optimize, scipy.special"]
    if first == "scipy":
        imports.reverse()
    result = _fresh_python("\n".join(imports) + IDENTITIES)
    assert result.returncode == 0, result.stderr


def test_absent_scipy_is_an_import_error():
    result = _fresh_python("import importlib.util; importlib.util.find_spec = lambda name: None; import poltrans")
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == "ImportError: poltrans needs SciPy, which is not installed"


def test_absent_module_is_an_import_error_naming_its_path():
    stem = os.path.join(_scipy._SCIPY_DIR, "linalg", "_no_such_module")
    with pytest.raises(ImportError, match=re.escape(f"no compiled module at {stem}")):
        _scipy._load("linalg", "_no_such_module")


def test_results_equal_scipys_public_functions():
    cost = np.random.default_rng(4).uniform(0.0, 2.0, (12, 200))
    rows, cols = _scipy.linear_sum_assignment(cost)
    ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(cost)
    assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
    z = np.linspace(-40.0, 40.0, 310001)
    assert np.array_equal(_scipy.ndtr(z), scipy.special.ndtr(z))

