"""The package namespace: public names and submodules load on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poltrans
from poltrans import gp


def _fresh_python(code: str) -> str:
    """The last stdout line of ``code`` run in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return result.stdout.splitlines()[-1]


def test_import_loads_no_module_numpy_or_scipy():
    loaded = json.loads(
        _fresh_python(
            "import json, sys, poltrans; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] in ('poltrans', 'numpy', 'scipy')]))"
        )
    )
    assert loaded == ["poltrans"]


def test_submodule_attribute_imports_its_module():
    assert _fresh_python("import sys, poltrans; print(poltrans.gp is sys.modules['poltrans.gp'])") == "True"


def test_star_import_binds_every_public_name_to_its_modules_object():
    namespace = {}
    exec("from poltrans import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == poltrans.__all__
    assert len(namespace) == 58
    for module, names in poltrans._EXPORTS.items():
        for name in names:
            assert namespace[name] is getattr(importlib.import_module(f"poltrans.{module}"), name), name
    assert set(poltrans.__all__) <= set(dir(poltrans))


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'poltrans' has no attribute 'fit_gpp'"):
        poltrans.fit_gpp
    with pytest.raises(ImportError, match="fit_gpp"):
        exec("from poltrans import fit_gpp", {})


def test_names_are_looked_up_on_every_use(monkeypatch):
    """A name is not kept in the package, so a patched module global (as
    a profiler's wrapper) is what the package hands out, and only while it
    is patched."""
    original = gp.fit_gp
    assert poltrans.fit_gp is original and "fit_gp" not in vars(poltrans)
    monkeypatch.setattr(gp, "fit_gp", lambda *args: None)
    assert poltrans.fit_gp is gp.fit_gp is not original
    monkeypatch.undo()
    assert poltrans.fit_gp is original


def test_imports_and_in_process_cli_calls_leave_the_environment_alone():
    """Only the CLI's process entries default the BLAS thread count; a
    library import, or a call of ``cli.main`` in a caller's process, keeps
    the caller's settings."""
    code = (
        "import importlib, os, pkgutil, poltrans; before = dict(os.environ)\n"
        "for info in pkgutil.iter_modules(poltrans.__path__):\n"
        "    importlib.import_module(f'poltrans.{info.name}')\n"
        "assert poltrans.cli.main(['--help']) == 0\n"
        "print(dict(os.environ) == before)"
    )
    assert _fresh_python(code) == "True"
