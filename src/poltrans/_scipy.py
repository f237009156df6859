"""The four compiled SciPy routines poltrans calls, loaded from their
extension modules without running any SciPy package ``__init__``.

On top of NumPy, a fresh ``import scipy.linalg`` costs ~0.33 s of CPU
(2-vCPU x86 host), most of it NumPy submodules that SciPy's array-API
layer star-imports; ``scipy.optimize`` costs ~0.59 s and ``scipy.special``
~0.31 s. Loading the three extension modules below costs less than the
~0.02 s run-to-run spread of a fresh NumPy import, and is the same as the
packages' own import of them: CPython keeps a single copy of a
single-phase-init extension, so each name below is the very object that
``scipy.linalg.lapack``, ``scipy.optimize`` and ``scipy.special`` export,
in either import order.
"""
from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location

# find_spec locates the package without executing scipy/__init__.py.
_SCIPY_SPEC = find_spec("scipy")
if _SCIPY_SPEC is None:
    raise ImportError("poltrans needs SciPy, which is not installed")
_SCIPY_DIR = _SCIPY_SPEC.submodule_search_locations[0]


def _load(sub: str, name: str):
    """Load the extension module ``scipy.<sub>.<name>`` from its file."""
    stem = os.path.join(_SCIPY_DIR, sub, name)
    for suffix in EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = spec_from_file_location(f"scipy.{sub}.{name}", stem + suffix)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no compiled module at {stem}{{{','.join(EXTENSION_SUFFIXES)}}}")


_flapack = _load("linalg", "_flapack")
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
linear_sum_assignment = _load("optimize", "_lsap").linear_sum_assignment
ndtr = _load("special", "_special_ufuncs").ndtr
