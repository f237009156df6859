"""Every module-level import in the package is used by its module, and
every module-level private name by some module of the package."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "poltrans"
PYPROJECT = SRC.parents[1] / "pyproject.toml"


def _unused_imports(source: str) -> list[str]:
    """The names bound by ``source``'s top-level import statements that no
    other part of the module reads: not as a name, nor in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom .x import a, b\nprint(np, a)\n"
    assert _unused_imports(source) == ["line 2: os", "line 4: b"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _unused_private_names(sources: dict[str, str], entry_points: str = "") -> list[str]:
    """The module-level private functions, classes and assigned names of
    ``sources`` (module name to source) that no module refers to, as a
    name read, an attribute or an imported name, and that no
    ``module:name`` entry point of ``entry_points`` names. A docstring or
    comment that mentions a name does not use it."""
    defined, used = {}, set(re.findall(r":(\w+)", entry_points))
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update({name: f"{module}:{node.lineno}: {name}" for name in names if _is_private(name)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [where for name, where in defined.items() if name not in used]


def test_every_module_level_private_name_is_used():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unused_private_names(sources, PYPROJECT.read_text()) == []


def test_an_unused_private_name_is_found():
    module_a = [
        '"""Mentions _doc."""',
        "_CONST = 1",
        "_doc = 2  # and _comment",
        "_kept, _dropped = 3, 4",
        "def _helper(): pass",
        "class _Cls: pass",
        "_entry = 5",
        "__dunder__ = 6",
        "print(_kept)",
    ]
    module_b = ["from .a import _CONST", "import a", "a._helper()"]
    sources = {"a": "\n".join(module_a), "b": "\n".join(module_b)}
    assert _unused_private_names(sources, 'tool = "a:_entry"') == ["a:3: _doc", "a:4: _dropped", "a:6: _Cls"]
