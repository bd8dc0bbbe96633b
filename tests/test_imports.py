"""Every module-level import of the package is read in its module, and so
is every private helper.

No linter is a dependency, so the checks parse each module with `ast`.  A
name counts as read when it is loaded as a plain name, which covers the base
of an attribute (`np` in `np.array`).  `__init__.py` is skipped because it
imports to re-export, and `__future__` imports are exempt.  A private helper
is a module-level function or class whose name starts with `_`, or a method
of such a class other than a dunder; a method counts as read when its name
is loaded as an attribute anywhere in the module.  A helper only tests read
is a test-only layer, and it belongs in the tests.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "taskdse"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def unread_private_helpers(source: str) -> list[str]:
    tree = ast.parse(source)
    helpers = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            helpers[node.name] = (node.name, node.lineno)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    helpers[f"{node.name}.{item.name}"] = (item.name, item.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, (short, line) in helpers.items() if short not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_import_read_only_in_a_docstring_is_unused():
    source = 'import math\nimport numpy as np\n\n\ndef f():\n    """math.inf"""\n    return np.zeros(1)\n'
    assert unused_imports(source) == ["line 1: math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_read(path):
    assert unread_private_helpers(path.read_text(encoding="utf-8")) == []


def test_a_helper_read_only_by_its_own_definition_is_unread():
    source = ("def _used():\n    return 1\n\n\ndef _alone():\n    return _used()\n\n\n"
              "class _Perm:\n    def __init__(self):\n        self.n = _used()\n\n"
              "    def live(self):\n        return self.n\n\n    def zone(self):\n        return 0\n\n\n"
              "def public():\n    return _Perm().live()\n")
    assert unread_private_helpers(source) == ["line 5: _alone", "line 16: _Perm.zone"]
