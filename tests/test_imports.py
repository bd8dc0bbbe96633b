"""Every module-level import of the package is read in its module.

No linter is a dependency, so the check parses each module with `ast`.  A
name counts as read when it is loaded as a plain name, which covers the base
of an attribute (`np` in `np.array`).  `__init__.py` is skipped because it
imports to re-export, and `__future__` imports are exempt.
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_import_read_only_in_a_docstring_is_unused():
    source = 'import math\nimport numpy as np\n\n\ndef f():\n    """math.inf"""\n    return np.zeros(1)\n'
    assert unused_imports(source) == ["line 1: math"]
