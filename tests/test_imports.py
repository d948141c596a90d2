"""No module of the package or its tests imports a name it never uses."""

import ast
from pathlib import Path

import ngvi

ROOTS = (Path(ngvi.__file__).parent, Path(__file__).parent)


def unused_imports(tree):
    """The names a module binds by import but never reads; a name listed
    in its ``__all__`` counts as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_an_unused_name():
    found = []
    for root in ROOTS:
        for path in sorted(root.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}: {name}" for line, name in unused_imports(tree)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_unused_import_check_sees_an_unused_name():
    source = "from __future__ import annotations\nimport os, sys\nimport numpy as np\n__all__ = ['sys']\nnp.zeros(1)\n"
    assert unused_imports(ast.parse(source)) == [(2, "os")]
