"""The optimizer's modules stay off the paper-evidence modules."""

import ast
from pathlib import Path

import ngvi

RUNTIME = ("kronmat", "gaussian", "quadrature", "vloss", "ngd", "factors")
EVIDENCE = {"fim", "verify"}


def imported_modules(path):
    """The ngvi modules a source file imports, relatively or by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("ngvi." if node.level else "") + (node.module or "")
            dotted = [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "ngvi" and len(parts) > 1:
                names.add(parts[1])
    return names


def test_runtime_modules_import_no_evidence_module():
    src = Path(ngvi.__file__).parent
    for name in RUNTIME:
        found = imported_modules(src / f"{name}.py") & EVIDENCE
        assert not found, f"ngvi.{name} imports {sorted(found)}"


def test_layering_check_sees_evidence_imports():
    src = Path(ngvi.__file__).parent
    assert "fim" in imported_modules(src / "verify.py")
