"""The optimizer's modules stay off the paper-evidence modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ngvi

SRC = Path(ngvi.__file__).parent
RUNTIME = ("kronmat", "gaussian", "quadrature", "vloss", "ngd", "factors")
EVIDENCE = {"fim", "verify", "_testing"}
# the names the Kronecker half of the algebra moved to ``ngvi.fim`` under
FIM_ALGEBRA = {"vec", "mat", "kron", "vech", "matf", "sym", "duplication", "DuplicationPair"}


def imported_modules(path, top_level_only=False):
    """The ngvi modules a source file imports, relatively or by absolute
    name; with ``top_level_only``, only the imports run at module load."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in tree.body if top_level_only else ast.walk(tree):
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
    for name in RUNTIME:
        found = imported_modules(SRC / f"{name}.py") & EVIDENCE
        assert not found, f"ngvi.{name} imports {sorted(found)}"


def test_package_root_and_cli_load_no_evidence_module():
    for name in ("__init__", "cli"):
        found = imported_modules(SRC / f"{name}.py", top_level_only=True) & EVIDENCE
        assert not found, f"ngvi.{name} imports {sorted(found)} at module level"


def test_layering_check_sees_evidence_imports():
    assert "fim" in imported_modules(SRC / "verify.py")
    assert "verify" in imported_modules(SRC / "cli.py")
    assert "verify" not in imported_modules(SRC / "cli.py", top_level_only=True)


def test_kronmat_holds_storage_only():
    tree = ast.parse((SRC / "kronmat.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & FIM_ALGEBRA, f"kronmat defines {sorted(defined & FIM_ALGEBRA)}"
    import ngvi.fim

    assert FIM_ALGEBRA <= set(ngvi.fim.__all__)


def test_runtime_import_loads_no_evidence_module():
    # a fresh interpreter, so that modules other tests loaded do not count
    probe = (
        "import sys\n"
        "import ngvi\n"
        "from ngvi import cli\n"
        f"loaded = sorted(m for m in {sorted(EVIDENCE)!r} if 'ngvi.' + m in sys.modules)\n"
        "import ngvi.fim as m\n"
        "print(loaded, type(m).__name__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] module\n"
