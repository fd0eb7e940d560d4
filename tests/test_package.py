import ast
import pkgutil
from pathlib import Path

import pytest

import poselab

MODULES = sorted(info.name for info in pkgutil.iter_modules(poselab.__path__))
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def test_modules_found():
    assert {"cli", "harness", "pnp"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # A star import looks up every name in the module's __all__, so a stale
    # entry raises AttributeError here.
    exec(f"from poselab.{module} import *", {})


def test_package_exports_resolve():
    for name in poselab.__all__:
        assert hasattr(poselab, name), name


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, nor lists in __all__.

    An import statement or name whose line carries "# noqa: F401" is exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if any("# noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno)):
                continue
            imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    assert len(SOURCES) > 10
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}


def test_unused_import_check_flags_and_exempts():
    source = ("import math\nimport os.path\nfrom a import (b,  # noqa: F401\n    c)\n"
              "from d import e as f  # noqa: F401\nfrom g import h, i\n"
              "__all__ = ['i']\nprint(os.path.sep)\n")
    assert unused_imports(source) == ["line 1: math", "line 6: h"]
