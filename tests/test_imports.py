"""Every name a module imports is read somewhere in it.

The package's __init__.py is left out: it imports names to re-export
them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "nnbisim").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """The names that source's import statements bind and no Name node
    reads, in the order they are bound."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a; "from m import x as y" binds y.
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_gate_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d\nd()\n") == [
        "os", "np", "c"]
    assert unused_imports("import nnbisim.lp\nnnbisim.lp.FEAS_TOL\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
