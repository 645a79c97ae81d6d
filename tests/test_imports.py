"""No module of ``avw`` imports a name it never uses (stdlib ``ast`` only)."""

import ast
from pathlib import Path

import pytest

import avw

SRC = Path(avw.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# perfbench/tracer.py counts bracket_gens calls by wrapping the name in the
# __dict__ of every module that imports it, so avw.verma keeps the import
ALLOWED = {("verma.py", "bracket_gens")}


def unused_imports(source: str):
    """The names bound by the module-level imports of ``source`` that no
    other line of it references, as a name or as the base of an attribute."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_checker_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Dict\nx: List = os.sep\n") == ["Dict"]
    assert unused_imports("import os.path\nprint(os.path.sep)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    unused = [name for name in unused_imports(path.read_text())
              if (path.name, name) not in ALLOWED]
    assert unused == [], f"{path.name} imports {unused} but never uses them"
