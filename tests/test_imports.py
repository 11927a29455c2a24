"""Every name a package module imports is used in that module.

__init__.py imports names to re-export them, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zhcorrect"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_modules_exist():
    assert MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import re\nfrom itertools import chain, compress\nprint(chain)\n"
    assert _unused_imports(source) == ["line 1: re", "line 2: compress"]
