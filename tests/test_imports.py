"""Every name a package module imports is used in that module.

__init__.py imports names to re-export them, so it is exempt.

No package module reads .pairs or .edits: a Corpus and an EditSet are
tuples of their items, and those properties copy them into a plain tuple
for library users and the benchmark harness.
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


def _item_copies(source: str) -> list[str]:
    return [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("pairs", "edits")
    ]


def test_modules_exist():
    assert MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports(module.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import re\nfrom itertools import chain, compress\nprint(chain)\n"
    assert _unused_imports(source) == ["line 1: re", "line 2: compress"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_module_iterates_a_corpus_or_an_edit_set_itself(module):
    assert _item_copies(module.read_text(encoding="utf-8")) == []


def test_a_read_of_pairs_or_edits_is_found():
    source = "pairs = property(tuple)\nfor p in corpus.pairs:\n    s = set(p.edits)\n"
    assert _item_copies(source) == ["line 2: .pairs", "line 3: .edits"]
