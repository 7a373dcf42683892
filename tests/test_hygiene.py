"""Source hygiene that no installed linter checks: every import is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"  # a package __init__ imports to re-export
)


def unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by an import statement and never referenced in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport a.b\nfrom x import y as z, w\nprint(w, a.b)\n")
    assert unused_imports(tree) == ["line 1: os", "line 3: z"]
