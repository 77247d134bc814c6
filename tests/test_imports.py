"""No module of the package binds an imported name that it never reads."""

from __future__ import annotations

import ast
from pathlib import Path

import gf2minor

SRC = Path(gf2minor.__file__).parent

# Re-exports kept only because the benchmark reads them at ``minors``;
# ROADMAP item 3's benchmark change points it at their home modules and
# deletes them.
KEPT = {("minors", "verify_witness"), ("minors", "element_profiles")}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names that ``tree`` imports and never reads (``__all__`` counts)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_unused_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from .x import a, b as c, d\n"
        "__all__ = ['d']\n"
        "print(a, sys.argv)\n"
    )
    assert unused_imports(tree) == {"os", "c"}


def test_no_module_has_an_unused_import():
    found = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == KEPT
