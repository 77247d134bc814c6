"""No module of the package binds an imported name that it never reads,
imports a private name from another, or leaves a private function or class
unread."""

from __future__ import annotations

import ast
from collections import Counter
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


def private_imports(tree: ast.Module) -> set[str]:
    """``_``-prefixed names that ``tree`` imports from a package module,
    by a relative import or from ``gf2minor``."""
    return {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "gf2minor")
        for a in node.names
        if a.name.startswith("_") and not a.name.startswith("__")
    }


def test_private_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from os.path import _joinrealpath\n"
        "from .minors import _canonical_sets, check_graphic_cocircuits\n"
        "from . import _private_module\n"
        "from gf2minor.realize import _stars\n"
    )
    assert private_imports(tree) == {"_canonical_sets", "_private_module", "_stars"}


def test_no_module_imports_a_private_name():
    found = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in private_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set()


def reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute)
    )


def unread_private_definitions(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of each private module-level function or class that no
    module reads outside the definition's own body, so a recursive call
    does not count."""
    total = Counter()
    for tree in trees.values():
        total += reads(tree)
    return {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and total[node.name] == reads(node)[node.name]
    }


def test_unread_private_definitions_are_found():
    a = ast.parse(
        "def _walk(n):\n"
        "    return _walk(n - 1) if n else _Leaf()\n"
        "class _Leaf:\n"
        "    pass\n"
        "def _helper():\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
    )
    b = ast.parse("from . import a\na._helper()\n")
    assert unread_private_definitions({"a": a, "b": b}) == {("a", "_walk")}


def test_every_private_definition_is_read():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert unread_private_definitions(trees) == set()
