"""No module of the package binds an imported name that it never reads,
imports a private name from another, or leaves a private function or class
unread; no source file needs a Python newer than 3.10."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import gf2minor

SRC = Path(gf2minor.__file__).parent
ROOT = SRC.parents[1]

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


def test_no_module_reads_the_target_limit():
    # Rank and corank answer first, and HOST_LIMIT bounds every target the
    # search meets; minors.TARGET_LIMIT stays bound for bench/test_bench.py.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    assert sum(reads(tree)["TARGET_LIMIT"] for tree in trees) == 0
    assert gf2minor.minors.TARGET_LIMIT == 12


# Standard-library names that Python 3.11 added, by module; "builtins" are
# read without an import.
NEW_IN_3_11 = {
    "tomllib": None,
    "typing": {"Self"},
    "enum": {"StrEnum"},
    "datetime": {"UTC"},
    "asyncio": {"TaskGroup"},
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"},
}


def names_new_in_3_11(tree: ast.Module) -> set[str]:
    """The names of ``NEW_IN_3_11`` that ``tree`` imports or reads."""
    def new(module: str, name: str | None = None) -> bool:
        return module in NEW_IN_3_11 and (
            NEW_IN_3_11[module] is None or name in NEW_IN_3_11[module]
        )

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if new(a.name.partition(".")[0]))
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.update(
                f"{node.module}.{a.name}" for a in node.names if new(node.module, a.name)
            )
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if new(node.value.id, node.attr):
                found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name) and new("builtins", node.id):
            found.add(node.id)
    return found


def test_names_new_in_3_11_are_found():
    tree = ast.parse(
        "import tomllib, typing\n"
        "from typing import Self, Any\n"
        "from enum import StrEnum\n"
        "import datetime, asyncio\n"
        "print(datetime.UTC, asyncio.TaskGroup, typing.Optional, ExceptionGroup)\n"
    )
    assert names_new_in_3_11(tree) == {
        "tomllib", "typing.Self", "enum.StrEnum", "datetime.UTC",
        "asyncio.TaskGroup", "ExceptionGroup",
    }


def test_every_source_file_runs_on_python_3_10():
    paths = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        assert names_new_in_3_11(tree) == set(), path
