"""Every public module-level function or class in ``src/joulecast`` has a
caller outside the tests: a reference from ``src/`` other than its own
definition, from ``perfbench/`` or from ``scripts/``, or a place in
``joulecast.__all__``. A helper only tests call belongs in the tests.

Every name a module in ``src/``, ``tests/`` or ``scripts/`` imports is read
in it, or listed in its ``__all__``: an unused import hides what a module
depends on and what a test exercises."""
import ast
from pathlib import Path

import joulecast

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "joulecast"

#: public names kept without a caller, each with the reason
ALLOWED = {
    "dataset.modelwise_to_layerwise": "ROADMAP item 9",
}


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a module reads or imports, and every attribute it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _public_definitions(tree: ast.Module) -> list[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def test_every_public_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [ROOT / "perfbench", ROOT / "scripts"]
    referenced = set(joulecast.__all__)
    for path in (p for directory in callers for p in directory.rglob("*.py")):
        referenced |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    for tree in trees.values():
        referenced |= _referenced(tree)  # a definition is a FunctionDef or ClassDef, not a Name
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _public_definitions(tree)
        if name not in referenced and not (path.stem == "cli" and name.startswith("cmd_"))  # dispatched by name
    ]
    assert sorted(unused) == sorted(ALLOWED)


def _unread_imports(tree: ast.Module) -> list[str]:
    """The names ``tree`` binds by import and never reads; ``__all__`` counts as a read."""
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in read]


def test_every_imported_name_is_read():
    modules = [path for directory in ("src", "tests", "scripts") for path in sorted((ROOT / directory).rglob("*.py"))]
    unread = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in modules
        for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []
