"""Every public module-level function or class in ``src/joulecast`` has a
caller outside the tests: a reference from ``src/`` other than its own
definition, from ``perfbench/`` or from ``scripts/``. The package's
``__init__.py`` is no caller: its imports and ``__all__`` only re-export.
A helper only tests call belongs in the tests.

Every name a module in ``src/``, ``tests/`` or ``scripts/`` imports is read
in it, or listed in its ``__all__``: an unused import hides what a module
depends on and what a test exercises.

Every parameter with a default, on every function or method in
``src/joulecast``, is set by some call in ``src/``, ``perfbench/``,
``scripts/`` or ``tests/``: a setting only one value serves is a constant.
Calls are matched by the called name alone, and one with a ``*`` or ``**``
splat counts as setting every parameter it could reach."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "joulecast"


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
    referenced = set()
    for path in (p for directory in callers for p in directory.rglob("*.py")):
        referenced |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    for path, tree in trees.items():
        if path.name != "__init__.py":
            referenced |= _referenced(tree)  # a definition is a FunctionDef or ClassDef, not a Name
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _public_definitions(tree)
        if name not in referenced and not (path.stem == "cli" and name.startswith("cmd_"))  # dispatched by name
    ]
    assert unused == []


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


def _defaulted_parameters(tree: ast.Module, module: str) -> list[tuple[str, str, int | None]]:
    """(qualified name, parameter, its position in a call or None if it is
    keyword-only) for every parameter with a default in ``tree``. A method's
    call skips ``self`` or ``cls``; ``__init__`` is called by its class name."""
    owners = {child: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for child in node.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(node)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        offset = 1 if owner and not static else 0
        name = f"{module}.{owner if node.name == '__init__' else node.name}"
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        found += [(name, arg.arg, i - offset) for i, arg in enumerate(positional) if i >= first]
        found += [(name, arg.arg, None) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                  if default is not None]
    return found


def _sets(call: ast.Call, parameter: str, index: int | None) -> bool:
    """Whether ``call`` passes ``parameter`` (at call position ``index``) by
    keyword, by position, or through a ``*`` or ``**`` splat."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_set_by_some_call():
    calls: dict[str, list[ast.Call]] = {}
    for path in (p for directory in ("src", "perfbench", "scripts", "tests") for p in (ROOT / directory).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{function}({parameter})"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, parameter, index in _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if not any(_sets(call, parameter, index) for call in calls.get(function.rpartition(".")[2], ()))
    ]
    assert unset == [], f"parameters no call sets (make each a constant): {unset}"
