"""Every public module-level function or class in ``src/joulecast`` has a
caller outside the tests, in ``src/``, ``perfbench/`` or ``scripts/``. A
caller names the definition by its qualified name: it reads a name it
imported from the defining module (or from the package, which re-exports
it), it reads ``<module>.name`` or ``joulecast.name``, or it is a bare read
inside the defining module. The package's ``__init__.py`` is no caller: its
imports and ``__all__`` only re-export. A helper only tests call belongs in
the tests.

``regress`` fits arrays: of the package it imports only ``errors``, so the
solvers and metrics depend on no feature, dataset or pipeline code.

Every name a module in ``src/``, ``tests/`` or ``scripts/`` imports is read
in it, or listed in its ``__all__``: an unused import hides what a module
depends on and what a test exercises.

Every parameter with a default, on every function or method in
``src/joulecast``, is set to something other than its default by some call
outside the tests, in ``src/``, ``perfbench/`` or ``scripts/``: a setting
only one value serves, or only tests set, is a constant. Calls are matched
by the called name alone; an argument written as the default itself (the
same literal value, or the same expression) does not set it, and a ``*`` or
``**`` splat counts as setting every parameter it could reach.

Every public method or property of a class in ``src/joulecast`` is read
outside the tests, in ``src/``, ``perfbench/`` or ``scripts/``, matched by
attribute name alone: one only tests read belongs in the tests.

Every field of a dataclass in ``src/joulecast`` is read in ``src/``,
``tests/``, ``perfbench/`` or ``scripts/``, as an attribute or by its name
as a string key: a field nothing reads is state nothing needs.

Every exception class in ``errors`` but the base ``JoulecastError`` is named
in an ``except`` in ``src/``, ``perfbench/`` or ``scripts/``: a class no
caller tells apart from another belongs in the class its callers catch.

Only ``arch`` reads ``KindSpec.predictable``: every other module finds a
kind's standalone form through ``arch.standalone_spec``, which refuses the
other kinds in one wording, or through ``PREDICTABLE_KINDS``."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "joulecast"


def _source(node: ast.ImportFrom) -> str | None:
    """The package module a from-import reads from: a module's name,
    "joulecast" for the package itself, or None outside the package."""
    if node.level:  # relative imports occur only in the package's own modules
        return node.module or "joulecast"
    if node.module == "joulecast" or (node.module or "").startswith("joulecast."):
        return node.module.rpartition(".")[2]
    return None


def _bindings(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Each name ``tree`` binds by importing from the package: (the module it
    comes from, its name there); a bound package module is ("joulecast", module)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _source(node):
            bound.update({alias.asname or alias.name: (_source(node), alias.name) for alias in node.names})
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "joulecast":
                    bound[alias.asname or package] = ("joulecast", module if alias.asname else "")
    return bound


def _qualified_reads(tree: ast.Module, stem: str | None = None) -> set[tuple[str, str]]:
    """(module, name) of every package definition ``tree`` reads by a
    qualified name; ``stem`` is the module ``tree`` is, whose bare reads count."""
    bound = _bindings(tree)
    modules = {name: source[1] or "joulecast" for name, source in bound.items() if source[0] == "joulecast"}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in bound:
                reads.add(bound[node.id])
            if stem:
                reads.add((stem, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    return reads


def _public_definitions(tree: ast.Module) -> list[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def test_every_public_definition_has_a_caller_outside_the_tests():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    # what ``joulecast.name`` and ``from joulecast import name`` reach
    exported = _bindings(trees.pop("__init__"))
    reads = set()
    for path in (p for directory in ("perfbench", "scripts") for p in (ROOT / directory).rglob("*.py")):
        reads |= _qualified_reads(ast.parse(path.read_text(encoding="utf-8")))
    for stem, tree in trees.items():
        reads |= _qualified_reads(tree, stem)  # a definition is a FunctionDef or ClassDef, not a Name
    callers = {exported.get(name, (module, name)) if module == "joulecast" else (module, name)
               for module, name in reads}
    unused = [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in _public_definitions(tree)
        if (stem, name) not in callers and not (stem == "cli" and name.startswith("cmd_"))  # dispatched by name
    ]
    assert unused == []


def test_regress_imports_only_errors_from_the_package():
    tree = ast.parse((PACKAGE / "regress.py").read_text(encoding="utf-8"))
    imported = {module if module != "joulecast" else name for module, name in _bindings(tree).values()}
    assert imported == {"errors"}


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


def _defaulted_parameters(tree: ast.Module, module: str) -> list[tuple[str, str, int | None, ast.expr]]:
    """(qualified name, parameter, its position in a call or None if it is
    keyword-only, its default) for every parameter with a default in
    ``tree``. A method's call skips ``self`` or ``cls``; ``__init__`` is
    called by its class name."""
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
        found += [(name, arg.arg, i - offset, default)
                  for i, (arg, default) in enumerate(zip(positional, [None] * first + node.args.defaults))
                  if i >= first]
        found += [(name, arg.arg, None, default)
                  for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
    return found


def _same_value(a: ast.expr, b: ast.expr) -> bool:
    """Whether two expressions are the same literal value, or else the same expression."""
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except (ValueError, TypeError):
        return ast.dump(a) == ast.dump(b)


def _sets(call: ast.Call, parameter: str, index: int | None, default: ast.expr) -> bool:
    """Whether ``call`` passes ``parameter`` (at call position ``index``)
    something other than ``default``, by keyword or by position, or could
    through a ``*`` or ``**`` splat."""
    if any(k.arg is None for k in call.keywords):
        return True
    passed = [k.value for k in call.keywords if k.arg == parameter]
    if index is not None:
        if len(call.args) > index and not any(isinstance(a, ast.Starred) for a in call.args[: index + 1]):
            passed.append(call.args[index])
        elif any(isinstance(a, ast.Starred) for a in call.args):
            return True
    return any(not _same_value(value, default) for value in passed)


def test_every_defaulted_parameter_is_set_by_some_call():
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in _outside_the_tests():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{function}({parameter})"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, parameter, index, default in _defaulted_parameters(
            ast.parse(path.read_text(encoding="utf-8")), path.stem
        )
        if not any(_sets(call, parameter, index, default) for call in calls.get(function.rpartition(".")[2], ()))
    ]
    assert unset == [], f"parameters no call sets to another value (make each a constant): {unset}"


def test_every_public_method_is_read_outside_the_tests():
    read = {
        node.attr
        for directory in ("src", "perfbench", "scripts")
        for path in (ROOT / directory).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and node.name not in read
    ]
    assert unread == [], f"methods only the tests read (move each to the tests): {unread}"


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def test_every_dataclass_field_is_read():
    read = set()
    for path in (p for directory in ("src", "tests", "perfbench", "scripts") for p in (ROOT / directory).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = [
        f"{path.stem}.{cls.name}.{node.target.id}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef) and any(_is_dataclass(d) for d in cls.decorator_list)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.target.id not in read
    ]
    assert unread == [], f"dataclass fields nothing reads (delete each): {unread}"


def _outside_the_tests():
    """The parsed Python files of ``src/``, ``perfbench/`` and ``scripts/``, with their paths."""
    for path in sorted(p for directory in ("src", "perfbench", "scripts") for p in (ROOT / directory).rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_error_class_is_caught_outside_the_tests():
    classes = {"JoulecastError"}
    for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body:  # a base comes first
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id in classes for b in node.bases):
            classes.add(node.name)
    caught = set()
    for _, tree in _outside_the_tests():
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                caught |= {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
                caught |= {n.attr for n in ast.walk(handler.type) if isinstance(n, ast.Attribute)}
    uncaught = sorted(classes - caught - {"JoulecastError"})
    assert uncaught == [], f"error classes no except names (fold each into one its callers catch): {uncaught}"


def test_only_arch_reads_whether_a_kind_is_predictable():
    readers = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _outside_the_tests()
        if path != PACKAGE / "arch.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "predictable" and isinstance(node.ctx, ast.Load)
    ]
    assert readers == [], f"read arch.standalone_spec or PREDICTABLE_KINDS instead: {readers}"
