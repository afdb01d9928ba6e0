"""Every module-level function and class of the package, and every method
of its classes, has a user outside the tests.

The package ships only what its commands, scripts and benchmark run; a
reference oracle or a check that only tests call belongs under `tests/`.
A name counts as used when it is loaded anywhere in `src/`, `scripts/` or
`perfbench/` other than inside its own definition, or when `perfbench/`
names it in a string (its tracer patches functions by name).  The names
that only such a string keeps are listed in `TRACER_ONLY`, so a new one,
or one that gets a real caller, shows.  Dunder methods are exempt: Python
calls them.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rgdkit"

# qf24.py is the retired scalar back end: perfbench/tracing.py still patches
# QF24's operators by module, so it can move into the tests only when the
# benchmark stops doing so
EXEMPT_MODULES = {"qf24.py"}

# definitions whose only user is a `perfbench/` string: the tracer patches
# them although no command calls them any more
TRACER_ONLY = {"right_mult", "left_mult", "adjacent"}


def _loaded_names(node, skip=()):
    """Names and attributes loaded in `node`, leaving out those in `skip`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out - set(skip)


def _definitions(stmt):
    """A top-level statement's definitions, each with the names its own body
    may load without counting as a use: a method skips itself and its class."""
    own = getattr(stmt, "name", None)
    if not isinstance(stmt, ast.ClassDef):
        return [(stmt, {own})]
    return [(item, {own, getattr(item, "name", None)}) for item in stmt.body] + [
        (node, {own}) for node in stmt.bases + stmt.decorator_list]


def _used_names():
    """Names loaded outside their own definitions, and names that
    `perfbench/` strings hold."""
    loaded, named = set(), set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for stmt in tree.body:
                for node, skip in _definitions(stmt):
                    loaded |= _loaded_names(node, skip)
            if folder == "perfbench":
                for sub in ast.walk(tree):
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        named.update(sub.value.split("."))
    return loaded, named


def _package_definitions():
    """(label, name) of every module-level function and class and every
    non-dunder method in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((f"{path.name}:{stmt.name}", stmt.name))
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("__")):
                        out.append((f"{path.name}:{stmt.name}.{item.name}", item.name))
    return out


def test_every_package_definition_is_used_outside_the_tests():
    loaded, named = _used_names()
    unused = [label for label, name in _package_definitions() if name not in loaded | named]
    assert unused == []


def test_tracer_only_names_are_listed():
    loaded, named = _used_names()
    tracer_only = {name for _, name in _package_definitions()
                   if name not in loaded and name in named}
    assert tracer_only == TRACER_ONLY
