"""Every module-level function and class of the package has a user outside
the tests.

The package ships only what its commands, scripts and benchmark run; a
reference oracle or a check that only tests call belongs under `tests/`.
A name counts as used when it is loaded anywhere in `src/`, `scripts/` or
`perfbench/` other than inside its own definition, or when `perfbench/`
names it in a string (its tracer patches functions by name).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rgdkit"

# qf24.py is the retired scalar back end: perfbench/tracing.py still patches
# QF24's operators by module, so it can move into the tests only when the
# benchmark stops doing so
EXEMPT_MODULES = {"qf24.py"}


def _loaded_names(node, skip=None):
    """Names and attributes loaded in `node`, leaving out `skip`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    out.discard(skip)
    return out


def _used_names():
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for stmt in tree.body:
                own = getattr(stmt, "name", None)
                used |= _loaded_names(stmt, skip=own)
            if folder == "perfbench":
                for sub in ast.walk(tree):
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                        used.update(sub.value.split("."))
    return used


def test_every_package_definition_is_used_outside_the_tests():
    used = _used_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT_MODULES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if stmt.name not in used:
                    unused.append(f"{path.name}:{stmt.name}")
    assert unused == []

