"""Static check: every module-level function and class of the package is
used by the package itself or by the benchmark, not only by tests.

A name counts as used when some other top-level statement of a module in
`src/mfpsim` or `perfbench/` refers to it: as a name, as an attribute, or
as a string equal to it (the benchmark wraps functions by name).  Package
`__init__.py` exports and the definition's own body do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mfpsim"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _names(node) -> set[str]:
    """Every identifier a statement refers to."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found.add(sub.value)
    return found


def _unreferenced() -> list[str]:
    definitions = []  # (module path, top-level index, name)
    used_by = {}  # name -> {(module path, top-level index)}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text()).body
        for i, node in enumerate(body):
            if path.parent == PACKAGE and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                definitions.append((path, i, node.name))
            for name in _names(node):
                used_by.setdefault(name, set()).add((path, i))
    return sorted(
        f"{path.stem}.{name}"
        for path, i, name in definitions
        if not used_by.get(name, set()) - {(path, i)}
    )


def test_every_package_function_and_class_is_used_outside_tests():
    assert _unreferenced() == []
