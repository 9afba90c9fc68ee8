"""Nothing in the package is there for tests alone: every module-level
function and class of the package, and every field a package class
declares, is used by the package itself or by the benchmark, not only by
tests.

A function or class counts as used when some other top-level statement of a
module in `src/mfpsim` or `perfbench/` refers to it: as a name, as an
attribute, or as a string equal to it (the benchmark wraps functions by
name).  Package `__init__.py` exports and the definition's own body do not
count.

A class-level field (an annotated or plain assignment in a class body, such
as a dataclass field) counts as used when one of those modules reads it as
an attribute or names it in a string (a config key, a `getattr`).  Passing it
by keyword to a constructor is not a read.

A method or property of a package class counts as used when one of those
modules refers to it, as an attribute or in a string, outside its own body.
Dunder methods are the language's to call.

Names say nothing of which class an attribute belongs to, so a field that
shares its name with another's passes the static check unread.  The
runtime probe watches every dataclass field's slot through a matrix of runs
that reaches each stage, the CLI and the benchmark's tracer, and fails on a
field that no package or benchmark code reads outside dunder methods.

Records are plain slotted dataclasses, immutable by convention: no code
assigns to one except the few records a round fills in as it goes, and
`dataclasses.replace` derives a changed copy.  `_record_writes` holds the
package to that.

And no module of the package or the tests imports a name it never uses.
"""

import ast
import dataclasses
import importlib.util
import sys
from collections import Counter
from pathlib import Path

from mfpsim import cli
from mfpsim.baselines import Policy
from mfpsim.config import load_config
from mfpsim.runner import run

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mfpsim"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _reference_counts(node) -> Counter:
    """How often a statement refers to each identifier: as a name, as an
    attribute, or as a string equal to it."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                counts[sub.value] += 1
    return counts


def _bodies():
    for path in SOURCES:
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text()).body


def _unreferenced() -> list[str]:
    definitions = []  # (module path, top-level index, name)
    used_by = {}  # name -> {(module path, top-level index)}
    for path, body in _bodies():
        for i, node in enumerate(body):
            if path.parent == PACKAGE and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                definitions.append((path, i, node.name))
            for name in _reference_counts(node):
                used_by.setdefault(name, set()).add((path, i))
    return sorted(
        f"{path.stem}.{name}"
        for path, i, name in definitions
        if not used_by.get(name, set()) - {(path, i)}
    )


def _class_fields(cls: ast.ClassDef) -> list[str]:
    fields = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.append(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            fields += [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return fields


def _unread_fields() -> list[str]:
    fields = []  # (module stem, class, field)
    read = set()
    for path, body in _bodies():
        for node in body:
            if path.parent == PACKAGE and isinstance(node, ast.ClassDef):
                fields += [(path.stem, node.name, f) for f in _class_fields(node)]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    read.add(sub.attr)
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    read.add(sub.value)
    return sorted(f"{m}.{c}.{f}" for m, c, f in fields if f not in read)


def test_every_package_function_and_class_is_used_outside_tests():
    assert _unreferenced() == []



def _unreferenced_methods() -> list[str]:
    methods, total = [], Counter()
    for path, body in _bodies():
        for node in body:
            total += _reference_counts(node)
            if path.parent != PACKAGE:
                continue
            for cls in ast.walk(node):
                if not isinstance(cls, ast.ClassDef):
                    continue
                methods += [
                    (f"{path.stem}.{cls.name}.{fn.name}", fn)
                    for fn in cls.body
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))
                ]
    return sorted(
        name for name, fn in methods
        if total[fn.name] <= _reference_counts(fn)[fn.name]
    )


def test_every_method_and_property_is_used_outside_tests():
    assert _unreferenced_methods() == []


def test_every_class_field_is_read_outside_tests():
    assert _unread_fields() == []


# the records a round fills in as it goes; every other record is read-only
_MUTABLE_RECORDS = ("RunRecord", "RoundPlan", "_ClientRound")


def _record_writes() -> list[str]:
    """Dataclasses not in the slotted form, and attribute stores outside the
    mutable records' fields and plain classes' `__init__` (`self.x = ...`)."""
    bad, mutable, allowed, stores = [], {}, set(), []
    for path, body in _bodies():
        if path.parent != PACKAGE:
            continue
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, ast.ClassDef):
                if node.name in _MUTABLE_RECORDS:
                    mutable[node.name] = _class_fields(node)
                decs = [ast.unparse(dec) for dec in node.decorator_list]
                if any(dec.split("(")[0] in ("dataclass", "dataclasses.dataclass") for dec in decs):
                    if decs != ["dataclass(slots=True)"]:
                        bad.append(f"{path.stem}.{node.name}: @{', @'.join(decs)}")
                    continue
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                        allowed |= {
                            id(sub) for sub in ast.walk(fn)
                            if isinstance(sub, ast.Attribute)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                        }
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                stores.append((path.stem, node))
    assert sorted(mutable) == sorted(_MUTABLE_RECORDS)
    fields = {f for names in mutable.values() for f in names}
    bad += [
        f"{stem}:{node.lineno}: {ast.unparse(node)}"
        for stem, node in stores
        if id(node) not in allowed and node.attr not in fields
    ]
    return bad


def test_records_are_slotted_and_written_only_where_the_round_fills_them():
    assert _record_writes() == []


def _unused_imports() -> list[str]:
    """Names a package or test module imports and never uses as a name; a
    package `__init__.py` re-exports what it imports."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.relative_to(ROOT)}:{node.lineno}: {bound}"
                    for alias in node.names
                    if (bound := alias.asname or alias.name.split(".")[0]) not in used
                ]
    return unused


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports() == []


# fields no run reads, and why each stays
_UNREAD_AT_RUNTIME = {
    "scenario.ChannelParams.carrier_hz": (
        "an inert config key: dropping it moves config_hash and the "
        "benchmark's reference hashes, so it goes with a benchmark change"
    ),
    "scenario.ChannelParams.sensitivity_ws_dbm": (
        "an inert config key: dropping it moves config_hash and the "
        "benchmark's reference hashes, so it goes with a benchmark change"
    ),
}


class _ReadProbe:
    """A dataclass field's slot that, at the first read from code other than
    a dunder method, the dataclasses module (`replace` copies fields) or the
    tests, notes the field as read and puts the slot back."""

    def __init__(self, cls, name):
        self.cls, self.name, self.slot = cls, name, cls.__dict__[name]
        self.key = f"{cls.__module__.removeprefix('mfpsim.')}.{cls.__qualname__}.{name}"
        self.read = False

    def __get__(self, obj, owner=None):
        if obj is None:
            return self.slot
        code = sys._getframe(1).f_code
        name, file = code.co_name, code.co_filename
        if not (
            (name.startswith("__") and name.endswith("__"))
            or file == dataclasses.__file__
            or Path(file).parent == ROOT / "tests"
        ):
            self.read = True
            setattr(self.cls, self.name, self.slot)
        return self.slot.__get__(obj, owner)

    def __set__(self, obj, value):
        self.slot.__set__(obj, value)

    def __delete__(self, obj):
        self.slot.__delete__(obj)


def _package_fields():
    """(class, field name) of every package dataclass field."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"mfpsim.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                yield from ((cls, f.name) for f in dataclasses.fields(cls))


def _probe_runs(capsys):
    """Runs that between them reach every stage of every policy, both
    modes, the trajectory rows, `solve-one --explain` and the benchmark's
    tracer."""
    small = {"seed": 3, "rounds": 2, "scenario": {"n_clients": 6}}
    raws = [{**small, "policy": p.value} for p in Policy]
    raws += [{**small, "mode": "serial"}, {**small, "rounds": 1, "output": {"trajectories": True}}]
    for raw in raws:
        run(load_config(raw)).output_texts()
    assert cli.main([
        "solve-one", "--n", "4", "--a", "1", "--b", "1",
        "--time-cells", "1", "--freq-cells", "10", "--explain",
    ]) == 0
    capsys.readouterr()
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Instrumentation(tracing.Tracer()):
        run(load_config(small)).output_texts()


def test_every_dataclass_field_is_read_at_runtime(capsys):
    probes = [_ReadProbe(cls, name) for cls, name in _package_fields()]
    try:
        for probe in probes:
            setattr(probe.cls, probe.name, probe)
        _probe_runs(capsys)
    finally:
        for probe in probes:
            setattr(probe.cls, probe.name, probe.slot)
    assert sorted(p.key for p in probes if not p.read) == sorted(_UNREAD_AT_RUNTIME)
