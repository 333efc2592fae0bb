"""Every definition of the package is used by the package or its demos.

The scan walks the AST of each ``src/fourg/*.py`` module (``__init__.py``
excluded: its re-exports are not uses) and collects the module-level
functions and classes, public and private, and the public methods of public
classes.  Each must appear somewhere in ``src/fourg`` or ``demos/`` outside
its own definition: a module-level definition as a name or an attribute, a
method as an attribute only, since a bare name of the same spelling is a
local variable or a function.  An import is not a use.  Tests do not
count: a definition only tests call is dead code.

Every field of a public class, a dataclass field or a ``__slots__`` entry,
must be read as an attribute somewhere in ``src/fourg`` or ``demos/``: a
field nothing reads is data built for no reader.

Every name in a module's ``__all__`` must be bound in that module.

The benchmark's tracer wraps functions it names by module; each of those
must stay a module-level callable, or a traced run breaks.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import fourg

PACKAGE = Path(fourg.__file__).resolve().parent
DEMOS = PACKAGE.parents[1] / "demos"
TRACE_CHILD = PACKAGE.parents[1] / "perfbench" / "trace_child.py"

# Public API kept on purpose although nothing in the package or the demos
# calls it, as "module.name" or "module.Class.method".  Each entry is listed,
# with its reason, in the README section "Public API".
ALLOWED = frozenset()


def _referenced_names(node, attributes_only=False) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions(tree):
    """(qualified name, short name, node) for each module-level function or
    class, and each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, member


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def _slots(member) -> tuple:
    """The entries of a ``__slots__ = ...`` assignment; () for any other member."""
    if not (
        isinstance(member, ast.Assign)
        and [getattr(t, "id", None) for t in member.targets] == ["__slots__"]
    ):
        return ()
    value = ast.literal_eval(member.value)
    return (value,) if isinstance(value, str) else tuple(value)


def _public_fields(tree):
    """(qualified name, field name) for each field of a public class: each
    annotated field of a dataclass and each ``__slots__`` entry."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        dataclass = any(_is_dataclass(d) for d in node.decorator_list)
        for member in node.body:
            annotated = isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
            if dataclass and annotated:
                yield f"{node.name}.{member.target.id}", member.target.id
            for field in _slots(member):
                yield f"{node.name}.{field}", field


def _attribute_reads(node) -> Counter:
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def _source_trees():
    sources = sorted(PACKAGE.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def _unused_names(trees):
    """Definitions in the package modules of ``trees`` that nothing uses.

    A method counts as used only where an attribute of that name is read: a
    bare name is a local variable or a module-level function, never a call
    of the method.
    """
    everywhere = Counter()
    attributes = Counter()
    reads = Counter()
    for tree in trees.values():
        everywhere += _referenced_names(tree)
        attributes += _referenced_names(tree, attributes_only=True)
        reads += _attribute_reads(tree)
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for qualified, short, node in _definitions(tree):
            method = "." in qualified
            uses = attributes if method else everywhere
            own = _referenced_names(node, attributes_only=method)[short]
            if uses[short] - own <= 0:
                unused.append(f"{path.stem}.{qualified}")
        for qualified, field in _public_fields(tree):
            if not reads[field]:
                unused.append(f"{path.stem}.{qualified}")
    return sorted(unused)


def test_scan_sees_every_module_and_demo():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert {"groups", "signatures", "actions", "cli"} <= modules
    assert len(list(DEMOS.glob("*.py"))) >= 1


def test_scan_sees_private_helpers():
    scanned = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scanned.update(f"{path.stem}.{qualified}" for qualified, _, _ in _definitions(tree))
    assert {"groups._cayley_key", "extensions._fixed_keys"} <= scanned


def test_scan_ignores_bare_names_for_methods():
    # a local variable named like a method hides nothing; a module-level
    # function is still used by its bare name
    source = """
class Graph:
    def degree(self):
        return 0

    def size(self):
        return 1

def helper():
    return 2

def main():
    degree = helper()
    return degree + Graph().size()
"""
    trees = {PACKAGE / "synthetic.py": ast.parse(source)}
    assert _unused_names(trees) == ["synthetic.Graph.degree", "synthetic.main"]


def test_scan_flags_dataclass_fields_nothing_reads():
    # a field counts as used only where it is read as an attribute, and
    # reads inside its own class (a renderer, say) count; a private
    # dataclass is not scanned
    source = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Record:
    shown: int
    checked: int
    stale: int

    def render(self):
        return str(self.shown)

@dataclass
class _Scratch:
    unread: int

def make(checked):
    record = Record(1, checked, 3)
    return record.render() + str(record.checked) + str(_Scratch(0))
"""
    trees = {PACKAGE / "synthetic.py": ast.parse(source)}
    # ``make`` itself has no caller
    assert _unused_names(trees) == ["synthetic.Record.stale", "synthetic.make"]


def test_scan_flags_slots_nothing_reads():
    # a slot counts as used only where it is read as an attribute; the
    # assignments in ``__init__`` are writes, and a private class's slots
    # are not scanned
    source = """
class Record:
    __slots__ = ("shown", "checked", "stale")

    def __init__(self, shown, checked):
        self.shown = shown
        self.checked = checked
        self.stale = None

    def render(self):
        return str(self.shown)

class Single:
    __slots__ = "unread"

class _Scratch:
    __slots__ = ("unread",)

def make(checked):
    record = Record(1, checked)
    return record.render() + str(record.checked) + str(Single) + str(_Scratch)
"""
    trees = {PACKAGE / "synthetic.py": ast.parse(source)}
    # ``make`` itself has no caller
    assert _unused_names(trees) == [
        "synthetic.Record.stale",
        "synthetic.Single.unread",
        "synthetic.make",
    ]


def test_scan_sees_the_slots_of_the_package():
    fields = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fields.update(f"{path.stem}.{qualified}" for qualified, _ in _public_fields(tree))
    assert {
        "signatures.Signature.period_cycles",
        "actions.ActionClass.size",
        "extensions.ExtendedAction.orientation",
        "groups.GroupElement.idx",
    } <= fields


def test_every_public_name_is_used_outside_the_tests():
    # private helpers are held to the same rule; an ALLOWED entry that has
    # gained a caller is stale and fails too
    unused = set(_unused_names(_source_trees()))
    assert unused == ALLOWED, (
        "definitions nothing in src/fourg or demos/ uses; delete them,"
        f" or add them to ALLOWED and document them in README: {sorted(unused - ALLOWED)};"
        f" stale ALLOWED entries: {sorted(ALLOWED - unused)}"
    )


def test_every_exported_name_is_bound():
    # a name left in __all__ after its definition is deleted breaks
    # ``from fourg.<module> import *`` only when someone runs it
    exporting = []
    unbound = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "fourg" if path.name == "__init__.py" else f"fourg.{path.stem}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        exporting.append(path.stem)
        unbound += [f"{path.stem}.{n}" for n in exported if not hasattr(module, n)]
    assert {"boundary", "checks", "report"} <= set(exporting)
    assert not unbound, f"__all__ names with no binding in their module: {unbound}"


def _traced_names():
    """``module.function`` for every TRACED entry and STATS key of the tracer."""
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    values = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    traced = ast.literal_eval(values["TRACED"])
    names = {f"{module}.{fn}" for module, fns in traced.items() for fn in fns}
    stats = {ast.literal_eval(key) for key in values["STATS"].keys}
    return names | stats


def test_traced_functions_are_module_level_callables():
    names = _traced_names()
    assert {"groups.recognize", "groups.is_isomorphic", "cli.main"} <= names
    missing = []
    for qualified in sorted(names):
        module, fn = qualified.split(".")
        if not callable(getattr(importlib.import_module(f"fourg.{module}"), fn, None)):
            missing.append(qualified)
    assert not missing, f"traced by perfbench but not module-level callables: {missing}"
