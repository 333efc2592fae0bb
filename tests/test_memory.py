"""Nothing computed for one genus outlives it.

A sweep keeps only the plain-data reports: every group built on the way is
garbage once its genus is done.  Each genus builds its family group, its main
classes and its three extensions once, and the package holds no process-wide
cache.
"""

import ast
import gc
import sys
import weakref
from pathlib import Path

import fourg
from fourg import report
from fourg.actions import classify, family_group
from fourg.extensions import build_extensions, chain_target_group, cone_target_group
from fourg.groups import _distinct_groups, small_groups

PACKAGE = Path(fourg.__file__).resolve().parent


def _wrap_everywhere(monkeypatch, fn, wrapper):
    """Rebind every module-level binding of ``fn`` in the package to ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "fourg" or name.startswith("fourg."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


def _recording(fn, record):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(args, result)
        return result

    return wrapper


def test_no_group_outlives_a_sweep(monkeypatch):
    refs = []

    def keep(args, result):
        built = result if isinstance(result, list) else [result]
        refs.extend(weakref.ref(G) for G in built)

    # _distinct_groups sees the catalogs of the smaller orders as well
    for fn in (family_group, chain_target_group, cone_target_group, small_groups,
               _distinct_groups):
        _wrap_everywhere(monkeypatch, fn, _recording(fn, keep))
    reports = report.atlas_reports(2, 20)
    assert [r["genus"] for r in reports] == list(range(2, 21))
    assert len(refs) > 100
    gc.collect()
    alive = sorted({ref().name for ref in refs if ref() is not None})
    assert alive == []


def test_one_report_builds_its_classes_and_extensions_once(monkeypatch):
    calls = []
    for fn in (classify, build_extensions, family_group):
        _wrap_everywhere(
            monkeypatch,
            fn,
            _recording(
                fn,
                lambda args, result, name=fn.__name__: calls.append((name, args, result)),
            ),
        )
    report.build_report(7)
    main = [r for name, a, r in calls if name == "classify" and sorted(a[1]) == [2, 2, 2, 14]]
    assert len(main) == 1
    # the extensions are certified against that very class, not a rebuilt one
    ((built,),) = [a for name, a, _ in calls if name == "build_extensions"]
    assert built is main[0][0]
    # the boundary pinches the report's family vector instead of building one
    assert [a for name, a, _ in calls if name == "family_group"] == [(7,)]


def _empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def test_no_process_wide_cache():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
                assert not names & {"lru_cache", "cache"}, path.name
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                assert node.attr not in ("lru_cache", "cache"), path.name
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                assert not _empty_container(node.value), (path.name, node.lineno)


def test_catalog_rows_are_compact():
    # the 69 order-96 tables hold byte rows, 0.85 MB by getsizeof, where
    # tuple rows took 5.35 MB
    catalog = small_groups(96)
    size = sum(sys.getsizeof(row) for G in catalog for row in G._table)
    assert size < 1.5e6
