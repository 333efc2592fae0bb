"""Run one fourg command in-process with spans around each layer's entry points.

Usage: python3 perfbench/trace_child.py --out SPANS.json -- <fourg cli args>

The package is imported from PYTHONPATH, then every module-level binding of
the functions in TRACED is replaced by one wrapper per function, so a call
through ``extensions.close_generator_map`` and one through the ``groups``
module global both land in the same span name.  Spans are kept in memory
and written as JSON when the command returns: one ``[name, start, end,
parent, stat]`` list per call, where ``parent`` indexes the enclosing span
(-1 for the root ``cli.main``) and ``stat`` is a per-function count taken
from the arguments or the result.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

TRACED = {
    "signatures": ("enumerate_4g_signatures",),
    "groups": (
        "close_generator_map",
        "automorphism_search",
        "iso_search",
        "is_isomorphic",
        "recognize",
        "small_groups",
        "from_table",
        "from_permutations",
    ),
    "actions": ("smooth_vectors", "classify", "main_action_class", "exceptional_search"),
    "extensions": ("build_extensions",),
    "realforms": ("species_set", "symmetry_classes_with_ovals"),
    "boundary": ("boundary_description",),
    "report": ("build_report", "atlas_reports"),
    "cli": ("load_group_tables", "main"),
}


def _table_bytes(args, kwargs, result):
    directory = kwargs.get("directory", args[0] if args else None)
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


STATS = {
    "groups.close_generator_map": lambda a, k, r: int(r is not None),
    "groups.is_isomorphic": lambda a, k, r: int(bool(r)),
    "groups.small_groups": lambda a, k, r: len(r),
    "actions.smooth_vectors": lambda a, k, r: len(r),
    "actions.classify": lambda a, k, r: [len(r), sum(c.size for c in r)],
    "cli.load_group_tables": _table_bytes,
}


class Tracer:
    """In-memory span recorder for a single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        stat = STATS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if stat is not None:
                span[4] = stat(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "fourg") -> None:
        """Patch every module-level binding of each traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        wrappers = {}
        for short, names in TRACED.items():
            home = sys.modules[f"{package}.{short}"]
            for fname in names:
                fn = getattr(home, fname)
                wrappers[id(fn)] = self.wrap(f"{short}.{fname}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: trace_child.py --out SPANS.json -- <fourg args>", file=sys.stderr)
        return 1
    out, cli_args = Path(argv[1]), argv[3:]
    import fourg.cli

    tracer = Tracer()
    tracer.install()
    code = fourg.cli.main(cli_args)
    sys.stdout.flush()
    out.write_text(json.dumps(tracer.spans, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
