"""Command-line front end: per-genus reports, atlas sweeps, and searches.

Commands:

- ``report --genus G``: run the full pipeline for one genus.
- ``atlas --range A:B``: one report per genus plus a sweep summary.
- ``exceptional --genus G``: search for actions beyond the main families,
  over the built-in group catalog or externally supplied table files.

Each command builds one JSON-ready payload (the report dict, the atlas's
reports and summary, or the search record) and prints it once: as JSON with
``--json``, else through that command's Markdown renderer.  Both formats are
byte-identical across runs.  A ``--config`` file with ``key=value`` lines
supplies defaults that explicit flags override.

Exit codes: 0 success, 1 usage error, 2 input-format error, 3 internal
invariant violation (including --check failures).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checks import run_all_checks
from .errors import (
    FourgError,
    GroupConstructionError,
    InputFormatError,
    InvariantViolation,
    UsageError,
)
from .groups import (
    COMPLETE_CATALOG_ORDERS,
    MAX_ORDER,
    from_text,
    recognize,
    small_groups,
)
from .report import (
    DEFAULT_MAX_ORDER,
    atlas_reports,
    atlas_summary,
    build_report,
    exceptional_candidates,
    report_markdown,
)

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_INPUT",
    "EXIT_INVARIANT",
    "load_group_tables",
    "cmd_report",
    "cmd_atlas",
    "cmd_exceptional",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures raise instead of exiting.

    argparse exits with status 2 on bad usage; this interface reserves 2 for
    input-format problems, so usage trouble is rerouted through UsageError
    and becomes exit code 1 in main().
    """

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fourg",
        description="Classify Riemann surfaces with 4g automorphisms.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p, with_genus=False, with_range=False):
        if with_genus:
            p.add_argument("--genus", type=int, default=None, help="genus g >= 2")
        if with_range:
            p.add_argument(
                "--range",
                dest="genus_range",
                default=None,
                help="genus range as A:B (inclusive)",
            )
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument(
            "--json", dest="format", action="store_const", const="json",
            help="emit JSON",
        )
        fmt.add_argument(
            "--markdown", dest="format", action="store_const", const="markdown",
            help="emit Markdown (default)",
        )
        if with_genus:  # report and exceptional; atlas has no table input
            p.add_argument(
                "--tables", default=None, metavar="DIR",
                help="directory of group table / permutation files",
            )
        p.add_argument(
            "--check", action="store_const", const=True, default=None,
            help="also run the invariant suites",
        )
        p.add_argument(
            "--max-order", dest="max_order", type=int, default=None,
            help=f"cap for catalog searches (default {DEFAULT_MAX_ORDER})",
        )
        p.add_argument(
            "--config", default=None, metavar="FILE",
            help="key=value file supplying defaults",
        )
        p.set_defaults(format=None)

    add_common(sub.add_parser("report", help="full pipeline for one genus"),
               with_genus=True)
    add_common(sub.add_parser("atlas", help="reports for a genus range"),
               with_range=True)
    add_common(sub.add_parser("exceptional",
                              help="search beyond the main families"),
               with_genus=True)
    return parser


def _load_config(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read config file {path}: {exc}") from exc
    options = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFormatError(
                f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise InputFormatError(f"{path}:{lineno}: unknown key {key!r}")
        options[key] = value
    return options


def _read_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputFormatError(
            f"config key {key} must be an integer, got {text!r}"
        ) from None


def _read_bool(key: str, text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise InputFormatError(f"config key {key} must be a boolean, got {text!r}")


def _read_format(key: str, text: str) -> str:
    if text not in ("json", "markdown"):
        raise InputFormatError(f"config format must be json or markdown, got {text!r}")
    return text


def _read_text(key: str, text: str) -> str:
    return text


# Each config key, in merge order: the flag it fills and the reader of its text.
_CONFIG_KEYS = {
    "genus": ("genus", _read_int),
    "range": ("genus_range", _read_text),
    "format": ("format", _read_format),
    "tables": ("tables", _read_text),
    "max_order": ("max_order", _read_int),
    "check": ("check", _read_bool),
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill the subcommand's unset flags from the config file, then apply
    hard defaults; a key for a flag the subcommand lacks is left unread."""
    config = _load_config(args.config) if args.config else {}
    flags = vars(args)
    for key, (dest, read) in _CONFIG_KEYS.items():
        if key in config and dest in flags and flags[dest] is None:
            flags[dest] = read(key, config[key])
    if args.format is None:
        args.format = "markdown"
    if args.max_order is None:
        args.max_order = DEFAULT_MAX_ORDER
    if args.check is None:
        args.check = False
    if args.max_order < 8:
        raise UsageError("--max-order must be at least 8")
    return args


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--range expects A:B, got {text!r}")
    try:
        g_min, g_max = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--range expects integers, got {text!r}") from None
    if not 2 <= g_min <= g_max:
        raise UsageError(f"--range needs 2 <= A <= B, got {text!r}")
    _check_genus(g_max, 8)
    return g_min, g_max


def _check_genus(g: int, factor: int) -> None:
    """Reject a genus below 2, or one whose order-``factor``*g group is too big.

    Runs before any group is built, so a huge genus never allocates a table.
    """
    if g < 2:
        raise UsageError(f"--genus must be at least 2, got {g}")
    if factor * g > MAX_ORDER:
        raise UsageError(
            f"genus {g} needs groups of order {factor * g}; the largest"
            f" supported order is {MAX_ORDER}"
        )


def load_group_tables(directory: str, expected_order: int = None) -> list:
    """Read every group file in a directory, in sorted filename order.

    Each file is parsed by ``from_text``: a multiplication table or a
    permutation-generator list.  Each group is renamed after its file for
    provenance, so two files with one stem (``x.tbl``, ``x.txt``) are an
    input error.  ``expected_order`` makes a mismatched order an input error.
    """
    path = Path(directory)
    if not path.is_dir():
        raise InputFormatError(f"--tables: {directory} is not a directory")
    groups, first_of = [], {}
    for file in sorted(p for p in path.iterdir() if p.is_file()):
        first = first_of.setdefault(file.stem, file)
        if first != file:
            raise InputFormatError(
                f"{first.name} and {file.name} would both name group {file.stem!r}"
            )
        try:
            text = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"cannot read {file}: {exc}") from exc
        try:
            G = from_text(text)
        except (InputFormatError, GroupConstructionError) as exc:
            raise InputFormatError(f"{file.name}: {exc}") from exc
        if expected_order is not None and G.order != expected_order:
            raise InputFormatError(
                f"{file.name}: group has order {G.order}, expected {expected_order}"
            )
        G.name = file.stem
        groups.append(G)
    if not groups:
        raise InputFormatError(f"--tables: no group files found in {directory}")
    return groups


def cmd_report(g: int, options) -> dict:
    """Build the report dict for one genus, honoring table and search options."""
    if g is None:
        raise UsageError("report requires --genus")
    _check_genus(g, 8)
    search_groups = (
        load_group_tables(options.tables, expected_order=4 * g)
        if options.tables
        else None
    )
    return build_report(g, max_order=options.max_order, search_groups=search_groups)


def cmd_atlas(g_min: int, g_max: int, options) -> dict:
    """Reports for a genus range plus the sweep summary."""
    reports = atlas_reports(g_min, g_max, max_order=options.max_order)
    return {"reports": reports, "summary": atlas_summary(reports)}


def cmd_exceptional(g: int, options) -> dict:
    """Search for candidate actions beyond the main families at one genus.

    Uses table files when supplied, else the built-in catalog, whose order
    4g must not exceed ``--max-order`` (a usage error); warns on stderr
    when the built-in catalog is not known to be complete at order 4g,
    since an empty result is then inconclusive.
    """
    if g is None:
        raise UsageError("exceptional requires --genus")
    _check_genus(g, 4)
    order = 4 * g
    if not options.tables and order > options.max_order:
        raise UsageError(
            f"genus {g} needs the catalog of order {order}, above --max-order"
            f" {options.max_order}; raise it or supply --tables"
        )
    if options.tables:
        pool = load_group_tables(options.tables, expected_order=order)
        source = "table"
        complete = False
    else:
        pool = small_groups(order)
        source = "builtin"
        complete = order in COMPLETE_CATALOG_ORDERS
        if not complete:
            print(
                f"warning: built-in constructors may not cover all groups of"
                f" order {order}; supply --tables to extend coverage",
                file=sys.stderr,
            )
    candidates = exceptional_candidates(g, pool)
    return {
        "genus": g,
        "order": order,
        "catalog_complete": complete,
        "groups": [
            {"name": G.name, "structure": recognize(G), "source": source}
            for G in pool
        ],
        "candidates": candidates,
    }


def _exceptional_markdown(payload: dict) -> str:
    lines = [f"# Beyond the families at genus {payload['genus']}", ""]
    lines.append(
        f"Scanned {len(payload['groups'])} group(s) of order {payload['order']}"
        f" (catalog complete: {payload['catalog_complete']})."
    )
    lines.append("")
    lines.append("| group | structure | source |")
    lines.append("| --- | --- | --- |")
    for entry in payload["groups"]:
        lines.append(f"| {entry['name']} | {entry['structure']} | {entry['source']} |")
    lines.append("")
    if payload["candidates"]:
        lines.append("| signature | group | structure | orbit size |")
        lines.append("| --- | --- | --- | --- |")
        for cand in payload["candidates"]:
            lines.append(
                f"| `{cand['signature']}` | {cand['group']} |"
                f" {cand['group_structure']} | {cand['orbit_size']} |"
            )
    else:
        lines.append("No candidate actions found.")
    lines.append("")
    return "\n".join(lines)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _check_range(options) -> tuple:
    """The genera ``--check`` sweeps.

    The suites build order-8g groups, so every genus they check must pass
    the order-8g cap, also for ``exceptional``, which allows order 4g.  This
    runs before the command, so a rejected invocation prints nothing.
    """
    if getattr(options, "genus_range", None):
        g_min, g_max = _parse_range(options.genus_range)
    elif getattr(options, "genus", None):
        g_min = g_max = options.genus
    else:
        g_min, g_max = 2, 6
    _check_genus(g_max, 8)
    return g_min, g_max


def _run_checks(g_min: int, g_max: int) -> int:
    """Run the invariant suites, print one line each, return an exit code."""
    results = run_all_checks(g_min, g_max)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}", file=sys.stderr)
    return EXIT_OK if all(passed for _, passed, _ in results) else EXIT_INVARIANT


def _run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a command is required: report, atlas, or exceptional")
    options = _merge_config(args)
    check_range = _check_range(options) if options.check else None

    if options.command == "report":
        payload, render = cmd_report(options.genus, options), report_markdown
    elif options.command == "atlas":
        if not options.genus_range:
            raise UsageError("atlas requires --range A:B")
        g_min, g_max = _parse_range(options.genus_range)
        payload, render = cmd_atlas(g_min, g_max, options), _atlas_markdown
    elif options.command == "exceptional":
        payload, render = cmd_exceptional(options.genus, options), _exceptional_markdown
    else:  # pragma: no cover - argparse restricts the choices
        raise UsageError(f"unknown command {options.command!r}")
    _emit(json.dumps(payload, indent=2) if options.format == "json" else render(payload))

    if check_range:
        return _run_checks(*check_range)
    return EXIT_OK


def _atlas_markdown(payload: dict) -> str:
    """Each report's Markdown in genus order, then the sweep summary."""
    reports = "".join(report_markdown(r) for r in payload["reports"])
    return reports + _summary_markdown(payload["summary"])


def _summary_markdown(summary: dict) -> str:
    lines = ["# Sweep summary", ""]
    genera = summary["genera"]
    lines.append(f"- genera: {genera[0]}..{genera[-1]}" if genera else "- genera: none")
    lines.append(
        "- sporadic arithmetic genera: "
        + (", ".join(str(g) for g in summary["sporadic_arithmetic"]) or "none")
    )
    lines.append(
        "- expected from census: "
        + (", ".join(str(g) for g in summary["sporadic_expected"]) or "none")
    )
    if summary["sporadic_extras"]:
        lines.append(
            "- extras beyond the census: "
            + ", ".join(str(g) for g in summary["sporadic_extras"])
        )
    if summary["sporadic_missing"]:
        lines.append(
            "- MISSING against the census: "
            + ", ".join(str(g) for g in summary["sporadic_missing"])
        )
    lines.append(
        "- quadruple-family genera: "
        + (", ".join(str(g) for g in summary["quadruple_family"]) or "none")
    )
    if summary["notes"]:
        lines.append("")
        lines.append("## Notes")
        lines.append("")
        for note in summary["notes"]:
            lines.append(f"- {note}")
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point; maps error classes onto the documented exit codes."""
    try:
        return _run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except FourgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except SystemExit as exc:  # argparse --help
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
