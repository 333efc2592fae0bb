"""Per-genus reports aggregating the classification pipeline, plus sweeps.

A report collects, for one genus, everything the library computes: the
admissible signatures with their family tags, the unique dihedral action
class, the extended symmetry classes with target-group recognition, the
species carried by each real arc, the boundary loop, and the outcome of the
optional search for actions beyond the main families.  Computed values are
paired with their expected counterparts where a census exists, and
disagreements are surfaced in the notes instead of being reconciled
silently.

``build_report`` returns the report as the plain dict that ``report --json``
prints, with a fixed key order, and ``report_markdown`` renders that dict;
both renderings are byte-stable across runs.
"""

from __future__ import annotations

from .actions import (
    DEFAULT_MAX_ORDER,
    EXCEPTIONAL_SURFACE_GENERA,
    QUADRUPLE_FAMILY_GENERA,
    _unique_main_class,
    canonical_vector,
    classify,
    exceptional_search,
)
from .boundary import boundary_description
from .extensions import KIND_A, KIND_B, build_extensions, restrict_to_index2
from .groups import COMPLETE_CATALOG_ORDERS, recognize, small_groups
from .realforms import species_set, symmetry_classes_with_ovals
from .signatures import (
    SIGN_PLUS,
    TAG_QUADRUPLE,
    TAG_SPORADIC,
    Signature,
    enumerate_4g_signatures,
)

__all__ = [
    "CATALOGUED_SPORADIC_GENERA",
    "QUADRUPLE_FAMILY_GENERA",
    "EXCEPTIONAL_SURFACE_GENERA",
    "DEFAULT_MAX_ORDER",
    "build_report",
    "report_markdown",
    "atlas_reports",
    "atlas_summary",
    "exceptional_candidates",
]


# Genera (up to 861) admitting a sporadic triangle signature by arithmetic,
# per the published census: exactly sporadic_genera(861) without g = 5, whose
# periods (5, 5, 5) no order-20 group realizes.  No action is claimed for the
# others; reports surface the g = 5 disagreement rather than hiding it.
CATALOGUED_SPORADIC_GENERA = (
    3, 6, 9, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30, 33, 36, 40, 42, 45,
    60, 66, 72, 84, 90, 105, 126, 132, 153, 190, 273, 276, 420, 429, 861,
)


def _checked(computed, expected) -> dict:
    """Pair a computed value with its expected value, keeping both visible."""
    return {"computed": computed, "expected": expected, "agrees": computed == expected}


def report_markdown(report: dict) -> str:
    """Render one report dict as Markdown."""
    lines = [f"# Genus {report['genus']}", ""]
    lines.append("## Signatures")
    lines.append("")
    lines.append("| signature | tag |")
    lines.append("| --- | --- |")
    for entry in report["signatures"]:
        lines.append(f"| `{entry['signature']}` | {entry['tag']} |")
    lines.append("")
    lines.append("## Main action")
    lines.append("")
    group, action = report["group"], report["action_classes"]
    lines.append(f"- group: {group['description']} (order {group['order']})")
    count = action["count"]
    lines.append(
        f"- classes on `{action['signature']}`:"
        f" {count['computed']} (expected {count['expected']})"
    )
    lines.append(f"- representative: {action['representative']}")
    lines.append(f"- orbit size: {action['orbit_size']}")
    lines.append("")
    lines.append("## Extended symmetry groups")
    lines.append("")
    for kind in ("a", "b"):
        count = report["extensions"]["counts"][kind]
        lines.append(
            f"- kind {kind}: {count['computed']} class(es)"
            f" (expected {count['expected']})"
        )
    lines.append("")
    lines.append("| label | target | order | restriction in main class |")
    lines.append("| --- | --- | --- | --- |")
    for entry in report["extensions"]["classes"]:
        target = entry["target"]["description"]
        ok = "yes" if entry["restriction_in_main_class"] else "NO"
        lines.append(
            f"| {entry['label']} | {target} | {entry['target']['order']} | {ok} |"
        )
    lines.append("")
    lines.append("## Symmetry types")
    lines.append("")
    lines.append("| arc | species | ovals per class |")
    lines.append("| --- | --- | --- |")
    for entry in report["symmetry_types"]:
        species = ", ".join(str(v) for v in entry["species"])
        ovals = ", ".join(str(v) for v in entry["ovals"])
        lines.append(f"| {entry['label']} | {species} | {ovals} |")
    lines.append("")
    lines.append("## Boundary")
    lines.append("")
    for arc in report["boundary"]["arcs"]:
        ends = " to ".join(arc["endpoints"])
        species = ", ".join(str(v) for v in arc["species"])
        lines.append(f"- arc {arc['label']}: {ends} carrying [{species}]")
    endpoints = report["boundary"]["endpoints"]
    for name in ("X_D", "X_R"):
        graph = endpoints[name]
        genera = ", ".join(str(v["genus"]) for v in graph["vertices"])
        lines.append(
            f"- {name}: {graph['label']} graph, component genera [{genera}],"
            f" {len(graph['edges'])} node(s)"
        )
    wiman = endpoints["X_8g"]
    lines.append(
        f"- X_8g: {wiman['equation']} with {wiman['automorphisms']} automorphisms,"
        f" quotient `{wiman['quotient_signature']}`"
    )
    lines.append("")
    lines.append("## Beyond the families")
    lines.append("")
    exceptional = report["exceptional"]
    sporadic = exceptional["sporadic_arithmetic"]
    lines.append(
        f"- sporadic arithmetic signatures: {sporadic['computed']}"
        f" (census: {sporadic['expected']})"
    )
    quadruple = exceptional["quadruple_family"]
    lines.append(
        f"- quadruple family: {quadruple['computed']}"
        f" (expected: {quadruple['expected']})"
    )
    lines.append(
        f"- exceptional surfaces catalogued: "
        f"{exceptional['exceptional_surfaces_expected']}"
    )
    search = exceptional["search"]
    if search is None:
        lines.append("- action search: not run")
    else:
        lines.append(
            f"- action search: {len(search['candidates'])} candidate class(es)"
            f" over {search['groups_scanned']} group(s)"
            f" (catalog complete: {search['catalog_complete']})"
        )
        for cand in search["candidates"]:
            lines.append(
                f"  - `{cand['signature']}` over {cand['group']}"
                f" ({cand['group_structure']})"
            )
    if report["notes"]:
        lines.append("")
        lines.append("## Notes")
        lines.append("")
        for note in report["notes"]:
            lines.append(f"- {note}")
    lines.append("")
    return "\n".join(lines)


def _collect_disagreements(report_dict: dict, path: str, notes: list) -> None:
    """Walk nested checked-value entries and note every disagreement."""
    if isinstance(report_dict, dict):
        keys = set(report_dict)
        if keys == {"computed", "expected", "agrees"}:
            if not report_dict["agrees"]:
                notes.append(
                    f"{path}: computed {report_dict['computed']!r} disagrees with"
                    f" expected {report_dict['expected']!r}"
                )
            return
        for key, value in report_dict.items():
            _collect_disagreements(value, f"{path}.{key}" if path else key, notes)
    elif isinstance(report_dict, (list, tuple)):
        for i, value in enumerate(report_dict):
            _collect_disagreements(value, f"{path}[{i}]", notes)


def exceptional_candidates(g: int, pool) -> list:
    """JSON records of the exceptional actions of genus g found in ``pool``."""
    return [
        {
            "signature": str(sig),
            "group": cls.group.name,
            "group_structure": recognize(cls.group),
            "orbit_size": cls.size,
        }
        for sig, cls in exceptional_search(g, pool)
    ]


def build_report(
    g: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    search_groups=None,
) -> dict:
    """Run the whole pipeline for one genus and assemble the report dict.

    ``search_groups`` supplies externally loaded order-4g groups for the
    beyond-the-families action search, which runs when special signatures
    exist at this genus.  Without it the built-in catalog is used, and only
    when 4g does not exceed ``max_order``, the catalog cap.
    """
    if g < 2:
        raise ValueError("reports start at genus 2")
    tagged = enumerate_4g_signatures(g)
    signatures = [{"signature": str(sig), "tag": tag} for sig, tag in tagged]

    v = canonical_vector(g)
    group = {"description": recognize(v.group), "order": v.group.order}

    classes = classify(v.group, v.periods)
    main = _unique_main_class(v, classes)
    action_classes = {
        "signature": str(Signature(0, SIGN_PLUS, (2, 2, 2, 2 * g))),
        "count": _checked(len(classes), 1),
        "representative": str(v),
        "orbit_size": main.size,
    }

    extended = build_extensions(main)
    kinds = [e.kind for e in extended]
    counts = {k: _checked(kinds.count(k), n) for k, n in ((KIND_A, 2), (KIND_B, 1))}
    class_records = []
    symmetry_types = []
    arcs = []
    for e in extended:
        target_name = recognize(e.group)
        if e.kind == KIND_B and g % 2 == 0:
            expected_target = f"dihedral of order {8 * g}"
        else:
            expected_target = f"dihedral of order {4 * g} x C2"
        class_records.append(
            {
                "label": e.label,
                "kind": e.kind,
                "signature": str(e.signature),
                "target": {
                    "description": target_name,
                    "order": e.group.order,
                    "recognized": _checked(target_name, expected_target),
                },
                "images": [el.name for el in e.images],
                "restriction_in_main_class": main.contains(restrict_to_index2(e)),
            }
        )
        classes = symmetry_classes_with_ovals(e)
        species = species_set(e, classes)
        symmetry_types.append(
            {
                "label": e.label,
                "species": list(species),
                "ovals": [ovals for _, ovals in classes],
            }
        )
        arcs.append((e, species))
    extensions = {"counts": counts, "classes": class_records}

    has_sporadic = any(tag == TAG_SPORADIC for _, tag in tagged)
    has_quadruple = any(tag == TAG_QUADRUPLE for _, tag in tagged)
    search = None
    if (has_sporadic or has_quadruple) and (
        search_groups is not None or 4 * g <= max_order
    ):
        pool = list(search_groups) if search_groups is not None else small_groups(4 * g)
        search = {
            "groups_scanned": len(pool),
            "catalog_complete": (
                search_groups is None and 4 * g in COMPLETE_CATALOG_ORDERS
            ),
            "candidates": exceptional_candidates(g, pool),
        }
    exceptional = {
        "sporadic_arithmetic": _checked(has_sporadic, g in CATALOGUED_SPORADIC_GENERA),
        "quadruple_family": _checked(has_quadruple, g in QUADRUPLE_FAMILY_GENERA),
        "exceptional_surfaces_expected": g in EXCEPTIONAL_SURFACE_GENERA,
        "search": search,
    }

    notes = []
    report = {
        "genus": g,
        "signatures": signatures,
        "group": group,
        "action_classes": action_classes,
        "extensions": extensions,
        "symmetry_types": symmetry_types,
        "boundary": boundary_description(v, arcs),
        "exceptional": exceptional,
        "notes": notes,
    }
    _collect_disagreements(report, "", notes)
    if search is not None:
        found = bool(search["candidates"])
        census_realized = (
            g in EXCEPTIONAL_SURFACE_GENERA or g in QUADRUPLE_FAMILY_GENERA
        )
        if found and not census_realized:
            notes.append(
                "action search found candidates at a genus where the census"
                " lists no exceptional actions"
            )
        elif not found:
            if search_groups is not None:
                notes.append(
                    "action search over the supplied group tables found no"
                    " candidates (inconclusive; the tables need not list every"
                    f" group of order {4 * g})"
                )
            elif not search["catalog_complete"]:
                notes.append(
                    "action search over the incomplete built-in catalog found"
                    " no candidates (inconclusive; supply group tables to"
                    " extend coverage)"
                )
            elif census_realized:
                notes.append(
                    "census expects exceptional actions at this genus but the"
                    " search over the complete catalog found none"
                )
            else:
                notes.append(
                    "special signatures exist arithmetically; the search over"
                    " the complete catalog confirms no action realizes them"
                )
    if g in EXCEPTIONAL_SURFACE_GENERA:
        notes.append(
            "census: one or two exceptional surfaces with 4g automorphisms"
            " exist at this genus beyond the uniparametric families"
        )
    if g in QUADRUPLE_FAMILY_GENERA:
        notes.append(
            "census: the quadruple signature carries another uniparametric"
            " family at this genus"
        )
    for entry in class_records:
        if not entry["restriction_in_main_class"]:
            notes.append(
                f"extension {entry['label']} restricts outside the main class"
            )

    return report


def atlas_reports(
    g_min: int,
    g_max: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
) -> list:
    """Reports for every genus in [g_min, g_max], in genus order."""
    if not 2 <= g_min <= g_max:
        raise ValueError(f"need 2 <= g_min <= g_max, got {g_min}..{g_max}")
    return [build_report(g, max_order=max_order) for g in range(g_min, g_max + 1)]


def atlas_summary(reports) -> dict:
    """Sweep summary: which special genera appeared, against the census."""
    reports = list(reports)
    genera = [r["genus"] for r in reports]
    sporadic, quadruple = (
        [r["genus"] for r in reports if r["exceptional"][key]["computed"]]
        for key in ("sporadic_arithmetic", "quadruple_family")
    )
    span = set(range(min(genera), max(genera) + 1)) if genera else set()
    expected_sporadic = sorted(set(CATALOGUED_SPORADIC_GENERA) & span)
    extras = sorted(set(sporadic) - set(CATALOGUED_SPORADIC_GENERA))
    missing = sorted(set(expected_sporadic) - set(sporadic))
    notes = []
    for r in reports:
        for note in r["notes"]:
            notes.append(f"genus {r['genus']}: {note}")
    return {
        "genera": genera,
        "sporadic_arithmetic": sporadic,
        "sporadic_expected": expected_sporadic,
        "sporadic_extras": extras,
        "sporadic_missing": missing,
        "quadruple_family": quadruple,
        "notes": notes,
    }
