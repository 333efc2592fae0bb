"""Acceptance suite: one test per top-level behavioral criterion.

Each test exercises one end-to-end guarantee of the library at its stated
tolerance (exact equality unless a runtime bound is given).  The terminal
summary prints one PASS/FAIL line per criterion.
"""

import time

from fourg.actions import (
    GeneratingVector,
    canonical_vector,
    classify,
    eliminate_cases,
    exceptional_search,
    family_group,
    main_action_class,
    smooth_vectors,
)
from fourg.boundary import boundary_description, nodal_graph
from fourg.checks import check_centralizer_images, run_all_checks
from fourg.extensions import build_extensions, restrict_to_index2
from fourg.groups import recognize, small_groups
from fourg.realforms import species_set, symmetry_classes_with_ovals
from fourg.report import CATALOGUED_SPORADIC_GENERA
from fourg.signatures import enumerate_4g_signatures, sporadic_genera


def test_criterion_1_signature_enumeration():
    """Exact admissible-signature lists for sample genera, plus extras at g=3."""

    def base(g):
        return {(2, 4 * g, 4 * g), (4, 4, 2 * g), (2, 2, 2, 2 * g)}

    expected = {
        2: base(2),
        4: base(4),
        5: base(5) | {(5, 5, 5)},
        7: base(7),
        8: base(8),
        3: base(3) | {(3, 6, 6), (3, 4, 12), (2, 2, 3, 3)},
    }
    for g, want in expected.items():
        got = {sig.proper_periods for sig, _ in enumerate_4g_signatures(g)}
        assert got == want, f"genus {g}: {got} != {want}"


def test_criterion_2_sporadic_genus_list():
    """Census containment, the lone extra genus 5, and its non-realization."""
    start = time.monotonic()
    genera = sporadic_genera(861)
    census = set(CATALOGUED_SPORADIC_GENERA)
    assert census <= set(genera)
    assert sorted(set(genera) - census) == [5]
    # no order-20 group carries a smooth (5, 5, 5) vector
    for G in small_groups(20):
        assert smooth_vectors(G, (5, 5, 5)) == []
    assert time.monotonic() - start < 60


def test_criterion_3_unique_action_class():
    """One action class on (2,2,2,2g) per genus, holding the reference vector."""
    for g in range(2, 11):
        G = family_group(g)
        classes = classify(G, (2, 2, 2, 2 * g))
        assert len(classes) == 1, f"genus {g}: {len(classes)} classes"
        D, A = G.generator("D"), G.generator("A")
        reference = GeneratingVector(
            G, (2, 2, 2, 2 * g), (A, D ** (g + 1) * A, D ** g, D)
        )
        assert classes[0].contains(reference.images)
        assert classes[0].contains(canonical_vector(g).images)


def test_criterion_4_case_eliminations():
    """The three rigid signatures never give full order exactly 4g."""
    for g in (2, 4, 5):
        fam1, fam2, fam3 = eliminate_cases(g)

        assert fam1["verdict"] == "not-full"
        assert fam1["details"]["constructed"] is True
        assert fam1["details"]["extension_order"] == 8 * g
        assert fam1["details"]["cyclic_subgroup_index"] == 2
        assert fam1["details"]["extension_vector"].periods == (2, 4, 4 * g)

        assert fam2["verdict"] == "impossible"
        assert fam2["details"]["groups_tested"] > 0
        assert fam2["details"]["vectors_found"] == 0

        assert fam3["verdict"] == "not-full"
        assert fam3["details"]["surviving_twist"] == 2 * g - 1
        rejected_or_unbuildable = (
            g - 1 in fam3["details"]["rejected_twists"]
            or g - 1 not in fam3["details"]["candidate_twists"]
        )
        assert rejected_or_unbuildable, f"genus {g}: twist {g - 1} survived"
        assert fam3["details"]["extension_order"] == 8 * g
        assert "swap_automorphism" in fam3["details"]


def test_criterion_5_extended_groups():
    """Two reflection extensions of one kind, one of the other, per genus."""
    for g in range(2, 11):
        extended = build_extensions(main_action_class(g))
        kind_a = [e for e in extended if e.kind == "a"]
        kind_b = [e for e in extended if e.kind == "b"]
        assert len(kind_a) == 2, f"genus {g}"
        assert len(kind_b) == 1, f"genus {g}"
        described = recognize(kind_b[0].group)
        if g % 2 == 0:
            assert described == f"dihedral of order {8 * g}"
        else:
            assert described == f"dihedral of order {4 * g} x C2"
        main = main_action_class(g)
        for e in extended:
            assert main.contains(restrict_to_index2(e)), f"genus {g}, {e.label}"


def test_criterion_6_oval_counts_and_species():
    """Frozen oval multisets and species for the sample genera."""
    for g, want_ovals, want_species in (
        (4, {"a1": [0, 1, 1, 3], "a2": [1, 1, 4, 4]}, {"b": (-2,)}),
        (5, {"a1": [0, 2, 2, 2], "a2": [1, 1, 5, 5]}, {"b": (0, 0, -2, -2)}),
    ):
        for e in build_extensions(main_action_class(g)):
            classes = symmetry_classes_with_ovals(e)
            if e.label in want_ovals:
                ovals = sorted(ovals for _, ovals in classes)
                assert ovals == want_ovals[e.label], f"genus {g}, {e.label}"
            values = species_set(e, classes)
            if e.label == "a2":
                assert values == (-1, -1, -g, -g)
            if e.label in want_species:
                assert values == want_species[e.label], f"genus {g}, {e.label}"
    assert check_centralizer_images(2, 8).endswith("reflection records verified")


def test_criterion_7_boundary_graphs():
    """Nodal limits per genus: dipole shape, loop shape, genus bookkeeping."""

    def genera(graph):
        return [vertex["genus"] for vertex in graph["vertices"]]

    def total_genus(graph):
        return sum(h - 1 for h in genera(graph)) + len(graph["edges"]) + 1

    for g in range(2, 13):
        v = canonical_vector(g)

        dipole = nodal_graph(v, 1)
        assert dipole["label"] == "dipole"
        if g % 2 == 0:
            assert genera(dipole) == [g // 2, g // 2]
            assert len(dipole["edges"]) == 1
        else:
            assert genera(dipole) == [(g - 1) // 2, (g - 1) // 2]
            assert len(dipole["edges"]) == 2
        assert total_genus(dipole) == g

        rose = nodal_graph(v, 2)
        assert rose["label"] == "loops"
        assert genera(rose) == [0]
        assert len(rose["edges"]) == g
        assert all(edge == [0, 0] for edge in rose["edges"])
        assert total_genus(rose) == g

        arcs = [
            (e, species_set(e, symmetry_classes_with_ovals(e)))
            for e in build_extensions(main_action_class(g))
        ]
        description = boundary_description(v, arcs)
        labels = tuple(arc["label"] for arc in description["arcs"])
        assert labels == ("a1", "a2", "b")
        assert set(description["endpoints"]) == {"X_D", "X_R", "X_8g"}
        touched = [name for arc in description["arcs"] for name in arc["endpoints"]]
        assert sorted(touched.count(name) for name in set(touched)) == [2, 2, 2]


def test_criterion_8_exceptional_search():
    """Candidates beyond the families exist at genus 3 and not at genus 5."""
    start = time.monotonic()

    found3 = exceptional_search(3, small_groups(12))
    assert found3
    summaries = {
        (str(sig), recognize(cls.group)) for sig, cls in found3
    }
    assert ("(0;+;[3,4,12];{-})", "C12") in summaries
    assert any(sig == "(0;+;[2,2,3,3];{-})" for sig, _ in summaries)

    assert exceptional_search(5, small_groups(20)) == []
    assert time.monotonic() - start < 30


def test_criterion_9_property_suites():
    """Every bundled invariant suite reports zero violations."""
    results = run_all_checks(2, 6)
    failures = [f"{name}: {detail}" for name, passed, detail in results if not passed]
    assert not failures, "\n".join(failures)
