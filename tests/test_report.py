"""Tests for per-genus report assembly and the atlas sweep."""

import json

import pytest

from fourg.actions import main_action_class
from fourg.extensions import build_extensions
from fourg.groups import cyclic, dihedral, small_groups
from fourg.realforms import species_set, symmetry_classes_with_ovals
from fourg.report import (
    CATALOGUED_SPORADIC_GENERA,
    EXCEPTIONAL_SURFACE_GENERA,
    QUADRUPLE_FAMILY_GENERA,
    atlas_reports,
    atlas_summary,
    build_report,
    report_markdown,
)


class TestCensusConstants:
    def test_sporadic_census_is_sorted_and_sized(self):
        assert len(CATALOGUED_SPORADIC_GENERA) == 33
        assert list(CATALOGUED_SPORADIC_GENERA) == sorted(
            set(CATALOGUED_SPORADIC_GENERA)
        )
        assert CATALOGUED_SPORADIC_GENERA[0] == 3
        assert CATALOGUED_SPORADIC_GENERA[-1] == 861

    def test_sporadic_census_is_the_arithmetic_list_without_5(self, sporadic_genera_861):
        assert CATALOGUED_SPORADIC_GENERA == tuple(
            g for g in sporadic_genera_861 if g != 5
        )

    def test_quadruple_and_surface_genera(self):
        assert QUADRUPLE_FAMILY_GENERA == (3, 6, 15)
        assert EXCEPTIONAL_SURFACE_GENERA == (3, 6, 12, 30)


class TestBuildReportCore:
    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            build_report(1)

    @pytest.mark.parametrize("g,orbit", [(2, 96), (5, 480)])
    def test_main_action_block(self, g, orbit):
        report = build_report(g)
        assert report["genus"] == g
        block = report["action_classes"]
        assert block["signature"] == f"(0;+;[2,2,2,{2 * g}];{{-}})"
        assert block["count"] == {"computed": 1, "expected": 1, "agrees": True}
        assert block["orbit_size"] == orbit
        assert "A" in block["representative"]

    def test_group_block(self):
        report = build_report(5)
        assert report["group"] == {"description": "dihedral of order 20", "order": 20}

    def test_signature_tags_cover_families(self):
        report = build_report(7)
        tags = [entry["tag"] for entry in report["signatures"]]
        assert tags == ["family-1", "family-3", "family-4"]
        extra_tags = [entry["tag"] for entry in build_report(3)["signatures"]]
        assert "family-2" in extra_tags
        assert "sporadic" in extra_tags
        assert "quadruple-exceptional" in extra_tags

    def test_extension_counts_and_targets(self):
        report = build_report(5)
        counts = report["extensions"]["counts"]
        assert counts["a"] == {"computed": 2, "expected": 2, "agrees": True}
        assert counts["b"] == {"computed": 1, "expected": 1, "agrees": True}
        records = report["extensions"]["classes"]
        assert [entry["label"] for entry in records] == ["a1", "a2", "b"]
        for entry in records:
            assert entry["restriction_in_main_class"] is True
            assert entry["target"]["recognized"]["agrees"] is True
        # odd genus: every extension lands in dihedral x C2 of order 8g
        for entry in records:
            assert entry["target"]["order"] == 40
            assert entry["target"]["description"] == "dihedral of order 20 x C2"

    def test_even_genus_kind_b_target_is_dihedral(self):
        report = build_report(4)
        b_entry = next(
            entry for entry in report["extensions"]["classes"] if entry["kind"] == "b"
        )
        assert b_entry["target"]["description"] == "dihedral of order 32"
        assert b_entry["target"]["recognized"]["agrees"] is True

    @pytest.mark.parametrize(
        "g,expected",
        [
            (2, {"a1": [3, 1, 0, -1], "a2": [-1, -1, -2, -2], "b": [-2]}),
            (4, {"a1": [1, 0, -1, -3], "a2": [-1, -1, -4, -4], "b": [-2]}),
            (5, {"a1": [2, 0, -2, -2], "a2": [-1, -1, -5, -5], "b": [0, 0, -2, -2]}),
        ],
    )
    def test_symmetry_type_species(self, g, expected):
        report = build_report(g)
        by_label = {entry["label"]: entry["species"] for entry in report["symmetry_types"]}
        assert by_label == expected

    def test_oval_counts_are_nonnegative(self):
        report = build_report(6)
        for entry in report["symmetry_types"]:
            assert entry["ovals"]
            assert all(isinstance(n, int) and n >= 0 for n in entry["ovals"])

    def test_species_built_once_per_extension(self, monkeypatch):
        # the report builds each extension's symmetry classes once and
        # reads both its symmetry types and its boundary arcs off them
        from fourg import boundary, realforms, report as report_module

        calls = []
        real = realforms.symmetry_classes_with_ovals

        def counting(e):
            calls.append(e.label)
            return real(e)

        for module in (realforms, boundary, report_module):
            if hasattr(module, "symmetry_classes_with_ovals"):
                monkeypatch.setattr(module, "symmetry_classes_with_ovals", counting)
        report = build_report(7)
        assert sorted(calls) == ["a1", "a2", "b"]
        monkeypatch.undo()
        by_label = {entry["label"]: entry for entry in report["symmetry_types"]}
        for e in build_extensions(main_action_class(7)):
            classes = symmetry_classes_with_ovals(e)
            assert by_label[e.label]["species"] == list(species_set(e, classes))
            assert by_label[e.label]["ovals"] == [ovals for _, ovals in classes]

    def test_boundary_block_embeds_description(self):
        report = build_report(4)
        assert report["boundary"]["genus"] == 4
        labels = [arc["label"] for arc in report["boundary"]["arcs"]]
        assert labels == ["a1", "a2", "b"]
        assert set(report["boundary"]["endpoints"]) == {"X_D", "X_R", "X_8g"}


class TestExceptionalSection:
    def test_generic_genus_has_no_search(self):
        report = build_report(4)
        section = report["exceptional"]
        assert section["sporadic_arithmetic"]["agrees"] is True
        assert section["sporadic_arithmetic"]["computed"] is False
        assert section["search"] is None
        assert section["exceptional_surfaces_expected"] is False

    def test_genus_three_search_finds_both_candidates(self):
        report = build_report(3)
        section = report["exceptional"]
        assert section["sporadic_arithmetic"]["agrees"] is True
        assert section["quadruple_family"]["computed"] is True
        assert section["exceptional_surfaces_expected"] is True
        search = section["search"]
        assert search["catalog_complete"] is True
        signatures = {c["signature"] for c in search["candidates"]}
        assert "(0;+;[3,4,12];{-})" in signatures
        assert "(0;+;[2,2,3,3];{-})" in signatures
        structures = {c["group_structure"] for c in search["candidates"]}
        assert "C12" in structures
        assert any("census" in note for note in report["notes"])

    def test_genus_five_arithmetic_disagreement_is_noted(self):
        # the (5,5,5) signature passes the arithmetic sieve but the census
        # lists no sporadic genus 5, so a disagreement note must appear
        report = build_report(5)
        section = report["exceptional"]
        assert section["sporadic_arithmetic"]["computed"] is True
        assert section["sporadic_arithmetic"]["expected"] is False
        assert section["sporadic_arithmetic"]["agrees"] is False
        search = section["search"]
        assert search["catalog_complete"] is True
        assert search["candidates"] == []
        assert any("disagrees" in note for note in report["notes"])
        assert any("confirms no action" in note for note in report["notes"])

    def test_search_gated_by_max_order(self):
        report = build_report(3, max_order=8)
        assert report["exceptional"]["search"] is None

    def test_external_groups_mark_catalog_incomplete(self):
        pool = [cyclic(12), dihedral(12)]
        report = build_report(3, search_groups=pool)
        search = report["exceptional"]["search"]
        assert search["groups_scanned"] == 2
        assert search["catalog_complete"] is False
        signatures = {c["signature"] for c in search["candidates"]}
        assert "(0;+;[3,4,12];{-})" in signatures

    def test_incomplete_search_with_no_hits_is_inconclusive(self):
        report = build_report(3, search_groups=[dihedral(12)])
        assert report["exceptional"]["search"]["candidates"] == []
        assert any("inconclusive" in note for note in report["notes"])


class TestRenderings:
    def test_json_round_trips_and_is_deterministic(self):
        first = json.dumps(build_report(3), indent=2)
        second = json.dumps(build_report(3), indent=2)
        assert first == second
        data = json.loads(first)
        assert data["genus"] == 3
        assert list(data) == [
            "genus",
            "signatures",
            "group",
            "action_classes",
            "extensions",
            "symmetry_types",
            "boundary",
            "exceptional",
            "notes",
        ]

    def test_markdown_sections_present(self):
        text = report_markdown(build_report(5))
        for heading in (
            "# Genus 5",
            "## Signatures",
            "## Main action",
            "## Extended symmetry groups",
            "## Symmetry types",
            "## Boundary",
            "## Beyond the families",
        ):
            assert heading in text
        assert "(0;+;[2,2,2,10];{-})" in text
        assert "dihedral of order 20" in text

    def test_markdown_notes_rendered_when_present(self):
        text = report_markdown(build_report(5))
        assert "## Notes" in text
        assert "disagrees" in text


class TestAtlas:
    def test_reports_in_genus_order(self):
        reports = atlas_reports(2, 4)
        assert [r["genus"] for r in reports] == [2, 3, 4]
        assert all(isinstance(r, dict) for r in reports)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            atlas_reports(4, 2)
        with pytest.raises(ValueError):
            atlas_reports(1, 3)

    def test_summary_flags_extras_and_census_hits(self):
        summary = atlas_summary(atlas_reports(2, 6))
        assert summary["genera"] == [2, 3, 4, 5, 6]
        assert summary["sporadic_arithmetic"] == [3, 5, 6]
        assert summary["sporadic_expected"] == [3, 6]
        assert summary["sporadic_extras"] == [5]
        assert summary["sporadic_missing"] == []
        assert summary["quadruple_family"] == [3, 6]
        assert any(note.startswith("genus 5:") for note in summary["notes"])

    def test_summary_of_empty_input(self):
        summary = atlas_summary([])
        assert summary["genera"] == []
        assert summary["sporadic_extras"] == []


class TestSearchPoolValidation:
    def test_builtin_pool_orders_match(self):
        # the search pool the report uses must consist of order-4g groups
        for G in small_groups(12):
            assert G.order == 12
