"""Tests for the bundled invariant suites."""

import pytest

from fourg import actions, checks, cli, realforms
from fourg.checks import (
    ALL_CHECKS,
    check_braid_invariance,
    check_centralizer_images,
    check_group_axioms,
    check_kernel_genus,
    check_main_class_count,
    check_species_constraints,
    run_all_checks,
)
from fourg.actions import main_action_class
from fourg.errors import FourgError, InvariantViolation
from fourg.extensions import build_extensions
from fourg.report import build_report
from fourg.groups import FiniteGroup


class TestCheckResult:
    def test_line_formats_pass_and_fail(self, monkeypatch, capsys):
        # a result is a (name, passed, detail) triple, printed by the CLI
        results = [("sample", True, "all fine"), ("sample", False, "broke")]
        monkeypatch.setattr(cli, "run_all_checks", lambda g_min, g_max: results)
        assert cli._run_checks(2, 2) == cli.EXIT_INVARIANT
        assert capsys.readouterr().err == "PASS  sample: all fine\nFAIL  sample: broke\n"


class TestIndividualChecks:
    def test_group_axioms_pass(self):
        assert check_group_axioms(2, 4) == "9 multiplication tables verified"

    def test_braid_invariance_pass(self):
        assert check_braid_invariance(2, 4) == "18 moves stayed in class"

    def test_braid_invariance_builds_one_family_group_per_genus(self, monkeypatch):
        # the suite classifies over the group of its one canonical vector
        calls = []
        real = actions.family_group

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(actions, "family_group", counting)
        monkeypatch.setattr(checks, "family_group", counting)
        check_braid_invariance(2, 6)
        assert calls == [2, 3, 4, 5, 6]

    def test_kernel_genus_pass(self):
        assert check_kernel_genus(2, 5) == "16 signatures round-tripped"

    def test_species_constraints_pass(self):
        assert check_species_constraints(2, 4) == "30 species within bounds"

    def test_species_constraints_build_classes_once_per_extension(self, monkeypatch):
        calls = []
        real = realforms.symmetry_classes_with_ovals

        def counting(e):
            calls.append((e.g, e.label))
            return real(e)

        monkeypatch.setattr(realforms, "symmetry_classes_with_ovals", counting)
        monkeypatch.setattr(checks, "symmetry_classes_with_ovals", counting)
        check_species_constraints(2, 6)
        assert sorted(calls) == [(g, label) for g in range(2, 7) for label in ("a1", "a2", "b")]

    def test_report_and_check_sign_species_through_species_set(self, monkeypatch):
        # species_set is the one species producer: the report (for its
        # symmetry types and boundary arcs) and the species suite each call
        # it once per extension
        from fourg import report

        calls = []
        real = realforms.species_set

        def counting(e, classes):
            calls.append(e.label)
            return real(e, classes)

        monkeypatch.setattr(report, "species_set", counting)
        monkeypatch.setattr(checks, "species_set", counting)
        build_report(3)
        assert sorted(calls) == ["a1", "a2", "b"]
        calls.clear()
        check_species_constraints(3, 3)
        assert sorted(calls) == ["a1", "a2", "b"]

    def test_species_constraints_recompute_after_a_report(self, monkeypatch):
        # a report builds every extension's symmetry classes first; the
        # species suite must rebuild them, so a broken rule still fails it
        build_report(5)
        rule = realforms._rule_generators
        monkeypatch.setattr(
            realforms, "_rule_generators", lambda e, position: rule(e, position)[:1] * 3
        )
        with pytest.raises(FourgError):
            check_species_constraints(5, 5)

    def test_centralizer_images_recomputes_cached_records(self, monkeypatch):
        # a command builds the records before --check runs; the suite must
        # rerun the rule and its guards, not count records built earlier
        for e in build_extensions(main_action_class(5)):
            realforms._reflection_records(e)
        rule = realforms._rule_generators
        # keep only c_i: the image subgroup shrinks to {1, c_i}, which the
        # stated-subgroup guard of a1 rejects
        monkeypatch.setattr(
            realforms, "_rule_generators", lambda e, position: rule(e, position)[:1] * 3
        )
        with pytest.raises(InvariantViolation, match="drifted"):
            check_centralizer_images(5, 5)

    def test_main_class_count_pass(self):
        assert check_main_class_count(2, 8).startswith("genera 2..8:")

    @pytest.mark.parametrize(
        "name, wrong",
        [
            ("_product_one_count", lambda count: lambda G, p: count(G, p) + 1),
            ("_automorphism_count", lambda count: lambda G: count(G) - 1),
        ],
    )
    def test_main_class_count_failure_is_reported(self, monkeypatch, name, wrong):
        monkeypatch.setattr(checks, name, wrong(getattr(checks, name)))
        results = run_all_checks(2, 3)
        failed = [(name, detail) for name, passed, detail in results if not passed]
        assert [name for name, _ in failed] == ["main-class-count"]
        assert failed[0][1].startswith("genus 2:")

    def test_group_axioms_failure_is_reported(self, monkeypatch):
        # C6 with a 2x2 intercalate flipped: a latin square with two-sided
        # inverses that is not associative
        table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
        table[1][1], table[1][4] = table[1][4], table[1][1]
        table[4][1], table[4][4] = table[4][4], table[4][1]
        broken = FiniteGroup(
            table, [str(i) for i in range(6)], range(1, 6), verify=False
        )
        monkeypatch.setattr(checks, "family_group", lambda g: broken)
        results = run_all_checks(2, 2)
        name, passed, detail = results[0]
        assert (name, passed) == ("group-axioms", False)
        assert detail.startswith("associativity fails")
        assert all(passed for _, passed, _ in results[1:])


class TestRunAll:
    def test_all_suites_pass_and_report_names(self):
        results = run_all_checks(2, 4)
        assert len(results) == len(ALL_CHECKS)
        assert all(passed for _, passed, _ in results)
        names = [name for name, _, _ in results]
        assert names == [
            "group-axioms",
            "braid-invariance",
            "kernel-genus",
            "species-constraints",
            "centralizer-images",
            "main-class-count",
        ]

    def test_engine_errors_become_failures(self, monkeypatch):
        def explode(g_min, g_max):
            raise FourgError("synthetic failure")

        broken = (((explode,)) + ALL_CHECKS[1:])
        monkeypatch.setattr(checks, "ALL_CHECKS", broken)
        results = run_all_checks(2, 3)
        assert results[0] == ("explode", False, "synthetic failure")
        assert all(passed for _, passed, _ in results[1:])

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            run_all_checks(3, 2)
        with pytest.raises(ValueError):
            run_all_checks(1, 4)
