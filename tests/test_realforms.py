"""Tests for mirror-symmetry classes, oval counts, and species.

Reference facts used as oracles: the four involution class representatives
{x, y, y(wx)^g, w} for the reflection-chain extensions and {z, w, (xz)^g,
(xw)^g} (odd g) or {z} (even g) for the one-cone-point extension; oval counts
[w] -> 2 (g=5) and 3 (g=4), [y] -> g under the second chain class, 0 for the
class missed by every reflection; the closed-form image subgroups of the
reflection centralizers; the species multisets {+2,0,-2,-2} (odd g),
{+1,0,-1,-3} (even g >= 4), {-1,-1,-g,-g}, {0,0,-2,-2}, {-2}; the Harnack
constraints on species.
"""

from collections import namedtuple
from dataclasses import dataclass

import pytest
from conftest import SIGNS, _reference_orientation

from fourg.actions import main_action_class
from fourg.errors import InvariantViolation
from fourg.extensions import ExtendedAction, build_extensions, cone_target_group
from fourg.groups import _class_minima
from fourg.realforms import (
    _reflection_records,
    signed_species,
    species_set,
    symmetry_classes_with_ovals,
)


def _species(e):
    return species_set(e, symmetry_classes_with_ovals(e))


def class_id(G, element):
    return G._class_index()[1][element.idx]


def class_by_element(action, element):
    """The (representative, ovals) pair of the given involution's class."""
    G = action.group
    for rep, ovals in symmetry_classes_with_ovals(action):
        if class_id(G, rep) == class_id(G, element):
            return rep, ovals
    raise AssertionError(f"{element.name} matches no symmetry class")


def ovals_of(action, element):
    return class_by_element(action, element)[1]


# A class before its ovals are counted: what the reference producer returns.
_ReferenceClass = namedtuple("_ReferenceClass", "action representative")


def _reference_symmetry_classes(e: ExtendedAction) -> list:
    """The classes without ovals, as built before they carried their ovals.

    Kept verbatim except that each class is a test-local (action,
    representative) pair, since a class is now returned with its ovals, and
    that the character is the reference one of the extension's kind, since
    the target group no longer carries one.
    """
    G = e.group
    kappa = _reference_orientation(G, SIGNS[e.kind])
    reversing = {i for i in range(G.order) if kappa[i] == -1 and G.element_order(i) == 2}
    return [_ReferenceClass(e, G.element(i)) for i in _class_minima(G, reversing)]


def _reference_count_ovals(cls) -> int:
    """The per-class oval count that rescanned every record, kept verbatim."""
    e = cls.action
    class_of = e.group._class_index()[1]
    target = class_of[cls.representative.idx]
    total = 0
    for _, image, index in _reflection_records(e):
        if class_of[image.idx] == target:
            total += index
    return total


@pytest.mark.parametrize("g", range(2, 31))
def test_classes_match_reference(g):
    for action in build_extensions(main_action_class(g)):
        got = symmetry_classes_with_ovals(action)
        expected = _reference_symmetry_classes(action)
        assert [rep for rep, _ in got] == [
            c.representative for c in expected
        ], (g, action.label)
        assert [ovals for _, ovals in got] == [
            _reference_count_ovals(c) for c in expected
        ], (g, action.label)


class TestSymmetryClasses:
    def test_chain_extension_has_four_classes(self):
        first = build_extensions(main_action_class(5))[0]
        G = first.group
        classes = symmetry_classes_with_ovals(first)
        assert len(classes) == 4
        w, x, y = G.generator("w"), G.generator("x"), G.generator("y")
        expected = (x, y, y * (w * x) ** 5, w)
        found = {class_id(G, rep) for rep, _ in classes}
        assert found == {class_id(G, e) for e in expected}

    def test_cone_extension_classes_by_parity(self):
        even = build_extensions(main_action_class(4))[2]
        G = even.group
        classes = symmetry_classes_with_ovals(even)
        assert len(classes) == 1
        assert class_id(G, classes[0][0]) == class_id(G, G.generator("z"))

        odd = build_extensions(main_action_class(5))[2]
        G = odd.group
        classes = symmetry_classes_with_ovals(odd)
        assert len(classes) == 4
        x, z, w = G.generator("x"), G.generator("z"), G.generator("w")
        expected = (z, w, (x * z) ** 5, (x * w) ** 5)
        found = {class_id(G, rep) for rep, _ in classes}
        assert found == {class_id(G, e) for e in expected}

    def test_class_size(self):
        first = build_extensions(main_action_class(3))[0]
        G = first.group
        rep, _ = class_by_element(first, G.generator("y"))
        assert G.class_size(rep.idx) == 1  # y is central
        # every representative is an orientation-reversing involution
        kappa = _reference_orientation(G, SIGNS[first.kind])
        for rep, ovals in symmetry_classes_with_ovals(first):
            assert (rep.group, rep.order(), kappa[rep.idx]) == (G, 2, -1)
            assert isinstance(ovals, int) and ovals >= 0


class TestCountOvals:
    def test_w_class_reference_counts(self):
        odd_first = build_extensions(main_action_class(5))[0]
        w = odd_first.group.generator("w")
        assert ovals_of(odd_first, w) == 2
        even_first = build_extensions(main_action_class(4))[0]
        w = even_first.group.generator("w")
        assert ovals_of(even_first, w) == 3

    def test_second_chain_class_y_has_g_ovals(self):
        second = build_extensions(main_action_class(5))[1]
        y = second.group.generator("y")
        assert ovals_of(second, y) == 5

    def test_unhit_class_has_no_ovals(self):
        for g in (3, 4, 6):
            first = build_extensions(main_action_class(g))[0]
            G = first.group
            free = G.generator("y") * (G.generator("w") * G.generator("x")) ** g
            assert ovals_of(first, free) == 0

    def test_cone_counts(self):
        odd = build_extensions(main_action_class(5))[2]
        G = odd.group
        x, z, w = G.generator("x"), G.generator("z"), G.generator("w")
        assert ovals_of(odd, z) == 2
        assert ovals_of(odd, w) == 2
        assert ovals_of(odd, (x * z) ** 5) == 0
        even = build_extensions(main_action_class(4))[2]
        z = even.group.generator("z")
        assert ovals_of(even, z) == 2

    def test_oval_multisets(self):
        for g in (3, 5, 7):
            first = build_extensions(main_action_class(g))[0]
            counts = sorted(ovals for _, ovals in symmetry_classes_with_ovals(first))
            assert counts == [0, 2, 2, 2], g
        for g in (2, 4, 6):
            first = build_extensions(main_action_class(g))[0]
            counts = sorted(ovals for _, ovals in symmetry_classes_with_ovals(first))
            assert counts == [0, 1, 1, 3], g

    def test_count_is_a_class_function(self):
        first = build_extensions(main_action_class(4))[0]
        G = first.group
        w = G.generator("w")
        base = ovals_of(first, w)
        for h in (G.generator("x"), G.generator("y") * w):
            conjugate = h * w * h.inverse()
            assert _reference_count_ovals(_ReferenceClass(first, conjugate)) == base


def _reference_rule_generators(e: ExtendedAction, position: int) -> tuple:
    """Generators of the image of the centralizer of a canonical reflection.

    The per-kind rule before the signature-driven one, kept verbatim except
    that the removed accessors are spelled out: the reflection images are
    all four images for kind a and the last three for kind b, whose
    connecting image is the elliptic image a.
    """
    refl = e.images if e.kind == "a" else e.images[1:]
    g = e.g
    if e.kind == "a":
        links = (2, 2, 2, 2 * g)
        r = refl[position]
        left_pair = refl[(position - 1) % 4] * r
        right_pair = r * refl[(position + 1) % 4]
        left = left_pair ** (links[(position - 1) % 4] // 2)
        right = right_pair ** (links[position] // 2)
        return (r, left, right)
    c0, c1, c2 = refl
    connecting_image = e.images[0]
    wrapped = connecting_image * c1 * connecting_image
    if position == 0:
        return (c0, (wrapped * c0) ** g, c0 * c1)
    if position == 1:
        return (c1, c0 * c1, (c1 * c2) ** g)
    if position == 2:
        return (c2, (c1 * c2) ** g, c2 * wrapped)
    raise ValueError(f"no canonical reflection at position {position}")


class TestCentralizerIdentities:
    @pytest.mark.parametrize("g", range(2, 31))
    def test_rule_matches_per_kind_reference(self, g):
        from fourg.realforms import _rule_generators

        # the reflections up to conjugacy: c0..c3 for kind a, c0 and c1 for
        # kind b (its c2 is the conjugate of c0 by the connecting generator)
        positions_of = {"a": (0, 1, 2, 3), "b": (0, 1)}
        for action in build_extensions(main_action_class(g)):
            positions = positions_of[action.kind]
            records = _reflection_records(action)
            assert tuple(p for p, _, _ in records) == positions
            for p in positions:
                assert _rule_generators(action, p) == _reference_rule_generators(
                    action, p
                ), (action.label, p)

    def test_stated_image_subgroups_hold(self):
        from fourg.realforms import _rule_generators

        for g in (3, 4):
            for action in build_extensions(main_action_class(g))[:2]:
                _reflection_records(action)  # guard raises on any drift
        # spot check: last chain reflection of the first class omits the
        # central mirror y, every other image subgroup contains it
        first = build_extensions(main_action_class(5))[0]
        G = first.group
        y = G.generator("y")
        members = {
            pos: G.subgroup(_rule_generators(first, pos)) for pos in range(4)
        }
        assert y.idx not in members[3]
        for pos in (0, 1, 2):
            assert y.idx in members[pos]

    def test_stated_subgroup_guard_runs_for_both_chain_classes(self, monkeypatch):
        # the guard is reached through the one list of extensions: it must
        # still run for a1 and a2, and only for them
        from fourg import realforms

        guarded = []
        real = realforms._check_stated_subgroups

        def recording(e, members_by_position):
            guarded.append(e.label)
            return real(e, members_by_position)

        monkeypatch.setattr(realforms, "_check_stated_subgroups", recording)
        for g in (2, 5, 8):
            for action in build_extensions(main_action_class(g)):
                _reflection_records(action)
            assert guarded == ["a1", "a2"], g
            guarded.clear()

    def test_cone_target_centralizers(self):
        even = cone_target_group(4)
        z, x = even.generator("z"), even.generator("x")
        cent = even.centralizer(z)
        assert len(cent) == 4
        assert cent == even.subgroup((z, (x * z) ** 8))
        odd = cone_target_group(5)
        z, x, w = odd.generator("z"), odd.generator("x"), odd.generator("w")
        cent = odd.centralizer(z)
        assert len(cent) == 8
        assert cent == odd.subgroup((z, (z * w) ** 5, (x * z) ** 5))
        assert all(odd.element(i).order() <= 2 for i in cent)


class TestSpecies:
    def test_species_multiset_oracles(self):
        cases = [
            (5, "a1", (2, 0, -2, -2)),
            (4, "a2", (-1, -1, -4, -4)),
            (4, "b", (-2,)),
            (5, "b", (0, 0, -2, -2)),
            (4, "a1", (1, 0, -1, -3)),
            (7, "a2", (-1, -1, -7, -7)),
        ]
        for g, label, expected in cases:
            (action,) = [e for e in build_extensions(main_action_class(g)) if e.label == label]
            values = _species(action)
            assert values == tuple(sorted(expected, reverse=True)), (g, action.label)

    def test_low_genus_maximal_symmetry_separates(self):
        # at genus 2 the three-oval symmetry hits the Harnack maximum g+1,
        # which forces it to separate
        first = build_extensions(main_action_class(2))[0]
        values = _species(first)
        assert values == (3, 1, 0, -1)
        for s in values:
            assert -2 <= s <= 3

    def test_species_are_sorted_descending(self):
        action = build_extensions(main_action_class(6))[1]
        values = list(_species(action))
        assert values == sorted(values, reverse=True)

    def test_species_invariants(self):
        with pytest.raises(InvariantViolation):
            signed_species(5, 3, True)  # separating needs ovals = g+1 mod 2
        with pytest.raises(InvariantViolation):
            signed_species(4, 9, False)  # more ovals than a non-separating symmetry allows
        with pytest.raises(InvariantViolation):
            signed_species(4, 6, True)  # above the Harnack maximum
        with pytest.raises(InvariantViolation):
            signed_species(4, 0, True)  # separating with empty fixed-point set
        assert signed_species(4, 0, False) == 0
        assert signed_species(4, 5, True) == 5
        assert signed_species(4, 4, False) == -4

    def test_every_emitted_species_is_valid(self):
        for g in (2, 3, 4, 5, 8):
            for action in build_extensions(main_action_class(g)):
                for s in _species(action):
                    assert type(s) is int
                    assert -g <= s <= g + 1


@dataclass(frozen=True)
class _ReferenceSpecies:
    """The species record that ``signed_species`` replaced, kept verbatim."""

    genus: int
    ovals: int
    separating: bool

    def __post_init__(self):
        if self.genus < 2:
            raise InvariantViolation("species are tracked for genus >= 2 only")
        if self.ovals < 0:
            raise InvariantViolation("oval count cannot be negative")
        if self.separating:
            if self.ovals < 1:
                raise InvariantViolation("a separating symmetry has at least one oval")
            if self.ovals > self.genus + 1:
                raise InvariantViolation(
                    f"{self.ovals} ovals exceed the bound {self.genus + 1}"
                )
            if self.ovals % 2 != (self.genus + 1) % 2:
                raise InvariantViolation(
                    f"a separating symmetry needs ovals = genus+1 mod 2;"
                    f" got {self.ovals} on genus {self.genus}"
                )
        elif self.ovals > self.genus:
            raise InvariantViolation(
                f"a non-separating symmetry has at most genus = {self.genus} ovals"
            )

    @property
    def value(self) -> int:
        """Signed species: +ovals, -ovals, or 0 for an empty fixed-point set."""
        if self.ovals == 0:
            return 0
        return self.ovals if self.separating else -self.ovals


def _outcome(make):
    try:
        return ("value", make())
    except Exception as exc:  # the class and message are compared
        return (type(exc), str(exc))


def test_signed_species_matches_the_reference_record():
    cases = [
        (g, ovals, separating)
        for g in range(2, 13)
        for ovals in range(-1, g + 4)
        for separating in (False, True)
    ]
    assert len(cases) == 264
    mismatches = [
        case
        for case in cases
        if _outcome(lambda: signed_species(*case))
        != _outcome(lambda: _ReferenceSpecies(*case).value)
    ]
    assert mismatches == []
