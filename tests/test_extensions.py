"""Tests for the order-8g mirror extensions of the dihedral family.

Reference facts used as oracles: the canonical image tuples of the two
reflection-chain classes ((x, y, (wx)^g w, w) and (x, y, y(wx)^g, w)) and of
the one-cone-point class (x, xwx, z, w); the restriction words
(xy, y(wx)^g w, (wx)^g, wx) and (x, (zw)^{g+1} x, (zw)^g, zw); the structure
dichotomy for the one-cone-point target (dihedral of order 8g for even g,
dihedral x C2 for odd g); the orders of zx (4g) and (xz)^g (2, central) in
that target.
"""

import itertools

import pytest
from conftest import CHAIN_SIGNS, CONE_SIGNS, SIGNS, _reference_orientation

from fourg.actions import ActionClass, classify, main_action_class
from fourg.errors import InvariantViolation
from fourg import extensions, signatures
from fourg.extensions import (
    ExtendedAction,
    _fixed_keys,
    _phi_a,
    _phi_b,
    _restriction_key,
    _reversal_pairs,
    build_extensions,
    chain_target_group,
    cone_target_group,
    restrict_to_index2,
)
from fourg.groups import (
    FiniteGroup,
    _cayley_key,
    _class_minima,
    _closure,
    _extend_hom,
    close_generator_map,
    cyclic,
    recognize,
    semidirect_with_automorphism,
)
from fourg.signatures import chain_signature, mixed_signature


def parent_indices(vector):
    """Index tuple of a vector's images over ``_reference_plus_part`` inside
    the parent group."""
    return tuple(vector.group.parent_indices[e.idx] for e in vector.images)


class TestTargets:
    def test_chain_target_is_dihedral_times_c2(self):
        for g in (2, 3, 5):
            G = chain_target_group(g)
            assert G.order == 8 * g
            assert recognize(G) == f"dihedral of order {4 * g} x C2"

    def test_chain_target_orientation(self):
        # a1 and a2 send reflections onto w, x and y, so their characters
        # reverse all three and preserve the rotation wx
        for e in build_extensions(main_action_class(3))[:2]:
            G, kappa = e.group, e.orientation
            for name in ("w", "x", "y"):
                assert kappa[G.generator(name).idx] == -1
            assert kappa[(G.generator("w") * G.generator("x")).idx] == 1

    def test_cone_target_parity_dichotomy(self):
        for g in range(2, 13):
            name = recognize(cone_target_group(g))
            if g % 2 == 0:
                assert name == f"dihedral of order {8 * g}", g
            else:
                assert name == f"dihedral of order {4 * g} x C2", g

    def test_cone_target_marked_elements(self):
        # zx has order 4g; (xz)^g is a central involution (odd g shown here).
        G2 = cone_target_group(2)
        z, x = G2.generator("z"), G2.generator("x")
        assert (z * x).order() == 8
        G3 = cone_target_group(3)
        z, x = G3.generator("z"), G3.generator("x")
        central = (x * z) ** 3
        assert central.order() == 2
        assert all(central * e == e * central for e in map(G3.element, range(G3.order)))


class TestBuildExtensions:
    def test_chain_kind_returns_two_labelled_classes(self):
        actions = [a for a in build_extensions(main_action_class(5)) if a.kind == "a"]
        assert [a.label for a in actions] == ["a1", "a2"]
        assert all(a.group.order == 40 for a in actions)
        assert all(recognize(a.group) == "dihedral of order 20 x C2" for a in actions)
        assert all(a.signature == chain_signature(5) for a in actions)

    def test_cone_kind_returns_single_class(self):
        acts2 = [a for a in build_extensions(main_action_class(2)) if a.kind == "b"]
        assert [a.label for a in acts2] == ["b"]
        assert acts2[0].group.order == 16
        assert recognize(acts2[0].group) == "dihedral of order 16"
        acts3 = [a for a in build_extensions(main_action_class(3)) if a.kind == "b"]
        assert len(acts3) == 1
        assert recognize(acts3[0].group) == "dihedral of order 12 x C2"
        assert acts3[0].signature == mixed_signature(3)

    def test_canonical_chain_images(self):
        for g in (2, 4, 5):
            first, second, _ = build_extensions(main_action_class(g))
            G = first.group
            w, x, y = G.generator("w"), G.generator("x"), G.generator("y")
            t = w * x
            assert first.images == (x, y, (t ** g) * w, w)
            assert second.images == (x, y, y * (t ** g), w)

    def test_canonical_cone_images(self):
        for g in (2, 3):
            *_, action = build_extensions(main_action_class(g))
            G = action.group
            x, z, w = G.generator("x"), G.generator("z"), G.generator("w")
            assert action.images == (x, x * w * x, z, w)
            # the conjugated reflection rewrites inside the base dihedral part
            assert x * w * x == ((z * w) ** g) * z

    def test_results_cached_but_lists_fresh(self):
        one = build_extensions(main_action_class(3))
        two = build_extensions(main_action_class(3))
        assert one is not two
        assert [(a.label, a.kind, [e.name for e in a.images]) for a in one] == [
            (b.label, b.kind, [e.name for e in b.images]) for b in two
        ]
        assert [a.label for a in one] == ["a1", "a2", "b"]
        assert [a.kind for a in one] == ["a", "a", "b"]

    def test_input_validation(self):
        # g is read off the order of the main class's group, never passed
        with pytest.raises(TypeError, match="ActionClass"):
            build_extensions(3)
        with pytest.raises(TypeError):
            build_extensions(main_action_class(3), "a")  # the kind is read off each entry
        (small,) = classify(cyclic(4), (2, 4, 4))
        with pytest.raises(ValueError, match="at least 2"):
            build_extensions(small)  # order 4 reads as g = 1
        # a class on other periods has no key on (2,2,2,2g) for phi_a to fix
        (cyclic_class,) = classify(cyclic(12), (2, 12, 12))
        with pytest.raises(InvariantViolation, match="no key that phi_a fixes"):
            build_extensions(cyclic_class)

    def test_image_accessors(self):
        # kind a: no cone point, so e = 1 and the cycle closes on c0
        first = build_extensions(main_action_class(2))[0]
        G = first.group
        w, x, y = G.generator("w"), G.generator("x"), G.generator("y")
        assert first.images[3] == w
        assert first.reflection_cycle == first.images + (x,)
        assert first.connecting_image == G.identity
        # kind b: a*e = 1 gives e = a^-1 = a, and c2 = e^-1 c0 e is stored
        *_, cone = build_extensions(main_action_class(2))
        G = cone.group
        x, z, w = G.generator("x"), G.generator("z"), G.generator("w")
        assert cone.images[0] == x
        assert cone.reflection_cycle == (x * w * x, z, w)
        assert cone.connecting_image == x

    def test_orientation_character_on_images(self):
        for g in (2, 3):
            for action in build_extensions(main_action_class(g)):
                kappa = action.orientation
                assert len(kappa) == action.group.order
                assert sorted(kappa) == [-1] * (4 * g) + [1] * (4 * g)
                for e in action.reflection_cycle:
                    assert kappa[e.idx] == -1
                if action.kind == "b":
                    assert kappa[action.images[0].idx] == 1

    def test_labels_split_by_image_class_spread(self):
        first, second, _ = build_extensions(main_action_class(4))
        G = first.group
        G._class_index()
        spread = lambda a: len({G._class_of[e.idx] for e in a.images})
        assert spread(first) == 3
        assert spread(second) == 4


class TestExtendedActionValidation:
    def test_unknown_kind_rejected(self):
        first = build_extensions(main_action_class(2))[0]
        with pytest.raises(InvariantViolation, match="unknown extension kind 'c'"):
            ExtendedAction(2, "c", "a1", first.group, first.images)

    def test_signature_is_built_once_at_construction(self, monkeypatch):
        actions = build_extensions(main_action_class(5))
        built = []
        init = signatures.Signature.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(signatures.Signature, "__init__", counting)
        for e in actions:
            for _ in range(2):
                assert e.signature is e.signature
                assert e.reflection_cycle[0].group is e.group
                assert e.connecting_image.group is e.group
        assert built == []
        assert [e.signature for e in actions] == [
            chain_signature(5), chain_signature(5), mixed_signature(5)
        ]
        assert len(built) == 3  # the three signatures compared with

    def test_broken_link_period_rejected(self):
        first = build_extensions(main_action_class(2))[0]
        G = first.group
        w, x, y = G.generator("w"), G.generator("x"), G.generator("y")
        # swapping c2 to w makes the closing product trivial
        with pytest.raises(InvariantViolation):
            ExtendedAction(2, "a", "a1", G, (x, y, w, w))

    def test_orientation_preserving_reflection_rejected(self):
        first = build_extensions(main_action_class(2))[0]
        G = first.group
        w, x, y = G.generator("w"), G.generator("x"), G.generator("y")
        rotation_like = (w * x) ** 2  # involution but orientation preserving
        # every relation holds and the images generate, but c2 = (wx)^2 is
        # the product of two reflections: no character sends all four to -1
        with pytest.raises(InvariantViolation, match="no orientation character"):
            ExtendedAction(2, "a", "a1", G, (x, y, rotation_like, w))

    def test_cone_wrap_relation_enforced(self):
        *_, cone = build_extensions(main_action_class(2))
        G = cone.group
        x, z, w = G.generator("x"), G.generator("z"), G.generator("w")
        with pytest.raises(InvariantViolation):
            ExtendedAction(2, "b", "b", G, (x, x * w * x, z, z))
        # every link holds, but c2 is not the conjugate of c0
        with pytest.raises(InvariantViolation, match="wrapped reflection"):
            ExtendedAction(2, "b", "b", G, (x, x * w * x, z, (z * w) ** 2 * w))

    def test_bad_elliptic_image_rejected(self):
        *_, cone = build_extensions(main_action_class(2))
        G = cone.group
        x, z, w = G.generator("x"), G.generator("z"), G.generator("w")
        rotation = z * w  # orientation preserving, but of order 2g, not 2
        with pytest.raises(InvariantViolation, match="elliptic generator"):
            ExtendedAction(2, "b", "b", G, (rotation, z, z, w))
        # z, a reflection of b, in the elliptic slot: the connecting image
        # becomes z, and c2 = w is not the conjugate of c0 by it
        with pytest.raises(InvariantViolation, match="wrapped reflection"):
            ExtendedAction(2, "b", "b", G, (z, x * w * x, z, w))

    def test_non_generating_images_rejected(self):
        *_, cone = build_extensions(main_action_class(2))
        G = cone.group
        z, w = G.generator("z"), G.generator("w")
        # all inside the dihedral part: never generates the full group
        with pytest.raises(InvariantViolation):
            ExtendedAction(
                2, "b", "b", G,
                (((z * w) ** 2), z, w, ((z * w) ** 2) * z * ((z * w) ** 2)),
            )


class TestOrientationFromImages:
    """Each extension's character, computed from its own images."""

    def test_character_matches_the_reference_signs(self):
        # the signs once attached to each hand-built target, extended to the
        # whole group, are the character each extension reads off its images
        for g in range(2, 31):
            for e in build_extensions(main_action_class(g)):
                assert e.orientation == _reference_orientation(e.group, SIGNS[e.kind]), (
                    g, e.label,
                )

    def test_every_involution_tuple_at_genus_two(self):
        # a tuple is accepted when it satisfies the relations, generates, and
        # its images define a character, whichever index-2 subgroup that
        # character preserves; every accepted tuple restricts into the main class
        main = main_action_class(2)
        for kind, label, G, count, accepted in (
            ("a", "a1", chain_target_group(2), 11, 192),
            ("b", "b", cone_target_group(2), 9, 32),
        ):
            involutions = [G.element(i) for i in range(G.order) if G.element_order(i) == 2]
            assert len(involutions) == count
            found = []
            for t in itertools.product(involutions, repeat=4):
                try:
                    found.append(ExtendedAction(2, kind, label, G, t))
                except InvariantViolation:
                    pass
            assert len(found) == accepted, kind
            assert all(main.contains(restrict_to_index2(e)) for e in found), kind
        # one of them: its character preserves w, which the chain target's
        # reference signs reverse
        G = chain_target_group(2)
        w, x, y = G.generator("w"), G.generator("x"), G.generator("y")
        e = ExtendedAction(2, "a", "a1", G, (x, y, (w * x) ** 2 * y, w * y))
        assert e.orientation[w.idx] == 1
        assert _reference_orientation(G, CHAIN_SIGNS)[w.idx] == -1


class TestRestriction:
    def test_chain_restriction_formula(self, restricted_vector):
        for g in (3, 6):
            first = build_extensions(main_action_class(g))[0]
            G = first.group
            w, x, y = G.generator("w"), G.generator("x"), G.generator("y")
            t = w * x
            r = restricted_vector(first)
            assert r.periods == (2, 2, 2, 2 * g)
            expected = (x * y, y * (t ** g) * w, t ** g, t)
            assert parent_indices(r) == tuple(e.idx for e in expected)

    def test_cone_restriction_formula(self, restricted_vector):
        for g in (2, 5):
            *_, cone = build_extensions(main_action_class(g))
            G = cone.group
            x, z, w = G.generator("x"), G.generator("z"), G.generator("w")
            t = z * w
            r = restricted_vector(cone)
            assert r.periods == (2, 2, 2, 2 * g)
            expected = (x, (t ** (g + 1)) * x, t ** g, t)
            assert parent_indices(r) == tuple(e.idx for e in expected)

    def test_restriction_lands_in_main_class(self):
        for g in range(2, 8):
            main = main_action_class(g)
            for action in build_extensions(main_action_class(g)):
                r = restrict_to_index2(action)
                assert all(p.group is action.group for p in r)
                assert len(action.group.subgroup(r)) == 4 * g
                assert main.contains(r), (g, action.label)

    def test_second_chain_class_restricts_to_main_class(self):
        # the two chain classes are inequivalent upstairs yet restrict to the
        # same orientation-preserving class
        second = build_extensions(main_action_class(4))[1]
        r = restrict_to_index2(second)
        assert main_action_class(4).contains(r)

    @pytest.mark.parametrize("cut", [slice(None, -1), slice(1, None)])
    def test_an_open_reflection_cycle_is_rejected(self, cut, monkeypatch):
        # dropping one end of the closed cycle leaves three link products;
        # with one fewer word, no period list can be (2, 2, 2, 2g)
        action = build_extensions(main_action_class(4))[0]
        cycle = action.reflection_cycle
        monkeypatch.setattr(ExtendedAction, "reflection_cycle", property(lambda e: cycle[cut]))
        with pytest.raises(InvariantViolation, match="not smooth"):
            restrict_to_index2(action)

    def test_restriction_words_must_multiply_to_one(self, monkeypatch):
        # closing the cycle on the reflection (wx)^2 x instead of c0 = x keeps
        # every word orientation-preserving with the periods (2, 2, 2, 8),
        # but the cycle no longer closes
        action = build_extensions(main_action_class(4))[0]
        G = action.group
        w, x = G.generator("w"), G.generator("x")
        moved = action.reflection_cycle[:-1] + ((w * x) ** 2 * x,)
        monkeypatch.setattr(ExtendedAction, "reflection_cycle", property(lambda e: moved))
        with pytest.raises(InvariantViolation, match="multiply to one"):
            restrict_to_index2(action)


def _indices(action):
    return tuple(e.idx for e in action.images)


def _certified_count(main, kind):
    """Classes the fixed-key certificate counts: reversal pairs of the keys
    phi_a fixes for kind a, keys phi_b fixes for kind b."""
    if kind == "a":
        return len(set(_reversal_pairs(main).values()))
    return len(_fixed_keys(main, _phi_b))


class TestUniquenessSearch:
    def test_admissible_enumeration_contains_canonical_tuples(self):
        # the canonical tuples need not start at a class minimum, so the
        # reference enumeration reaches each canonical class, not each tuple
        for g in (3, 4):
            for kind, rev, reference in (
                ("a", True, _reference_admissible_chain_tuples),
                ("b", False, _reference_admissible_cone_tuples),
            ):
                actions = [a for a in build_extensions(main_action_class(g)) if a.kind == kind]
                G = actions[0].group
                reached = {_cayley_key(G._table, t) for t in reference(G, g)}
                for action in actions:
                    t = _indices(action)
                    keys = {_cayley_key(G._table, t)}
                    if rev:
                        keys.add(_cayley_key(G._table, t[::-1]))
                    assert keys & reached, (g, action.label)

    def test_equivalence_predicate(self):
        first, second, _ = build_extensions(main_action_class(2))
        G = first.group
        table = G._table
        t1, t2 = _indices(first), _indices(second)
        # a1 and a2 share no key, reversals included
        keys1 = {_cayley_key(table, t1), _cayley_key(table, t1[::-1])}
        keys2 = {_cayley_key(table, t2), _cayley_key(table, t2[::-1])}
        assert not keys1 & keys2
        assert _cayley_key(table, t1) != _cayley_key(table, t1[::-1])
        assert not _reference_equivalent(G, t1, t1[::-1], allow_reversal=False)
        conj = G.generator("w")
        conjugated = tuple((conj * G.element(i) * conj.inverse()).idx for i in t1)
        assert _cayley_key(table, t1) == _cayley_key(table, conjugated)
        # a key of length len(t) * |G| marks a generating tuple
        assert len(_cayley_key(table, t1)) == 4 * G.order
        assert len(_cayley_key(table, (0, 0, 0, 0))) == 4

    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_one_key_per_tuple(self, kind, monkeypatch):
        # the certificate keys the image of each member on (2,2,2,2g) once,
        # not one enumerated tuple of a target group
        main = main_action_class(4)
        orders = main.group._order_list()
        ascending = [
            t for t in main.members.values() if tuple(orders[i] for i in t) == (2, 2, 2, 8)
        ]
        calls = []
        real = extensions._cayley_key

        def counting(table, t):
            calls.append(t)
            return real(table, t)

        monkeypatch.setattr(extensions, "_cayley_key", counting)
        _fixed_keys(main, _phi_a if kind == "a" else _phi_b)
        assert len(calls) == len(ascending) == 3


def _reference_chain_tuples(G: FiniteGroup, g: int) -> list:
    """All index tuples (r0..r3) satisfying the reflection-chain relations.

    The enumerator before the orbit certificate, which also checked
    generation per tuple, kept verbatim as the oracle for the admissible set.
    """
    n = G.order
    kappa = _reference_orientation(G, CHAIN_SIGNS)
    order_of = G.element_order
    table = G._table
    mirrors = [i for i in range(n) if order_of(i) == 2 and kappa[i] == -1]
    target = 2 * g
    found = []
    for r0 in mirrors:
        row0 = table[r0]
        for r1 in mirrors:
            if order_of(row0[r1]) != 2:
                continue
            row1 = table[r1]
            for r2 in mirrors:
                if order_of(row1[r2]) != 2:
                    continue
                row2 = table[r2]
                for r3 in mirrors:
                    if order_of(row2[r3]) != 2:
                        continue
                    if order_of(table[r3][r0]) != target:
                        continue
                    if len(_closure(G._table, (r0, r1, r2, r3))) == n:
                        found.append((r0, r1, r2, r3))
    return found


def _reference_cone_tuples(G: FiniteGroup, g: int) -> list:
    """All index tuples (a, c0, c1, c2) satisfying the one-cone-point relations.

    The enumerator before the orbit certificate, kept verbatim.
    """
    n = G.order
    kappa = _reference_orientation(G, CONE_SIGNS)
    order_of = G.element_order
    table = G._table
    rotations = [i for i in range(n) if order_of(i) == 2 and kappa[i] == 1]
    mirrors = [i for i in range(n) if order_of(i) == 2 and kappa[i] == -1]
    target = 2 * g
    found = []
    for a in rotations:
        row_a = table[a]
        for c0 in mirrors:
            c2 = table[row_a[c0]][a]
            row0 = table[c0]
            for c1 in mirrors:
                if order_of(row0[c1]) != 2:
                    continue
                if order_of(table[c1][c2]) != target:
                    continue
                if len(_closure(G._table, (a, c0, c1))) == n:
                    found.append((a, c0, c1, c2))
    return found


def _reference_equivalent(G: FiniteGroup, s: tuple, t: tuple, allow_reversal: bool) -> bool:
    """Whether an automorphism of G maps tuple s onto t entrywise (verbatim)."""
    candidates = [t]
    if allow_reversal:
        candidates.append(t[::-1])
    for cand in candidates:
        closed = close_generator_map(G, G, list(zip(s, cand)))
        if closed is not None and closed[1] == G.order:
            return True
    return False


def _reference_verify_unique_classes(
    G: FiniteGroup, tuples: list, canon: list, allow_reversal: bool
):
    """Check every admissible tuple is equivalent to exactly one canonical tuple.

    The pairwise sweep the orbit certificate replaced, kept verbatim: one or
    more closures per admissible tuple.
    """
    pool = set(tuples)
    for rep in canon:
        if rep not in pool:
            raise InvariantViolation(
                "a canonical epimorphism is missing from the admissible"
                " assignments; the enumeration is broken"
            )
    for i, first in enumerate(canon):
        for second in canon[i + 1 :]:
            if _reference_equivalent(G, first, second, allow_reversal):
                raise InvariantViolation(
                    "canonical epimorphisms are equivalent; the classification"
                    " collapsed"
                )
    for t in tuples:
        matches = sum(
            1 for rep in canon if _reference_equivalent(G, rep, t, allow_reversal)
        )
        if matches != 1:
            raise InvariantViolation(
                f"admissible assignment {t} matches {matches} canonical"
                " epimorphisms; expected exactly one"
            )


def _reference_admissible_chain_tuples(G: FiniteGroup, g: int) -> list:
    """Index tuples (r0..r3) satisfying the reflection-chain relations.

    Each entry must be an orientation-reversing involution, and consecutive
    products must have exact orders (2, 2, 2) with the closing product of
    order exactly 2g.  Conjugation preserves the relations and the
    character, so r0 runs only over conjugacy class minima.  Generation is
    not checked.

    The kind-a enumerator before the signature-driven one, kept verbatim.
    """
    n = G.order
    kappa = _reference_orientation(G, CHAIN_SIGNS)
    order_of = G.element_order
    table = G._table
    mirrors = [i for i in range(n) if order_of(i) == 2 and kappa[i] == -1]
    target = 2 * g
    found = []
    for r0 in _class_minima(G, set(mirrors)):
        row0 = table[r0]
        for r1 in mirrors:
            if order_of(row0[r1]) != 2:
                continue
            row1 = table[r1]
            for r2 in mirrors:
                if order_of(row1[r2]) != 2:
                    continue
                row2 = table[r2]
                for r3 in mirrors:
                    if order_of(row2[r3]) != 2:
                        continue
                    if order_of(table[r3][r0]) == target:
                        found.append((r0, r1, r2, r3))
    return found


def _reference_admissible_cone_tuples(G: FiniteGroup, g: int) -> list:
    """Index tuples (a, c0, c1, c2) satisfying the one-cone-point relations.

    a must be an orientation-preserving involution, c0 and c1 orientation
    reversing involutions, c2 is forced to be a*c0*a, and the product c0*c1
    must have order exactly 2 and c1*c2 order exactly 2g.  As for the chain,
    a runs only over class minima, and generation is not checked.

    The kind-b enumerator before the signature-driven one, kept verbatim.
    """
    n = G.order
    kappa = _reference_orientation(G, CONE_SIGNS)
    order_of = G.element_order
    table = G._table
    rotations = [i for i in range(n) if order_of(i) == 2 and kappa[i] == 1]
    mirrors = [i for i in range(n) if order_of(i) == 2 and kappa[i] == -1]
    target = 2 * g
    found = []
    for a in _class_minima(G, set(rotations)):
        row_a = table[a]
        for c0 in mirrors:
            c2 = table[row_a[c0]][a]
            row0 = table[c0]
            for c1 in mirrors:
                if order_of(row0[c1]) != 2:
                    continue
                if order_of(table[c1][c2]) == target:
                    found.append((a, c0, c1, c2))
    return found


def _reference_restriction_words(e: ExtendedAction) -> tuple:
    """The per-kind restriction words before the signature-driven rule (verbatim)."""
    if e.kind == "a":
        c0, c1, c2, c3 = e.images
        words = (c0 * c1, c1 * c2, c2 * c3, c3 * c0)
    else:
        a, c0, c1, c2 = e.images
        words = (a, c0 * a * c0, c0 * c1, c1 * c2)
    return words


def _reference_inputs(g, kind):
    """Target group, its full reference tuples, the canonical tuples and the
    reversal flag of one kind at genus g."""
    actions = [a for a in build_extensions(main_action_class(g)) if a.kind == kind]
    G = actions[0].group
    canon = [_indices(a) for a in actions]
    reference = _reference_chain_tuples if kind == "a" else _reference_cone_tuples
    return G, reference(G, g), canon, kind == "a"


def _key_classes(G, tuples, reversible):
    """The Aut-classes of the generating tuples among ``tuples``, each as the
    set of its keys (its reversal's key joined in when ``reversible``)."""
    classes = set()
    for t in tuples:
        key = _cayley_key(G._table, t)
        if len(key) == len(t) * G.order:
            reversed_key = _cayley_key(G._table, t[::-1]) if reversible else key
            classes.add(frozenset((key, reversed_key)))
    return classes


class TestSignatureDrivenShape:
    """The fixed-key count and the one restriction rule against the per-kind
    references."""

    @pytest.mark.parametrize("g", range(2, 31))
    def test_enumerator_matches_per_kind_reference(self, g):
        # the per-kind enumerators list the tuples of the hand-built targets
        # that satisfy the relations; keyed, they fall into exactly the
        # classes the fixed keys count, each owned by one canonical tuple
        main = main_action_class(g)
        extended = build_extensions(main)
        for kind, reference in (
            ("a", _reference_admissible_chain_tuples),
            ("b", _reference_admissible_cone_tuples),
        ):
            actions = [e for e in extended if e.kind == kind]
            G = actions[0].group
            found = _key_classes(G, reference(G, g), kind == "a")
            assert found == _key_classes(G, [_indices(e) for e in actions], kind == "a")
            assert len(found) == len(actions) == _certified_count(main, kind), kind

    @pytest.mark.parametrize("g", range(2, 31))
    def test_restriction_words_match_per_kind_reference(self, g, restricted_vector):
        for action in build_extensions(main_action_class(g)):
            r = restricted_vector(action)
            words = _reference_restriction_words(action)
            assert parent_indices(r) == tuple(p.idx for p in words), action.label

    @pytest.mark.parametrize("g", range(2, 31))
    def test_restriction_key_matches_the_reindexed_half(self, g, restricted_vector):
        # keyed in the extension, the words walk only the half they generate,
        # so they name the same class as in a standalone copy of that half
        for action in build_extensions(main_action_class(g)):
            words = restrict_to_index2(action)
            copy = restricted_vector(action)
            assert _cayley_key(action.group._table, tuple(p.idx for p in words)) == (
                _cayley_key(copy.group._table, copy.indices)
            ), action.label

    def test_reversal_follows_the_signature(self):
        # the chain (2,2,2,2g) with no cone point reads the same reversed:
        # reversing a1's chain restricts to the reversal of its phi_a-fixed
        # key, another fixed key, and a2's reversal keeps its key.  Kind b's
        # reversed tuple breaks its relations.
        for g in (3, 4):
            main = main_action_class(g)
            first, second, cone = build_extensions(main)
            pairs = _reversal_pairs(main)
            for action, size in ((first, 2), (second, 1)):
                flipped = ExtendedAction(g, "a", action.label, action.group, action.images[::-1])
                pair = {_restriction_key(action), _restriction_key(flipped)}
                assert pair == pairs[_restriction_key(action)], (g, action.label)
                assert len(pair) == size
            with pytest.raises(InvariantViolation):
                ExtendedAction(g, "b", "b", cone.group, cone.images[::-1])


class TestDerivedExtensions:
    """The extensions built from the fixed keys, against the hand-built ones."""

    @pytest.mark.parametrize("g", [2, 3, 4, 7])
    def test_phi_is_conjugation_by_the_first_reflection(self, g):
        # on the restriction words of each hand-built extension, phi_a and
        # phi_b are conjugation by the image of c0
        for e in build_extensions(main_action_class(g)):
            G = e.group
            t = tuple(p.idx for p in restrict_to_index2(e))
            c0 = e.reflection_cycle[0]
            phi = _phi_a if e.kind == "a" else _phi_b
            expected = tuple((c0 * G.element(i) * c0).idx for i in t)
            assert phi(G._table, G._inv, t) == expected, (g, e.label)

    @pytest.mark.parametrize("g", range(2, 31))
    def test_derived_extensions_match_the_hand_built_ones(self, g):
        # for a fixed key of t, the automorphism alpha: t -> phi(t) is an
        # involution, G x| <c> with c acting as alpha is the extension, and
        # its canonical images have the Cayley key of a hand-built tuple
        main = main_action_class(g)
        G = main.group
        table, inv = G._table, G._inv
        canon = {}
        for e in build_extensions(main):
            t = _indices(e)
            canon.setdefault(_cayley_key(e.group._table, t), e.label)
            if e.label == "a1":  # the chain read backwards is the same class
                canon.setdefault(_cayley_key(e.group._table, t[::-1]), e.label)
        labels = {}
        for kind, phi in (("a", _phi_a), ("b", _phi_b)):
            labels[kind] = []
            for t in _fixed_keys(main, phi).values():
                alpha, _ = _extend_hom(table, table, list(zip(t, phi(table, inv, t))))
                assert all(alpha[alpha[i]] == i for i in range(G.order))
                S = semidirect_with_automorphism(G, alpha, 2)
                c, (t1, t2, t3, t4) = S.generator("x"), [S.element(2 * i) for i in t]
                if kind == "a":
                    images = (c, c * t1, c * t1 * t2, c * t1 * t2 * t3)
                else:
                    images = (t1, c, c * t3, c * t3 * t4)
                key = _cayley_key(S._table, tuple(e.idx for e in images))
                labels[kind].append(canon.get(key))
        assert sorted(labels["a"]) == ["a1", "a1", "a2"]
        assert labels["b"] == ["b"]


class TestOrbitCertificate:
    """The fixed-key certificate, against the exhaustive reference sweep."""

    @pytest.mark.parametrize("kind", ["a", "b"])
    @pytest.mark.parametrize("g", range(2, 9))
    def test_matches_reference_sweep(self, g, kind):
        # closures on every tuple of the hand-built targets that satisfies
        # the relations find exactly the canonical classes, and as many as
        # the fixed keys count
        G, reference, canon, rev = _reference_inputs(g, kind)
        _reference_verify_unique_classes(G, reference, canon, rev)
        certified = _certified_count(main_action_class(g), kind)
        assert len(canon) == certified == (2 if kind == "a" else 1)

    def test_dropped_canonical_class_raises(self, monkeypatch):
        main = main_action_class(4)
        real = extensions._chain_images
        monkeypatch.setattr(extensions, "_chain_images", lambda A, g: {"a1": real(A, g)["a1"]})
        with pytest.raises(InvariantViolation, match="do not account for every one"):
            build_extensions(main)
        monkeypatch.undo()
        G, reference, canon, rev = _reference_inputs(4, "a")
        with pytest.raises(InvariantViolation, match="matches 0 canonical"):
            _reference_verify_unique_classes(G, reference, canon[:1], rev)

    @pytest.mark.parametrize("kind", ["a", "b"])
    def test_class_missing_from_enumeration_raises(self, kind):
        # dropping any member on (2,2,2,2g) that phi fixes from the main
        # class leaves a canonical class or a reversal pair without its key
        main = main_action_class(4)
        for key in _fixed_keys(main, _phi_a if kind == "a" else _phi_b):
            members = {k: t for k, t in main.members.items() if k != key}
            broken = ActionClass(main.group, members, main.size)
            with pytest.raises(InvariantViolation):
                build_extensions(broken)

    def test_conjugate_canonical_tuple_collapses(self, monkeypatch):
        real = extensions._chain_images

        def a2_conjugate_to_a1(A, g):
            w, (a1, _) = A.generator("w"), real(A, g).values()
            return {"a1": a1, "a2": tuple(w * e * w.inverse() for e in a1)}

        monkeypatch.setattr(extensions, "_chain_images", a2_conjugate_to_a1)
        with pytest.raises(InvariantViolation, match="collapsed"):
            build_extensions(main_action_class(4))
        monkeypatch.undo()
        G, reference, canon, rev = _reference_inputs(4, "a")
        conjugate = tuple(e.idx for e in a2_conjugate_to_a1(G, 4)["a2"])
        assert conjugate in reference and conjugate != canon[0]
        with pytest.raises(InvariantViolation, match="collapsed"):
            _reference_verify_unique_classes(G, reference, [canon[0], conjugate], rev)

    def test_second_key_fixed_by_phi_b_raises(self, monkeypatch):
        # a reflection that fixed every key would extend every member
        monkeypatch.setattr(extensions, "_phi_b", lambda table, inv, t: t)
        with pytest.raises(InvariantViolation, match="phi_b fixes 3 keys"):
            build_extensions(main_action_class(4))
