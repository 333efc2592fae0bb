"""Tests for the finite-group engine.

Numeric oracles (class counts, automorphism group sizes, census counts) are
standard facts about small groups, re-derived here by independent in-test
computation wherever that is cheap (brute force over the table), and frozen
as literals where it is not.
"""

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import _reference_orientation

from fourg import groups
from fourg.actions import family_group, main_action_class
from fourg.errors import GroupConstructionError, InputFormatError, InvariantViolation
from fourg.extensions import build_extensions, chain_target_group, cone_target_group
from fourg.groups import (
    COMPLETE_CATALOG_ORDERS,
    FiniteGroup,
    abelianization,
    automorphism_search,
    close_generator_map,
    cyclic,
    dicyclic,
    dihedral,
    dihedral_from_reflections,
    direct_product,
    divisors_of,
    from_permutations,
    from_table,
    from_text,
    is_isomorphic,
    iso_search,
    metacyclic,
    recognize,
    semidirect_cyclic,
    semidirect_with_automorphism,
    small_groups,
)

# Hypothesis runs derandomized and without an example database, so every
# run of the suite draws the same examples.
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# Elements and basic structure.


class TestElements:
    def test_cyclic_orders(self):
        G = cyclic(12)
        c = G.generator("c")
        assert G.order == 12
        assert c.order() == 12
        assert (c ** 4).order() == 3
        assert (c ** 6).order() == 2
        assert c ** 12 == G.identity
        assert c ** -1 == c ** 11
        assert (c ** -5) * (c ** 5) == G.identity

    def test_power_zero_and_negative(self):
        G = dihedral(8)
        D = G.generator("D")
        A = G.generator("A")
        assert D ** 0 == G.identity
        assert D ** -1 == D ** 3
        assert (D * A) ** 2 == G.identity  # reflections square to 1
        assert A.inverse() == A

    def test_conjugation(self):
        G = dihedral(8)
        D, A = G.generator("D"), G.generator("A")
        assert A * D * A.inverse() == D ** -1

    def test_cross_group_multiplication_rejected(self):
        G, H = cyclic(3), cyclic(3)
        with pytest.raises(ValueError):
            G.identity * H.identity

    def test_elements_are_built_on_demand(self):
        # a fresh view per call, equal and hashed by (group, index)
        G = dihedral(8)
        assert G.element(3) == G.element(3)
        assert hash(G.element(3)) == hash(G.element(3))
        assert G.element(0) == G.identity
        assert G.generator("A") == G.element(G.generator("A").idx)
        for bad in (G.order, G.order + 5, -1):
            with pytest.raises(IndexError):
                G.element(bad)

    def test_names_and_lookup(self):
        G = dihedral(8)
        assert {G.element(i).name for i in range(G.order)} == {
            "1", "D", "D^2", "D^3", "A", "DA", "D^2A", "D^3A",
        }
        assert G.generator("D^2A") == G.generator("D") ** 2 * G.generator("A")
        with pytest.raises(KeyError):
            G.generator("missing")

    def test_is_abelian(self):
        assert cyclic(8).is_abelian()
        assert not dihedral(8).is_abelian()


class TestConjugacyClasses:
    def test_dihedral8_classes_match_brute_force(self):
        G = dihedral(8)
        classes = G._class_index()[0]
        # independent brute-force derivation from the table
        inverse = {h: next(x for x in range(8) if G._table[h][x] == 0) for h in range(8)}
        brute = set()
        for a in range(G.order):
            orbit = frozenset(
                G._table[G._table[h][a]][inverse[h]] for h in range(G.order)
            )
            brute.add(orbit)
        assert {frozenset(cls) for cls in classes} == brute
        assert len(classes) == 5
        assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
        assert groups._class_minima(G, set(range(8))) == sorted(min(c) for c in brute)

    def test_involution_count(self):
        def involutions(G):
            return [G.element(i) for i in range(G.order) if G.element_order(i) == 2]

        assert len(involutions(dihedral(8))) == 5
        assert len(involutions(dicyclic(2))) == 1  # quaternion-type group
        assert len(involutions(cyclic(12))) == 1

    def test_class_predicate_selects_union_of_classes(self):
        G = dihedral(8)
        involutions = {i for i in range(G.order) if G.element_order(i) == 2}
        minima = groups._class_minima(G, involutions)
        assert sorted(G.class_size(i) for i in minima) == [1, 2, 2]
        assert minima == sorted(minima)
        # each minimum is the smallest of its class, and the classes cover the set
        classes, class_of = G._class_index()
        assert all(classes[class_of[i]][0] == i for i in minima)
        assert {a for i in minima for a in classes[class_of[i]]} == involutions

    def test_class_predicate_splitting_is_rejected(self):
        G = dihedral(8)
        with pytest.raises(InvariantViolation):
            groups._class_minima(G, {G.generator("A").idx})

    def test_centralizer_and_center(self):
        G = dihedral(8)
        D, A = G.generator("D"), G.generator("A")
        assert G.centralizer(D) == G.subgroup([D])
        assert len(G.centralizer(D)) == 4
        assert len(G.centralizer(A)) == 4
        assert A.idx in G.centralizer(A)
        center = [G.element(i).name for i in range(G.order) if G.class_size(i) == 1]
        assert sorted(center) == ["1", "D^2"]


# ---------------------------------------------------------------------------
# Constructors.


class TestConstructors:
    def test_dihedral_relations(self):
        for order in (6, 8, 10, 16, 24):
            G = dihedral(order)
            D, A = G.generator("D"), G.generator("A")
            assert D.order() == order // 2
            assert A.order() == 2
            assert A * D * A == D ** -1

    def test_dihedral_bad_order(self):
        with pytest.raises(GroupConstructionError):
            dihedral(7)

    def test_dihedral_order_checked_before_the_table(self, capped_python):
        code = (
            "from fourg.errors import GroupConstructionError\n"
            "from fourg.groups import dihedral\n"
            "try:\n"
            "    dihedral(40000)\n"
            "except GroupConstructionError as exc:\n"
            "    print(exc)\n"
        )
        run = capped_python("-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "order 40000 exceeds 4096\n"

    @pytest.mark.parametrize(
        "module,call,order",
        [
            ("fourg.groups", "cyclic(5000)", 5000),
            ("fourg.groups", "metacyclic(5000, 1)", 10000),
            ("fourg.actions", "eliminate_cases(2500)", 10000),  # family 1's cyclic(4g)
        ],
        ids=["cyclic", "metacyclic", "eliminate_cases"],
    )
    def test_order_checked_before_the_table(self, capped_python, module, call, order):
        name = call.split("(")[0]
        code = (
            "from fourg.errors import GroupConstructionError\n"
            f"from {module} import {name}\n"
            "try:\n"
            f"    {call}\n"
            "except GroupConstructionError as exc:\n"
            "    print(exc)\n"
        )
        run = capped_python("-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout == f"order {order} exceeds 4096\n"

    def test_dihedral_from_reflections(self):
        G = dihedral_from_reflections(16)
        w, x = G.generator("w"), G.generator("x")
        assert w.order() == 2 and x.order() == 2
        assert (w * x).order() == 8
        assert (w * x).name == "wx"
        assert is_isomorphic(G, dihedral(16))

    def test_metacyclic_dihedral_case(self):
        # trivial square and inverting twist gives the dihedral group
        G = metacyclic(6, 5, 0)
        assert is_isomorphic(G, dihedral(12))

    def test_metacyclic_abelian_case(self):
        G = metacyclic(4, 1, 2)  # B^2 = C^2, commuting
        assert G.is_abelian()
        assert is_isomorphic(G, direct_product(cyclic(4), cyclic(2)))

    def test_metacyclic_validation(self):
        with pytest.raises(GroupConstructionError):
            metacyclic(8, 2)  # twist not a unit
        with pytest.raises(GroupConstructionError):
            metacyclic(10, 3)  # 3^2 = 9 != 1 mod 10
        with pytest.raises(GroupConstructionError):
            metacyclic(8, 3, 1)  # B^2 = C not twist-stable

    def test_dicyclic_relations(self):
        for m in (2, 3, 5):
            G = dicyclic(m)
            A, C = G.generator("A"), G.generator("C")
            assert G.order == 4 * m
            assert C.order() == 2 * m
            assert A * A == C ** m
            assert A * C * A ** -1 == C ** -1

    def test_quaternion_type_element_orders(self):
        G = dicyclic(2)
        assert sorted(G.element_order(i) for i in range(G.order)) == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_direct_product(self):
        G = direct_product(dihedral(8), cyclic(2, gen_name="y"))
        assert G.order == 16
        assert G.generator("y") * G.generator("D") == G.generator("D*y")
        assert G.generator("y").order() == 2

    def test_semidirect_cyclic(self):
        G = semidirect_cyclic(5, 4, 2)  # C5 : C4, faithful action
        assert G.order == 20
        c, b = G.generator("c"), G.generator("b")
        assert b * c * b ** -1 == c ** 2
        with pytest.raises(GroupConstructionError):
            semidirect_cyclic(5, 2, 2)  # 2^2 = 4 != 1 mod 5

    def test_semidirect_with_automorphism_checks_input(self):
        G = cyclic(5)
        bad = [0, 2, 1, 3, 4]  # not multiplicative
        with pytest.raises(GroupConstructionError):
            semidirect_with_automorphism(G, bad)
        inversion = [0, 4, 3, 2, 1]
        H = semidirect_with_automorphism(G, inversion)
        assert is_isomorphic(H, dihedral(10))

    def test_unique_names_required(self):
        with pytest.raises(GroupConstructionError):
            FiniteGroup([[0, 1], [1, 0]], ["e", "e"], [1])

    def test_table_entries_must_lie_in_range(self):
        for table in ([[0, 1], [1, 2]], [[0, -1], [1, 0]], [[0, 1], [1]]):
            with pytest.raises(GroupConstructionError, match="not square over 0..n-1"):
                FiniteGroup(table, ["e", "a"], [1])

    @pytest.mark.parametrize("n", [2, 255, 256])
    @pytest.mark.parametrize("bad", [256, -1])
    def test_entries_outside_a_byte_are_out_of_range(self, n, bad):
        # checked before the rows become bytes, which would raise ValueError
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        table[n - 1][n // 2] = bad
        message = r"^multiplication table is not square over 0\.\.n-1$"
        with pytest.raises(GroupConstructionError, match=message):
            FiniteGroup(table, range(n), [1])

    @pytest.mark.parametrize("n", [6, 258])
    def test_verify_reports_the_first_failing_triple_on_list_rows(self, n):
        # C_n with the intercalate on rows 1, 1 + n/2 and columns 1, 1 + n/2
        # flipped, handed over unverified as list rows
        rows = _intercalate_table(cyclic(n), n // 2, 1, 1)
        assert type(rows[0]) is list
        H = FiniteGroup(rows, range(n), [1, 2], verify=False)
        got = _verify_outcome(H, FiniteGroup._verify)
        assert got == _verify_outcome(H, _reference_verify)
        assert got.startswith("associativity fails at (")
        assert H._table is rows  # _verify reads the rows, it does not replace them
        built = FiniteGroup(_as_rows(rows), range(n), [1, 2], verify=False)
        assert _verify_outcome(built, FiniteGroup._verify) == got


def _reference_element_orders(table) -> list:
    """Each element's order by walking its powers one by one."""
    orders = []
    for i in range(len(table)):
        k, acc = 1, i
        while acc != 0:
            acc = table[acc][i]
            k += 1
        orders.append(k)
    return orders


class TestElementOrders:
    @pytest.mark.parametrize("n", range(1, 49))
    def test_catalog_matches_power_walk(self, n):
        for G in small_groups(n):
            assert groups._element_orders(G._table) == _reference_element_orders(G._table), G.name

    @pytest.mark.parametrize("n", [256, 257])
    def test_cyclic_across_the_row_types(self, n):
        table = cyclic(n)._table
        assert type(table[0]) is (bytes if n <= 256 else tuple)
        orders = groups._element_orders(table)
        assert orders == _reference_element_orders(table)
        assert orders == [n // groups.gcd(i, n) for i in range(n)]


def _brute_force(order, mul):
    return [tuple(mul(a, b) for b in range(order)) for a in range(order)]


def _as_rows(table) -> list:
    """``table`` with the rows a built table of its order holds: bytes up
    to order 256, tuples above."""
    return [groups._row(len(table), row) for row in table]


def _metacyclic_rule(n, t, square):
    """Product of C^i1 B^j1 and C^i2 B^j2, packed as i + n*j."""

    def mul(x, y):
        j1, i1 = divmod(x, n)
        j2, i2 = divmod(y, n)
        i = (i1 + (i2 * t if j1 else i2)) % n
        if j1 and j2:
            return (i + square) % n
        return i + n * (j1 + j2)

    return mul


def _semidirect_rule(G, mapping, k):
    """Product of a1 x^j1 and a2 x^j2, packed as a*k + j, x acting by mapping."""

    def twist(a, j):
        for _ in range(j):
            a = mapping[a]
        return a

    def mul(x, y):
        a1, j1 = divmod(x, k)
        a2, j2 = divmod(y, k)
        return G._table[a1][twist(a2, j1)] * k + (j1 + j2) % k

    return mul


def _product_rule(G, H):
    """Product of pairs (a, b), packed as a*|H| + b."""
    nh = H.order

    def mul(x, y):
        a1, b1 = divmod(x, nh)
        a2, b2 = divmod(y, nh)
        return G._table[a1][a2] * nh + H._table[b1][b2]

    return mul


def _cayley_cases():
    for n in (1, 2, 7, 12):
        yield f"cyclic({n})", cyclic(n), n, [1] if n > 1 else [], lambda x, y, n=n: (x + y) % n
    for n in (1, 3, 8):
        yield f"dihedral({2 * n})", dihedral(2 * n), 2 * n, [n, 1], _metacyclic_rule(n, -1 % n, 0)
    for m in (2, 3, 6):
        n = 2 * m
        yield f"dicyclic({m})", dicyclic(m), 2 * n, [n, 1], _metacyclic_rule(n, n - 1, m)
    for n, t, k in ((7, 2, 3), (9, 2, 6), (5, 4, 2)):
        base = cyclic(n)
        mapping = [i * t % n for i in range(n)]
        G = semidirect_with_automorphism(base, mapping, top_order=k)
        yield f"C{n}:C{k}", G, n * k, [k, 1], _semidirect_rule(base, mapping, k)
    base = dihedral(8)
    D = base.generator("D")
    conj = [(D * base.element(i) * D.inverse()).idx for i in range(base.order)]  # order 2
    gens = [g * 4 for g in base._gen_idx] + [1]
    G = semidirect_with_automorphism(base, conj, top_order=4)
    yield "D8:C4", G, 32, gens, _semidirect_rule(base, conj, 4)
    for left, right in ((cyclic(3), cyclic(5)), (dihedral(6), cyclic(4)), (dicyclic(2), dihedral(8))):
        nh = right.order
        gens = [g * nh for g in left._gen_idx] + list(right._gen_idx)
        yield (
            f"{left.name} x {right.name}",
            direct_product(left, right),
            left.order * nh,
            gens,
            _product_rule(left, right),
        )


def _never_read():
    """Generator rows that fail when read: the order check must come first."""
    raise AssertionError("generator rows read before the order check")
    yield  # pragma: no cover - makes this a generator


class TestCayleyTable:
    def test_matches_brute_force(self):
        for label, G, order, gens, mul in _cayley_cases():
            expected = _brute_force(order, mul)
            gen_rows = ((g, expected[g]) for g in gens)
            assert groups._cayley_table(order, gen_rows) == _as_rows(expected), label
            assert G._table == _as_rows(expected), label
            assert _reference_cayley_table(order, gens, mul) == expected, label

    def test_generators_must_span(self):
        with pytest.raises(GroupConstructionError, match="span only 3 of 6"):
            groups._cayley_table(6, [(2, [(2 + y) % 6 for y in range(6)])])

    def test_order_checked_first(self):
        with pytest.raises(GroupConstructionError, match="order 4097 exceeds 4096"):
            groups._cayley_table(4097, _never_read())

    @pytest.mark.parametrize(
        "gen_rows",
        [[(1, [-1, 0, 1])], [(1, [1, 2, 3])], [(1, [1, 2])], [(3, [0, 1, 2])]],
        ids=["minus_one", "order", "short", "generator"],
    )
    def test_product_rule_must_stay_in_range(self, gen_rows):
        # x - 1 gives -1 at x = 0, and x + 1 gives 3 = order at x = 2; a
        # short row and a generator index past the order are refused too
        with pytest.raises(GroupConstructionError, match=r"outside 0\.\.2"):
            groups._cayley_table(3, gen_rows)

    @pytest.mark.parametrize("order", [0, -2])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(GroupConstructionError, match=f"got order {order}"):
            groups._cayley_table(order, _never_read())
        # the public route: an empty or negative top of a split extension
        inversion = [0, 4, 3, 2, 1]
        with pytest.raises(GroupConstructionError, match="at least one element"):
            semidirect_with_automorphism(cyclic(5), inversion, top_order=order)

    def test_order_one(self):
        assert groups._cayley_table(1, []) == [b"\x00"]
        assert groups._cayley_table(1, [(0, [0]), (0, (0,))]) == [b"\x00"]

    def test_row_type_is_keyed_on_the_order(self):
        # byte rows up to order 256, tuple rows above, composed alike
        kinds = [(1, bytes), (2, bytes), (255, bytes), (256, bytes), (257, tuple), (300, tuple)]
        for n, kind in kinds:
            shift = [(y + 1) % n for y in range(n)]
            table = groups._cayley_table(n, [(1 % n, shift)])
            assert {type(row) for row in table} == {kind}, n
            assert [tuple(row) for row in table] == [
                tuple((a + b) % n for b in range(n)) for a in range(n)
            ], n
            row = groups._row(n, shift)
            assert type(row) is kind
            assert groups._through(row)(row) == groups._row(n, [(y + 2) % n for y in range(n)])


def _assert_built_contract(G: FiniteGroup):
    """What construction no longer re-checks for a table the package built:
    rows of length n over 0..n-1, bytes at order 256 or less and tuples
    above, unique names, and the group axioms with spanning generators
    (``_verify``)."""
    n = G.order
    span = range(n)
    for row in G._table:
        assert type(row) is (bytes if n <= 256 else tuple) and len(row) == n, G.name
        assert min(row) in span and max(row) in span, G.name
    names = list(G._names)
    assert len(names) == n and len(set(names)) == n, G.name
    G._verify()


class TestConstructionContract:
    @pytest.mark.parametrize("n", range(1, 97))
    def test_catalog(self, n):
        for G in small_groups(n):
            _assert_built_contract(G)

    @pytest.mark.parametrize("g", range(2, 31))
    def test_paper_groups(self, g):
        for G in (family_group(g), chain_target_group(g), cone_target_group(g)):
            _assert_built_contract(G)
        _assert_built_contract(dihedral_from_reflections(4 * g))

    def test_tuple_rows_above_order_256(self):
        G = family_group(65)
        assert G.order == 260
        _assert_built_contract(G)
        _assert_built_contract(from_table(_table_text(G._table)))
        _assert_built_contract(cyclic(257))
        _assert_built_contract(cyclic(256))

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
    def test_permutation_groups(self, perms):
        _assert_built_contract(from_permutations(["perm " + _cycles(p) for p in perms]))

    def test_constructors_store_the_table_they_built(self, monkeypatch):
        # each table is the one the product-rule fill builds from the rules
        # above (the permutation group's from the reference parser)
        s4 = ["perm (1 2 3 4)", "perm (1 2)"]
        expected = [
            _reference_cayley_table(6, [1], lambda x, g: (x + g) % 6),
            _reference_cayley_table(12, [6, 1], _metacyclic_rule(6, 5, 0)),
            _reference_cayley_table(8, [4, 1], _metacyclic_rule(4, 3, 0)),
            _reference_cayley_table(12, [6, 1], _metacyclic_rule(6, 5, 3)),
            _reference_cayley_table(12, [6, 1, 3], _product_rule(cyclic(2), dihedral(6))),
            _reference_cayley_table(21, [3, 1], _semidirect_rule(cyclic(7), [0, 2, 4, 6, 1, 3, 5], 3)),
            [tuple(row) for row in _reference_from_permutations(s4)._table],
            _reference_cayley_table(12, [6, 1], _metacyclic_rule(6, 5, 0)),
        ]
        built = []

        def recording(order, gen_rows):
            built.append(cayley_table(order, gen_rows))
            return built[-1]

        cayley_table = groups._cayley_table
        monkeypatch.setattr(groups, "_cayley_table", recording)
        for make, table in zip(
            (
                lambda: cyclic(6),
                lambda: metacyclic(6, 5, 0),
                lambda: dihedral(8),
                lambda: dicyclic(3),
                lambda: direct_product(cyclic(2), dihedral(6)),
                lambda: semidirect_cyclic(7, 3, 2),
                lambda: from_permutations(s4),
                lambda: dihedral_from_reflections(12),
            ),
            expected,
        ):
            G = make()
            assert G._table is built[-1], G.name
            assert G._table == _as_rows(table), G.name

    def test_order_one_and_degree_one(self):
        trivial = [
            cyclic(1),
            from_table("order 1\n0"),
            from_permutations(["perm (1)"]),
            from_permutations(["perm ()"]),
            FiniteGroup([[0]], ["e"], []),
        ]
        for G in trivial:
            assert G.order == 1 and G._inv == [0], G.name
            assert [tuple(row) for row in G._table] == [(0,)], G.name
            G._verify()
        assert [G._names[0] for G in trivial] == ["1", "g0", "()", "()", "e"]


class TestExtensionGroupB:
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_defining_relations(self, g):
        G = cone_target_group(g)
        x, z, w = G.generator("x"), G.generator("z"), G.generator("w")
        t = z * w
        assert G.order == 8 * g
        assert x.order() == 2 and z.order() == 2 and w.order() == 2
        assert t.order() == 2 * g
        assert x * z * x == t ** (g - 1) * z
        assert x * w * x == t ** g * z

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_orientation_character(self, g):
        # the character b reads off its images (x, xwx, z, w)
        b = build_extensions(main_action_class(g))[2]
        G, kappa = b.group, b.orientation
        z, w = G.generator("z"), G.generator("w")
        assert kappa[z.idx] == kappa[w.idx] == -1
        assert kappa[G.generator("x").idx] == 1
        assert kappa[(z * w).idx] == 1
        # exactly half the elements reverse orientation
        assert kappa.count(-1) == 4 * g

    def test_shape_depends_on_parity(self):
        assert recognize(cone_target_group(2)) == "dihedral of order 16"
        assert recognize(cone_target_group(4)) == "dihedral of order 32"
        assert recognize(cone_target_group(3)) == "dihedral of order 12 x C2"
        assert recognize(cone_target_group(5)) == "dihedral of order 20 x C2"
        assert is_isomorphic(cone_target_group(2), dihedral(16))
        assert is_isomorphic(
            cone_target_group(3), direct_product(dihedral(12), cyclic(2))
        )


# ---------------------------------------------------------------------------
# Ingestion.


def _serialize(G, generators=True):
    lines = [f"order {G.order}"]
    for a in range(G.order):
        lines.append(" ".join(str(G._table[a][b]) for b in range(G.order)))
    if generators:
        lines.append("generators " + " ".join(str(g) for g in G._gen_idx))
    return "\n".join(lines)


class TestFromTable:
    def test_round_trip(self):
        G = dihedral(8)
        H = from_table(_serialize(G))
        assert H.order == 8
        assert is_isomorphic(G, H)

    def test_identity_relocation(self):
        G = dihedral(8)
        perm = list(range(8))
        perm[0], perm[3] = perm[3], perm[0]  # identity moves to input index 3
        table = [[0] * 8 for _ in range(8)]
        for a in range(8):
            for b in range(8):
                table[perm[a]][perm[b]] = perm[G._table[a][b]]
        text = "order 8\n" + "\n".join(" ".join(map(str, row)) for row in table)
        H = from_table(text)
        assert H.element(0).name == "g3"
        assert is_isomorphic(H, G)

    def test_generators_line_optional(self):
        G = dicyclic(3)
        H = from_table(_serialize(G, generators=False))
        assert is_isomorphic(G, H)

    def test_bad_header(self):
        with pytest.raises(InputFormatError):
            from_table("size 2\n0 1\n1 0")

    def test_bad_row_length(self):
        with pytest.raises(InputFormatError):
            from_table("order 2\n0 1\n1")

    def test_no_identity(self):
        with pytest.raises(InputFormatError):
            from_table("order 2\n1 0\n0 0")

    def test_identity_not_at_zero_is_found(self):
        # a valid C2 table whose identity sits at input index 1
        G = from_table("order 2\n1 0\n0 1")
        assert G.order == 2
        assert G.element(0).name == "g1"

    def test_non_associative_latin_square_rejected(self):
        # C_n with a 2x2 intercalate flipped: still a latin square with
        # two-sided inverses, but not associative, at a small and a large order
        for n, i in ((6, 1), (520, 3)):
            j = i + n // 2
            table = [[(a + b) % n for b in range(n)] for a in range(n)]
            table[i][i], table[i][j] = table[i][j], table[i][i]
            table[j][i], table[j][j] = table[j][j], table[j][i]
            text = f"order {n}\n" + "\n".join(" ".join(map(str, row)) for row in table)
            with pytest.raises(InputFormatError):
                from_table(text)

    def test_bad_generator_indices(self):
        with pytest.raises(InputFormatError):
            from_table("order 2\n0 1\n1 0\ngenerators 5")

    def test_keywords_are_case_insensitive(self):
        G = from_table("ORDER 2\n0 1\n1 0\nGenerators 1")
        assert G.order == 2
        assert G._gen_idx == (1,)

    @pytest.mark.parametrize(
        "head", ["order 2 junk", "orderly 2", "order", "order2", "size 2", "2 order"]
    )
    def test_head_must_be_exactly_order_n(self, head):
        with pytest.raises(InputFormatError, match="first line must be 'order n'"):
            from_table(f"{head}\n0 1\n1 0")

    @pytest.mark.parametrize("tail", ["generatorsfoo 1", "generator 1", "gens 1", "1"])
    def test_tail_must_start_with_the_word_generators(self, tail):
        with pytest.raises(InputFormatError, match="trailing content must be"):
            from_table(f"order 2\n0 1\n1 0\n{tail}")

    @pytest.mark.parametrize(
        "token", ["+1", "-0", "-1", "1_0", "\u0661", "01", "00", "1.0", "0x1"]
    )
    def test_numbers_are_plain_ascii_decimal_numerals(self, token):
        # no sign, no underscore, no other digits and no leading zero:
        # "01" is rejected, not read as 1, and "-1" is malformed, not out
        # of range
        with pytest.raises(InputFormatError, match="first line must be 'order n'"):
            from_table(f"order {token}\n0")
        with pytest.raises(InputFormatError, match=re.escape(f"entry {token!r} in row 1 is not")):
            from_table(f"order 2\n0 1\n{token} 0")
        with pytest.raises(InputFormatError, match=re.escape(f"bad generator index {token!r}")):
            from_table(f"order 2\n0 1\n1 0\ngenerators {token}")

    def test_out_of_range_numerals(self):
        with pytest.raises(InputFormatError, match="order must be between 1 and 4096"):
            from_table("order 4097\n0")
        with pytest.raises(InputFormatError, match="row 1 must have 2 entries in 0..1"):
            from_table("order 2\n0 1\n2 0")
        with pytest.raises(InputFormatError, match="row 0 must have 2 entries in 0..1"):
            from_table("order 2\n0 1 " + "9" * 5000 + "\n1 0")
        with pytest.raises(InputFormatError, match="generator indices out of range"):
            from_table("order 2\n0 1\n1 0\ngenerators 2")

    def test_identity_at_zero_keeps_the_table(self):
        G = dicyclic(3)
        H = from_table(_serialize(G))
        assert H._table == G._table
        assert H._names == [f"g{i}" for i in range(G.order)]
        assert H._gen_idx == G._gen_idx


class TestFromPermutations:
    def test_alternating_four(self):
        G = from_permutations(["perm (1 2 3)", "perm (1 2)(3 4)"])
        assert G.order == 12
        assert sorted(abelianization(G)) == [3]

    def test_symmetric_three_from_string(self):
        G = from_permutations("perm (1 2 3)\nperm (1 2)\n")
        assert is_isomorphic(G, dihedral(6))

    def test_cycle_names(self):
        G = from_permutations(["perm (1 2)"])
        assert {G.element(i).name for i in range(G.order)} == {"()", "(1 2)"}

    def test_overlapping_cycles_rejected(self):
        with pytest.raises(InputFormatError):
            from_permutations(["perm (1 2)(2 3)"])

    def test_repeated_point_rejected(self):
        with pytest.raises(InputFormatError):
            from_permutations(["perm (1 2 1)"])

    def test_point_above_max_order_rejected(self):
        assert from_permutations(["perm (1 4096)"]).order == 2
        with pytest.raises(InputFormatError, match="point 4097 exceeds 4096"):
            from_permutations(["perm (1 2)", "perm (4097 3)"])

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(st.lists(st.permutations(range(5)), min_size=1, max_size=3))
    def test_table_is_the_composition_table(self, perms):
        G = from_permutations(["perm " + _cycles(p) for p in perms])
        elements = [_perm_from_name(G.element(i).name, 5) for i in range(G.order)]
        index_of = {p: i for i, p in enumerate(elements)}
        assert len(index_of) == G.order
        for a, p in enumerate(elements):
            for b, q in enumerate(elements):
                assert G._table[a][b] == index_of[tuple(p[i] for i in q)]

    @pytest.mark.parametrize("token", ["+1", "-1", "1_0", "\u0661", "01", "9" * 5000])
    def test_points_are_plain_ascii_decimal_numerals(self, token):
        with pytest.raises(InputFormatError, match="bad cycle"):
            from_permutations([f"perm (2 {token})"])

    def test_zero_point_rejected(self):
        with pytest.raises(InputFormatError, match="1-based"):
            from_permutations(["perm (0 1)"])

    def test_perm_must_be_a_word(self):
        assert from_permutations(["perm(1 2)"]).order == 2
        with pytest.raises(InputFormatError, match="expected 'perm"):
            from_permutations(["permute (1 2)"])

    def test_garbage_rejected(self):
        with pytest.raises(InputFormatError):
            from_permutations(["rot (1 2)"])
        with pytest.raises(InputFormatError):
            from_permutations(["perm (1 2) junk"])
        with pytest.raises(InputFormatError):
            from_permutations(["perm (1 x)"])
        with pytest.raises(InputFormatError):
            from_permutations([])


class TestFromText:
    def test_routes_by_the_first_word(self):
        assert from_text("\n Order 2\n0 1\n1 0\ngenerators 1\n").name == "table-group(2)"
        assert from_text("\nperm (1 2 3)\nperm(1 2)\n").name == "perm-group(6)"


def _cycles(perm) -> str:
    """Cycle notation (1-based) of a permutation of 0..n-1."""
    seen, parts = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = perm[x]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) or "()"


def _perm_from_name(name: str, degree: int) -> tuple:
    """Permutation of 0..degree-1 read back from a cycle-notation name."""
    perm = list(range(degree))
    for body in re.findall(r"\(([^()]*)\)", name):
        points = [int(p) - 1 for p in body.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
    return tuple(perm)


# ---------------------------------------------------------------------------
# Ingestion against the entry-by-entry reference parsers.
#
# ``from_table``, ``FiniteGroup._verify``, ``from_permutations`` and
# ``_cayley_table`` as they were before their per-entry work moved into
# whole-row passes, kept as oracles.  The reference parsers build list rows,
# as ``FiniteGroup`` once copied every table to, with ``verify=False``, and
# then run ``_reference_verify``, which is what ``verify=True`` ran.  The
# groups under test hold tuple rows, so tables are compared row by row as
# tuples (``_contents``).

_REFERENCE_PERM_LINE = re.compile(r"^\s*perm\s*(.*)$")
_REFERENCE_CYCLE = re.compile(r"\(([^()]*)\)")


def _reference_verify(self):
    n = self.order
    table = self._table
    if table[0] != list(range(n)) or any(table[i][0] != i for i in range(n)):
        raise GroupConstructionError("index 0 is not a two-sided identity")
    gens = list(self._gen_idx)
    reached = groups._closure(table, gens)
    if len(reached) != n:
        raise GroupConstructionError(
            f"declared generators span only {len(reached)} of {n} elements"
        )
    # Light's test: associativity of the whole table follows from
    # associativity against each member of a generating set.
    for a in gens if gens else [0]:
        row_a = table[a]
        for x in range(n):
            row_xa = table[table[x][a]]
            row_x = table[x]
            for y in range(n):
                if row_xa[y] != row_x[row_a[y]]:
                    raise GroupConstructionError(
                        f"associativity fails at ({x},{a},{y})"
                    )


def _reference_from_permutations(source) -> FiniteGroup:
    lines = source.splitlines() if isinstance(source, str) else list(source)
    raw_gens = []
    degree = 0
    for line in lines:
        if not line.strip():
            continue
        m = _REFERENCE_PERM_LINE.match(line)
        if not m:
            raise InputFormatError(f"expected 'perm (...)(...)', got {line!r}")
        body = m.group(1).strip()
        cycles = []
        for cm in _REFERENCE_CYCLE.finditer(body):
            entries = cm.group(1).replace(",", " ").split()
            try:
                points = [int(p) for p in entries]
            except ValueError:
                raise InputFormatError(f"bad cycle {cm.group(0)!r} in {line!r}") from None
            if any(p < 1 for p in points):
                raise InputFormatError("permutation points are 1-based")
            if max(points, default=0) > groups.MAX_ORDER:
                raise InputFormatError(
                    f"permutation point {max(points)} exceeds {groups.MAX_ORDER}"
                )
            if len(set(points)) != len(points):
                raise InputFormatError(f"repeated point in cycle {cm.group(0)!r}")
            cycles.append(points)
            degree = max(degree, max(points, default=0))
        if _REFERENCE_CYCLE.sub("", body).strip():
            raise InputFormatError(f"unparsed text in {line!r}")
        raw_gens.append(cycles)
    if not raw_gens:
        raise InputFormatError("no permutations given")
    perms = []
    for cycles in raw_gens:
        perm = list(range(degree))
        touched = set()
        for cycle in cycles:
            if not touched.isdisjoint(cycle):
                raise InputFormatError("cycles within one permutation must be disjoint")
            touched.update(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a - 1] = b - 1
        perms.append(tuple(perm))

    identity = tuple(range(degree))
    index_of = {identity: 0}
    elements = [identity]
    right = {}  # right[x][k] = index of elements[x] * perms[k]
    frontier = [0]
    while frontier:
        x = frontier.pop()
        p = elements[x]
        row = []
        for q in perms:
            prod = tuple(p[q[i]] for i in range(degree))
            if prod not in index_of:
                if len(elements) >= groups.MAX_ORDER:
                    raise GroupConstructionError(
                        f"permutation group exceeds order {groups.MAX_ORDER}"
                    )
                index_of[prod] = len(elements)
                elements.append(prod)
                frontier.append(len(elements) - 1)
            row.append(index_of[prod])
        right[x] = row
    gen_idx = [index_of[p] for p in perms]
    k_of = {g: k for k, g in enumerate(gen_idx)}
    table = _reference_cayley_table(len(elements), gen_idx, lambda x, g: right[x][k_of[g]])
    table = [list(row) for row in table]
    names = [_reference_cycle_notation(p) for p in elements]
    G = FiniteGroup(
        table, names, gen_idx, name=f"perm-group({len(elements)})", verify=False
    )
    _reference_verify(G)
    return G


def _reference_cayley_table(order: int, gens, mul) -> list:
    if order > groups.MAX_ORDER:
        raise GroupConstructionError(f"order {order} exceeds {groups.MAX_ORDER}")
    rights = [[mul(x, g) for x in range(order)] for g in gens]
    columns = [None] * order
    columns[0] = list(range(order))
    reached = [0]
    for b in reached:  # reached grows while it is walked
        column = columns[b]
        for right in rights:
            c = right[b]
            if columns[c] is None:
                columns[c] = list(map(right.__getitem__, column))
                reached.append(c)
    if len(reached) != order:
        raise GroupConstructionError(
            f"generators span only {len(reached)} of {order} elements"
        )
    return list(zip(*columns))


def _reference_cycle_notation(perm: tuple) -> str:
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(parts) if parts else "()"


def _reference_from_table(text: str) -> FiniteGroup:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].lower().startswith("order"):
        raise InputFormatError("first line must be 'order n'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise InputFormatError("first line must be 'order n'") from None
    if n < 1 or n > groups.MAX_ORDER:
        raise InputFormatError(f"order must be between 1 and {groups.MAX_ORDER}")
    if len(lines) < n + 1:
        raise InputFormatError(f"expected {n} table rows, found {len(lines) - 1}")
    raw = []
    for i in range(1, n + 1):
        try:
            row = [int(v) for v in lines[i].split()]
        except ValueError:
            raise InputFormatError(f"non-integer entry in row {i - 1}") from None
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise InputFormatError(f"row {i - 1} must have {n} entries in 0..{n - 1}")
        raw.append(row)
    gen_line = None
    if len(lines) > n + 1:
        if not lines[n + 1].lower().startswith("generators"):
            raise InputFormatError("trailing content must be a 'generators ...' line")
        try:
            gen_line = [int(v) for v in lines[n + 1].split()[1:]]
        except ValueError:
            raise InputFormatError("bad generator indices") from None
        if any(not 0 <= v < n for v in gen_line):
            raise InputFormatError("generator indices out of range")
        if len(lines) > n + 2:
            raise InputFormatError("unexpected extra lines after the generators line")
    identity = None
    for e in range(n):
        if raw[e] == list(range(n)) and all(raw[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise InputFormatError("table has no two-sided identity")
    order_old = [identity] + [i for i in range(n) if i != identity]
    new_of = {old: new for new, old in enumerate(order_old)}
    table = [[new_of[raw[a][b]] for b in order_old] for a in order_old]
    names = [f"g{old}" for old in order_old]
    if gen_line is not None:
        gens = [new_of[i] for i in gen_line]
    else:
        gens = groups._small_generating_set(table, range(n))
    try:
        G = FiniteGroup(table, names, gens, name=f"table-group({n})", verify=False)
        _reference_verify(G)
        return G
    except GroupConstructionError as exc:
        raise InputFormatError(f"invalid table: {exc}") from None


def _contents(G: FiniteGroup):
    """G's table with tuple rows, its names, generators and name."""
    return [tuple(row) for row in G._table], list(G._names), G._gen_idx, G.name


def _ingested(parse, text):
    """What a parser makes of ``text``: the group's ``_contents``, or the
    text of the input error it raises."""
    try:
        G = parse(text)
    except InputFormatError as exc:
        return str(exc)
    return _contents(G)


def _verify_outcome(G: FiniteGroup, verify):
    try:
        verify(G)
    except GroupConstructionError as exc:
        return str(exc)
    return None


def _table_text(rows, generators=None) -> str:
    text = f"order {len(rows)}\n" + "\n".join(" ".join(map(str, row)) for row in rows)
    if generators is not None:
        text += "\ngenerators " + " ".join(map(str, generators))
    return text


def _intercalate_table(G: FiniteGroup, z: int, a: int, b: int) -> list:
    """G's table with the intercalate on rows a, a*z and columns b, z*b
    flipped; z is a central involution and a, b lie outside {1, z}, so the
    result is a latin square with identity 0 that is no group table."""
    rows = [list(row) for row in G._table]
    az, zb = rows[a][z], rows[z][b]
    rows[a][b], rows[a][zb] = rows[a][zb], rows[a][b]
    rows[az][b], rows[az][zb] = rows[az][zb], rows[az][b]
    return rows


# drawn from by property tests; built once, not per example
_CENTRAL_INVOLUTION_GROUPS = [
    G
    for G in (cyclic(6), dihedral(8), dicyclic(3), dicyclic(4), *small_groups(16))
    if any(G.element_order(z) == 2 and G.class_size(z) == 1 for z in range(G.order))
]
_SPOILED_TABLE_GROUPS = [
    cyclic(1), cyclic(5), dihedral(6), *small_groups(8), *small_groups(12)
] + _CENTRAL_INVOLUTION_GROUPS


@st.composite
def _spoiled_table_text(draw):
    """A relabelled group table with the identity anywhere, possibly with an
    intercalate flipped, entries spoiled, rows cut or a generators line
    that is redundant, short or out of range; every number a numeral."""
    G = draw(st.sampled_from(_SPOILED_TABLE_GROUPS))
    n = G.order
    rows = [list(row) for row in G._table]
    involutions = [z for z in range(n) if G.element_order(z) == 2 and G.class_size(z) == 1]
    if involutions and draw(st.booleans()):
        z = draw(st.sampled_from(involutions))
        outside = [x for x in range(n) if x not in (0, z)]
        rows = _intercalate_table(G, z, draw(st.sampled_from(outside)), draw(st.sampled_from(outside)))
    sigma = draw(st.permutations(range(n)))
    relabelled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabelled[sigma[a]][sigma[b]] = sigma[rows[a][b]]
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n))
    for i, j, v in draw(st.lists(entry, max_size=2)):
        relabelled[i][j] = v
    if draw(st.integers(0, 9)) == 0:
        relabelled[draw(st.integers(0, n - 1))].pop()
    generators = draw(
        st.none()
        | st.just([sigma[g] for g in G._gen_idx])
        | st.lists(st.integers(0, n), max_size=4)
    )
    if generators is None:
        # (with a generators line, a cut row would make it read as a row,
        # whose words the two parsers report in different words)
        if draw(st.integers(0, 9)) == 0:
            relabelled.pop()
    else:
        generators = generators + draw(st.lists(st.integers(0, n - 1), max_size=2))
    return _table_text(relabelled, generators)


class TestIngestionMatchesReference:
    @settings(PROPERTY_SETTINGS, max_examples=300)
    @given(_spoiled_table_text())
    def test_from_table(self, text):
        assert _ingested(from_table, text) == _ingested(_reference_from_table, text)

    def test_intercalates_with_the_identity_moved(self):
        for n, i in ((6, 1), (520, 3)):
            j = i + n // 2
            rows = [[(a + b) % n for b in range(n)] for a in range(n)]
            rows[i][i], rows[i][j] = rows[i][j], rows[i][i]
            rows[j][i], rows[j][j] = rows[j][j], rows[j][i]
            shift = [(a + 2) % n for a in range(n)]  # the identity at input 2
            moved = [[0] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    moved[shift[a]][shift[b]] = shift[rows[a][b]]
            for generators in (None, [shift[1]], [shift[0], 7 % n, shift[1], shift[i]]):
                text = _table_text(moved, generators)
                got = _ingested(from_table, text)
                assert got.startswith("invalid table: ")
                assert got == _ingested(_reference_from_table, text)

    @settings(PROPERTY_SETTINGS, max_examples=200)
    @given(st.data())
    def test_row_scan_reports_the_first_failing_triple(self, data):
        G = data.draw(st.sampled_from(_CENTRAL_INVOLUTION_GROUPS))
        n = G.order
        z = data.draw(
            st.sampled_from(
                [z for z in range(n) if G.element_order(z) == 2 and G.class_size(z) == 1]
            )
        )
        outside = [x for x in range(n) if x not in (0, z)]
        rows = _intercalate_table(
            G, z, data.draw(st.sampled_from(outside)), data.draw(st.sampled_from(outside))
        )
        # a spanning list: G's generators with arbitrary elements around them
        generators = (
            data.draw(st.lists(st.integers(0, n - 1), max_size=3))
            + list(G._gen_idx)
            + data.draw(st.lists(st.integers(0, n - 1), max_size=3))
        )
        try:
            H = FiniteGroup(rows, range(n), generators, verify=False)
        except GroupConstructionError:
            return  # the flip broke two-sided inverses
        got = _verify_outcome(H, FiniteGroup._verify)
        assert got == _verify_outcome(H, _reference_verify)
        assert got is not None

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
    def test_from_permutations(self, perms):
        lines = ["perm " + _cycles(p) for p in perms]
        G = from_permutations(lines)
        assert _contents(G) == _ingested(_reference_from_permutations, lines)
        G._verify()

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
    def test_names_are_spelled_when_read(self, perms):
        lines = ["perm " + _cycles(p) for p in perms]
        expected = list(_reference_from_permutations(lines)._names)
        G = from_permutations(lines)
        assert G._name_to_idx is None
        # one at a time, each composed along its path from the identity
        assert [G._names[i] for i in reversed(range(G.order))] == expected[::-1]
        assert G._name_to_idx is None
        # all at once, in one pass
        assert list(from_permutations(lines)._names) == expected
        # cycle notation is canonical, so the names are distinct
        assert len(set(expected)) == G.order
        assert G.generator(expected[-1]).idx == G.order - 1
        assert G._name_to_idx is not None

    def test_regular_permutation_groups_are_group_tables(self):
        for H in small_groups(24):
            lines = ["perm " + _cycles(H._table[g]) for g in H._gen_idx]
            G = from_permutations(lines)
            assert G.order == 24
            assert _contents(G) == _ingested(_reference_from_permutations, lines)
            G._verify()


# ---------------------------------------------------------------------------
# Homomorphism search.


def _pairwise_close(G, H, pairs):
    """Reference closure: multiply every pair of defined elements.

    This is the quadratic closure ``close_generator_map`` used before it
    became a Cayley-graph walk, kept verbatim as an independent oracle.
    """
    n = G.order
    tg = G._table
    th = H._table
    img = [-1] * n
    img[0] = 0
    used = bytearray(H.order)
    used[0] = 1
    defined = [0]
    for a, b in pairs:
        if img[a] == -1:
            if used[b]:
                return None
            img[a] = b
            used[b] = 1
            defined.append(a)
        elif img[a] != b:
            return None
    i = 1
    while i < len(defined):
        a = defined[i]
        fa = img[a]
        row_a = tg[a]
        hrow_a = th[fa]
        for j in range(len(defined)):
            b = defined[j]
            fb = img[b]
            p = row_a[b]
            q = hrow_a[fb]
            ip = img[p]
            if ip == -1:
                if used[q]:
                    return None
                img[p] = q
                used[q] = 1
                defined.append(p)
            elif ip != q:
                return None
            p = tg[b][a]
            q = th[fb][fa]
            ip = img[p]
            if ip == -1:
                if used[q]:
                    return None
                img[p] = q
                used[q] = 1
                defined.append(p)
            elif ip != q:
                return None
        i += 1
    return img, len(defined)


def _index_two_kernel(G: FiniteGroup):
    """Element indices of an index-2 subgroup of G, or None if G has none.

    Every subgroup containing the squares is normal with an elementary
    abelian 2-group quotient, so growing the closure of the squares by each
    element, in index order, that keeps it proper ends at index 2.
    """
    table = G._table
    kernel = groups._closure(table, [table[a][a] for a in range(G.order)])
    if len(kernel) == G.order:
        return None
    for a in range(G.order):
        if a not in kernel:
            grown = groups._closure(table, list(kernel) + [a])
            if len(grown) < G.order:
                kernel = grown
    return kernel


@cache
def _closure_cases():
    """Groups with self-maps to draw pairs from.

    The maps are a few automorphisms, the trivial map, and (for even order)
    a map onto an involution through an index-2 subgroup: the last two are
    homomorphisms that are not injective.
    """
    groups = (
        dihedral(8),
        dicyclic(3),
        direct_product(cyclic(2, "a"), cyclic(4, "b")),
        from_permutations(["perm (1 2 3)", "perm (1 2)(3 4)"]),
        semidirect_cyclic(7, 3, 2),
        small_groups(24)[-1],
    )
    cases = []
    for G in groups:
        maps = [tuple(m) for m in automorphism_search(G)[:3]] + [(0,) * G.order]
        kernel = _index_two_kernel(G)
        if kernel is not None:
            t = next(a for a in range(G.order) if G.element_order(a) == 2)
            maps.append(tuple(0 if a in kernel else t for a in range(G.order)))
        cases.append((G, maps))
    return cases


class TestCloseGeneratorMap:
    def test_full_automorphism(self):
        G = dihedral(8)
        D, A, DA = G.generator("D"), G.generator("A"), G.generator("DA")
        res = close_generator_map(G, G, [(D.idx, D.idx), (A.idx, DA.idx)])
        assert res is not None
        img, covered = res
        assert covered == 8
        assert img[A.idx] == DA.idx

    def test_partial_map_reports_subgroup_size(self):
        G = dihedral(8)
        D = G.generator("D")
        res = close_generator_map(G, G, [(D.idx, D.idx)])
        assert res is not None
        _, covered = res
        assert covered == 4  # only the rotation subgroup is forced

    def test_order_clash_is_conflict(self):
        G = dihedral(8)
        D, A = G.generator("D"), G.generator("A")
        assert close_generator_map(G, G, [(D.idx, A.idx)]) is None

    def test_non_injective_is_conflict(self):
        G = dihedral(8)
        A, D2A = G.generator("A"), G.generator("D^2A")
        # both map to A: the product D^2 would need to map to 1
        res = close_generator_map(G, G, [(A.idx, A.idx), (D2A.idx, A.idx)])
        assert res is None

    def test_edge_cases_match_pairwise_reference(self):
        G = dihedral(8)
        D, A, DA = (G.generator(nm).idx for nm in ("D", "A", "DA"))
        cases = [
            ([], True),
            ([(0, 0), (D, D)], True),  # source 0 mapped to the identity
            ([(0, A)], False),  # source 0 mapped elsewhere
            ([(A, DA), (A, DA), (D, D)], True),  # repeated source, same image
            ([(A, DA), (D, D), (A, A)], False),  # repeated source, new image
            ([(D, 0), (A, A)], False),  # consistent, D in the kernel
            ([(A, A), (D, A)], False),  # inconsistent: orders differ
        ]
        for pairs, ok in cases:
            res = close_generator_map(G, G, pairs)
            assert res == _pairwise_close(G, G, pairs), pairs
            assert (res is not None) == ok, pairs

    @settings(PROPERTY_SETTINGS, max_examples=300)
    @given(st.data())
    def test_agrees_with_pairwise_reference(self, data):
        G, maps = data.draw(st.sampled_from(_closure_cases()))
        mapping = data.draw(st.sampled_from(maps))
        n = G.order
        sources = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
        pairs = [
            (a, data.draw(st.one_of(st.just(mapping[a]), st.integers(0, n - 1))))
            for a in sources
        ]
        assert close_generator_map(G, G, pairs) == _pairwise_close(G, G, pairs)


def _reference_image_candidates(G: FiniteGroup, H: FiniteGroup, src_idx: int):
    """Elements of H that could be the image of the given element of G.

    The (element order, class size) filter the search used before it
    compared square-root counts too, kept verbatim so that the reference
    does not change with the module's filter.
    """
    order = G.element_order(src_idx)
    size = G.class_size(src_idx)
    return [
        j
        for j in range(H.order)
        if H.element_order(j) == order and H.class_size(j) == size
    ]


def _reference_hom_search(G: FiniteGroup, H: FiniteGroup, constraint_pairs, limit=None):
    """Reference search: every node closes its whole assignment from scratch.

    This is ``_hom_search`` as it was before its nodes resumed their
    parent's walk, kept verbatim as the oracle for the result order.
    """
    if G.order == 1:
        return [[0]] if H.order >= 1 else []
    gen_idx = list(G._gen_idx)
    fixed = dict(constraint_pairs)
    levels = [(a, (b,)) for a, b in fixed.items() if a not in gen_idx]
    for g in gen_idx:
        if g in fixed:
            levels.append((g, (fixed[g],)))
        else:
            levels.append((g, tuple(_reference_image_candidates(G, H, g))))
    results = []
    assignment = []
    total_levels = len(levels)

    def dfs(level):
        if limit is not None and len(results) >= limit:
            return
        src, candidates = levels[level]
        last = level + 1 == total_levels
        for cand in candidates:
            assignment.append((src, cand))
            closed = close_generator_map(G, H, assignment)
            if closed is not None:
                img, covered = closed
                if last:
                    if covered == G.order:
                        results.append(img)
                else:
                    dfs(level + 1)
            assignment.pop()
            if limit is not None and len(results) >= limit:
                return

    dfs(0)
    return results


def _search_cases():
    """(G, H, constraint pairs, limit) as the automorphism and isomorphism
    searches pass them, over the catalog groups of order at most 24."""
    for n in range(1, 25):
        for G in small_groups(n):
            gens = G._gen_idx
            last = G.order - 1
            same_order = [j for j in range(G.order) if G.element_order(j) == G.element_order(last)]
            constraints = [[], [(last, same_order[0])], [(last, same_order[-1])]]
            if gens:
                # a pinned generator, alone and behind a pinned non-generator
                constraints += [[(gens[0], gens[-1])], [(last, last), (gens[0], gens[0])]]
            for pairs in constraints:
                for limit in (None, 1):
                    yield G, G, pairs, limit
        candidates = list(_reference_catalog_candidates(n, {}))
        for i, G in enumerate(candidates):
            for H in candidates[i:]:
                yield G, H, [], 1  # iso_search(G, H)


class TestHomSearch:
    def test_matches_reference_search(self):
        for G, H, pairs, limit in _search_cases():
            expected = _reference_hom_search(G, H, pairs, limit)
            got = groups._hom_search(G, H, pairs, limit)
            assert got == expected, (G.name, H.name, pairs, limit)

    def test_public_searches_match_reference(self, monkeypatch):
        def public_results():
            out = []
            for n in range(1, 25):
                catalog = small_groups(n)
                for G in catalog:
                    pin = {G.element(G.order - 1): G.element(G.order - 1)}
                    for constraint, limit in ((None, None), (pin, None), (None, 1), (pin, 1)):
                        out.append(automorphism_search(G, constraint, limit))
                    out.append([iso_search(G, H) for H in catalog])
            return out

        fresh = public_results()
        monkeypatch.setattr(groups, "_hom_search", _reference_hom_search)
        assert fresh == public_results()

    def test_automorphism_search_keeps_the_sorted_order(self):
        # automorphism_search used to sort its maps by generator images; the
        # search must already produce them in that order, with and without
        # a constraint and a limit
        for n in range(1, 25):
            for G in small_groups(n):
                last = G.element(G.order - 1)
                same_order = [j for j in range(G.order) if G.element_order(j) == last.order()]
                constraints = [None, {last: last}, {last: G.element(same_order[-1])}]
                for constraint in constraints:
                    pairs = [(a.idx, b.idx) for a, b in (constraint or {}).items()]
                    full = sorted(
                        _reference_hom_search(G, G, pairs),
                        key=lambda m: [m[g] for g in G._gen_idx],
                    )
                    assert automorphism_search(G, constraint) == full, (G.name, pairs)
                    assert automorphism_search(G, constraint, 1) == full[:1], (G.name, pairs)


class TestAutomorphisms:
    def test_cyclic_six(self):
        auts = automorphism_search(cyclic(6))
        assert len(auts) == 2

    def test_klein_four(self):
        G = direct_product(cyclic(2, gen_name="a"), cyclic(2, gen_name="b"))
        assert len(automorphism_search(G)) == 6

    def test_dihedral8(self):
        auts = automorphism_search(dihedral(8))
        assert len(auts) == 8
        identity_count = sum(1 for a in auts if a == list(range(8)))
        assert identity_count == 1

    def test_quaternion_type(self):
        assert len(automorphism_search(dicyclic(2))) == 24

    def test_constraint(self):
        G = dihedral(8)
        D = G.generator("D")
        pinned = automorphism_search(G, constraint={D: D})
        assert len(pinned) == 4
        assert all(a[D.idx] == D.idx for a in pinned)

    def test_deterministic_order(self):
        G = dihedral(12)
        first = automorphism_search(G)
        second = automorphism_search(G)
        assert first == second

    def test_composition_closure(self):
        G = dihedral(8)
        auts = automorphism_search(G)
        table_maps = {tuple(a) for a in auts}
        for a in auts:
            for b in auts:
                composed = tuple(a[b[i]] for i in range(G.order))
                assert composed in table_maps

    def test_preserves_character(self):
        G = dihedral(8)
        kappa = _reference_orientation(G, {"D": 1, "A": -1})
        auts = automorphism_search(G)
        preserving = [a for a in auts if all(kappa[a[i]] == kappa[i] for i in range(8))]
        # D -> D^{+-1}, A -> (rotation)*A all fix this character
        assert len(preserving) == 8

    def test_trivial_group(self):
        auts = automorphism_search(cyclic(1))
        assert auts == [[0]]


class TestIsomorphism:
    # drawn from by a property test; built once, not per example
    RELABELLED_POOL = [G for n in (6, 8, 12, 16, 18) for G in small_groups(n)]

    def test_same_order_different_groups(self):
        assert not is_isomorphic(dihedral(8), dicyclic(2))
        assert not is_isomorphic(cyclic(8), dihedral(8))
        assert not is_isomorphic(
            cyclic(8), direct_product(cyclic(4), cyclic(2))
        )

    def test_positive_cases(self):
        assert is_isomorphic(metacyclic(6, 5, 0), dihedral(12))
        assert is_isomorphic(
            from_permutations(["perm (1 2 3)", "perm (1 2)"]), dihedral(6)
        )
        assert is_isomorphic(semidirect_cyclic(5, 4, 4), dicyclic(5))

    def test_invariant_never_separates_isomorphic_candidates(self):
        # every pair of raw catalog candidates, duplicates included: the
        # invariant prefilter must never reject a pair the search accepts
        for n in (8, 12, 16, 24):
            candidates = list(_reference_catalog_candidates(n, {}))
            for i, G in enumerate(candidates):
                for H in candidates[i:]:
                    assert is_isomorphic(G, H) == bool(iso_search(G, H)), (G.name, H.name)

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(st.data())
    def test_relabelled_table_keeps_invariant(self, data):
        G = data.draw(st.sampled_from(self.RELABELLED_POOL))
        sigma = [0] + data.draw(st.permutations(range(1, G.order)))
        relabelled = from_table(_relabelled_text(G, sigma))
        assert relabelled._invariant() == G._invariant()
        assert is_isomorphic(G, relabelled) is True

    def test_iso_search_returns_bijection(self):
        maps = iso_search(dihedral_from_reflections(8), dihedral(8))
        assert maps
        img = maps[0]
        assert sorted(img) == list(range(8))


def _relabelled_text(G: FiniteGroup, sigma, generators=None) -> str:
    """``G``'s table in the ``from_table`` format with element a renamed
    sigma[a] (sigma[0] == 0), plus a ``generators`` line when given."""
    n = G.order
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[sigma[a]][sigma[b]] = sigma[G._table[a][b]]
    text = f"order {n}\n" + "\n".join(" ".join(map(str, row)) for row in rows)
    if generators is not None:
        text += "\ngenerators " + " ".join(map(str, generators))
    return text


# ---------------------------------------------------------------------------
# Subgroups and recognition.


def _is_normal(G, H) -> bool:
    """Whether every conjugate h a h^-1 of a member a stays in H."""
    return all(
        (h * G.element(a) * h.inverse()).idx in H
        for a in H
        for h in map(G.element, range(G.order))
    )


class TestSubgroups:
    def test_generated_subgroup(self):
        G = dihedral(8)
        H = G.subgroup([G.generator("D")])
        assert isinstance(H, frozenset)
        assert len(H) == 4
        assert G.order // len(H) == 2
        assert _is_normal(G, H)
        K = G.subgroup([G.generator("A")])
        assert len(K) == 2
        assert not _is_normal(G, K)


@dataclass(frozen=True)
class _ReferenceSubgroup:
    """``Subgroup`` as it was while it carried generators and a standalone
    reindexing, kept for the reference oracles below."""

    parent: FiniteGroup
    element_indices: frozenset
    generator_indices: tuple

    @property
    def order(self) -> int:
        return len(self.element_indices)

    def __contains__(self, e) -> bool:
        return e.group is self.parent and e.idx in self.element_indices

    def as_group(self, name: str = None) -> "FiniteGroup":
        """The subgroup reindexed as a standalone group (0 = identity).

        The result carries ``parent_indices`` (new index -> parent index) and
        ``from_parent`` (parent index -> new index).
        """
        parent = self.parent
        ordered = sorted(self.element_indices)
        if ordered[0] != 0:
            raise InvariantViolation("subgroup does not contain the identity")
        if len(groups._closure(parent._table, self.generator_indices)) != self.order:
            raise InvariantViolation("subgroup generators do not span its elements")
        new_of = {old: new for new, old in enumerate(ordered)}
        table = [[new_of[parent._table[a][b]] for b in ordered] for a in ordered]
        names = [parent._names[i] for i in ordered]
        gens = [new_of[i] for i in self.generator_indices]
        sub = FiniteGroup(
            table,
            names,
            gens,
            name=name or f"{parent.name}-sub{self.order}",
            verify=False,  # restriction of a verified table stays associative
        )
        sub.parent_indices = tuple(ordered)
        sub.from_parent = new_of
        return sub


def _reference_center(G: FiniteGroup) -> _ReferenceSubgroup:
    table = G._table
    n = G.order
    members = frozenset(
        a for a in range(n) if all(table[a][b] == table[b][a] for b in range(n))
    )
    return _ReferenceSubgroup(G, members, groups._small_generating_set(G._table, members))


def _reference_dihedral_witness(G: FiniteGroup):
    n = G.order
    if n % 2 or n < 6:
        return None
    half = n // 2
    table = G._table
    rotations = [i for i in range(n) if G.element_order(i) == half]
    for r in rotations:
        powers = groups._closure(table, [r])
        r_inv = G._inv[r]
        for s in range(1, n):
            if s in powers or G.element_order(s) != 2:
                continue
            if table[table[s][r]][s] == r_inv:
                return G.element(r), G.element(s)
    return None


def _reference_index_two_subgroups(G: FiniteGroup):
    """All index-2 subgroups, via the square-commutator kernel."""
    n = G.order
    table = G._table
    inv = G._inv
    gens = set()
    for a in range(n):
        gens.add(table[a][a])
        for b in range(a):
            gens.add(table[table[inv[a]][inv[b]]][table[a][b]])
    k_set = groups._closure(table, sorted(gens))
    if len(k_set) == n:
        return []
    coset_of, q_table = groups._quotient(table, k_set)
    # the quotient is elementary abelian of 2-power order; set up F2
    # coordinates and read off the index-2 subgroups as hyperplanes
    basis_bits = {0: 0}
    rank = 0
    for cid in range(len(q_table)):
        if cid in basis_bits:
            continue
        bit = 1 << rank
        rank += 1
        for known, vec in list(basis_bits.items()):
            combo = q_table[known][cid]
            if combo not in basis_bits:
                basis_bits[combo] = vec | bit
    subgroups = []
    for mask in range(1, 1 << rank):
        members = frozenset(
            a
            for a in range(n)
            if bin(basis_bits[coset_of[a]] & mask).count("1") % 2 == 0
        )
        subgroups.append(
            _ReferenceSubgroup(G, members, groups._small_generating_set(table, members))
        )
    subgroups.sort(key=lambda s: sorted(s.element_indices))
    return subgroups


def _reference_is_prime(p: int) -> bool:
    """The primality test the recognizer once ran, kept verbatim."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class _ReferenceStructure:
    """The record ``recognize`` returned before it returned a name: a named
    shape plus witnessing elements, kept for the reference oracle below."""

    kind: str
    order: int
    details: dict
    witness: dict

    def describe(self) -> str:
        if self.kind == "cyclic":
            return f"C{self.order}"
        if self.kind == "elementary-abelian":
            return f"C{self.details['prime']}^{self.details['rank']}"
        if self.kind == "dihedral":
            return f"dihedral of order {self.order}"
        if self.kind == "dihedral-x-c2":
            return f"dihedral of order {self.order // 2} x C2"
        inv = self.details.get("abelianization")
        tail = f", abelianization {inv}" if inv else ""
        return f"unrecognized group of order {self.order}{tail}"


def _reference_recognize(G: FiniteGroup) -> _ReferenceStructure:
    """The recognizer before the single witness search, kept verbatim: it
    finds dihedral x C2 by trying every (central involution, index-2
    subgroup) pair."""
    n = G.order
    orders = [G.element_order(i) for i in range(n)]
    if max(orders) == n:
        gen = G.element(orders.index(n)) if n > 1 else G.identity
        return _ReferenceStructure("cyclic", n, {}, {"generator": gen})
    if G.is_abelian():
        non_identity = sorted(set(orders[1:]))
        if len(non_identity) == 1 and _reference_is_prime(non_identity[0]):
            p = non_identity[0]
            rank, m = 0, n
            while m % p == 0:
                m //= p
                rank += 1
            if m == 1:
                basis = groups._small_generating_set(G._table, range(n))
                return _ReferenceStructure(
                    "elementary-abelian",
                    n,
                    {"prime": p, "rank": rank},
                    {"basis": tuple(G.element(i) for i in basis)},
                )
    witness = _reference_dihedral_witness(G)
    if witness is not None:
        r, s = witness
        return _ReferenceStructure(
            "dihedral", n, {"rotation_order": n // 2}, {"rotation": r, "reflection": s}
        )
    if n % 4 == 0:
        center = _reference_center(G)
        central_involutions = [
            G.element(i) for i in sorted(center.element_indices) if G.element_order(i) == 2
        ]
        halves = _reference_index_two_subgroups(G) if central_involutions else []
        # the witness depends on the subgroup only, and the first one found
        # is returned, so only the subgroups without one need remembering
        not_dihedral = set()
        for y in central_involutions:
            for k, H in enumerate(halves):
                if y in H or k in not_dihedral:
                    continue
                sub = H.as_group()
                w = _reference_dihedral_witness(sub)
                if w is None:
                    not_dihedral.add(k)
                    continue
                r_sub, s_sub = w
                to_parent = sub.parent_indices
                return _ReferenceStructure(
                    "dihedral-x-c2",
                    n,
                    {"dihedral_order": n // 2},
                    {
                        "central": y,
                        "rotation": G.element(to_parent[r_sub.idx]),
                        "reflection": G.element(to_parent[s_sub.idx]),
                    },
                )
    return _ReferenceStructure(
        "other",
        n,
        {"abelian": G.is_abelian(), "abelianization": list(abelianization(G))},
        {},
    )


def _assert_witness(G: FiniteGroup, s: _ReferenceStructure):
    """The witness of a dihedral shape proves it: <r, s> is dihedral of order
    2*half, all of G for "dihedral", and a central involution outside it
    completes G to a direct product for "dihedral-x-c2"."""
    if s.kind not in ("dihedral", "dihedral-x-c2"):
        return
    half = G.order // 2 if s.kind == "dihedral" else G.order // 4
    r, refl = s.witness["rotation"], s.witness["reflection"]
    assert r.order() == half and refl.order() == 2
    assert refl * r * refl == r ** -1
    H = G.subgroup([r, refl])
    assert len(H) == 2 * half
    if s.kind == "dihedral":
        assert len(H) == G.order
    else:
        y = s.witness["central"]
        assert y.order() == 2 and len(G.centralizer(y)) == G.order
        assert y.idx not in H


def _assert_matches_reference(G: FiniteGroup):
    ref = _reference_recognize(G)
    assert recognize(G) == ref.describe(), G.name
    _assert_witness(G, ref)


class TestRecognition:
    def test_cyclic(self):
        assert recognize(cyclic(7)) == "C7"
        assert _reference_recognize(cyclic(7)).witness["generator"].order() == 7

    def test_elementary_abelian(self):
        G = direct_product(
            cyclic(2, gen_name="a"),
            direct_product(cyclic(2, gen_name="b"), cyclic(2, gen_name="c")),
        )
        assert recognize(G) == "C2^3"

    def test_dihedral_with_witness(self):
        assert recognize(dihedral(12)) == "dihedral of order 12"
        s = _reference_recognize(dihedral(12))
        r, refl = s.witness["rotation"], s.witness["reflection"]
        assert r.order() == 6 and refl.order() == 2
        assert refl * r * refl == r ** -1

    def test_dihedral_x_c2(self):
        G = direct_product(dihedral(12), cyclic(2, gen_name="y"))
        assert recognize(G) == "dihedral of order 12 x C2"
        _assert_witness(G, _reference_recognize(G))

    def test_other(self):
        assert recognize(dicyclic(2)) == "unrecognized group of order 8, abelianization [2, 2]"

    def test_describe(self):
        assert recognize(cyclic(5)) == "C5"
        assert recognize(dihedral(16)) == "dihedral of order 16"

    def test_abelian_but_not_elementary_is_other_or_cyclic(self):
        s = recognize(direct_product(cyclic(4), cyclic(2)))
        assert s == "unrecognized group of order 8, abelianization [4, 2]"

    def test_edge_cases(self):
        other = "unrecognized group of order {}, abelianization {}"
        assert recognize(metacyclic(8, 3)) == other.format(16, [2, 2])  # semidihedral
        assert recognize(metacyclic(8, 5)) == other.format(16, [4, 2])  # modular
        # D(10) x C2 is dihedral: the C2 joins the odd rotation group
        d10_c2 = direct_product(dihedral(10), cyclic(2, gen_name="y"))
        assert recognize(d10_c2) == "dihedral of order 20"
        d8_c4 = direct_product(dihedral(8), cyclic(4, gen_name="y"))
        assert recognize(d8_c4) == other.format(32, [4, 2, 2])

    # 96 is the catalog pool of the exceptional search at genus 24
    @pytest.mark.parametrize("n", [*range(1, 101), 120])
    def test_matches_reference_on_catalog(self, n):
        for G in small_groups(n):
            _assert_matches_reference(G)

    @pytest.mark.parametrize("g", range(2, 31))
    def test_matches_reference_on_paper_groups(self, g):
        for G in (family_group(g), chain_target_group(g), cone_target_group(g)):
            _assert_matches_reference(G)


class TestAbelianization:
    def test_oracles(self):
        assert abelianization(dihedral(8)) == (2, 2)
        assert abelianization(dicyclic(2)) == (2, 2)
        assert abelianization(dicyclic(3)) == (4,)
        assert abelianization(cyclic(12)) == (12,)
        assert abelianization(direct_product(cyclic(6), cyclic(4))) == (12, 2)
        a4 = from_permutations(["perm (1 2 3)", "perm (1 2)(3 4)"])
        assert abelianization(a4) == (3,)
        s4 = from_permutations(["perm (1 2 3 4)", "perm (1 2)"])
        assert abelianization(s4) == (2,)
        a5 = from_permutations(["perm (1 2 3 4 5)", "perm (1 2 3)"])
        assert abelianization(a5) == ()

    def test_invariant_factor_chain(self):
        invariants = abelianization(direct_product(cyclic(6), cyclic(4)))
        for big, small in zip(invariants, invariants[1:]):
            assert big % small == 0


# ---------------------------------------------------------------------------
# Generator-based kernels against their all-elements references.


def _reference_class_index(G: FiniteGroup):
    """``FiniteGroup._class_index`` as it was when it conjugated every
    element by all n elements, kept verbatim as the oracle."""
    table = G._table
    inv = G._inv
    n = G.order
    class_of = [-1] * n
    classes = []
    for a in range(n):
        if class_of[a] >= 0:
            continue
        orbit = sorted({table[table[h][a]][inv[h]] for h in range(n)})
        cid = len(classes)
        for b in orbit:
            class_of[b] = cid
        classes.append(tuple(orbit))
    return classes, class_of


def _reference_abelianization(G: FiniteGroup) -> tuple:
    """``abelianization`` as it was when it formed all n^2/2 commutators and
    checked normality against every element, kept verbatim as the oracle."""
    table = G._table
    inv = G._inv
    n = G.order
    comm_gens = set()
    for a in range(n):
        for b in range(a):
            comm_gens.add(table[table[inv[a]][inv[b]]][table[a][b]])
    comm_gens.discard(0)
    if not comm_gens:
        return groups._abelian_invariants_from_table(table)
    k_set = frozenset(groups._closure(table, sorted(comm_gens)))
    if len(k_set) == n:
        return ()
    for h in k_set:
        for a in range(n):
            if table[table[a][h]][inv[a]] not in k_set:
                raise InvariantViolation("quotient by a non-normal subgroup")
    return groups._abelian_invariants_from_table(groups._quotient(table, k_set)[1])


def _reference_compute_inverses(table):
    """``FiniteGroup._compute_inverses`` as it was when it scanned each row
    entry by entry, kept verbatim (on a bare table) as the oracle."""
    n = len(table)
    inv = [-1] * n
    for i in range(n):
        row = table[i]
        for j in range(n):
            if row[j] == 0:
                if table[j][i] != 0:
                    raise GroupConstructionError(
                        f"element {i} has a right inverse that is not a left inverse"
                    )
                inv[i] = j
                break
        if inv[i] < 0:
            raise GroupConstructionError(f"element {i} has no inverse")
    return inv


def _assert_kernels_match_reference(G: FiniteGroup):
    assert G._class_index() == _reference_class_index(G), G.name
    assert abelianization(G) == _reference_abelianization(G), G.name
    assert G._inv == _reference_compute_inverses(G._table), G.name


def _inverse_outcome(compute):
    try:
        return "ok", compute()
    except GroupConstructionError as exc:
        return "error", str(exc)


def _assert_inverses_match_reference(table):
    names = [f"e{i}" for i in range(len(table))]
    got = _inverse_outcome(lambda: FiniteGroup(table, names, [], verify=False)._inv)
    assert got == _inverse_outcome(lambda: _reference_compute_inverses(table)), table


class TestKernelsMatchReference:
    # drawn from by a property test; built once, not per example
    RELABELLED_POOL = [G for n in (6, 8, 12, 16, 18, 24, 32) for G in small_groups(n)]

    @pytest.mark.parametrize("n", range(1, 97))
    def test_catalog(self, n):
        for G in small_groups(n):
            _assert_kernels_match_reference(G)

    @pytest.mark.parametrize("g", range(2, 31))
    def test_paper_groups(self, g):
        for G in (family_group(g), chain_target_group(g), cone_target_group(g)):
            _assert_kernels_match_reference(G)

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(st.data())
    def test_relabelled_tables(self, data):
        G = data.draw(st.sampled_from(self.RELABELLED_POOL))
        n = G.order
        sigma = [0] + data.draw(st.permutations(range(1, n)))
        generators = None
        if data.draw(st.booleans()):
            # G's generators under the relabelling, padded with arbitrary
            # elements: a redundant generating set, identity allowed
            extra = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
            generators = [sigma[g] for g in G._gen_idx] + extra
        _assert_kernels_match_reference(from_table(_relabelled_text(G, sigma, generators)))

    def test_tables_without_two_sided_inverses(self):
        cases = [
            [[0, 1], [1, 1]],  # element 1 has no inverse
            [[0, 1, 2], [1, 2, 0], [2, 2, 1]],  # 1*2 = 0 but 2*1 != 0
            [[0, 1, 2], [1, 1, 1], [2, 0, 1]],  # 1 has none, 2 a one-sided one
            [[0, 1, 2], [1, 2, 0], [2, 2, 2]],  # 1 one-sided, 2 has none
            [[0, 1, 2], [1, 0, 0], [2, 1, 0]],  # two zeros in a row: first wins
        ]
        for table in cases:
            _assert_inverses_match_reference(table)

    @settings(PROPERTY_SETTINGS, max_examples=200)
    @given(st.data())
    def test_random_tables(self, data):
        n = data.draw(st.integers(1, 5))
        rows = [list(range(n))] + [
            data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            for _ in range(n - 1)
        ]
        _assert_inverses_match_reference(rows)


# ---------------------------------------------------------------------------
# Catalog.

# Standard census: number of isomorphism types for each order at which the
# catalog claims completeness.
CENSUS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
    11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 20: 5, 21: 2, 22: 2, 25: 2,
    26: 2, 28: 4, 30: 4, 33: 1, 34: 2, 35: 1,
}


# The catalog's structure at these orders, as a sha256 of the JSON list of
# every group's [name, element names, generators, table] (see
# test_structure_digest); it changes only when a construction changes.
STRUCTURE_ORDERS = (8, 12, 16, 24, 32, 36, 40, 48, 56, 60, 64, 72, 80, 84, 96)
STRUCTURE_DIGEST = "3926886c27907e0ef71ef338ca453ba0eb6d7cbe9964e87c637b7696dc12fb7d"
# The same at the two orders where most direct products are skipped, as
# computed before the skip existed.
LARGE_STRUCTURE_ORDERS = (120, 240)
LARGE_STRUCTURE_DIGEST = "572fa569ffb33c6b464f480f64eb8ed38162740b035b900b3f73c53324379d0a"


def _structure_digest(orders) -> str:
    items = [
        [G.name, list(G._names), list(G._gen_idx), [list(row) for row in G._table]]
        for n in orders
        for G in small_groups(n)
    ]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def _reference_catalog_candidates(n: int, memo: dict):
    """The candidate stream as it was before products were skipped by their
    factor multisets, kept verbatim as the oracle: every construction of
    order n, duplicates included, in order, with factors from
    ``_reference_distinct_groups``."""
    yield from groups._abelian_groups(n)
    if n % 2 == 0 and n >= 6:
        yield dihedral(n)
    if n % 4 == 0 and n >= 8:
        yield dicyclic(n // 4)
    for a in divisors_of(n):
        b = n // a
        if a < 3 or b < 2:
            continue
        for t in range(2, a):
            if groups.gcd(t, a) == 1 and pow(t, b, a) == 1:
                try:
                    yield semidirect_cyclic(a, b, t)
                except GroupConstructionError:
                    pass
    if n == 12:
        yield from_permutations(["perm (1 2 3)", "perm (1 2)(3 4)"])
    if n == 24:
        yield from_permutations(["perm (1 2 3 4)", "perm (1 2)"])
    if n == 60:
        yield from_permutations(["perm (1 2 3 4 5)", "perm (1 2 3)"])
    for a in divisors_of(n):
        b = n // a
        if a < 2 or b < 2 or a > b:
            continue
        for G1 in _reference_distinct_groups(a, memo):
            for G2 in _reference_distinct_groups(b, memo):
                if G1.is_abelian() and G2.is_abelian():
                    continue  # _abelian_groups(n) yielded every abelian group
                try:
                    yield direct_product(G1, G2)
                except GroupConstructionError:
                    pass


def _reference_distinct_groups(n: int, memo: dict) -> list:
    """The first of each isomorphism type of the reference stream."""
    if n not in memo:
        distinct = []
        for G in _reference_catalog_candidates(n, memo):
            if not any(is_isomorphic(G, H) for H in distinct):
                distinct.append(G)
        memo[n] = distinct
    return memo[n]


def _structure(G: FiniteGroup) -> tuple:
    return G.name, G._gen_idx, [tuple(row) for row in G._table]


def _prime_exponents(n: int) -> list:
    exponents = []
    p = 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            exponents.append(e)
        p += 1
    return exponents


@cache
def _partition_count(k: int, largest: int = None) -> int:
    """Number of partitions of k into parts of size at most ``largest``."""
    largest = k if largest is None else largest
    if k == 0:
        return 1
    return sum(_partition_count(k - part, part) for part in range(1, min(k, largest) + 1))


class TestSmallGroups:
    def test_abelian_groups_complete(self):
        # the catalog skips abelian x abelian products because this list
        # already holds every abelian group: one per choice of a partition
        # of each prime exponent of n
        for n in range(1, 129):
            found = groups._abelian_groups(n)
            expected = 1
            for e in _prime_exponents(n):
                expected *= _partition_count(e)
            assert len(found) == expected, n
            assert all(G.order == n and G.is_abelian() for G in found), n
            for i, G in enumerate(found):
                for H in found[i + 1:]:
                    assert not is_isomorphic(G, H), (G.name, H.name)

    def test_no_abelian_products_among_candidates(self):
        candidates = list(_reference_catalog_candidates(96, {}))
        assert len(candidates) == 136
        abelian = [G.name for G in candidates if G.is_abelian()]
        assert abelian == [G.name for G in groups._abelian_groups(96)]

    def test_built_candidate_counts(self):
        # products whose factor multiset an earlier product had are not
        # built: 88 of the reference stream's 136 candidates at order 96
        built = {n: sum(1 for _ in groups._catalog_candidates(n, {})) for n in (24, 48, 96)}
        reference = {n: sum(1 for _ in _reference_catalog_candidates(n, {})) for n in built}
        assert built == {24: 18, 48: 43, 96: 88}
        assert reference == {24: 19, 48: 53, 96: 136}

    def test_matches_the_reference_catalog(self):
        memo = {}
        for n in [*range(1, 65), 96]:
            got = [_structure(G) for G in small_groups(n)]
            assert got == [_structure(G) for G in _reference_distinct_groups(n, memo)], n

    def test_skipped_products_are_isomorphic_to_earlier_candidates(self):
        # the new stream is the reference stream with some products left
        # out; each one left out is isomorphic to a candidate built before it
        for n in (24, 48, 72, 96):
            built = [G for G, _ in groups._catalog_candidates(n, {})]
            earlier = []
            skipped = 0
            for G in _reference_catalog_candidates(n, {}):
                if len(earlier) < len(built) and _structure(G) == _structure(built[len(earlier)]):
                    earlier.append(G)
                    continue
                assert " x " in G.name and not G.is_abelian(), (n, G.name)
                assert any(is_isomorphic(G, H) for H in earlier), (n, G.name)
                skipped += 1
            assert len(earlier) == len(built), n
            assert skipped > 0, n

    def test_structure_digest(self):
        assert _structure_digest(STRUCTURE_ORDERS) == STRUCTURE_DIGEST

    def test_structure_digest_at_large_orders(self):
        assert _structure_digest(LARGE_STRUCTURE_ORDERS) == LARGE_STRUCTURE_DIGEST

    def test_census_at_complete_orders(self):
        assert set(CENSUS) == set(COMPLETE_CATALOG_ORDERS)
        for n, expected in sorted(CENSUS.items()):
            assert len(small_groups(n)) == expected, f"order {n}"

    def test_catalog_sizes_at_incomplete_orders(self):
        # the catalog's own counts (not the census) at orders it does not
        # claim to cover; a change here means the construction list or the
        # isomorphism dedup changed
        sizes = {32: 24, 48: 31, 64: 51, 96: 69}
        assert not set(sizes) & COMPLETE_CATALOG_ORDERS
        assert {n: len(small_groups(n)) for n in sizes} == sizes

    def test_pairwise_non_isomorphic(self):
        for n in (8, 12, 20):
            groups = small_groups(n)
            for i, G in enumerate(groups):
                for H in groups[i + 1:]:
                    assert not is_isomorphic(G, H)

    def test_all_have_right_order(self):
        for n in (8, 12, 16, 20, 24):
            assert all(G.order == n for G in small_groups(n))

    def test_order_eight_contents(self):
        kinds = sorted(recognize(G) for G in small_groups(8))
        assert "C8" in kinds
        assert "dihedral of order 8" in kinds

    def test_divisors(self):
        assert divisors_of(12) == [1, 2, 3, 4, 6, 12]
        assert divisors_of(1) == [1]
        assert divisors_of(7) == [1, 7]
