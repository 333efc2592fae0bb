"""Tests for generating-vector search and classification.

Reference facts used as oracles: the dihedral main-family vector
(A, D^(g+1)A, D^g, D); the order-12 cyclic vector (a^4, a^3, a^5) on periods
(3,4,12); emptiness of (5,5,5) over every group of order 20 (both order-5
images would sit inside the unique normal Sylow-5 subgroup and could never
generate).
"""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourg import actions
from fourg.errors import InvariantViolation
from fourg.groups import (
    FiniteGroup,
    _automorphism_count,
    _closure,
    automorphism_search,
    cyclic,
    dicyclic,
    dihedral,
    from_table,
    is_isomorphic,
    recognize,
    small_groups,
)
from fourg.actions import (
    ActionClass,
    GeneratingVector,
    _cayley_key,
    braid_move,
    canonical_vector,
    classify,
    eliminate_cases,
    exceptional_search,
    family_group,
    kernel_genus,
    main_action_class,
    smooth_vectors,
)
from fourg.signatures import (
    TAG_QUADRUPLE,
    TAG_SPORADIC,
    enumerate_4g_signatures,
    parse_signature,
)

PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)


class TestGeneratingVector:
    def test_canonical_vector_is_valid(self):
        for g in (2, 3, 5, 8):
            v = canonical_vector(g)
            assert v.periods == (2, 2, 2, 2 * g)
            assert str(v).startswith("(A, ")

    def test_product_must_be_identity(self):
        G = dihedral(8)
        D, A = G.generator("D"), G.generator("A")
        with pytest.raises(InvariantViolation):
            GeneratingVector(G, (2, 2), (A, D * A))

    def test_orders_must_match_periods(self):
        G = dihedral(8)
        D = G.generator("D")
        with pytest.raises(InvariantViolation):
            GeneratingVector(G, (2, 2), (D * D, D * D))  # order 2 but claims ok?
        with pytest.raises(InvariantViolation):
            GeneratingVector(G, (4, 2), (D, D.inverse()))

    def test_images_must_generate(self):
        G = dihedral(8)
        D = G.generator("D")
        with pytest.raises(InvariantViolation):
            GeneratingVector(G, (4, 4), (D, D.inverse()))

    def test_wrong_group_rejected(self):
        G, H = dihedral(8), dihedral(8)
        with pytest.raises(InvariantViolation):
            GeneratingVector(G, (2, 2), (G.generator("A"), H.generator("A")))


class TestSmoothVectors:
    def test_contains_reference_dihedral_vector(self):
        v = canonical_vector(2)
        found = smooth_vectors(v.group, (2, 2, 2, 4))
        assert v.indices in found

    def test_cyclic_12_triple(self):
        G = cyclic(12, gen_name="a")
        found = smooth_vectors(G, (3, 4, 12))
        a = G.generator("a")
        target = (a ** 4, a ** 3, a ** 5)
        assert tuple(e.idx for e in target) in found
        for u in found:
            assert [G.element_order(i) for i in u] == [3, 4, 12]

    def test_no_order20_group_admits_555(self):
        for G in small_groups(20):
            assert smooth_vectors(G, (5, 5, 5)) == []

    def test_non_divisor_period_empty(self):
        assert smooth_vectors(dihedral(8), (3, 3, 3)) == []

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            smooth_vectors(dihedral(8), (1, 2, 2))

    def test_sorted_deterministic(self):
        G = dihedral(12)
        first = smooth_vectors(G, (2, 2, 2, 6))
        second = smooth_vectors(G, (2, 2, 2, 6))
        assert first == second
        assert first == sorted(first)


class TestBraidMove:
    def test_reference_example(self):
        # (A, D^3A, D^2, D) at position 3 -> (A, D^3A, D, D^2)
        v = canonical_vector(2)
        G = v.group
        D, A = G.generator("D"), G.generator("A")
        moved = braid_move(v, 3)
        assert moved.images == (A, D ** 3 * A, D, D ** 2)

    def test_preserves_invariants(self):
        v = canonical_vector(3)
        for i in (1, 2, 3):
            m = braid_move(v, i)
            assert sorted(m.periods) == sorted(v.periods)
            prod = m.group.identity
            for e in m.images:
                prod = prod * e
            assert prod == m.group.identity

    def test_inverse_pair(self):
        v = canonical_vector(3)
        # braid then its inverse (three braids realize the inverse up to...)
        m = braid_move(v, 1)
        cls = main_action_class(3)
        assert cls.contains(v.images) and cls.contains(m.images)

    def test_out_of_range(self):
        v = canonical_vector(2)
        with pytest.raises(IndexError):
            braid_move(v, 0)
        with pytest.raises(IndexError):
            braid_move(v, 4)


def _vector(G: FiniteGroup, indices) -> GeneratingVector:
    """The generating vector on an index tuple, its periods read off the
    orders of its entries."""
    images = tuple(G.element(i) for i in indices)
    return GeneratingVector(G, tuple(e.order() for e in images), images)


class TestClassify:
    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_unique_dihedral_class(self, g):
        classes = classify(family_group(g), (2, 2, 2, 2 * g))
        assert len(classes) == 1
        assert classes[0].contains(canonical_vector(g).images)

    @pytest.mark.parametrize("g", [2, 4, 5])
    def test_unique_cyclic_class(self, g):
        classes = classify(cyclic(4 * g), (2, 4 * g, 4 * g))
        assert len(classes) == 1

    def test_period_order_irrelevant(self):
        G = family_group(2)
        a = classify(G, (2, 2, 2, 4))
        b = classify(G, (4, 2, 2, 2))
        assert [(c.members.keys(), c.size) for c in a] == [
            (c.members.keys(), c.size) for c in b
        ]

    def test_non_divisor_empty(self):
        assert classify(dihedral(8), (3, 3, 3)) == []

    def test_size_is_aut_count_times_keys_and_no_map_is_kept(self):
        G = dihedral(12)
        classes = classify(G, (2, 2, 2, 6))
        n_aut = len(automorphism_search(G))
        assert n_aut == 12  # |Aut(D_6)| = 6 * phi(6)
        assert [c.size for c in classes] == [n_aut * len(c.members) for c in classes]
        # the group holds its table and index caches only: no automorphism
        # list, no automorphism count and no element objects
        assert set(vars(G)) == {
            "_table", "_names", "name", "_gen_idx", "_inv", "_name_to_idx",
            "_orders", "_classes", "_class_of", "_invariant_counts",
        }

    def test_orbit_covers_all_vectors(self):
        # every vector lies in exactly one class, also with several classes
        for G, periods in (
            (family_group(3), (2, 2, 2, 6)),
            (cyclic(7), (7, 7, 7)),
            (cyclic(5), (5, 5, 5, 5)),
        ):
            classes = classify(G, periods)
            for t in _reference_smooth_vectors(G, periods):
                v = _vector(G, t)
                assert sum(c.contains(v.images) for c in classes) == 1, (G.name, t)

    def test_main_action_class_cached_and_checked(self):
        cls = main_action_class(4)
        again = main_action_class(4)
        assert (again.members, again.size) == (cls.members, cls.size)
        assert cls.size > 0
        assert cls.contains(canonical_vector(4).images)

    def test_cross_group_membership(self):
        # the same action seen in an isomorphic copy of the group
        cls = main_action_class(2)
        H = dicyclic(2)  # wrong group entirely
        assert not any(
            cls.contains(_vector(H, t).images)
            for t in smooth_vectors(H, (4, 4, 4))
        )


# ---------------------------------------------------------------------------
# Reference: classification by stored orbits under braid moves and a
# generating set of Aut(G), as the engine did before Cayley keys.  Copied
# verbatim except that smooth_vectors now returns index tuples and the
# classes come back as (representative indices, orbit) pairs.  The vectors
# come from the full enumerator the engine used before it started vectors
# only at conjugacy-class minima, copied verbatim.


def _reference_smooth_vectors(G: FiniteGroup, periods):
    """All generating vectors on the given ordered periods, as index tuples.

    The tuples are sorted.  Returns [] when some period does not divide the
    group order.  The last entry is solved from the product-one constraint
    rather than searched, and generation is checked once, at that leaf; wrap
    a tuple in ``_vector`` to work with its elements.
    """
    periods = tuple(int(m) for m in periods)
    if any(m < 2 for m in periods):
        raise ValueError("periods must be at least 2")
    if len(periods) < 2:
        return []
    if any(G.order % m for m in periods):
        return []
    by_order = {
        m: [i for i in range(G.order) if G.element_order(i) == m]
        for m in set(periods)
    }
    r = len(periods)
    table = G._table
    n = G.order
    last_period = periods[-1]
    tuples = []

    def dfs(pos, prefix, prod):
        if pos == r - 1:
            last = G._inv[prod]
            if G.element_order(last) != last_period:
                return
            tup = prefix + (last,)
            if len(_closure(G._table, tup)) == n:
                tuples.append(tup)
            return
        for c in by_order[periods[pos]]:
            dfs(pos + 1, prefix + (c,), table[prod][c])

    for c in by_order[periods[0]]:
        dfs(1, (c,), c)
    tuples.sort()
    return tuples


def _reference_aut_generator_maps(G: FiniteGroup):
    """A small generating set of Aut(G), as index mappings (cached on G)."""
    cached = getattr(G, "_aut_gen_maps", None)
    if cached is not None:
        return cached
    maps = [tuple(m) for m in automorphism_search(G)]
    identity = tuple(range(G.order))
    gens = []
    span = {identity}
    for m in maps:
        if m in span:
            continue
        gens.append(m)
        frontier = list(span)
        while frontier:
            f = frontier.pop()
            for gmap in gens:
                comp = tuple(gmap[f[i]] for i in range(len(f)))
                if comp not in span:
                    span.add(comp)
                    frontier.append(comp)
        if len(span) == len(maps):
            break
    G._aut_gen_maps = gens
    return gens


def _reference_orbit(G: FiniteGroup, start: tuple) -> frozenset:
    """Closure of one vector under braid moves and automorphisms of G."""
    table = G._table
    inv = G._inv
    aut_maps = _reference_aut_generator_maps(G)
    r = len(start)
    seen = {start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        neighbors = []
        for i in range(r - 1):
            a, b = t[i], t[i + 1]
            neighbors.append(t[:i] + (table[table[a][b]][inv[a]], a) + t[i + 2 :])
            neighbors.append(t[:i] + (b, table[table[inv[b]][a]][b]) + t[i + 2 :])
        for m in aut_maps:
            neighbors.append(tuple(m[x] for x in t))
        for nb in neighbors:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return frozenset(seen)


def _reference_classify(G: FiniteGroup, periods):
    base = tuple(sorted(int(m) for m in periods))
    vectors = _reference_smooth_vectors(G, base)
    unseen = set(vectors)
    all_tuples = set(unseen)
    classes = []
    while unseen:
        seed = min(unseen)
        orbit = _reference_orbit(G, seed)
        stray = {
            t
            for t in orbit
            if tuple(G.element_order(i) for i in t) == base and t not in all_tuples
        }
        if stray:
            raise InvariantViolation(
                "orbit left the enumerated vector set; the search was not exhaustive"
            )
        unseen -= orbit
        rep = min(
            t for t in orbit if tuple(G.element_order(i) for i in t) == base
        )
        classes.append((rep, orbit))
    classes.sort(key=lambda c: c[0])
    return classes


def _reference_cases():
    """(id, groups, periods) for the comparison with the reference."""
    cases = [(f"family-{g}", lambda g=g: [family_group(g)], (2, 2, 2, 2 * g)) for g in range(2, 9)]
    cases += [(f"cyclic-{g}", lambda g=g: [cyclic(4 * g)], (2, 4 * g, 4 * g)) for g in range(2, 6)]
    for n in (12, 24, 36):
        for sig, tag in enumerate_4g_signatures(n // 4):
            if tag in (TAG_QUADRUPLE, TAG_SPORADIC):
                periods = sig.proper_periods
                cases.append((f"catalog-{n}-{periods}", lambda n=n: small_groups(n), periods))
    # several classes on one signature
    cases.append(("C7-777", lambda: [cyclic(7)], (7, 7, 7)))
    cases.append(("C5-5555", lambda: [cyclic(5)], (5, 5, 5, 5)))
    return cases


REFERENCE_CASES = _reference_cases()


class TestKeyClassification:
    @pytest.mark.parametrize(
        "groups, periods",
        [case[1:] for case in REFERENCE_CASES],
        ids=[case[0] for case in REFERENCE_CASES],
    )
    def test_matches_reference(self, groups, periods):
        base = tuple(sorted(periods))
        for G in groups():
            classes = classify(G, periods)
            reference = _reference_classify(G, periods)
            assert len(classes) == len(reference), G.name
            for cls, (_, orbit) in zip(classes, reference):
                assert cls.size == len(orbit)
                for t in orbit:
                    if tuple(G.element_order(i) for i in t) == base:
                        assert cls.contains(_vector(G, t).images)

    @pytest.mark.parametrize(
        "groups, periods",
        [case[1:] for case in REFERENCE_CASES],
        ids=[case[0] for case in REFERENCE_CASES],
    )
    def test_class_minima_count_every_vector(self, groups, periods):
        for G in groups():
            classes, class_of = G._class_index()
            reference = _reference_smooth_vectors(G, periods)
            found = smooth_vectors(G, periods)
            assert found == [t for t in reference if classes[class_of[t[0]]][0] == t[0]]
            assert sum(G.class_size(t[0]) for t in found) == len(reference), G.name

    def test_main_class_keys_and_sizes(self):
        sizes = [96, 144, 384, 480, 576, 1008, 1536, 1296, 1920, 2640, 2304]
        for g, size in zip(range(2, 13), sizes):
            cls = main_action_class(g)
            assert len(cls.members) == 12, g
            assert cls.size == size, g
            # each key keeps a member tuple of the class that has that key
            table = cls.group._table
            assert all(_cayley_key(table, t) == key for key, t in cls.members.items())

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(st.data())
    def test_key_survives_relabelling(self, data):
        g = data.draw(st.integers(2, 6))
        G = family_group(g)
        n = G.order
        sigma = [0] + data.draw(st.permutations(range(1, n)))  # old -> new, 0 fixed
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                rows[sigma[a]][sigma[b]] = sigma[G._table[a][b]]
        H = from_table(f"order {n}\n" + "\n".join(" ".join(map(str, row)) for row in rows))
        t = data.draw(st.sampled_from(smooth_vectors(G, (2, 2, 2, 2 * g))))
        image = tuple(sigma[i] for i in t)
        assert _cayley_key(H._table, image) == _cayley_key(G._table, t)
        canonical = tuple(sigma[i] for i in canonical_vector(g).indices)
        assert main_action_class(g).contains(_vector(H, canonical).images)

    @staticmethod
    def _assert_not_exhaustive(monkeypatch, edit):
        # the dihedral group of order 12 on (2,2,2,2) has 253 product-one
        # tuples but 144 generating vectors, so the count never closes and
        # the search runs to its end, where the enumerated total is checked
        complete = actions._vector_iter
        monkeypatch.setattr(
            actions, "_vector_iter", lambda G, p: iter(edit(list(complete(G, p))))
        )
        with pytest.raises(InvariantViolation, match="not exhaustive"):
            classify(dihedral(12), (2, 2, 2, 2))

    def test_dropped_vector_is_not_exhaustive(self, monkeypatch):
        # dropping one vector breaks the count: the classes still hold it and
        # its conjugates, so they add up to more than the search counts
        self._assert_not_exhaustive(
            monkeypatch, lambda ts: ts[: len(ts) // 2] + ts[len(ts) // 2 + 1 :]
        )

    def test_duplicated_vector_is_not_exhaustive(self, monkeypatch):
        # a vector listed twice makes the search count more than the classes hold
        self._assert_not_exhaustive(
            monkeypatch, lambda ts: sorted(ts + ts[len(ts) // 2 : len(ts) // 2 + 1])
        )


def _two_move_orbit_keys(G: FiniteGroup, start: tuple) -> set:
    """Cayley keys of start's braid orbit, walked along every move
    (a, b) -> (a b a^-1, a) and its inverse (a, b) -> (b, b^-1 a b)."""
    table = G._table
    inv = G._inv
    keys = {_cayley_key(table, start)}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for i in range(len(t) - 1):
            a, b = t[i], t[i + 1]
            for nb in (
                t[:i] + (table[table[a][b]][inv[a]], a) + t[i + 2 :],
                t[:i] + (b, table[table[inv[b]][a]][b]) + t[i + 2 :],
            ):
                key = _cayley_key(table, nb)
                if key not in keys:
                    keys.add(key)
                    frontier.append(nb)
    return keys


class TestForwardOrbitWalk:
    """The orbit walk follows forward moves only; the inverse moves must
    reach no key it misses."""

    @pytest.mark.parametrize("g", range(2, 31))
    def test_main_class_keys(self, g):
        cls = main_action_class(g)
        start = next(iter(cls.members.values()))
        assert set(cls.members) == _two_move_orbit_keys(cls.group, start)

    @pytest.mark.parametrize("g", (3, 6))
    def test_special_signature_class_keys(self, g):
        checked = 0
        for sig, tag in enumerate_4g_signatures(g):
            if tag not in (TAG_QUADRUPLE, TAG_SPORADIC):
                continue
            for G in small_groups(4 * g):
                for cls in classify(G, sig.proper_periods):
                    start = next(iter(cls.members.values()))
                    assert set(cls.members) == _two_move_orbit_keys(G, start), G.name
                    checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# Reference: classification by the full enumeration and the listed
# automorphism group, as the engine did before the count certificate.
# Copied verbatim.


def _reference_classify_enumerated(G: FiniteGroup, periods):
    """Equivalence classes of generating vectors on the given period multiset.

    Classes are orbits under braid moves (which realize every permutation of
    equal periods) together with Aut(G), walked as braid orbits on Cayley
    keys.  Each class is seeded by the smallest enumerated vector whose key
    no class holds yet, and stores only its keys and its member count.
    |Aut(G)| times the keys with ascending periods, summed over the classes,
    must equal the vector count of ``smooth_vectors``, or the search was not
    exhaustive.  The output is deterministic and independent of the order
    of ``periods``.
    """
    base = tuple(sorted(int(m) for m in periods))
    vectors = smooth_vectors(G, base)
    if not vectors:
        return []
    total = sum(G.class_size(t[0]) for t in vectors)
    n_aut = len(automorphism_search(G))
    counted = 0
    classes = []
    for seed in vectors:
        if counted == total:
            break
        if any(_cayley_key(G._table, seed) in c.members for c in classes):
            continue
        members = actions._orbit(G, seed)
        counted += n_aut * sum(
            tuple(G.element_order(i) for i in t) == base for t in members.values()
        )
        classes.append(ActionClass(G, members, n_aut * len(members)))
    if counted != total:
        raise InvariantViolation(
            f"classes count {counted} of {total} vectors; the search was not exhaustive"
        )
    return classes


def _brute_product_one_count(G: FiniteGroup, periods) -> int:
    """Tuples with entries of the given orders and product one, by listing."""
    count = 0
    for t in itertools.product(
        *[[i for i in range(G.order) if G.element_order(i) == m] for m in periods]
    ):
        prod = 0
        for i in t:
            prod = G._table[prod][i]
        count += prod == 0
    return count


def _phi(n: int) -> int:
    return sum(gcd(k, n) == 1 for k in range(1, n + 1))


def _class_summary(classes):
    return [(c.members.keys(), c.size) for c in classes]


class TestCountCertificate:
    @pytest.mark.parametrize("g", range(2, 31))
    def test_family_matches_enumeration(self, g):
        G = family_group(g)
        periods = (2, 2, 2, 2 * g)
        assert _class_summary(classify(G, periods)) == _class_summary(
            _reference_classify_enumerated(G, periods)
        )

    @pytest.mark.parametrize(
        "groups, periods",
        [case[1:] for case in REFERENCE_CASES],
        ids=[case[0] for case in REFERENCE_CASES],
    )
    def test_reference_cases_match_enumeration(self, groups, periods):
        for G in groups():
            assert _class_summary(classify(G, periods)) == _class_summary(
                _reference_classify_enumerated(G, periods)
            ), G.name

    def test_automorphism_count_on_catalog(self):
        for n in range(1, 25):
            for G in small_groups(n):
                assert _automorphism_count(G) == len(automorphism_search(G)), G.name

    @pytest.mark.parametrize("g", range(2, 31))
    def test_automorphism_count_on_family(self, g):
        G = family_group(g)
        assert _automorphism_count(G) == len(automorphism_search(G)) == 2 * g * _phi(2 * g)

    @pytest.mark.parametrize(
        "group, periods, generating",
        [
            (dihedral(6), (2, 2, 3), True),
            (dihedral(8), (2, 2, 2, 4), True),
            (dihedral(8), (2, 2, 2, 2), False),
            (dihedral(12), (2, 2, 2, 2), False),
            (dihedral(12), (2, 2, 6), True),
            (cyclic(6), (2, 3, 6), True),
            (cyclic(6), (3, 3, 3), False),
            (cyclic(5), (5, 5, 5, 5), True),
            (dicyclic(2), (4, 4, 4), True),
            (dicyclic(2), (4, 4, 4, 4), False),
            (dicyclic(3), (3, 4, 4), True),
        ],
        ids=["D3-223", "D4-2224", "D4-2222", "D6-2222", "D6-226", "C6-236",
             "C6-333", "C5-5555", "Q8-444", "Q8-4444", "Dic3-344"],
    )
    def test_product_one_count_matches_brute_force(self, group, periods, generating):
        count = actions._product_one_count(group, periods)
        assert count == _brute_product_one_count(group, periods)
        weighted = sum(group.class_size(t[0]) for t in smooth_vectors(group, periods))
        # the count includes the tuples that do not generate
        assert (count == weighted) == generating, (count, weighted)

    def test_product_one_count_needs_two_periods(self):
        assert actions._product_one_count(cyclic(4), (2,)) == 0

    @staticmethod
    def _record_seeds(monkeypatch) -> list:
        """Patch the vector search to record each seed ``classify`` draws."""
        drawn = []
        complete = actions._vector_iter

        def recording(G, periods):
            for t in complete(G, periods):
                drawn.append(t)
                yield t

        monkeypatch.setattr(actions, "_vector_iter", recording)
        return drawn

    def test_several_classes_stop_early(self, monkeypatch):
        # 52 product-one tuples, all generating, in 3 classes: the count
        # closes on the third class, before the search is used up
        G = cyclic(5)
        assert actions._product_one_count(G, (5, 5, 5, 5)) == 52
        vectors = smooth_vectors(G, (5, 5, 5, 5))
        assert sum(G.class_size(t[0]) for t in vectors) == 52
        drawn = self._record_seeds(monkeypatch)
        assert len(classify(G, (5, 5, 5, 5))) == 3
        assert 3 <= len(drawn) < len(vectors)

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize(
        "group, periods",
        [(family_group(5), (2, 2, 2, 10)), (cyclic(5), (5, 5, 5, 5)),
         (dihedral(12), (2, 2, 2, 2))],
        ids=["family-5", "C5-5555", "D6-2222"],
    )
    def test_wrong_count_falls_back_to_enumeration(self, monkeypatch, group, periods, delta):
        expected = _class_summary(classify(group, periods))
        count = actions._product_one_count
        monkeypatch.setattr(
            actions, "_product_one_count", lambda G, p: count(G, p) + delta
        )
        assert _class_summary(classify(group, periods)) == expected

    def test_main_family_stops_at_first_seed_without_listing_aut(self, monkeypatch):
        drawn = self._record_seeds(monkeypatch)

        def no_listing(*args, **kwargs):
            raise AssertionError("automorphisms listed")

        monkeypatch.setattr(actions, "automorphism_search", no_listing)
        classes = classify(family_group(9), (2, 2, 2, 18))
        assert len(classes) == 1 and len(drawn) == 1


class TestKernelGenus:
    def test_oracles(self):
        assert kernel_genus(8, parse_signature("(0;+;[2,2,2,4];{-})")) == 2
        assert kernel_genus(12, parse_signature("(0;+;[3,4,12];{-})")) == 3
        assert kernel_genus(16, parse_signature("(0;+;[2,4,8];{-})")) == 2
        assert kernel_genus(12, parse_signature("(0;+;[2,2,3,3];{-})")) == 3

    @pytest.mark.parametrize("g", [2, 3, 4, 7, 10])
    def test_family_genus(self, g):
        sig = parse_signature(f"(0;+;[2,2,2,{2 * g}];{{-}})")
        assert kernel_genus(4 * g, sig) == g

    def test_non_integral_rejected(self):
        with pytest.raises(InvariantViolation):
            kernel_genus(10, parse_signature("(0;+;[3,4,12];{-})"))

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolation):
            kernel_genus(8, parse_signature("(0;+;[2,2];{-})"))


class TestEliminateCases:
    @pytest.mark.parametrize("g", [2, 4, 5])
    def test_three_reports(self, g):
        reports = eliminate_cases(g)
        assert [r["family"] for r in reports] == [1, 2, 3]
        assert all(set(r) == {"family", "periods", "verdict", "details"} for r in reports)

    @pytest.mark.parametrize("g", [2, 4, 5])
    def test_family1_extends(self, g):
        r1 = eliminate_cases(g)[0]
        assert r1["verdict"] == "not-full"
        assert r1["periods"] == (2, 4 * g, 4 * g)
        assert r1["details"]["cyclic_classes"] == 1
        assert r1["details"]["extension_order"] == 8 * g
        v = r1["details"]["extension_vector"]
        assert v.periods == (2, 4, 4 * g)
        assert v.group.order == 8 * g

    @pytest.mark.parametrize("g", [2, 4, 5])
    def test_family2_impossible(self, g):
        r2 = eliminate_cases(g)[1]
        assert r2["verdict"] == "impossible"
        assert r2["details"]["vectors_found"] == 0
        assert r2["details"]["groups_tested"] >= 5

    @pytest.mark.parametrize("g", [2, 4, 5])
    def test_family3_swap_and_extension(self, g):
        r3 = eliminate_cases(g)[2]
        assert r3["verdict"] == "not-full"
        assert r3["details"]["surviving_twist"] == 2 * g - 1
        assert r3["details"]["extension_order"] == 8 * g
        v = r3["details"]["extension_vector"]
        assert v.periods == (2, 4, 4 * g)
        # rejected twists carry reasons
        for reason in r3["details"]["rejected_twists"].values():
            assert isinstance(reason, str) and reason

    def test_family3_even_genus_rejects_g_minus_1(self):
        r3 = eliminate_cases(4)[2]
        assert 3 in r3["details"]["rejected_twists"]  # twist g-1 = 3 at g=4

    def test_survivor_group_is_quaternion_like(self):
        # at g=2 the surviving family-3 group is the order-8 quaternion-type
        r3 = eliminate_cases(2)[2]
        assert r3["details"]["surviving_twist"] == 3
        assert is_isomorphic(dicyclic(2), dicyclic(2))

    def test_cap_skips_construction_but_keeps_verdicts(self):
        reports = eliminate_cases(7, max_order=10)
        assert [r["verdict"] for r in reports] == ["not-full", "impossible", "not-full"]
        assert reports[0]["details"]["constructed"] is False
        assert reports[2]["details"]["constructed"] is False
        assert reports[1]["details"]["groups_tested"] == 0


class TestExceptionalSearch:
    def test_genus3_nonempty(self):
        results = exceptional_search(3, small_groups(12))
        assert results
        sigs = {str(sig) for sig, _ in results}
        assert "(0;+;[3,4,12];{-})" in sigs
        assert "(0;+;[2,2,3,3];{-})" in sigs
        cyclic_hits = [
            cls
            for sig, cls in results
            if sig.proper_periods == (3, 4, 12)
            and recognize(cls.group) == "C12"
        ]
        assert cyclic_hits

    def test_genus5_empty(self):
        assert exceptional_search(5, small_groups(20)) == []

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            exceptional_search(3, [dihedral(8)])

    def test_classes_are_action_classes(self):
        for sig, cls in exceptional_search(3, small_groups(12)):
            assert isinstance(cls, ActionClass)
            assert kernel_genus(cls.group.order, sig) == 3


class TestOnlyMainFamilySurvives:
    @pytest.mark.parametrize("g", [2, 4, 5])
    def test_survivor_is_the_chain_signature(self, g):
        from fourg.signatures import (
            TAG_QUADRUPLE,
            TAG_SPORADIC,
            enumerate_4g_signatures,
        )

        eliminated = {r["periods"] for r in eliminate_cases(g)}
        realized_special = {
            sig.proper_periods
            for sig, _ in exceptional_search(g, small_groups(4 * g))
        }
        for sig, tag in enumerate_4g_signatures(g):
            periods = sig.proper_periods
            if periods in eliminated:
                continue
            if tag in (TAG_QUADRUPLE, TAG_SPORADIC):
                # arithmetic solutions with no realizing group do not survive
                assert periods not in realized_special
            else:
                assert periods == (2, 2, 2, 2 * g)
