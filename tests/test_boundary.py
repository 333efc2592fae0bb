"""Tests for nodal-limit dual graphs and the closed loop of real arcs.

Reference facts used as oracles: the degeneration subgroups have indices 2
and 1 and the component genera solve the closed-form Euler characteristic
(checked on ``_reference_degeneration_subgroups`` and
``_reference_component_genus``, the functions ``nodal_graph`` folded in);
the first nodal limit is a dipole with two components of genus g/2 (g even,
one node) or (g-1)/2 (g odd, two nodes); the second is a single genus-0
component with g nodes; the smooth limit is w^2 = z(z^{2g} - 1) with 8g
automorphisms (48 in genus 2); the three real arcs join the limits pairwise
-- a1 the two nodal ones, a2 and b each one nodal limit and the
high-symmetry curve -- and each arc carries the species of its
extended-symmetry class.
"""

import json
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fourg import boundary
from fourg.actions import (
    GeneratingVector,
    canonical_vector,
    family_group,
    main_action_class,
    smooth_vectors,
)
from fourg.boundary import (
    ARC_ENDPOINTS,
    DIPOLE_SURFACE,
    LABEL_DIPOLE,
    LABEL_LOOPS,
    ROSE_SURFACE,
    WIMAN_SURFACE,
    _require_family_vector,
    boundary_description,
    nodal_graph,
)
from fourg.errors import InvariantViolation
from fourg.extensions import build_extensions
from fourg.groups import FiniteGroup
from fourg.realforms import species_set, symmetry_classes_with_ovals
from fourg.signatures import parse_signature, wiman_quotient_signature

# The three limit surfaces at the ends of the real arcs.
ENDPOINTS = {DIPOLE_SURFACE, ROSE_SURFACE, WIMAN_SURFACE}


def _degree(graph, vertex):
    """Number of edge ends at a vertex; a loop contributes two."""
    return sum((i == vertex) + (j == vertex) for i, j in graph["edges"])


def _genera(graph):
    """Vertex genera of a dual-graph record, as a tuple."""
    return tuple(vertex["genus"] for vertex in graph["vertices"])


def _total_genus(graph):
    """Arithmetic genus: sum of (vertex genus - 1), plus edges, plus 1."""
    return sum(h - 1 for h in _genera(graph)) + len(graph["edges"]) + 1


def _arcs(description):
    return {arc["label"]: arc for arc in description["arcs"]}


def _pairs(g):
    """One (e, species) pair per extension of genus g, in order a1, a2, b."""
    return [
        (e, species_set(e, symmetry_classes_with_ovals(e)))
        for e in build_extensions(main_action_class(g))
    ]


def _description(g):
    """The boundary of genus g from its family vector and its extensions."""
    return boundary_description(canonical_vector(g), _pairs(g))


class TestNodalGraph:
    def test_degree_counts_loops_twice(self):
        rose = nodal_graph(canonical_vector(4), 2)
        assert rose["edges"] == [[0, 0]] * 4
        assert _degree(rose, 0) == 8
        dipole = nodal_graph(canonical_vector(3), 1)
        assert dipole["edges"] == [[0, 1], [0, 1]]
        assert _degree(dipole, 0) == 2 and _degree(dipole, 1) == 2

    def test_json_round_trip(self):
        for g, which in ((4, 1), (5, 1), (5, 2)):
            graph = nodal_graph(canonical_vector(g), which)
            assert list(graph) == ["vertices", "edges", "label"]
            assert all(set(v) == {"genus"} for v in graph["vertices"])
            # the record survives serialization unchanged
            assert json.loads(json.dumps(graph)) == graph


def _reference_degeneration_subgroups(v: GeneratingVector):
    """The two subgroups governing how the family's surfaces can be pinched.

    ``v`` must be a four-image vector with periods (2, 2, 2, 2g).  Writing
    t1..t4 for its images, the first subgroup is generated by (t1*t2, t3, t4)
    and the second by (t1, t2*t3, t4).  Their indices count the components of
    the two nodal limits: index 2 splits the pinched surface in two, index 1
    keeps it connected.
    """
    _require_family_vector(v)
    t1, t2, t3, t4 = v.images
    G = v.group
    first = G.subgroup((t1 * t2, t3, t4))
    second = G.subgroup((t1, t2 * t3, t4))
    return first, second


def _index(G, members) -> int:
    return G.order // len(members)


class TestDegenerationSubgroups:
    """The public function these pin was folded into ``nodal_graph``; the
    assertions hold on its verbatim copy, and ``nodal_graph`` must agree."""

    def test_indices_two_and_one(self):
        for g in range(2, 9):
            v = canonical_vector(g)
            first, second = _reference_degeneration_subgroups(v)
            assert _index(v.group, first) == 2
            assert _index(v.group, second) == 1

    def test_first_subgroup_is_the_rotation_subgroup(self):
        for g in (3, 5, 6):
            v = canonical_vector(g)
            first, _ = _reference_degeneration_subgroups(v)
            assert first == v.group.subgroup((v.images[3],))
            assert len(first) == 2 * g

    def test_second_subgroup_is_everything(self):
        v = canonical_vector(4)
        _, second = _reference_degeneration_subgroups(v)
        assert len(second) == v.group.order

    def test_rejects_wrong_shape(self):
        G = family_group(2)
        A, D = G.generator("A"), G.generator("D")
        # a valid four-involution vector, but on periods (2, 2, 2, 2)
        square = GeneratingVector(G, (2, 2, 2, 2), (A, D * A, D * A, A))
        with pytest.raises(ValueError):
            nodal_graph(square, 1)
        v = canonical_vector(3)
        t1, t2, t3, t4 = v.images
        rotated = GeneratingVector(v.group, (2, 2, 6, 2), (t2, t3, t4, t1))
        with pytest.raises(ValueError):
            nodal_graph(rotated, 2)
        with pytest.raises(ValueError):
            nodal_graph("not a vector", 1)

    @pytest.mark.parametrize("g", range(2, 31))
    def test_nodal_graph_matches_reference(self, g):
        # one vertex per coset of the degeneration subgroup, and at every
        # vertex one edge end per coset of the pinched class inside it
        v = canonical_vector(g)
        t1, t2, t3, _ = v.images
        subgroups = _reference_degeneration_subgroups(v)
        for which, sub, node in zip((1, 2), subgroups, (t1 * t2, t2 * t3)):
            graph = nodal_graph(v, which)
            assert len(graph["vertices"]) == _index(v.group, sub), (g, which)
            for vertex in range(_index(v.group, sub)):
                assert _degree(graph, vertex) == len(sub) // node.order(), (g, which)

    def test_every_family_vector_matches_reference(self):
        # not only the canonical vector: every smooth (2,2,2,2g) vector of
        # the family group pinches to a dipole or a rose of total genus g
        vectors = 0
        for g in range(2, 13):
            G = family_group(g)
            periods = (2, 2, 2, 2 * g)
            for t in smooth_vectors(G, periods):
                v = GeneratingVector(G, periods, tuple(G.element(i) for i in t))
                t1, t2, t3, _ = v.images
                subgroups = _reference_degeneration_subgroups(v)
                for which, sub, node in zip((1, 2), subgroups, (t1 * t2, t2 * t3)):
                    graph = nodal_graph(v, which)
                    assert graph["label"] in (LABEL_DIPOLE, LABEL_LOOPS), (g, t, which)
                    assert _total_genus(graph) == g, (g, t, which)
                    assert len(graph["vertices"]) == _index(G, sub), (g, t, which)
                    assert _degree(graph, 0) == len(sub) // node.order(), (g, t, which)
                vectors += 1
        assert vectors == 1280

    def test_one_closure_per_nodal_graph(self, monkeypatch):
        calls = []
        real = FiniteGroup.subgroup

        def counting(self, elements):
            calls.append(elements)
            return real(self, elements)

        monkeypatch.setattr(FiniteGroup, "subgroup", counting)
        v = canonical_vector(6)
        for which in (1, 2):
            calls.clear()
            nodal_graph(v, which)
            assert len(calls) == 1, which


def _reference_component_genus(images) -> int:
    """The genus solve of the deleted ``component_genus``, its input checks
    left out, with the hand-derived chi line kept verbatim from before
    ``normalized_area`` counted a cusp."""
    n, r, s = images
    G = n.group
    two_g = s.order()
    # chi = 2 - [puncture: exactly 1] - (1 - 1/2) - (1 - 1/(2g))
    chi = Fraction(-1, 2) + Fraction(1, two_g)
    image_order = len(G.subgroup(images))
    cusps = image_order // n.order()
    doubled = 2 - cusps - image_order * chi
    assert doubled.denominator == 1 and doubled >= 0 and int(doubled) % 2 == 0
    return int(doubled) // 2


class TestComponentGenus:
    """The public function these pin was folded into ``nodal_graph``; the
    assertions hold on the reference solve, and ``nodal_graph``'s vertex
    genera must agree with it."""

    def test_dipole_component_genus(self):
        for g, expected in ((2, 1), (3, 1), (4, 2), (5, 2), (8, 4), (9, 4)):
            v = canonical_vector(g)
            t1, t2, t3, t4 = v.images
            assert _reference_component_genus((t1 * t2, t3, t4)) == expected

    def test_rose_component_genus_is_zero(self):
        for g in range(2, 9):
            v = canonical_vector(g)
            t1, t2, t3, t4 = v.images
            assert _reference_component_genus((t1, t2 * t3, t4)) == 0

    @pytest.mark.parametrize("g", range(2, 31))
    def test_matches_closed_form_chi(self, g):
        v = canonical_vector(g)
        t1, t2, t3, t4 = v.images
        for which, omega in ((1, (t1 * t2, t3, t4)), (2, (t2 * t3, t1, t4))):
            genera = _genera(nodal_graph(v, which))
            assert set(genera) == {_reference_component_genus(omega)}, (g, which)

    def test_invariant_under_conjugation(self):
        v = canonical_vector(5)
        t1, t2, t3, t4 = v.images
        omega = (t1, t2 * t3, t4)
        for h in (v.group.element(i) for i in range(0, v.group.order, 7)):
            conj = tuple(h * e * h ** -1 for e in omega)
            assert _reference_component_genus(conj) == 0

    def test_rejects_inconsistent_data(self, monkeypatch):
        # a family vector whose second system pinches a rotation of order g
        # (g odd) or 2g (g even), not an involution: the pinched class is the
        # puncture, so the limit is still a dipole of total genus g
        for g, genera, edges in ((3, (1, 1), 2), (4, (2, 2), 1)):
            G = family_group(g)
            D, A = G.generator("D"), G.generator("A")
            v = GeneratingVector(
                G, (2, 2, 2, 2 * g), (D ** g, A, D ** (g + 1) * A, D)
            )
            assert _total_genus(nodal_graph(v, 1)) == g
            graph = nodal_graph(v, 2)
            assert graph["label"] == LABEL_DIPOLE
            assert (_genera(graph), len(graph["edges"])) == (genera, edges)
        # a wrong orbifold area solves to a fractional genus, or to a whole
        # one that breaks the total genus identity
        v = canonical_vector(4)
        area = boundary.normalized_area
        monkeypatch.setattr(boundary, "normalized_area", lambda s: area(s) + Fraction(1, 3))
        with pytest.raises(InvariantViolation, match="inconsistent"):
            nodal_graph(v, 1)
        monkeypatch.setattr(boundary, "normalized_area", lambda s: area(s) + Fraction(1, 4))
        with pytest.raises(InvariantViolation, match="total genus"):
            nodal_graph(v, 1)


class TestNodalGraphShapes:
    def test_even_genus_dipole(self):
        graph = nodal_graph(canonical_vector(4), 1)
        assert graph["label"] == LABEL_DIPOLE
        assert _genera(graph) == (2, 2)
        assert graph["edges"] == [[0, 1]]
        assert _degree(graph, 0) == 1 and _degree(graph, 1) == 1

    def test_odd_genus_dipole(self):
        graph = nodal_graph(canonical_vector(5), 1)
        assert _genera(graph) == (2, 2)
        assert graph["edges"] == [[0, 1], [0, 1]]
        assert _degree(graph, 0) == 2

    def test_rose_of_loops(self):
        graph = nodal_graph(canonical_vector(5), 2)
        assert graph["label"] == LABEL_LOOPS
        assert _genera(graph) == (0,)
        assert graph["edges"] == [[0, 0]] * 5
        assert _degree(graph, 0) == 10

    def test_parity_sweep(self):
        for g in range(2, 13):
            dipole = nodal_graph(canonical_vector(g), 1)
            if g % 2 == 0:
                assert _genera(dipole) == (g // 2, g // 2)
                assert len(dipole["edges"]) == 1
            else:
                assert _genera(dipole) == ((g - 1) // 2, (g - 1) // 2)
                assert len(dipole["edges"]) == 2
            assert _degree(dipole, 0) == (1 if g % 2 == 0 else 2)
            rose = nodal_graph(canonical_vector(g), 2)
            assert _genera(rose) == (0,)
            assert len(rose["edges"]) == g

    def test_total_genus_identity(self):
        for g in range(2, 13):
            v = canonical_vector(g)
            assert _total_genus(nodal_graph(v, 1)) == g
            assert _total_genus(nodal_graph(v, 2)) == g

    def test_vertex_count_times_subgroup_order(self):
        for g in range(2, 9):
            v = canonical_vector(g)
            first, second = _reference_degeneration_subgroups(v)
            assert len(nodal_graph(v, 1)["vertices"]) * len(first) == 4 * g
            assert len(nodal_graph(v, 2)["vertices"]) * len(second) == 4 * g

    def test_rejects_bad_selector(self):
        # only the ints 1 and 2 select a system: True and 2.0 compare equal
        # to them but are no selector
        v = canonical_vector(3)
        for which in (3, "1", True, 2.0):
            with pytest.raises(ValueError, match="which must be"):
                nodal_graph(v, which)


class TestRestrictedVectorDegenerations:
    """The arcs' own restricted vectors, over ``_reference_plus_part``,
    reproduce their nodal endpoints."""

    def test_first_chain_class_reaches_both_nodal_limits(self, restricted_vector):
        for g in (3, 4, 6):
            e = build_extensions(main_action_class(g))[0]
            v = restricted_vector(e)
            first, second = _reference_degeneration_subgroups(v)
            assert (_index(v.group, first), _index(v.group, second)) == (2, 1)
            assert nodal_graph(v, 1) == nodal_graph(canonical_vector(g), 1)
            assert nodal_graph(v, 2) == nodal_graph(canonical_vector(g), 2)

    def test_second_chain_class_only_disconnects_nowhere(self, restricted_vector):
        # both pinching systems keep the surface connected: its one nodal
        # limit is the rose, which is why it runs to the high-symmetry curve
        for g in (3, 4, 6):
            e = build_extensions(main_action_class(g))[1]
            v = restricted_vector(e)
            first, second = _reference_degeneration_subgroups(v)
            assert (_index(v.group, first), _index(v.group, second)) == (1, 1)
            assert nodal_graph(v, 1)["label"] == LABEL_LOOPS
            assert nodal_graph(v, 1) == nodal_graph(canonical_vector(g), 2)

    def test_mixed_class_reaches_the_dipole(self, restricted_vector):
        for g in (3, 4, 6):
            e = build_extensions(main_action_class(g))[2]
            v = restricted_vector(e)
            first, second = _reference_degeneration_subgroups(v)
            assert (_index(v.group, first), _index(v.group, second)) == (2, 1)
            assert nodal_graph(v, 1) == nodal_graph(canonical_vector(g), 1)


class TestWimanCurve:
    """The X_8g endpoint record, read off the genus."""

    def test_genus_two_exception(self):
        curve = _description(2)["endpoints"][WIMAN_SURFACE]
        assert curve["automorphisms"] == 48
        assert curve["equation"] == "w^2 = z(z^4 - 1)"
        assert curve["quotient_signature"] == str(parse_signature("(0;+;[-];{(2,3,8)})"))

    def test_generic_count(self):
        for g in (3, 5, 12):
            curve = _description(g)["endpoints"][WIMAN_SURFACE]
            assert curve["automorphisms"] == 8 * g
            assert curve["quotient_signature"] == str(wiman_quotient_signature(g))
            assert f"z^{2 * g}" in curve["equation"]


class TestBoundaryArc:
    def test_species_values_descending(self):
        arc = _arcs(_description(5))["a1"]
        assert arc["species"] == [2, 0, -2, -2]
        (species,) = [sp for e, sp in _pairs(5) if e.label == "a1"]
        assert species == (2, 0, -2, -2)
        assert all(type(sp) is int for sp in species)

    def test_rejects_bad_labels_and_endpoints(self):
        v = canonical_vector(2)
        pairs = _pairs(2)
        boundary_description(v, pairs)  # must pass untouched
        with pytest.raises(InvariantViolation, match="labelled"):
            stray = SimpleNamespace(label="c", g=2)
            boundary_description(v, pairs[:2] + [(stray, pairs[2][1])])

    def test_json_form(self):
        arc = _arcs(_description(4))["b"]
        e = build_extensions(main_action_class(4))[2]
        assert [ovals for _, ovals in symmetry_classes_with_ovals(e)] == [2]
        assert arc == {
            "label": "b",
            "species": [-2],
            "endpoints": ["X_8g", "X_D"],
        }


class TestBoundaryDescription:
    def test_genus_five_description(self):
        arcs = _arcs(_description(5))
        assert arcs["a1"]["species"] == [2, 0, -2, -2]
        assert arcs["a2"]["species"] == [-1, -1, -5, -5]
        assert arcs["b"]["species"] == [0, 0, -2, -2]
        assert set(arcs["a1"]["endpoints"]) == {DIPOLE_SURFACE, ROSE_SURFACE}
        assert set(arcs["a2"]["endpoints"]) == {ROSE_SURFACE, WIMAN_SURFACE}
        assert set(arcs["b"]["endpoints"]) == {DIPOLE_SURFACE, WIMAN_SURFACE}

    def test_genus_four_mixed_arc(self):
        arcs = _arcs(_description(4))
        assert arcs["b"]["species"] == [-2]
        assert arcs["a1"]["species"] == [1, 0, -1, -3]

    def test_genus_two_annotations(self):
        bd = _description(2)
        assert bd["endpoints"][WIMAN_SURFACE]["automorphisms"] == 48
        assert _arcs(bd)["a1"]["species"] == [3, 1, 0, -1]

    def test_arcs_close_into_a_loop(self):
        for g in range(2, 8):
            bd = _description(g)
            degree = {}
            for arc in bd["arcs"]:
                for name in arc["endpoints"]:
                    degree[name] = degree.get(name, 0) + 1
            assert degree == {name: 2 for name in ENDPOINTS}
            assert set(bd["endpoints"]) == ENDPOINTS
            assert bd["endpoints"][DIPOLE_SURFACE]["label"] == LABEL_DIPOLE
            assert bd["endpoints"][ROSE_SURFACE]["label"] == LABEL_LOOPS
            assert bd["genus"] == g
            assert f"z^{2 * g}" in bd["endpoints"][WIMAN_SURFACE]["equation"]

    def test_arc_lookup(self):
        bd = _description(3)
        assert tuple(arc["label"] for arc in bd["arcs"]) == ("a1", "a2", "b")
        assert _arcs(bd)["a2"] is bd["arcs"][1]

    def test_three_cycle_guard(self):
        # the encoded endpoint pairs tile the three sides of a triangle:
        # three distinct pairs, and each limit ends exactly two arcs
        pairs = [ARC_ENDPOINTS[label] for label in ("a1", "a2", "b")]
        assert ARC_ENDPOINTS.keys() == {"a1", "a2", "b"}
        assert len(set(pairs)) == 3 and all(len(pair) == 2 for pair in pairs)
        degree = Counter(name for pair in pairs for name in pair)
        assert degree == {name: 2 for name in ENDPOINTS}

    def test_rejects_inconsistent_assembly(self, monkeypatch):
        three = _pairs(3)
        with pytest.raises(InvariantViolation):
            boundary_description(canonical_vector(3), (three[1], three[0], three[2]))
        # a family vector whose first system pinches to the rose and whose
        # second pinches to a dipole bounds the same loop as the canonical
        # vector
        G = family_group(3)
        D, A = G.generator("D"), G.generator("A")
        v = GeneratingVector(G, (2, 2, 2, 6), (D ** 3, A, D ** 4 * A, D))
        assert boundary_description(v, three) == _description(3)
        # a family vector both of whose systems pinch to the rose: the
        # graphs are read off the class's canonical member, so it bounds the
        # same loop too
        v = GeneratingVector(G, (2, 2, 2, 6), (A, D ** 3, D ** 2 * A, D ** 5))
        assert [nodal_graph(v, w)["label"] for w in (1, 2)] == [LABEL_LOOPS] * 2
        assert boundary_description(v, three) == _description(3)
        # no smooth family vector pinches to two dipoles, so that pair is
        # reached by handing the dipole out for both systems
        real = boundary.nodal_graph
        monkeypatch.setattr(boundary, "nodal_graph", lambda v, which: real(v, 1))
        with pytest.raises(ValueError, match=r"got \('dipole', 'dipole'\)"):
            boundary_description(canonical_vector(3), three)

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_every_family_vector_bounds_the_canonical_loop(self, g):
        # the boundary is a property of the family: every smooth vector of
        # the dihedral group, whatever its own systems pinch to, describes it
        G = family_group(g)
        pairs = _pairs(g)
        expected = boundary_description(canonical_vector(g), pairs)
        found = smooth_vectors(G, (2, 2, 2, 2 * g))
        assert len(found) == {3: 20, 4: 48, 5: 56, 6: 64}[g]
        for t in found:
            v = GeneratingVector(G, (2, 2, 2, 2 * g), tuple(G.element(i) for i in t))
            assert boundary_description(v, pairs) == expected

    def test_walks_an_orbit_only_off_the_canonical_key(self, monkeypatch):
        three = _pairs(3)
        expected = _description(3)
        G = family_group(3)
        D, A = G.generator("D"), G.generator("A")
        other = GeneratingVector(G, (2, 2, 2, 6), (A, D ** 3, D ** 2 * A, D ** 5))
        walked = []
        real = boundary._orbit
        monkeypatch.setattr(
            boundary, "_orbit", lambda G, t: walked.append(t) or real(G, t)
        )
        assert boundary_description(canonical_vector(3), three) == expected
        assert walked == []
        assert boundary_description(other, three) == expected
        assert walked == [other.indices]
        # an orbit without the canonical key is outside the main class
        monkeypatch.setattr(boundary, "_orbit", lambda G, t: {})
        with pytest.raises(ValueError, match="not in the main class of genus 3"):
            boundary_description(other, three)

    def test_json_is_deterministic(self):
        first = json.dumps(_description(4), sort_keys=True)
        second = json.dumps(_description(4), sort_keys=True)
        assert first == second
        data = json.loads(first)
        assert set(data) == {"genus", "arcs", "endpoints"}
        assert set(data["endpoints"]) == {"X_D", "X_R", "X_8g"}

    def test_rejects_small_genus(self):
        # the description reads its genus from the family vector, which
        # needs a last period 2g of at least 4
        G = family_group(2)
        D, A = G.generator("D"), G.generator("A")
        v = GeneratingVector(G, (2, 2, 2, 2), (A, A, D * A, D * A))
        with pytest.raises(ValueError, match="even and >= 4"):
            boundary_description(v, _pairs(2))

    def test_rejects_a_list_that_is_not_one_genus_in_order(self):
        three = _pairs(3)
        four = _pairs(4)
        v = canonical_vector(3)
        with pytest.raises(InvariantViolation, match="labelled"):
            boundary_description(v, three[::-1])
        with pytest.raises(ValueError, match="arc b carries a genus-4 species"):
            boundary_description(v, three[:2] + four[2:])
        with pytest.raises(ValueError, match="family vector has genus 4"):
            boundary_description(canonical_vector(4), three)
