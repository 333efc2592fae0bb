"""Tests for nodal-limit dual graphs and the closed loop of real arcs.

Reference facts used as oracles: the degeneration subgroups have indices 2
and 1; the first nodal limit is a dipole with two components of genus g/2
(g even, one node) or (g-1)/2 (g odd, two nodes); the second is a single
genus-0 component with g nodes; the smooth limit is w^2 = z(z^{2g} - 1) with
8g automorphisms (48 in genus 2); the three real arcs join the limits
pairwise -- a1 the two nodal ones, a2 and b each one nodal limit and the
high-symmetry curve -- and each arc carries the species of its
extended-symmetry class.
"""

import json
from fractions import Fraction

import pytest

from fourg.actions import GeneratingVector, canonical_vector, family_group
from fourg.boundary import (
    ARC_ENDPOINTS,
    DIPOLE_SURFACE,
    ENDPOINT_NAMES,
    LABEL_DIPOLE,
    LABEL_LOOPS,
    ROSE_SURFACE,
    WIMAN_SURFACE,
    BoundaryArc,
    BoundaryDescription,
    NodalGraph,
    WimanCurve,
    _require_three_cycle,
    boundary_description,
    component_genus,
    degeneration_subgroups,
    nodal_graph,
)
from fourg.errors import InvariantViolation
from fourg.extensions import build_extensions, restrict_to_index2
from fourg.realforms import Species, species_set
from fourg.signatures import parse_signature, wiman_quotient_signature


def _degree(graph, vertex):
    """Number of edge ends at a vertex; a loop contributes two."""
    return sum((i == vertex) + (j == vertex) for i, j in graph.edges)


def _arcs(description):
    return {arc.label: arc for arc in description.arcs}


class TestNodalGraph:
    def test_edges_are_normalized(self):
        graph = NodalGraph((2, 2), ((1, 0),), LABEL_DIPOLE)
        assert graph.edges == ((0, 1),)
        multi = NodalGraph((0,), ((0, 0), (0, 0)), LABEL_LOOPS)
        assert multi.edges == ((0, 0), (0, 0))
        assert multi.edge_count == 2

    def test_total_genus_formula(self):
        # sum of (genus - 1) over vertices, plus edges, plus one
        assert NodalGraph((2, 2), ((0, 1),), LABEL_DIPOLE).total_genus == 4
        assert NodalGraph((2, 2), ((0, 1), (0, 1)), LABEL_DIPOLE).total_genus == 5
        assert NodalGraph((0,), ((0, 0),) * 5, LABEL_LOOPS).total_genus == 5
        assert NodalGraph((3,), (), "smooth").total_genus == 3

    def test_degree_counts_loops_twice(self):
        graph = NodalGraph((0,), ((0, 0),) * 4, LABEL_LOOPS)
        assert _degree(graph, 0) == 8
        dipole = NodalGraph((1, 1), ((0, 1), (0, 1)), LABEL_DIPOLE)
        assert _degree(dipole, 0) == 2 and _degree(dipole, 1) == 2

    def test_rejects_bad_data(self):
        with pytest.raises(InvariantViolation):
            NodalGraph((), (), LABEL_DIPOLE)
        with pytest.raises(InvariantViolation):
            NodalGraph((-1,), (), LABEL_LOOPS)
        with pytest.raises(InvariantViolation):
            NodalGraph((True,), (), LABEL_LOOPS)
        with pytest.raises(InvariantViolation):
            NodalGraph((1, 1), ((0, 2),), LABEL_DIPOLE)
        with pytest.raises(InvariantViolation):
            NodalGraph((1, 1), ((0, 1, 0),), LABEL_DIPOLE)
        with pytest.raises(InvariantViolation):
            NodalGraph((1,), (), "")

    def test_json_round_trip(self):
        for g, which in ((4, 1), (5, 1), (5, 2)):
            graph = nodal_graph(canonical_vector(g), which)
            data = graph.to_json_dict()
            assert set(data) == {"vertices", "edges", "label"}
            assert all(set(v) == {"genus"} for v in data["vertices"])
            # the record survives serialization and rebuilds the graph
            data = json.loads(json.dumps(data))
            genera = tuple(v["genus"] for v in data["vertices"])
            edges = tuple(tuple(e) for e in data["edges"])
            assert NodalGraph(genera, edges, data["label"]) == graph


class TestDegenerationSubgroups:
    def test_indices_two_and_one(self):
        for g in range(2, 9):
            first, second = degeneration_subgroups(canonical_vector(g))
            assert first.index == 2
            assert second.index == 1

    def test_first_subgroup_is_the_rotation_subgroup(self):
        for g in (3, 5, 6):
            v = canonical_vector(g)
            first, _ = degeneration_subgroups(v)
            rotations = v.group.subgroup((v.images[3],))
            assert first.element_indices == rotations.element_indices
            assert first.order == 2 * g

    def test_second_subgroup_is_everything(self):
        v = canonical_vector(4)
        _, second = degeneration_subgroups(v)
        assert second.order == v.group.order

    def test_rejects_wrong_shape(self):
        G = family_group(2)
        A, D = G.generator("A"), G.generator("D")
        # a valid four-involution vector, but on periods (2, 2, 2, 2)
        square = GeneratingVector(G, (2, 2, 2, 2), (A, D * A, D * A, A))
        with pytest.raises(ValueError):
            degeneration_subgroups(square)
        v = canonical_vector(3)
        t1, t2, t3, t4 = v.images
        rotated = GeneratingVector(v.group, (2, 2, 6, 2), (t2, t3, t4, t1))
        with pytest.raises(ValueError):
            degeneration_subgroups(rotated)
        with pytest.raises(ValueError):
            degeneration_subgroups("not a vector")


def _reference_component_genus(images) -> int:
    """The genus solve of ``component_genus``, its input checks left out,
    with the hand-derived chi line kept verbatim from before
    ``normalized_area`` counted a cusp."""
    n, r, s = images
    G = n.group
    two_g = s.order()
    # chi = 2 - [puncture: exactly 1] - (1 - 1/2) - (1 - 1/(2g))
    chi = Fraction(-1, 2) + Fraction(1, two_g)
    image_order = G.subgroup(images).order
    cusps = image_order // n.order()
    doubled = 2 - cusps - image_order * chi
    assert doubled.denominator == 1 and doubled >= 0 and int(doubled) % 2 == 0
    return int(doubled) // 2


class TestComponentGenus:
    def test_dipole_component_genus(self):
        for g, expected in ((2, 1), (3, 1), (4, 2), (5, 2), (8, 4), (9, 4)):
            v = canonical_vector(g)
            t1, t2, t3, t4 = v.images
            assert component_genus((t1 * t2, t3, t4)) == expected

    def test_rose_component_genus_is_zero(self):
        for g in range(2, 9):
            v = canonical_vector(g)
            t1, t2, t3, t4 = v.images
            assert component_genus((t1, t2 * t3, t4)) == 0

    @pytest.mark.parametrize("g", range(2, 31))
    def test_matches_closed_form_chi(self, g):
        t1, t2, t3, t4 = canonical_vector(g).images
        for images in ((t1 * t2, t3, t4), (t1, t2 * t3, t4)):
            assert component_genus(images) == _reference_component_genus(images)

    def test_invariant_under_conjugation(self):
        v = canonical_vector(5)
        t1, t2, t3, t4 = v.images
        omega = (t1, t2 * t3, t4)
        for h in (v.group.element(i) for i in range(0, v.group.order, 7)):
            conj = tuple(h * e * h ** -1 for e in omega)
            assert component_genus(conj) == 0

    def test_rejects_inconsistent_data(self):
        v = canonical_vector(3)
        t1, t2, t3, t4 = v.images
        D = v.group.generator("D")
        with pytest.raises(InvariantViolation):
            component_genus((t3, t3, t4))  # product is not the identity
        with pytest.raises(InvariantViolation):
            component_genus((D ** -2, D, D))  # middle image has order 2g, not 2
        e = v.group.identity
        with pytest.raises(InvariantViolation):
            component_genus((e, t3, t3))  # last image has order 2, not 2g
        with pytest.raises(ValueError):
            component_genus((t1, t2))
        with pytest.raises(ValueError):
            component_genus((t1, t2, "D"))


class TestNodalGraphShapes:
    def test_even_genus_dipole(self):
        graph = nodal_graph(canonical_vector(4), 1)
        assert graph.label == LABEL_DIPOLE
        assert graph.vertex_genera == (2, 2)
        assert graph.edges == ((0, 1),)
        assert _degree(graph, 0) == 1 and _degree(graph, 1) == 1

    def test_odd_genus_dipole(self):
        graph = nodal_graph(canonical_vector(5), 1)
        assert graph.vertex_genera == (2, 2)
        assert graph.edges == ((0, 1), (0, 1))
        assert _degree(graph, 0) == 2

    def test_rose_of_loops(self):
        graph = nodal_graph(canonical_vector(5), 2)
        assert graph.label == LABEL_LOOPS
        assert graph.vertex_genera == (0,)
        assert graph.edges == ((0, 0),) * 5
        assert _degree(graph, 0) == 10

    def test_parity_sweep(self):
        for g in range(2, 13):
            dipole = nodal_graph(canonical_vector(g), 1)
            if g % 2 == 0:
                assert dipole.vertex_genera == (g // 2, g // 2)
                assert dipole.edge_count == 1
            else:
                assert dipole.vertex_genera == ((g - 1) // 2, (g - 1) // 2)
                assert dipole.edge_count == 2
            assert _degree(dipole, 0) == (1 if g % 2 == 0 else 2)
            rose = nodal_graph(canonical_vector(g), 2)
            assert rose.vertex_genera == (0,)
            assert rose.edge_count == g

    def test_total_genus_identity(self):
        for g in range(2, 13):
            v = canonical_vector(g)
            assert nodal_graph(v, 1).total_genus == g
            assert nodal_graph(v, 2).total_genus == g

    def test_vertex_count_times_subgroup_order(self):
        for g in range(2, 9):
            v = canonical_vector(g)
            first, second = degeneration_subgroups(v)
            assert len(nodal_graph(v, 1).vertex_genera) * first.order == 4 * g
            assert len(nodal_graph(v, 2).vertex_genera) * second.order == 4 * g

    def test_rejects_bad_selector(self):
        v = canonical_vector(3)
        with pytest.raises(ValueError):
            nodal_graph(v, 3)
        with pytest.raises(ValueError):
            nodal_graph(v, "1")


class TestRestrictedVectorDegenerations:
    """The arcs' own restricted vectors reproduce their nodal endpoints."""

    def test_first_chain_class_reaches_both_nodal_limits(self):
        for g in (3, 4, 6):
            e = build_extensions(g, "a")[0]
            v = restrict_to_index2(e)
            first, second = degeneration_subgroups(v)
            assert (first.index, second.index) == (2, 1)
            assert nodal_graph(v, 1) == nodal_graph(canonical_vector(g), 1)
            assert nodal_graph(v, 2) == nodal_graph(canonical_vector(g), 2)

    def test_second_chain_class_only_disconnects_nowhere(self):
        # both pinching systems keep the surface connected: its one nodal
        # limit is the rose, which is why it runs to the high-symmetry curve
        for g in (3, 4, 6):
            e = build_extensions(g, "a")[1]
            v = restrict_to_index2(e)
            first, second = degeneration_subgroups(v)
            assert (first.index, second.index) == (1, 1)
            assert nodal_graph(v, 1).label == LABEL_LOOPS
            assert nodal_graph(v, 1) == nodal_graph(canonical_vector(g), 2)

    def test_mixed_class_reaches_the_dipole(self):
        for g in (3, 4, 6):
            e = build_extensions(g, "b")[0]
            v = restrict_to_index2(e)
            first, second = degeneration_subgroups(v)
            assert (first.index, second.index) == (2, 1)
            assert nodal_graph(v, 1) == nodal_graph(canonical_vector(g), 1)


class TestWimanCurve:
    def test_genus_two_exception(self):
        curve = WimanCurve(2)
        assert curve.automorphism_count == 48
        assert curve.equation == "w^2 = z(z^4 - 1)"
        assert curve.quotient_signature == parse_signature("(0;+;[-];{(2,3,8)})")

    def test_generic_count(self):
        for g in (3, 5, 12):
            curve = WimanCurve(g)
            assert curve.automorphism_count == 8 * g
            assert curve.quotient_signature == wiman_quotient_signature(g)
            assert f"z^{2 * g}" in curve.equation

    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            WimanCurve(1)


class TestBoundaryArc:
    def test_species_values_descending(self):
        arc = _arcs(boundary_description(5))["a1"]
        assert arc.species_values == (2, 0, -2, -2)
        assert all(isinstance(sp, Species) for sp in arc.species)

    def test_rejects_bad_labels_and_endpoints(self):
        sp = species_set(build_extensions(2, "b")[0])
        good = frozenset({DIPOLE_SURFACE, WIMAN_SURFACE})
        with pytest.raises(ValueError):
            BoundaryArc("c", sp, good)
        with pytest.raises(InvariantViolation):
            BoundaryArc("b", sp, frozenset({DIPOLE_SURFACE}))
        with pytest.raises(InvariantViolation):
            BoundaryArc("b", sp, frozenset({DIPOLE_SURFACE, "X_Q"}))
        with pytest.raises(InvariantViolation):
            BoundaryArc("b", (0, -2), good)

    def test_json_form(self):
        arc = _arcs(boundary_description(4))["b"]
        assert arc.to_json_dict() == {
            "label": "b",
            "species": [-2],
            "endpoints": ["X_8g", "X_D"],
        }


class TestBoundaryDescription:
    def test_genus_five_description(self):
        arcs = _arcs(boundary_description(5))
        assert arcs["a1"].species_values == (2, 0, -2, -2)
        assert arcs["a2"].species_values == (-1, -1, -5, -5)
        assert arcs["b"].species_values == (0, 0, -2, -2)
        assert arcs["a1"].endpoints == frozenset({DIPOLE_SURFACE, ROSE_SURFACE})
        assert arcs["a2"].endpoints == frozenset({ROSE_SURFACE, WIMAN_SURFACE})
        assert arcs["b"].endpoints == frozenset({DIPOLE_SURFACE, WIMAN_SURFACE})

    def test_genus_four_mixed_arc(self):
        arcs = _arcs(boundary_description(4))
        assert arcs["b"].species_values == (-2,)
        assert arcs["a1"].species_values == (1, 0, -1, -3)

    def test_genus_two_annotations(self):
        bd = boundary_description(2)
        assert bd.wiman_curve.automorphism_count == 48
        assert _arcs(bd)["a1"].species_values == (3, 1, 0, -1)

    def test_arcs_close_into_a_loop(self):
        for g in range(2, 8):
            bd = boundary_description(g)
            degree = {}
            for arc in bd.arcs:
                for name in arc.endpoints:
                    degree[name] = degree.get(name, 0) + 1
            assert degree == {name: 2 for name in ENDPOINT_NAMES}
            assert set(bd.to_json_dict()["endpoints"]) == set(ENDPOINT_NAMES)
            assert bd.dipole_graph.label == LABEL_DIPOLE
            assert bd.rose_graph.label == LABEL_LOOPS
            assert bd.wiman_curve.genus == g

    def test_arc_lookup(self):
        bd = boundary_description(3)
        assert tuple(arc.label for arc in bd.arcs) == ("a1", "a2", "b")
        assert _arcs(bd)["a2"] is bd.arcs[1]

    def test_three_cycle_guard(self):
        bd = boundary_description(3)
        _require_three_cycle(bd.arcs)  # must pass untouched
        broken = (bd.arcs[0], bd.arcs[0], bd.arcs[2])
        with pytest.raises(InvariantViolation):
            _require_three_cycle(broken)

    def test_rejects_inconsistent_assembly(self):
        bd = boundary_description(3)
        with pytest.raises(InvariantViolation):
            BoundaryDescription(
                genus=3,
                arcs=(bd.arcs[1], bd.arcs[0], bd.arcs[2]),
                dipole_graph=bd.dipole_graph,
                rose_graph=bd.rose_graph,
            )
        with pytest.raises(InvariantViolation):
            BoundaryDescription(
                genus=3,
                arcs=bd.arcs,
                dipole_graph=bd.rose_graph,
                rose_graph=bd.rose_graph,
            )
        wrong_genus = nodal_graph(canonical_vector(4), 1)
        with pytest.raises(InvariantViolation):
            BoundaryDescription(
                genus=3,
                arcs=bd.arcs,
                dipole_graph=wrong_genus,
                rose_graph=bd.rose_graph,
            )

    def test_json_is_deterministic(self):
        first = json.dumps(boundary_description(4).to_json_dict(), sort_keys=True)
        second = json.dumps(boundary_description(4).to_json_dict(), sort_keys=True)
        assert first == second
        data = json.loads(first)
        assert set(data) == {"genus", "arcs", "endpoints"}
        assert set(data["endpoints"]) == {"X_D", "X_R", "X_8g"}

    def test_rejects_small_genus(self):
        with pytest.raises(ValueError):
            boundary_description(1)
