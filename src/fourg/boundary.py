"""Degenerations of the dihedral family and the closed loop of its real forms.

For each genus g >= 2 the surfaces carrying the order-4g dihedral symmetry
form a one-parameter family in moduli space.  The family closes up on three
limit points: pinching node curves compatible with the symmetry produces two
nodal surfaces -- one whose dual graph is a two-vertex dipole and one that is
a rose of g loops on a single genus-0 component -- while a jump in symmetry
lands on the hyperelliptic curve w^2 = z(z^{2g} - 1), which has twice the
generic number of automorphisms.  The real surfaces of the family trace three
arcs, one per extended-symmetry class, joining the three limit points
pairwise into a single closed loop.

This module computes the dual graphs of the nodal limits (vertex genera from
exact Euler-characteristic bookkeeping, edge counts from subgroup indices)
and assembles the annotated arc loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .actions import GeneratingVector
from .errors import InvariantViolation
from .realforms import Species, species_set, symmetry_classes_with_ovals
from .signatures import INF, SIGN_PLUS, Signature, normalized_area, wiman_quotient_signature

__all__ = [
    "DIPOLE_SURFACE",
    "ROSE_SURFACE",
    "WIMAN_SURFACE",
    "ENDPOINT_NAMES",
    "LABEL_DIPOLE",
    "LABEL_LOOPS",
    "ARC_ENDPOINTS",
    "NodalGraph",
    "BoundaryArc",
    "WimanCurve",
    "BoundaryDescription",
    "nodal_graph",
    "boundary_description",
]


# Names of the three limit surfaces at the ends of the real arcs.
DIPOLE_SURFACE = "X_D"  # nodal limit with two components
ROSE_SURFACE = "X_R"  # nodal limit with one genus-0 component
WIMAN_SURFACE = "X_8g"  # smooth limit with 8g automorphisms

ENDPOINT_NAMES = frozenset({DIPOLE_SURFACE, ROSE_SURFACE, WIMAN_SURFACE})

LABEL_DIPOLE = "dipole"
LABEL_LOOPS = "loops"

# Which pair of limit surfaces each real arc joins.  The first chain class
# degenerates to both nodal limits; the second chain class and the mixed
# class each reach the high-symmetry curve and one nodal limit.
ARC_ENDPOINTS = {
    "a1": frozenset({DIPOLE_SURFACE, ROSE_SURFACE}),
    "a2": frozenset({ROSE_SURFACE, WIMAN_SURFACE}),
    "b": frozenset({DIPOLE_SURFACE, WIMAN_SURFACE}),
}


# ---------------------------------------------------------------------------
# Dual graphs of nodal surfaces.


@dataclass(frozen=True)
class NodalGraph:
    """Dual graph of a nodal surface: vertices are components, edges nodes.

    Each vertex carries the genus of its component; an edge records a node
    and joins the components meeting there, so loops are allowed.  Edges are
    normalized to sorted endpoint pairs in a sorted multiset.  The arithmetic
    genus of the nodal surface is recoverable from the graph alone and is
    exposed as ``total_genus``.
    """

    vertex_genera: tuple
    edges: tuple
    label: str

    def __post_init__(self):
        genera = tuple(self.vertex_genera)
        if not genera:
            raise InvariantViolation("a nodal graph needs at least one vertex")
        for w in genera:
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise InvariantViolation(
                    f"vertex genus must be a non-negative integer, got {w!r}"
                )
        edges = []
        for edge in self.edges:
            pair = tuple(edge)
            if len(pair) != 2:
                raise InvariantViolation(f"edge {edge!r} must join two vertices")
            i, j = pair
            for end in (i, j):
                if not isinstance(end, int) or isinstance(end, bool):
                    raise InvariantViolation(f"edge endpoint {end!r} is not an index")
                if not 0 <= end < len(genera):
                    raise InvariantViolation(
                        f"edge endpoint {end} is outside the {len(genera)} vertices"
                    )
            edges.append((min(i, j), max(i, j)))
        if not isinstance(self.label, str) or not self.label:
            raise InvariantViolation("a nodal graph carries a non-empty label")
        object.__setattr__(self, "vertex_genera", genera)
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_genus(self) -> int:
        """Arithmetic genus: sum of (vertex genus - 1), plus edges, plus 1."""
        return sum(w - 1 for w in self.vertex_genera) + len(self.edges) + 1

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"genus": w} for w in self.vertex_genera],
            "edges": [[i, j] for i, j in self.edges],
            "label": self.label,
        }

    def __str__(self) -> str:
        genera = ",".join(str(w) for w in self.vertex_genera)
        return f"{self.label}[genera {genera}; {self.edge_count} edge(s)]"


# ---------------------------------------------------------------------------
# Nodal limits of the family.


def _require_family_vector(v: GeneratingVector) -> int:
    """Check the (2, 2, 2, 2g) shape over a group of order 4g; return g."""
    if not isinstance(v, GeneratingVector):
        raise ValueError("expected a generating vector")
    if len(v.images) != 4 or tuple(v.periods[:3]) != (2, 2, 2):
        raise ValueError(f"expected periods (2, 2, 2, 2g), got {tuple(v.periods)}")
    two_g = v.periods[3]
    if two_g % 2 or two_g < 4:
        raise ValueError(f"last period must be even and >= 4, got {two_g}")
    g = two_g // 2
    if v.group.order != 4 * g:
        raise ValueError(
            f"family vector needs a group of order {4 * g}, got {v.group.order}"
        )
    return g


def nodal_graph(v: GeneratingVector, which: int) -> NodalGraph:
    """Dual graph of the nodal limit reached by pinching one curve system.

    ``v`` must be a four-image vector with periods (2, 2, 2, 2g) over a group
    of order 4g.  Writing t1..t4 for its images, ``which`` selects the
    system: 1 pinches the curve class mapping to t1*t2, 2 the one mapping to
    t2*t3.  The pinched class and the two images beside it form ``omega``,
    (t1*t2, t3, t4) or (t2*t3, t1, t4), and the degeneration subgroup they
    generate governs the limit: its index counts the components, so index 2
    splits the pinched surface in two and index 1 keeps it connected.  On
    the canonical family vector the first system yields a dipole -- two
    components of equal genus joined by one node when g is even and two
    when g is odd -- and the second collapses everything onto a single
    genus-0 component carrying g nodes, a rose of loops; for other
    admissible vectors the shapes may differ and the label always records
    the computed shape.  Each component is covered by ``omega`` over the
    orbifold (0;+;[2,2g,inf]), the pinched class mapping to its puncture.
    So c = |<omega>| / order(pinched class) is both the puncture count of a
    component and its number of edge ends; with chi minus that orbifold's
    normalized area, 2 - 2h - c = |<omega>| * chi solves to the component
    genus h, and a non-integral or negative h raises.  The graph is
    cross-checked against the total genus identity before it is returned.
    """
    g = _require_family_vector(v)
    t1, t2, t3, t4 = v.images
    if which == 1:
        omega = (t1 * t2, t3, t4)
    elif which == 2:
        omega = (t2 * t3, t1, t4)
    else:
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    image_order = len(v.group.subgroup(omega))
    vertex_count = v.group.order // image_order
    ends_per_vertex = image_order // omega[0].order()
    chi = -normalized_area(Signature(0, SIGN_PLUS, (2, 2 * g, INF)))
    doubled = 2 - ends_per_vertex - image_order * chi
    if doubled.denominator != 1 or doubled < 0 or int(doubled) % 2:
        raise InvariantViolation(
            f"component data solves to genus {Fraction(doubled, 2)};"
            " the covering data is inconsistent"
        )
    genus = int(doubled) // 2
    # the label describes the computed shape: one component makes a rose of
    # loops, two components a dipole
    if vertex_count == 1:
        if ends_per_vertex % 2:
            raise InvariantViolation(
                "a one-vertex graph needs an even number of edge ends,"
                f" got {ends_per_vertex}"
            )
        edges = ((0, 0),) * (ends_per_vertex // 2)
        label = LABEL_LOOPS
    elif vertex_count == 2:
        edges = ((0, 1),) * ends_per_vertex
        label = LABEL_DIPOLE
    else:
        raise InvariantViolation(
            f"degeneration subgroup has index {vertex_count};"
            " the family only produces one- and two-component limits"
        )
    graph = NodalGraph((genus,) * vertex_count, edges, label)
    if graph.total_genus != g:
        raise InvariantViolation(
            f"nodal graph {graph} has total genus {graph.total_genus},"
            f" expected {g}"
        )
    return graph


# ---------------------------------------------------------------------------
# The three real arcs and their limit surfaces.


@dataclass(frozen=True)
class BoundaryArc:
    """One arc of real surfaces in the family, with its two limit endpoints.

    ``label`` names the extended-symmetry class realized along the arc,
    ``species`` lists the topological types of the mirror symmetries carried
    by its surfaces, ``endpoints`` are the two limit surfaces the arc joins,
    and ``ovals`` holds the oval count of each symmetry class, in the order
    of :func:`symmetry_classes_with_ovals` (not part of the JSON form).
    """

    label: str
    species: tuple
    endpoints: frozenset
    ovals: tuple

    def __post_init__(self):
        if self.label not in ARC_ENDPOINTS:
            raise ValueError(
                f"arc label must be one of {sorted(ARC_ENDPOINTS)}, got {self.label!r}"
            )
        species = tuple(self.species)
        for sp in species:
            if not isinstance(sp, Species):
                raise InvariantViolation(f"arc species entry {sp!r} is not a Species")
        ends = frozenset(self.endpoints)
        if len(ends) != 2 or not ends <= ENDPOINT_NAMES:
            raise InvariantViolation(
                f"an arc joins two distinct limit surfaces from {sorted(ENDPOINT_NAMES)},"
                f" got {sorted(self.endpoints)}"
            )
        ovals = tuple(self.ovals)
        if len(ovals) != len(species):
            raise InvariantViolation(
                f"arc {self.label} has {len(ovals)} oval counts for {len(species)} species"
            )
        object.__setattr__(self, "species", species)
        object.__setattr__(self, "endpoints", ends)
        object.__setattr__(self, "ovals", ovals)

    @property
    def species_values(self) -> tuple:
        """Signed species values carried along the arc, descending."""
        return tuple(sp.value for sp in self.species)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "species": list(self.species_values),
            "endpoints": sorted(self.endpoints),
        }

    def __str__(self) -> str:
        types = ",".join(str(sp) for sp in self.species)
        ends = " - ".join(sorted(self.endpoints))
        return f"{self.label}[{types}] joining {ends}"


@dataclass(frozen=True)
class WimanCurve:
    """The smooth limit: the curve w^2 = z(z^{2g} - 1) with 8g automorphisms.

    This endpoint is carried symbolically -- defining equation, automorphism
    count (48 in genus 2, where extra symmetries appear), and the signature
    of the quotient by the full symmetry group, all read off the genus --
    rather than as a computed action.
    """

    genus: int

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("the family starts at genus 2")

    @property
    def equation(self) -> str:
        return f"w^2 = z(z^{2 * self.genus} - 1)"

    @property
    def automorphism_count(self) -> int:
        return 48 if self.genus == 2 else 8 * self.genus

    @property
    def quotient_signature(self) -> Signature:
        return wiman_quotient_signature(self.genus)

    def to_json_dict(self) -> dict:
        return {
            "equation": self.equation,
            "automorphisms": self.automorphism_count,
            "quotient_signature": str(self.quotient_signature),
        }

    def __str__(self) -> str:
        return (
            f"{self.equation} with {self.automorphism_count} automorphisms,"
            f" quotient {self.quotient_signature}"
        )


def _require_three_cycle(arcs) -> None:
    """The three arcs must tile the three endpoint pairs of a triangle."""
    pairs = [arc.endpoints for arc in arcs]
    if len(pairs) != 3 or len(set(pairs)) != 3:
        raise InvariantViolation("expected three arcs with three distinct endpoint pairs")
    seen = {}
    for pair in pairs:
        for name in pair:
            seen[name] = seen.get(name, 0) + 1
    if set(seen) != set(ENDPOINT_NAMES) or set(seen.values()) != {2}:
        raise InvariantViolation(
            f"arcs do not close into a single loop: endpoint degrees {seen}"
        )


@dataclass(frozen=True)
class BoundaryDescription:
    """The closed loop of real surfaces bounding the genus-g family.

    Three arcs of real surfaces join three limit surfaces pairwise: the two
    nodal limits (described by their dual graphs) and the high-symmetry
    curve.  Every limit surface is the endpoint of exactly two arcs, so the
    union of the arcs and their limits is a single closed loop; construction
    verifies that cycle together with the genus bookkeeping of each piece.
    """

    genus: int
    arcs: tuple
    dipole_graph: NodalGraph
    rose_graph: NodalGraph

    def __post_init__(self):
        arcs = tuple(self.arcs)
        if tuple(arc.label for arc in arcs) != ("a1", "a2", "b"):
            raise InvariantViolation(
                f"expected arcs labelled ('a1', 'a2', 'b'),"
                f" got {tuple(arc.label for arc in arcs)}"
            )
        _require_three_cycle(arcs)
        for arc in arcs:
            for sp in arc.species:
                if sp.genus != self.genus:
                    raise InvariantViolation(
                        f"arc {arc.label} carries a genus-{sp.genus} species"
                        f" on a genus-{self.genus} family"
                    )
        if self.dipole_graph.label != LABEL_DIPOLE:
            raise InvariantViolation("first graph must be the dipole limit")
        if self.rose_graph.label != LABEL_LOOPS:
            raise InvariantViolation("second graph must be the rose of loops")
        for graph in (self.dipole_graph, self.rose_graph):
            if graph.total_genus != self.genus:
                raise InvariantViolation(
                    f"graph {graph} has total genus {graph.total_genus},"
                    f" expected {self.genus}"
                )
        object.__setattr__(self, "arcs", arcs)

    @property
    def wiman_curve(self) -> WimanCurve:
        return WimanCurve(self.genus)

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "arcs": [arc.to_json_dict() for arc in self.arcs],
            "endpoints": {
                DIPOLE_SURFACE: self.dipole_graph.to_json_dict(),
                ROSE_SURFACE: self.rose_graph.to_json_dict(),
                WIMAN_SURFACE: self.wiman_curve.to_json_dict(),
            },
        }


def boundary_description(v: GeneratingVector, extensions) -> BoundaryDescription:
    """Assemble the annotated arc loop bounding the family of ``v``.

    ``v`` is the family vector whose nodal limits are the two nodal
    endpoints; its genus is the family's, and an extension of another genus
    is a ValueError.  One arc per class of the certified list [a1, a2, b]
    that :func:`build_extensions` returns.  Each arc carries the species
    multiset and the oval counts of its class, both read off one build of
    its symmetry classes, and the fixed endpoint pattern: the first chain
    class joins the two nodal limits, the second chain class joins the rose
    to the high-symmetry curve, and the mixed class joins the dipole to the
    high-symmetry curve.
    """
    g = _require_family_vector(v)
    for e in extensions:
        if e.g != g:
            raise ValueError(
                f"extension {e.label} has genus {e.g}; the family vector has genus {g}"
            )
    dipole = nodal_graph(v, 1)
    rose = nodal_graph(v, 2)
    arcs = []
    for e in extensions:
        classes = symmetry_classes_with_ovals(e)
        arcs.append(
            BoundaryArc(
                e.label,
                species_set(e, classes),
                ARC_ENDPOINTS[e.label],
                tuple(cls.ovals for cls in classes),
            )
        )
    return BoundaryDescription(
        genus=g,
        arcs=arcs,
        dipole_graph=dipole,
        rose_graph=rose,
    )
