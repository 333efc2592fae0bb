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
and assembles the annotated arc loop.  Which two limits each arc joins is
encoded, not derived, in ``ARC_ENDPOINTS``, a constant whose three pairs
close the loop.  Both come back as the plain dicts that the report prints:
a graph is ``{"vertices": [{"genus": h}, ...], "edges": [[i, j], ...],
"label": ...}`` and the loop is ``{"genus", "arcs", "endpoints"}``.
"""

from __future__ import annotations

from fractions import Fraction

from .actions import GeneratingVector, _orbit
from .errors import InvariantViolation
from .groups import _cayley_key
from .signatures import INF, SIGN_PLUS, Signature, normalized_area, wiman_quotient_signature

__all__ = [
    "DIPOLE_SURFACE",
    "ROSE_SURFACE",
    "WIMAN_SURFACE",
    "LABEL_DIPOLE",
    "LABEL_LOOPS",
    "ARC_ENDPOINTS",
    "nodal_graph",
    "boundary_description",
]


# Names of the three limit surfaces at the ends of the real arcs.
DIPOLE_SURFACE = "X_D"  # nodal limit with two components
ROSE_SURFACE = "X_R"  # nodal limit with one genus-0 component
WIMAN_SURFACE = "X_8g"  # smooth limit with 8g automorphisms

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


def nodal_graph(v: GeneratingVector, which: int) -> dict:
    """Dual graph of the nodal limit reached by pinching one curve system.

    ``v`` must be a four-image vector with periods (2, 2, 2, 2g) over a group
    of order 4g.  Writing t1..t4 for its images, ``which`` selects the
    system, as the int 1 or 2: 1 pinches the curve class mapping to t1*t2, 2
    the one mapping to t2*t3.  The pinched class and the two images beside
    it form ``omega``, (t1*t2, t3, t4) or (t2*t3, t1, t4), and the
    degeneration subgroup they generate governs the limit: its index counts
    the components, so index 2 splits the pinched surface in two and index 1
    keeps it connected.  On the canonical family vector the first system
    yields a dipole -- two components of equal genus joined by one node when
    g is even and two when g is odd -- and the second collapses everything
    onto a single genus-0 component carrying g nodes, a rose of loops; for
    other admissible vectors the shapes may differ and the label always
    records the computed shape.  Each component is covered by ``omega`` over
    the orbifold (0;+;[2,2g,inf]), the pinched class mapping to its
    puncture.  So c = |<omega>| / order(pinched class) is both the puncture
    count of a component and its number of edge ends; with chi minus that
    orbifold's normalized area, 2 - 2h - c = |<omega>| * chi solves to the
    component genus h, and a non-integral or negative h raises.

    The graph is returned as ``{"vertices": [{"genus": h}, ...], "edges":
    [[i, j], ...], "label": ...}``: one vertex per component, one sorted
    endpoint pair per node, loops included.  Its arithmetic genus, the
    vertex count times (h - 1) plus the edges plus 1, must equal g.
    """
    g = _require_family_vector(v)
    t1, t2, t3, t4 = v.images
    if type(which) is not int or which not in (1, 2):
        raise ValueError(f"which must be the int 1 or 2, got {which!r}")
    omega = (t1 * t2, t3, t4) if which == 1 else (t2 * t3, t1, t4)
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
        edges = [[0, 0] for _ in range(ends_per_vertex // 2)]
        label = LABEL_LOOPS
    elif vertex_count == 2:
        edges = [[0, 1] for _ in range(ends_per_vertex)]
        label = LABEL_DIPOLE
    else:
        raise InvariantViolation(
            f"degeneration subgroup has index {vertex_count};"
            " the family only produces one- and two-component limits"
        )
    total_genus = vertex_count * (genus - 1) + len(edges) + 1
    if total_genus != g:
        raise InvariantViolation(
            f"{label} graph has total genus {total_genus}, expected {g}"
        )
    return {
        "vertices": [{"genus": genus} for _ in range(vertex_count)],
        "edges": edges,
        "label": label,
    }


# ---------------------------------------------------------------------------
# The three real arcs and their limit surfaces.


def _canonical_member(v: GeneratingVector, g: int) -> GeneratingVector:
    """(A, D^(g+1)A, D^g, D) in v's group; A inverts D, so <A, D> is all of it."""
    G, D = v.group, v.images[3]
    A = next((t for t in v.images[:3] if t * D * t == D.inverse()), None)
    if A is not None:
        canonical = GeneratingVector(G, v.periods, (A, D ** (g + 1) * A, D ** g, D))
        key = _cayley_key(G._table, canonical.indices)
        if key == _cayley_key(G._table, v.indices) or key in _orbit(G, v.indices):
            return canonical
    raise ValueError(f"the family vector is not in the main class of genus {g}")


def boundary_description(v: GeneratingVector, arcs) -> dict:
    """Assemble the annotated arc loop bounding the family of ``v``.

    ``v`` is a vector of the main class on (2, 2, 2, 2g); its genus is the
    family's.  Some representatives pinch to the rose twice, so both nodal
    endpoints are read off the class's canonical member, rebuilt in v's
    group from its image D of order 2g and its first image A inverting D.
    v's braid orbit must hold that member's Cayley key, walked only when v
    has another key; otherwise, or when the member does not pinch to a
    dipole and then to a rose of loops, it is a ValueError.
    ``arcs`` holds one ``(e, species)`` pair per extended-symmetry class,
    in the order a1, a2, b that :func:`build_extensions` certifies, where
    ``species`` is the tuple :func:`species_set` built for the extension
    ``e``; another order is an InvariantViolation and an extension of
    another genus a ValueError.  Each arc joins a fixed pair of limits: the
    first chain class joins the two nodal limits, the second chain class
    joins the rose to the high-symmetry curve, and the mixed class joins
    the dipole to the high-symmetry curve, so every limit ends two arcs and
    the loop closes.

    The result is ``{"genus": g, "arcs": [...], "endpoints": {...}}``.  An
    arc is ``{"label", "species", "endpoints"}`` with the signed species
    values and the sorted endpoint names.  The endpoints are the two nodal
    graphs of :func:`nodal_graph` and the curve w^2 = z(z^{2g} - 1), carried
    symbolically: its equation, its automorphism count (8g, but 48 in genus
    2, where extra symmetries appear) and the signature of the quotient by
    its full symmetry group.
    """
    g = _require_family_vector(v)
    arcs = tuple(arcs)
    labels = tuple(e.label for e, _ in arcs)
    if labels != ("a1", "a2", "b"):
        raise InvariantViolation(f"expected arcs labelled ('a1', 'a2', 'b'), got {labels}")
    for e, _ in arcs:
        if e.g != g:
            raise ValueError(
                f"arc {e.label} carries a genus-{e.g} species;"
                f" the family vector has genus {g}"
            )
    canonical = _canonical_member(v, g)
    dipole, rose = nodal_graph(canonical, 1), nodal_graph(canonical, 2)
    labels = (dipole["label"], rose["label"])
    if labels != (LABEL_DIPOLE, LABEL_LOOPS):
        raise ValueError(
            "the canonical member must pinch to a dipole and a rose of loops,"
            f" got {labels}"
        )
    return {
        "genus": g,
        "arcs": [
            {
                "label": e.label,
                "species": list(species),
                "endpoints": sorted(ARC_ENDPOINTS[e.label]),
            }
            for e, species in arcs
        ],
        "endpoints": {
            DIPOLE_SURFACE: dipole,
            ROSE_SURFACE: rose,
            WIMAN_SURFACE: {
                "equation": f"w^2 = z(z^{2 * g} - 1)",
                "automorphisms": 48 if g == 2 else 8 * g,
                "quotient_signature": str(wiman_quotient_signature(g)),
            },
        },
    }
