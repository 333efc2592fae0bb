"""Real forms of the family surfaces: mirror symmetries, ovals, and species.

An orientation-reversing involution of a genus-g surface (a mirror symmetry)
fixes a disjoint union of simple closed curves called ovals, and either
separates the surface into two halves or does not.  The pair (oval count,
separability) is recorded as the species: +k for a separating symmetry with k
ovals, -k for a non-separating one, 0 when the fixed-point set is empty.

This module reads the full symmetry type off a mirror extension: conjugacy
classes of orientation-reversing involutions in the order-8g group, each
built with its oval count by Gromadzki's centralizer-index formula (summing,
over the non-conjugate canonical reflections whose image falls in the class,
the index of the image of the reflection centralizer inside the centralizer
of the image), and separability signs through an encoded classification
table.  The classes come back as ``(representative, ovals)`` pairs and the
species as signed ints.  ``species_set`` is the one species producer: it
signs the class list that ``symmetry_classes_with_ovals`` built, which its
caller passes in and may read oval counts off as well, and it passes each
value through ``signed_species``, which holds the Harnack bounds.  The
centralizer-image rule is one formula over the extension's signature: the
non-conjugate reflections are c_0..c_(s-1), and each centralizer image is
generated by c_i and the half powers of its two link products.  It is
guarded: for the canonical reflection-chain extensions it must reproduce
eight independently stated subgroups exactly, and any drift aborts the
computation.
"""

from __future__ import annotations

from collections import Counter

from .errors import InvariantViolation
from .extensions import KIND_A, ExtendedAction, _chain_images
from .groups import GroupElement, _class_minima


def signed_species(genus: int, ovals: int, separating: bool) -> int:
    """Signed species of one mirror symmetry on a genus-g surface: +ovals,
    -ovals, or 0 for an empty fixed-point set.

    The Harnack constraints are checked: 0 <= ovals <= genus + 1 always; a
    separating symmetry has at least one oval, at most genus + 1, and oval
    count congruent to genus + 1 mod 2; a non-separating one has at most
    genus ovals.  Together these pin the signed value into [-genus, genus+1].
    """
    if genus < 2:
        raise InvariantViolation("species are tracked for genus >= 2 only")
    if ovals < 0:
        raise InvariantViolation("oval count cannot be negative")
    if separating:
        if ovals < 1:
            raise InvariantViolation("a separating symmetry has at least one oval")
        if ovals > genus + 1:
            raise InvariantViolation(f"{ovals} ovals exceed the bound {genus + 1}")
        if ovals % 2 != (genus + 1) % 2:
            raise InvariantViolation(
                f"a separating symmetry needs ovals = genus+1 mod 2;"
                f" got {ovals} on genus {genus}"
            )
    elif ovals > genus:
        raise InvariantViolation(
            f"a non-separating symmetry has at most genus = {genus} ovals"
        )
    return ovals if separating else -ovals


def _rule_generators(e: ExtendedAction, position: int) -> tuple:
    """Generators of the image of the centralizer of canonical reflection c_i.

    Both link periods adjacent to every reflection here are even, so the
    image subgroup is generated by c_i itself plus the half powers of its two
    link products: (c_i, (c_(i-1)*c_i)^(n_(i-1)/2), (c_i*c_(i+1))^(n_i/2)).
    At i = 0 the missing neighbour c_(-1) = e*c_(s-1)*e^-1 comes from the
    connecting generator e.
    """
    links = e.signature.period_cycles[0]
    cycle = e.reflection_cycle
    conn = e.connecting_image
    r = cycle[position]
    before = conn * cycle[-2] * conn.inverse() if position == 0 else cycle[position - 1]
    left = (before * r) ** (links[position - 1] // 2)
    right = (r * cycle[position + 1]) ** (links[position] // 2)
    return (r, left, right)


def _check_stated_subgroups(e: ExtendedAction, members_by_position: dict):
    """Guard: the rule must reproduce the eight stated image subgroups.

    For the two canonical reflection-chain classes the image of each
    reflection centralizer is known in closed form; computing anything else
    means the rule (or the group layer under it) broke, so abort.
    """
    G = e.group
    w, x, y = G.generator("w"), G.generator("x"), G.generator("y")
    half_turn = (w * x) ** e.g
    if e.label == "a1":
        expected = {
            0: (x, half_turn, y),
            1: (x, half_turn * w, y),
            2: (w, half_turn, y),
            3: (w, half_turn),
        }
    else:
        expected = {
            0: (x, half_turn, y),
            1: (x, half_turn, y),
            2: (w, half_turn, y),
            3: (w, half_turn, y),
        }
    for position, gens in expected.items():
        if G.subgroup(gens) != members_by_position[position]:
            raise InvariantViolation(
                f"centralizer-image rule drifted from the stated subgroup at"
                f" reflection {position} of class {e.label}"
            )


def _reflection_records(e: ExtendedAction) -> tuple:
    """Per reflection representative: (position, image, centralizer index).

    Checks on the way: the rule subgroup sits inside the centralizer of the
    image, the index is a whole number, and for the canonical kind-a
    extensions the subgroup equals its stated closed form.
    """
    G = e.group
    records = []
    members_by_position = {}
    # c_s = e^-1 c_0 e, so c_0..c_(s-1) are the reflections up to conjugacy
    for position in range(len(e.reflection_cycle) - 1):
        r, left, right = _rule_generators(e, position)
        image = G.subgroup((r, left, right))
        centralizer = G.centralizer(r)
        if not image <= centralizer:
            raise InvariantViolation(
                f"image of the reflection centralizer at position {position}"
                " escapes the centralizer of the image"
            )
        if len(centralizer) % len(image):
            raise InvariantViolation(
                f"centralizer index at position {position} is not an integer"
            )
        members_by_position[position] = image
        records.append((position, r, len(centralizer) // len(image)))
    if e.kind == KIND_A and _chain_images(e.group, e.g).get(e.label) == e.images:
        _check_stated_subgroups(e, members_by_position)
    return tuple(records)


def symmetry_classes_with_ovals(e: ExtendedAction) -> list:
    """Conjugacy classes of orientation-reversing involutions of the target,
    as ``(representative, ovals)`` pairs: the class's smallest element and
    the number of ovals each of its involutions fixes, by Gromadzki's formula.

    A class's count sums, over the non-conjugate canonical reflections whose
    image lands in the class, the index of the image of the reflection
    centralizer inside the centralizer of the reflection image.  Classes hit
    by no reflection get 0: they act freely on curves.  Classes come back
    ordered by their smallest element index, so the output is deterministic.
    """
    G = e.group
    class_of = G._class_index()[1]
    ovals = Counter()
    for _, image, index in _reflection_records(e):
        ovals[class_of[image.idx]] += index
    kappa = e.orientation
    reversing = {i for i in range(G.order) if kappa[i] == -1 and G.element_order(i) == 2}
    return [(G.element(i), ovals[class_of[i]]) for i in _class_minima(G, reversing)]


# Signed species multisets per (extension label, genus parity).  Signs that
# the parity rule leaves ambiguous are fixed by published classification data
# for this family; entries depending on g are computed on demand.
_SIGN_TABLE = {
    ("a1", 1): lambda g: (2, 0, -2, -2),
    ("a1", 0): lambda g: (1, 0, -1, -3),
    ("a2", 1): lambda g: (-1, -1, -g, -g),
    ("a2", 0): lambda g: (-1, -1, -g, -g),
    ("b", 1): lambda g: (0, 0, -2, -2),
    ("b", 0): lambda g: (-2,),
}


def species_set(e: ExtendedAction, classes) -> tuple:
    """The multiset of species realized by the symmetries of an extension.

    ``classes`` is the list :func:`symmetry_classes_with_ovals` built for
    ``e``; its oval counts are signed in order: an empty fixed-point set
    gives species 0; an oval count with the wrong parity (k != g+1 mod 2)
    can only be non-separating; a maximal count k = g+1 can only be
    separating; remaining signs come from the encoded table.  The table's
    absolute values must reproduce the computed counts exactly —
    disagreement raises instead of guessing.  Each value passes
    :func:`signed_species`; the tuple of signed ints is sorted descending.
    """
    g = e.g
    key = (e.label, g % 2)
    if key not in _SIGN_TABLE:
        raise ValueError(f"no species data for extension label {e.label!r}")
    counts = sorted(ovals for _, ovals in classes)
    signed = _SIGN_TABLE[key](g)
    if sorted(abs(v) for v in signed) != counts:
        raise InvariantViolation(
            f"encoded sign data {signed} disagrees with computed oval counts"
            f" {counts} for {e.label} at genus {g}"
        )
    result = []
    for v in signed:
        k = abs(v)
        if k == 0:
            separating = False
        elif k % 2 != (g + 1) % 2:
            if v > 0:
                raise InvariantViolation(
                    f"sign table marks {k} ovals separating at genus {g},"
                    " contradicting the parity rule"
                )
            separating = False
        elif k == g + 1:
            # a symmetry with the maximal number of ovals always separates
            separating = True
        else:
            separating = v > 0
        result.append(signed_species(g, k, separating))
    return tuple(sorted(result, reverse=True))
