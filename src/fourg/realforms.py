"""Real forms of the family surfaces: mirror symmetries, ovals, and species.

An orientation-reversing involution of a genus-g surface (a mirror symmetry)
fixes a disjoint union of simple closed curves called ovals, and either
separates the surface into two halves or does not.  The pair (oval count,
separability) is recorded as the species: +k for a separating symmetry with k
ovals, -k for a non-separating one, 0 when the fixed-point set is empty.

This module reads the full symmetry type off a mirror extension: conjugacy
classes of orientation-reversing involutions in the order-8g group, oval
counts through Gromadzki's centralizer-index formula (summing, over the
non-conjugate canonical reflections whose image falls in the class, the index
of the image of the reflection centralizer inside the centralizer of the
image), and separability signs through an encoded classification table.  The
centralizer-image rule is guarded: for the canonical reflection-chain
extensions it must reproduce eight independently stated subgroups exactly,
and any drift aborts the computation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .errors import InvariantViolation
from .extensions import KIND_A, KIND_B, ExtendedAction, build_extensions
from .groups import GroupElement


@dataclass(frozen=True)
class Species:
    """Topological type of one mirror symmetry on a genus-g surface.

    Invariants follow the Harnack constraints: 0 <= ovals <= genus + 1 always;
    a separating symmetry has at least one oval, at most genus + 1, and oval
    count congruent to genus + 1 mod 2; a non-separating one has at most
    genus ovals.  Together these pin the signed value into [-genus, genus+1].
    """

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

    def __str__(self) -> str:
        v = self.value
        return f"+{v}" if v > 0 else str(v)


@dataclass(frozen=True)
class SymmetryClass:
    """A conjugacy class of orientation-reversing involutions in an extension.

    ``ovals`` stays None until filled by :func:`count_ovals`.
    """

    action: ExtendedAction
    representative: GroupElement
    ovals: int = None

    def __post_init__(self):
        G = self.action.group
        rep = self.representative
        if not isinstance(rep, GroupElement) or rep.group is not G:
            raise InvariantViolation("representative must live in the target group")
        if rep.order() != 2:
            raise InvariantViolation("representative must be an involution")
        if G.kappa(rep) != -1:
            raise InvariantViolation("representative must reverse orientation")
        if self.ovals is not None and (not isinstance(self.ovals, int) or self.ovals < 0):
            raise InvariantViolation("oval count must be a non-negative integer")

    @property
    def size(self) -> int:
        """Number of involutions in the class."""
        return self.action.group.class_size(self.representative.idx)

    def with_ovals(self, k: int) -> "SymmetryClass":
        return replace(self, ovals=k)

    def __str__(self) -> str:
        filled = "?" if self.ovals is None else str(self.ovals)
        return f"[{self.representative.name}] ovals={filled}"


def symmetry_classes(e: ExtendedAction) -> list:
    """Conjugacy classes of orientation-reversing involutions of the target.

    Oval counts are left unfilled.  Classes come back ordered by their
    smallest element index, so the output is deterministic.
    """
    G = e.group
    kappa = G.orientation
    classes = G.conjugacy_classes(
        predicate=lambda el: el.order() == 2 and kappa[el.idx] == -1
    )
    return [SymmetryClass(e, cls[0]) for cls in classes]


def _rule_generators(e: ExtendedAction, position: int) -> tuple:
    """Generators of the image of the centralizer of a canonical reflection.

    Both link periods adjacent to every reflection here are even, so the
    image subgroup is generated by the reflection image itself plus the half
    powers of the two adjacent link products.  At the ends of the kind-b
    chain the missing neighbor is supplied by conjugation with the connecting
    generator (which maps to the elliptic image a, as a*e = 1).
    """
    refl = e.reflection_images
    g = e.g
    if e.kind == KIND_A:
        links = (2, 2, 2, 2 * g)
        r = refl[position]
        left_pair = refl[(position - 1) % 4] * r
        right_pair = r * refl[(position + 1) % 4]
        left = left_pair ** (links[(position - 1) % 4] // 2)
        right = right_pair ** (links[position] // 2)
        return (r, left, right)
    c0, c1, c2 = refl
    wrapped = e.connecting_image * c1 * e.connecting_image
    if position == 0:
        return (c0, (wrapped * c0) ** g, c0 * c1)
    if position == 1:
        return (c1, c0 * c1, (c1 * c2) ** g)
    if position == 2:
        return (c2, (c1 * c2) ** g, c2 * wrapped)
    raise ValueError(f"no canonical reflection at position {position}")


def _reflection_positions(e: ExtendedAction) -> tuple:
    """Positions of the canonical reflections up to conjugacy in the source.

    All four chain reflections of kind a are pairwise non-conjugate (every
    link period is even).  In kind b the wrapped reflection c2 is the
    conjugate of c0 by the connecting generator, so only c0 and c1 remain.
    """
    return (0, 1, 2, 3) if e.kind == KIND_A else (0, 1)


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
        stated = G.subgroup(gens).element_indices
        if stated != members_by_position[position]:
            raise InvariantViolation(
                f"centralizer-image rule drifted from the stated subgroup at"
                f" reflection {position} of class {e.label}"
            )


@lru_cache(maxsize=None)
def _reflection_records(e: ExtendedAction) -> tuple:
    """Per reflection representative: (position, image, centralizer index).

    Checks on the way: the rule subgroup sits inside the centralizer of the
    image, the index is a whole number, and for the canonical kind-a
    extensions the subgroup equals its stated closed form.
    """
    G = e.group
    records = []
    members_by_position = {}
    for position in _reflection_positions(e):
        r, left, right = _rule_generators(e, position)
        image_sub = G.subgroup((r, left, right))
        centralizer = G.centralizer(r)
        if not image_sub.element_indices <= centralizer.element_indices:
            raise InvariantViolation(
                f"image of the reflection centralizer at position {position}"
                " escapes the centralizer of the image"
            )
        if centralizer.order % image_sub.order:
            raise InvariantViolation(
                f"centralizer index at position {position} is not an integer"
            )
        members_by_position[position] = image_sub.element_indices
        records.append((position, r, centralizer.order // image_sub.order))
    if e.kind == KIND_A and e in build_extensions(e.g, e.kind):
        _check_stated_subgroups(e, members_by_position)
    return tuple(records)


def count_ovals(e: ExtendedAction, cls: SymmetryClass) -> int:
    """Ovals fixed by the involutions in the class, by Gromadzki's formula.

    Sums, over the non-conjugate canonical reflections whose image lands in
    the class, the index of the image of the reflection centralizer inside
    the centralizer of the reflection image.  Classes whose involutions are
    hit by no reflection get 0: they act freely on curves.
    """
    if cls.action != e:
        raise ValueError("the symmetry class belongs to a different extension")
    class_of = e.group._class_index()[1]
    target = class_of[cls.representative.idx]
    total = 0
    for _, image, index in _reflection_records(e):
        if class_of[image.idx] == target:
            total += index
    return total


def symmetry_classes_with_ovals(e: ExtendedAction) -> list:
    """Symmetry classes with their oval counts filled in."""
    return [cls.with_ovals(count_ovals(e, cls)) for cls in symmetry_classes(e)]


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


def species_set(e: ExtendedAction) -> tuple:
    """The multiset of species realized by the symmetries of an extension.

    Oval counts are computed; signs are then resolved in order: an empty
    fixed-point set gives species 0; an oval count with the wrong parity
    (k != g+1 mod 2) can only be non-separating; a maximal count k = g+1 can
    only be separating; remaining signs come from the encoded table.  The
    table's absolute values must reproduce the computed counts exactly —
    disagreement raises instead of guessing.  Sorted by descending value.
    """
    g = e.g
    key = (e.label, g % 2)
    if key not in _SIGN_TABLE:
        raise ValueError(f"no species data for extension label {e.label!r}")
    counts = sorted(count_ovals(e, cls) for cls in symmetry_classes(e))
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
        result.append(Species(g, k, separating))
    return tuple(sorted(result, key=lambda s: -s.value))
