"""Mirror-extended symmetry groups of the dihedral family and their restrictions.

Every surface in the main family admits orientation-reversing symmetries, so
its order-4g dihedral action sits with index two inside a full symmetry group
of order 8g.  Two quotient shapes occur:

* the reflection-chain shape ``(0;+;[-];{(2,2,2,2g)})`` (kind ``a``), whose
  target group is a dihedral group of order 4g generated by two reflections
  times a central reflection, with exactly two inequivalent boundary
  epimorphisms (labels ``a1`` and ``a2``);
* the one-cone-point shape ``(0;+;[2];{(2,2g)})`` (kind ``b``), whose target
  is the order-8g extension of the same dihedral group by an
  orientation-preserving involution, with a single epimorphism class
  (label ``b``).

``build_extensions`` does not take these counts on faith: it enumerates the
assignments of canonical generators that satisfy the defining relations, up
to conjugating the first image, and certifies that each generating one is
equivalent, through a character-preserving automorphism of the target (plus
the chain-reversal relabelling for kind ``a``), to exactly one canonical
epimorphism.  Each tuple gets one Cayley key (``groups._cayley_key``); each
canonical epimorphism owns its key and, for kind ``a``, its reversal's key.
No key may be owned twice, and every canonical epimorphism must be reached.
``restrict_to_index2`` rebuilds the orientation-preserving action from each
extension; callers check that it lands in the unique class of the parent
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .actions import GeneratingVector, kernel_genus
from .errors import InvariantViolation
from .groups import (
    FiniteGroup,
    GroupElement,
    Subgroup,
    _cayley_key,
    _class_minima,
    _small_generating_set,
    cyclic,
    dihedral_from_reflections,
    direct_product,
    semidirect_with_automorphism,
)
from .signatures import Signature, chain_signature, mixed_signature

KIND_A = "a"
KIND_B = "b"

# Canonical generator slots stored on an ExtendedAction, by kind.  For the
# one-cone-point shape the connecting generator e equals a^-1 = a, so only
# the elliptic generator and the reflections need explicit images.
_SLOTS = {KIND_A: ("c0", "c1", "c2", "c3"), KIND_B: ("a", "c0", "c1", "c2")}


@lru_cache(maxsize=None)
def chain_target_group(g: int) -> FiniteGroup:
    """Order-8g target for kind a: reflection dihedral times a central reflection.

    Generators w, x are the dihedral reflections (wx has order 2g) and y is
    the extra central involution; all three reverse orientation.
    """
    if g < 2:
        raise ValueError(f"g must be at least 2, got {g}")
    group = direct_product(
        dihedral_from_reflections(4 * g, names=("w", "x")),
        cyclic(2, gen_name="y"),
        name=f"mirror-a({g})",
    )
    group.attach_orientation({"w": -1, "x": -1, "y": -1})
    return group


@lru_cache(maxsize=None)
def cone_target_group(g: int) -> FiniteGroup:
    """Order-8g target for kind b: the reflection dihedral extended by x.

    Presentation <x, z, w : x^2 = z^2 = w^2 = (zw)^(2g) = 1,
    x z x = (zw)^(g-1) z, x w x = (zw)^g z>: the dihedral group on the
    reflections z, w extended by the involution x.  Orientation character:
    z and w reverse, x preserves.
    """
    if g < 2:
        raise ValueError(f"g must be at least 2, got {g}")
    base = dihedral_from_reflections(4 * g, names=("z", "w"))
    n = 2 * g

    def pack(i, d):
        return i + n * d

    # conjugation by x sends t -> t^-1 and t^i w -> t^(g+1-i) w  (t = zw)
    mapping = [0] * (4 * g)
    for i in range(n):
        mapping[pack(i, 0)] = pack((-i) % n, 0)
        mapping[pack(i, 1)] = pack((g + 1 - i) % n, 1)
    group = semidirect_with_automorphism(
        base, mapping, top_order=2, top_name="x", name=f"Gb({g})"
    )
    group.attach_orientation({"z": -1, "w": -1, "x": 1})
    return group


@dataclass(frozen=True)
class ExtendedAction:
    """A boundary epimorphism from a mirror signature group onto an order-8g group.

    ``images`` holds the images of the canonical generators listed in
    ``generator_names`` (reflections c0..c3 for kind a; the elliptic
    involution a followed by reflections c0..c2 for kind b).  The kind fixes
    both those names and the ``signature``.  Construction checks every
    defining relation, the orientation character on each image, the exact
    torsion orders (which make the kernel torsion-free), generation, and
    that the kernel has genus g.
    """

    g: int
    kind: str
    label: str
    group: FiniteGroup
    images: tuple

    def __post_init__(self):
        g = self.g
        group = self.group
        if self.kind not in _SLOTS:
            raise InvariantViolation(f"unknown extension kind {self.kind!r}")
        if len(self.images) != len(self.generator_names):
            raise InvariantViolation("one image per canonical generator is required")
        for e in self.images:
            if not isinstance(e, GroupElement) or e.group is not group:
                raise InvariantViolation("images must belong to the target group")
        if group.order != 8 * g:
            raise InvariantViolation(
                f"target group has order {group.order}, expected {8 * g}"
            )
        if self.kind == KIND_A:
            reflections = self.images
            link = (2, 2, 2, 2 * g)
        else:
            a, c0, c1, c2 = self.images
            if group.kappa(a) != 1 or a.order() != 2:
                raise InvariantViolation(
                    "the elliptic generator must map to an orientation-preserving"
                    " involution"
                )
            if c2 != a * c0 * a:
                raise InvariantViolation(
                    "the wrapped reflection must be the conjugate of c0 by a"
                )
            reflections = (c0, c1, c2)
            link = (2, 2 * g)
        for e in reflections:
            if e.order() != 2:
                raise InvariantViolation(f"reflection image {e.name} is not an involution")
            if group.kappa(e) != -1:
                raise InvariantViolation(
                    f"reflection image {e.name} preserves orientation"
                )
        for i, n in enumerate(link):
            left = reflections[i]
            right = reflections[(i + 1) % len(reflections)]
            got = (left * right).order()
            if got != n:
                raise InvariantViolation(
                    f"link product {left.name}*{right.name} has order {got},"
                    f" the signature demands exactly {n}"
                )
        span = group._closure_idx([e.idx for e in self.images])
        if len(span) != group.order:
            raise InvariantViolation("images do not generate the full target group")
        if kernel_genus(group.order, self.signature) != g:
            raise InvariantViolation("kernel genus does not match g")

    @property
    def signature(self) -> Signature:
        """The reflection signature of the kind: chain for a, mixed for b."""
        return chain_signature(self.g) if self.kind == KIND_A else mixed_signature(self.g)

    @property
    def generator_names(self) -> tuple:
        """The canonical generators whose images are stored, in order."""
        return _SLOTS[self.kind]

    def image(self, name: str) -> GroupElement:
        """Image of the named canonical generator."""
        return self.images[self.generator_names.index(name)]

    @property
    def reflection_images(self) -> tuple:
        """Images of the canonical reflections, in chain order."""
        if self.kind == KIND_A:
            return self.images
        return self.images[1:]

    @property
    def connecting_image(self) -> GroupElement:
        """Image of the connecting generator closing the period cycle.

        Trivial for kind a (the cycle closes on itself); for kind b it equals
        the image of the elliptic involution a, since a*e = 1 forces e = a.
        """
        if self.kind == KIND_A:
            return self.group.identity
        return self.image("a")

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{name}->{e.name}" for name, e in zip(self.generator_names, self.images)
        )
        return f"[{self.label}] {self.signature}: {pairs}"


def _admissible_chain_tuples(G: FiniteGroup, g: int) -> list:
    """Index tuples (r0..r3) satisfying the reflection-chain relations.

    Each entry must be an orientation-reversing involution, and consecutive
    products must have exact orders (2, 2, 2) with the closing product of
    order exactly 2g.  Conjugation preserves the relations and the
    character, so r0 runs only over conjugacy class minima.  Generation is
    settled by :func:`_verify_unique_classes`.
    """
    n = G.order
    kappa = G.orientation
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


def _admissible_cone_tuples(G: FiniteGroup, g: int) -> list:
    """Index tuples (a, c0, c1, c2) satisfying the one-cone-point relations.

    a must be an orientation-preserving involution, c0 and c1 orientation
    reversing involutions, c2 is forced to be a*c0*a, and the product c0*c1
    must have order exactly 2 and c1*c2 order exactly 2g.  As for the chain,
    a runs only over class minima, and generation is settled later.
    """
    n = G.order
    kappa = G.orientation
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


def _verify_unique_classes(
    G: FiniteGroup, tuples: list, canon: list, allow_reversal: bool
) -> dict:
    """Check every generating tuple has the Cayley key of one canonical class.

    Equal keys mean an automorphism of G maps one tuple onto the other entry
    by entry; it preserves the orientation character, as equal positions
    carry equal signs.  Such a map also sends t[::-1] onto the other tuple's
    reversal, so where reversal is allowed each canonical class owns two
    keys, its tuple's and its reversal's, and every tuple needs only its own
    key.  A key of length ``len(t) * |G|`` means t generates G; other tuples
    are skipped.  Returns ``owner``: each generating tuple -> its canonical
    index.
    """
    table = G._table
    names = {}
    for k, rep in enumerate(canon):
        for t in (rep, rep[::-1]) if allow_reversal else (rep,):
            if names.setdefault(_cayley_key(table, t), k) != k:
                raise InvariantViolation(
                    "canonical epimorphisms are equivalent; the classification collapsed"
                )
    owner = {}
    for t in tuples:
        key = _cayley_key(table, t)
        if len(key) != len(t) * G.order:
            continue
        k = names.get(key)
        if k is None:
            raise InvariantViolation(
                f"admissible assignment {t} matches 0 canonical"
                " epimorphisms; expected exactly one"
            )
        owner[t] = k
    if len(set(owner.values())) != len(canon):
        raise InvariantViolation(
            "a canonical epimorphism is missing from the admissible"
            " assignments; the enumeration is broken"
        )
    return owner


def _distinct_image_classes(action: ExtendedAction) -> int:
    """Number of distinct conjugacy classes met by the reflection images."""
    class_of = action.group._class_index()[1]
    return len({class_of[e.idx] for e in action.reflection_images})


@lru_cache(maxsize=None)
def _build_chain_extensions(g: int) -> tuple:
    G = chain_target_group(g)
    w = G.generator("w")
    x = G.generator("x")
    y = G.generator("y")
    rotation = w * x
    first = (x, y, (rotation ** g) * w, w)
    second = (x, y, y * (rotation ** g), w)
    actions = (
        ExtendedAction(g, KIND_A, "a1", G, first),
        ExtendedAction(g, KIND_A, "a2", G, second),
    )
    canon = [tuple(e.idx for e in a.images) for a in actions]
    _verify_unique_classes(G, _admissible_chain_tuples(G, g), canon, allow_reversal=True)
    # The two classes are told apart by how many conjugacy classes their
    # reflection images hit: a1 sends two chain generators into the same
    # class, a2 spreads over four.
    if _distinct_image_classes(actions[0]) != 3 or _distinct_image_classes(actions[1]) != 4:
        raise InvariantViolation("labels a1/a2 no longer match their class spread")
    return actions


@lru_cache(maxsize=None)
def _build_cone_extensions(g: int) -> tuple:
    G = cone_target_group(g)
    x = G.generator("x")
    z = G.generator("z")
    w = G.generator("w")
    action = ExtendedAction(g, KIND_B, "b", G, (x, x * w * x, z, w))
    canon = [tuple(e.idx for e in action.images)]
    _verify_unique_classes(G, _admissible_cone_tuples(G, g), canon, allow_reversal=False)
    return (action,)


def build_extensions(g: int, kind: str) -> list:
    """The equivalence classes of order-8g extensions of the genus-g action.

    Kind ``a`` returns the two reflection-chain classes (labels a1, a2); kind
    ``b`` returns the single one-cone-point class.  The counts are certified
    by Cayley keys (:func:`_verify_unique_classes`): every generating
    assignment satisfying the defining relations has a key owned by one
    canonical epimorphism, each of those is reached, and no key is owned by
    two of them.  A failure raises InvariantViolation rather than returning a
    partial answer.
    """
    if not isinstance(g, int) or g < 2:
        raise ValueError(f"g must be an integer >= 2, got {g!r}")
    if kind == KIND_A:
        return list(_build_chain_extensions(g))
    if kind == KIND_B:
        return list(_build_cone_extensions(g))
    raise ValueError(f"kind must be 'a' or 'b', got {kind!r}")


def orientation_preserving_subgroup(G: FiniteGroup) -> FiniteGroup:
    """The index-2 subgroup of orientation-preserving elements, as a group.

    The result is cached on G and carries the usual ``from_parent`` /
    ``parent_indices`` reindexing data.
    """
    cached = getattr(G, "_plus_part", None)
    if cached is not None:
        return cached
    kappa = G.orientation
    if kappa is None:
        raise ValueError(f"group {G.name} has no orientation character attached")
    members = frozenset(i for i in range(G.order) if kappa[i] == 1)
    if len(members) * 2 != G.order:
        raise InvariantViolation(
            "orientation-preserving elements do not form an index-2 subgroup"
        )
    sub = Subgroup(G, members, _small_generating_set(G._table, members))
    plus = sub.as_group(name=f"{G.name}+")
    G._plus_part = plus
    return plus


def restrict_to_index2(e: ExtendedAction) -> GeneratingVector:
    """The orientation-preserving action carried inside an extension.

    Rewrites the canonical generators of the index-2 orientable subgroup in
    terms of the extension's generators and takes images: for kind a the four
    consecutive reflection products, for kind b the elliptic involution, its
    c0-conjugate, and the two leading reflection products.  The result is a
    generating vector on periods (2, 2, 2, 2g); anything else means the
    extension is broken and raises InvariantViolation.
    """
    G = e.group
    if e.kind == KIND_A:
        c0, c1, c2, c3 = e.images
        words = (c0 * c1, c1 * c2, c2 * c3, c3 * c0)
    else:
        a, c0, c1, c2 = e.images
        words = (a, c0 * a * c0, c0 * c1, c1 * c2)
    plus = orientation_preserving_subgroup(G)
    images = []
    for p in words:
        if G.kappa(p) != 1:
            raise InvariantViolation(
                f"restriction word {p.name} reverses orientation; the extension"
                " is broken"
            )
        images.append(plus.element(plus.from_parent[p.idx]))
    periods = tuple(img.order() for img in images)
    if tuple(sorted(periods)) != (2, 2, 2, 2 * e.g):
        raise InvariantViolation(
            f"restriction is not smooth: periods {periods} instead of"
            f" (2, 2, 2, {2 * e.g})"
        )
    return GeneratingVector(plus, periods, tuple(images))
