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

The kind fixes only the signature; the rest of an extension's shape (stored
images and their names, relation checks, whether chain reversal applies,
restriction words) is read off the canonical presentation of that NEC
signature (Bujalance, Cirre, Gamboa & Gromadzki, *Symmetries of Compact
Riemann Surfaces*, LNM 2007).  ``build_extensions(main)`` takes the unique
class of the order-4g action and returns the three classes as one list
[a1, a2, b], and it does not take the counts on faith.  An extension is an
index-2 NEC group over the orbifold group Delta(2,2,2,2g); conjugation by
its reflection c0 is an automorphism phi of Delta, and an action through a
generating tuple t extends exactly when some automorphism of the group maps
t onto phi(t), that is when phi fixes the Cayley key of t (D. Singerman,
"Symmetries of Riemann surfaces with large automorphism group", Math. Ann.
210, 1974).  The quotient allows two shapes of phi, one per kind, and the
chain reversal relabels kind a's generators.  So the extension classes are
the keys of the main class that phi_a and phi_b fix, the phi_a-fixed ones
paired by reversal, and the certificate checks that the restrictions of the
canonical epimorphisms land on exactly those keys, one class per pair.
``restrict_to_index2`` writes the orientation-preserving action of each
extension as words in the extension's own group; a Cayley key walks only the
index-2 half the words generate, so they key against the main class directly.
"""

from __future__ import annotations

from .actions import ActionClass, kernel_genus
from .errors import InvariantViolation
from .groups import (
    FiniteGroup,
    GroupElement,
    _cayley_key,
    _closure,
    _extend_hom,
    cyclic,
    dihedral_from_reflections,
    direct_product,
    semidirect_with_automorphism,
)
from .signatures import chain_signature, mixed_signature

KIND_A = "a"
KIND_B = "b"


def chain_target_group(g: int) -> FiniteGroup:
    """Order-8g target for kind a: reflection dihedral times a central reflection.

    Generators w, x are the dihedral reflections (wx has order 2g) and y is
    the extra central involution.  The group carries no orientation
    character: each extension computes its own from its images.
    """
    if g < 2:
        raise ValueError(f"g must be at least 2, got {g}")
    return direct_product(
        dihedral_from_reflections(4 * g, names=("w", "x")),
        cyclic(2, gen_name="y"),
        name=f"mirror-a({g})",
    )


def cone_target_group(g: int) -> FiniteGroup:
    """Order-8g target for kind b: the reflection dihedral extended by x.

    Presentation <x, z, w : x^2 = z^2 = w^2 = (zw)^(2g) = 1,
    x z x = (zw)^(g-1) z, x w x = (zw)^g z>: the dihedral group on the
    reflections z, w extended by the involution x.  The group carries no
    orientation character: each extension computes its own from its images.
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
    return semidirect_with_automorphism(
        base, mapping, top_order=2, top_name="x", name=f"Gb({g})"
    )


# C2 = {+1, -1} as a table over {0, 1}: 0 is +1 and 1 is -1.
_C2_TABLE = ((0, 1), (1, 0))


class ExtendedAction:
    """A boundary epimorphism from a mirror signature group onto an order-8g group.

    The ``signature`` (0;+;[m_1..m_r];{(n_1..n_s)}) is the only thing the
    kind fixes.  Its canonical generators are the elliptic x_1..x_r, the
    connecting e and the reflections c_0..c_s, with x_1...x_r*e = 1,
    c_s = e^-1 c_0 e and each link product c_(j-1)*c_j of exact order n_j.
    ``images`` holds the images of x_1..x_r, then of c_0..c_(s-1), then of
    c_s when r > 0; with r = 0, e = 1 and c_s = c_0 is not stored.
    Construction checks every defining relation, the exact torsion orders
    (which make the kernel torsion-free), generation, and that the kernel
    has genus g.  The orientation character of the epimorphism sends the
    elliptic generators to +1 and the reflections to -1; construction
    computes it from the images, one sign per element of ``group``, and
    stores it as ``orientation``.  Images that define no character are
    rejected.  The ``signature`` is built once, from the kind.
    """

    __slots__ = ("g", "kind", "label", "group", "images", "signature", "orientation")

    def __init__(self, g: int, kind: str, label: str, group: FiniteGroup, images: tuple):
        self.g, self.kind, self.label, self.group, self.images = g, kind, label, group, images
        # the reflection signature of the kind: chain for a, mixed for b
        if kind == KIND_A:
            self.signature = sig = chain_signature(g)
        elif kind == KIND_B:
            self.signature = sig = mixed_signature(g)
        else:
            raise InvariantViolation(f"unknown extension kind {kind!r}")
        periods, (links,) = sig.proper_periods, sig.period_cycles
        if len(images) != len(periods) + len(links) + (len(periods) > 0):
            raise InvariantViolation("one image per canonical generator is required")
        for e in images:
            if not isinstance(e, GroupElement) or e.group is not group:
                raise InvariantViolation("images must belong to the target group")
        if group.order != 8 * g:
            raise InvariantViolation(
                f"target group has order {group.order}, expected {8 * g}"
            )
        cycle = self.reflection_cycle
        for m, x in zip(periods, images):
            if x.order() != m:
                raise InvariantViolation(
                    f"the elliptic generator must map to an element of order {m}"
                )
        for e in cycle:
            if e.order() != 2:
                raise InvariantViolation(f"reflection image {e.name} is not an involution")
        for n, left, right in zip(links, cycle, cycle[1:]):
            got = (left * right).order()
            if got != n:
                raise InvariantViolation(
                    f"link product {left.name}*{right.name} has order {got},"
                    f" the signature demands exactly {n}"
                )
        conn = self.connecting_image
        if cycle[-1] != conn.inverse() * cycle[0] * conn:
            raise InvariantViolation(
                "the wrapped reflection must be the conjugate of c0 by the"
                " connecting generator"
            )
        if len(_closure(group._table, [e.idx for e in images])) != group.order:
            raise InvariantViolation("images do not generate the full target group")
        r = len(periods)
        pairs = [(x.idx, 0) for x in images[:r]]
        pairs += [(c.idx, 1) for c in images[r:]]
        closed = _extend_hom(group._table, _C2_TABLE, pairs)
        if closed is None:
            raise InvariantViolation(
                "no orientation character sends the elliptic images to +1"
                " and the reflection images to -1"
            )
        self.orientation = tuple(1 - 2 * v for v in closed[0])
        if kernel_genus(group.order, sig) != g:
            raise InvariantViolation("kernel genus does not match g")

    @property
    def connecting_image(self) -> GroupElement:
        """Image of the connecting generator e = (x_1...x_r)^-1."""
        word = self.group.identity
        for x in self.images[: len(self.signature.proper_periods)]:
            word = word * x
        return word.inverse()

    @property
    def reflection_cycle(self) -> tuple:
        """Images of the canonical reflections c_0..c_s, in cycle order."""
        sig = self.signature
        cycle = self.images[len(sig.proper_periods):]
        if len(cycle) == len(sig.period_cycles[0]):
            cycle += cycle[:1]  # r = 0: e = 1, so c_s = c_0
        return cycle


def _distinct_image_classes(action: ExtendedAction) -> int:
    """Number of distinct conjugacy classes met by the reflection images."""
    class_of = action.group._class_index()[1]
    return len({class_of[e.idx] for e in action.reflection_cycle})


def _chain_images(A: FiniteGroup, g: int) -> dict:
    """Images of a1 and a2 by label on ``chain_target_group(g)`` A; {} off it."""
    if not {"w", "x", "y"} <= A._index_of_name().keys():
        return {}
    w, x, y = A.generator("w"), A.generator("x"), A.generator("y")
    half_turn = (w * x) ** g
    return {"a1": (x, y, half_turn * w, w), "a2": (x, y, y * half_turn, w)}


def _phi_a(table, inv, t) -> tuple:
    """Kind a's reflection on a tuple t: t_j -> w_j t_j^-1 w_j^-1, w_j = t_1...t_(j-1).

    With x_j = c_(j-1) c_j, conjugation by c0 sends each x_j to that word.
    """
    out, w = [], 0
    for x in t:
        out.append(table[table[w][inv[x]]][inv[w]])
        w = table[w][x]
    return tuple(out)


def _phi_b(table, inv, t) -> tuple:
    """Kind b's reflection on t = (x1, c0 x1 c0, c0 c1, c1 c2): conjugation by c0."""
    t1, t2, t3, t4 = t
    return (t2, t1, inv[t3], table[table[t3][inv[t4]]][inv[t3]])


def _chain_reversal(table, inv, t) -> tuple:
    """The restriction of the reversed chain c3, c2, c1, c0 of kind a."""
    t1, t2, t3, t4 = t
    return (inv[t3], inv[t2], inv[t1], inv[t4])


def _fixed_keys(main: ActionClass, phi) -> dict:
    """The keys of ``main`` on the ordered periods (2,2,2,2g) whose member
    tuple t has ``phi(t)`` under the same key, each with that member."""
    G = main.group
    table, inv, orders = G._table, G._inv, G._order_list()
    periods = (2, 2, 2, G.order // 2)
    return {
        key: t
        for key, t in main.members.items()
        if tuple(orders[i] for i in t) == periods
        and _cayley_key(table, phi(table, inv, t)) == key
    }


def _reversal_pairs(main: ActionClass) -> dict:
    """Each key of ``main`` that phi_a fixes, with the set of it and the key
    of its member's chain reversal."""
    table, inv = main.group._table, main.group._inv
    return {
        key: frozenset((key, _cayley_key(table, _chain_reversal(table, inv, t))))
        for key, t in _fixed_keys(main, _phi_a).items()
    }


def _restriction_key(e: ExtendedAction) -> tuple:
    return _cayley_key(e.group._table, tuple(p.idx for p in restrict_to_index2(e)))


def _certify(main: ActionClass, chain: list, cone: list) -> None:
    """Check the canonical epimorphisms against the keys phi_a and phi_b fix.

    The kind-a classes are the phi_a-fixed keys up to chain reversal, so the
    reversal must map that set into itself, a1 and a2 must restrict into it,
    their reversal pairs must differ and must cover it.  The one kind-b
    class must restrict onto the only phi_b-fixed key.
    """
    pair = _reversal_pairs(main)
    fixed_a = pair.keys()
    if not set().union(*pair.values()) <= fixed_a:
        raise InvariantViolation("chain reversal leaves the keys that phi_a fixes")
    pairs = []
    for e in chain:
        key = _restriction_key(e)
        if key not in pair:
            raise InvariantViolation(f"{e.label} restricts to no key that phi_a fixes")
        pairs.append(pair[key])
    if len(set(pairs)) != len(chain):
        raise InvariantViolation(
            "canonical epimorphisms are equivalent; the classification collapsed"
        )
    if set().union(*pairs) != fixed_a:
        raise InvariantViolation(
            f"phi_a fixes {len(fixed_a)} keys; the canonical chain classes"
            " do not account for every one"
        )
    fixed_b = _fixed_keys(main, _phi_b)
    if fixed_b.keys() != {_restriction_key(e) for e in cone}:
        raise InvariantViolation(
            f"phi_b fixes {len(fixed_b)} keys; expected exactly the restriction of b"
        )


def build_extensions(main: ActionClass) -> list:
    """The three classes of order-8g extensions of the main action: [a1, a2, b].

    ``main`` is the unique class on (2,2,2,2g) over the dihedral group of
    order 4g, and g is read off that order.  a1, a2 are the
    reflection-chain classes (kind ``a``), b the one-cone-point class (kind
    ``b``).  The counts are certified by the keys of ``main`` that the
    reflection of each kind fixes (Singerman 1974): the restrictions of a1
    and a2 must land in two different chain-reversal pairs of phi_a-fixed
    keys that cover them all, and the restriction of b on the only
    phi_b-fixed key.  A failure raises InvariantViolation rather than
    returning a partial answer.
    """
    if not isinstance(main, ActionClass):
        raise TypeError(f"main must be an ActionClass, got {type(main).__name__}")
    g = main.group.order // 4
    A = chain_target_group(g)
    chain = [ExtendedAction(g, KIND_A, k, A, v) for k, v in _chain_images(A, g).items()]
    B = cone_target_group(g)
    x, z, w = B.generator("x"), B.generator("z"), B.generator("w")
    cone = [ExtendedAction(g, KIND_B, "b", B, (x, x * w * x, z, w))]
    _certify(main, chain, cone)
    # The two chain classes are told apart by how many conjugacy classes
    # their reflection images hit: a1 sends two chain generators into the
    # same class, a2 spreads over four.
    if _distinct_image_classes(chain[0]) != 3 or _distinct_image_classes(chain[1]) != 4:
        raise InvariantViolation("labels a1/a2 no longer match their class spread")
    return chain + cone


def restrict_to_index2(e: ExtendedAction) -> tuple:
    """The orientation-preserving action carried inside an extension.

    Rewrites the canonical generators of the index-2 orientable subgroup in
    terms of the extension's generators and returns their images, elements
    of ``e.group``: the elliptic x_1..x_r, their c_0-conjugates
    c_0*x_i*c_0, and the link products c_j*c_(j+1) for j < s (the four
    consecutive reflection products for kind a; a, c0*a*c0, c0*c1 and c1*c2
    for kind b).  Each word holds an even number of reflections, so it
    preserves orientation by the definition of the character.  The orders
    must be the periods (2, 2, 2, 2g), the product must be one, and the
    words must generate the orientation-preserving half; anything else
    means the extension is broken and raises InvariantViolation.
    """
    G = e.group
    elliptic = e.images[: len(e.signature.proper_periods)]
    cycle = e.reflection_cycle
    words = (
        elliptic
        + tuple(cycle[0] * x * cycle[0] for x in elliptic)
        + tuple(left * right for left, right in zip(cycle, cycle[1:]))
    )
    product = G.identity
    for p in words:
        product = product * p
    periods = tuple(p.order() for p in words)
    if tuple(sorted(periods)) != (2, 2, 2, 2 * e.g):
        raise InvariantViolation(
            f"restriction is not smooth: periods {periods} instead of"
            f" (2, 2, 2, {2 * e.g})"
        )
    if product != G.identity:
        raise InvariantViolation("the restriction words do not multiply to one")
    if 2 * len(_closure(G._table, [p.idx for p in words])) != G.order:
        raise InvariantViolation(
            "the restriction words do not generate the orientation-preserving half"
        )
    return words
