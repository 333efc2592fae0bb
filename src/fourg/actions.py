"""Search and classification of surface-kernel group actions.

A tuple of group elements with prescribed orders, product one, and generating
the whole group encodes an epimorphism from a genus-0 orbifold group onto the
finite group whose kernel is torsion-free — a surface group.  This module
finds all such tuples, sorts them into topological equivalence classes
(orbits under the sphere braid action combined with group automorphisms), and
runs the order-4g elimination arguments that leave the dihedral main family
as the only candidate with a full action at generic genus.

Aut(G) acts freely on generating tuples, and the right Cayley graph of G on a
tuple, relabelled in breadth-first order, names the tuple's Aut-class.  A
class is therefore walked and stored as a braid orbit of these Cayley keys,
|Aut(G)| vectors per key, and membership is a key lookup in any group that
holds a copy of G, an extension of it included.

Completeness is certified by counting.  N, the number of product-one tuples
with the prescribed orders, comes from a class-function recurrence, with no
tuple built (Frobenius's class-equation count; Jones 1995).  |Aut(G)| comes
from orbits and stabilizers of the generators, with no automorphism list.
|Aut(G)| times the keys found with ascending periods, summed over the
classes, counts generating vectors, so it never exceeds N; ``classify``
draws seeds lazily from the vector search and stops as soon as the two are
equal.  On the main family every product-one tuple generates, so the first
seed's orbit closes the count.  Where some tuples do not generate, the
search runs to its end, starting vectors only at conjugacy-class minima and
counting the rest by class size, and the classes must account for exactly
that enumerated count.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GroupConstructionError, InvariantViolation
from .groups import (
    COMPLETE_CATALOG_ORDERS,
    FiniteGroup,
    GroupElement,
    _automorphism_count,
    _cayley_key,
    _class_minima,
    _closure,
    automorphism_search,
    cyclic,
    dihedral,
    metacyclic,
    semidirect_with_automorphism,
    small_groups,
)
from .signatures import (
    TAG_QUADRUPLE,
    TAG_SPORADIC,
    Signature,
    enumerate_4g_signatures,
    normalized_area,
)

# Genera at which the published classification reports one or two exceptional
# surfaces with 4g automorphisms beyond the main family (realized by groups
# other than the generic dihedral one).
EXCEPTIONAL_SURFACE_GENERA = (3, 6, 12, 30)

# Genera carrying the second uniparametric family, on the quadruple signature
# with two periods equal to 2 and two equal periods > 2.
QUADRUPLE_FAMILY_GENERA = (3, 6, 15)

# Default cap on the orders at which explicit groups are built: the catalog
# searches of the report and the eliminations' constructive evidence.
DEFAULT_MAX_ORDER = 256


class GeneratingVector:
    """Images of the canonical elliptic generators of a genus-0 group.

    Invariants (checked on construction): the product of the images is the
    identity, each image has exactly its prescribed period as order (this is
    what makes the kernel torsion-free), and the images generate the group.
    """

    __slots__ = ("group", "periods", "images")

    def __init__(self, group: FiniteGroup, periods: tuple, images: tuple):
        if len(periods) != len(images):
            raise InvariantViolation("periods and images must have equal length")
        prod = group.identity
        for e in images:
            if not isinstance(e, GroupElement) or e.group is not group:
                raise InvariantViolation("images must belong to the target group")
            prod = prod * e
        if prod != group.identity:
            raise InvariantViolation("product of images must be the identity")
        for e, m in zip(images, periods):
            if e.order() != m:
                raise InvariantViolation(
                    f"image {e.name} has order {e.order()}, period demands {m}"
                )
        if len(_closure(group._table, [e.idx for e in images])) != group.order:
            raise InvariantViolation("images do not generate the whole group")
        self.group, self.periods, self.images = group, periods, images

    @property
    def indices(self) -> tuple:
        return tuple(e.idx for e in self.images)

    def __str__(self) -> str:
        return "(" + ", ".join(e.name for e in self.images) + ")"


def _product_one_count(G: FiniteGroup, periods) -> int:
    """N, the number of tuples (t_1, ..., t_r) with t_i of order m_i and
    t_1 ... t_r = 1, generating or not; no tuple is built.

    f_k(z), the number of prefixes t_1 ... t_k with product z, is a class
    function, because each order set is closed under conjugation, so it is
    stored once per conjugacy class and read at the class minimum:
    f_1 is the indicator of order m_1, f_{k+1}(z) is the sum of f_k(z x^-1)
    over x of order m_{k+1}, and N is the sum of f_{r-1}(x^-1) over x of
    order m_r (Frobenius's class-equation count, without characters).
    """
    if len(periods) < 2:
        return 0
    classes, class_of = G._class_index()
    orders = G._order_list()
    table = G._table
    inv = G._inv
    inverses = {m: [inv[x] for x, o in enumerate(orders) if o == m] for m in set(periods)}
    f = [int(orders[cls[0]] == periods[0]) for cls in classes]
    for m in periods[1:-1]:
        f = [
            sum(f[class_of[row[y]]] for y in inverses[m])
            for row in (table[cls[0]] for cls in classes)
        ]
    return sum(f[class_of[y]] for y in inverses[periods[-1]])


def _vector_iter(G: FiniteGroup, periods):
    """Generating vectors on the given ordered periods whose first entry is
    the smallest element of its conjugacy class, as index tuples in
    ascending order, produced one at a time by a depth-first search.

    Raises ValueError at once on a period below 2.  Yields nothing when
    some period does not divide the group order.  The last entry is solved
    from the product-one constraint rather than searched, and generation is
    checked once, at that leaf.
    """
    periods = tuple(int(m) for m in periods)
    if any(m < 2 for m in periods):
        raise ValueError("periods must be at least 2")
    if len(periods) < 2 or any(G.order % m for m in periods):
        return iter(())
    orders = G._order_list()
    by_order = {m: [i for i, o in enumerate(orders) if o == m] for m in set(periods)}
    choices = [_class_minima(G, set(by_order[periods[0]]))]
    choices += [by_order[m] for m in periods[1:-1]]
    table = G._table
    inv = G._inv
    n = G.order
    last_period = periods[-1]
    leaf = len(periods) - 2

    def dfs(pos, prefix, row):
        if pos == leaf:
            for c in choices[pos]:
                last = inv[row[c]]
                if orders[last] == last_period:
                    tup = prefix + (c, last)
                    if len(_closure(table, tup)) == n:
                        yield tup
            return
        for c in choices[pos]:
            yield from dfs(pos + 1, prefix + (c,), table[row[c]])

    return dfs(0, (), table[0])


def smooth_vectors(G: FiniteGroup, periods):
    """Generating vectors on the given ordered periods whose first entry is
    the smallest element of its conjugacy class, as sorted index tuples.

    Conjugation maps the vectors starting at c one to one onto those
    starting at any conjugate of c, so there are ``sum(G.class_size(t[0]))``
    vectors in all.  Returns [] when some period does not divide the group
    order.  ``classify`` reads the same search lazily and stops it once the
    count certificate is met.
    """
    return list(_vector_iter(G, periods))


def braid_move(v: GeneratingVector, i: int) -> GeneratingVector:
    """Elementary braid move at 1-based position i: (a, b) -> (a b a^-1, a)."""
    r = len(v.images)
    if not 1 <= i < r:
        raise IndexError(f"braid position must be in 1..{r - 1}, got {i}")
    a, b = v.images[i - 1], v.images[i]
    images = v.images[: i - 1] + (a * b * a.inverse(), a) + v.images[i + 1 :]
    periods = tuple(e.order() for e in images)
    return GeneratingVector(v.group, periods, images)


def _orbit(G: FiniteGroup, start: tuple) -> dict:
    """Braid orbit of start's Aut-class: one member tuple per Cayley key.

    Only the forward moves (a, b) -> (a b a^-1, a) are walked.  Braid moves
    commute with Aut(G), so each move permutes the finite set of Cayley
    keys, and a finite set closed under a permutation is closed under its
    inverse: the inverse moves reach no further key.
    """
    table = G._table
    inv = G._inv
    r = len(start)
    members = {_cayley_key(table, start): start}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for i in range(r - 1):
            a = t[i]
            nb = t[:i] + (table[table[a][t[i + 1]]][inv[a]], a) + t[i + 2 :]
            key = _cayley_key(table, nb)
            if key not in members:
                members[key] = nb
                frontier.append(nb)
    return members


class ActionClass:
    """A topological equivalence class of generating vectors.

    Aut(G) acts freely on generating vectors, so the class is held as the
    Cayley keys of its Aut-classes (over all orderings of the period
    multiset), and it has |Aut(G)| members per key.  ``members`` maps each
    key to one member index tuple, the one ``_orbit`` reached it by.
    ``size`` is the member count, |Aut(G)| times the number of keys, set by
    ``classify``, which counts Aut(G) once per call.
    """

    __slots__ = ("group", "members", "size")

    def __init__(self, group: FiniteGroup, members: dict, size: int):
        self.group, self.members, self.size = group, members, size

    def contains(self, images) -> bool:
        """Class membership of a tuple of elements, by its Cayley key.

        The key is read in the table the elements live in.  It does not
        depend on labels, and its walk reaches only the subgroup the tuple
        generates, so the elements may lie in any group holding a copy of
        the class's group, such as an extension.  It fixes the order of the
        subgroup and the periods too, so a tuple differing in either finds
        no key.
        """
        table = images[0].group._table
        return _cayley_key(table, tuple(e.idx for e in images)) in self.members


def classify(G: FiniteGroup, periods):
    """Equivalence classes of generating vectors on the given period multiset.

    Classes are orbits under braid moves (which realize every permutation of
    equal periods) together with Aut(G), walked as braid orbits on Cayley
    keys.  Each class is seeded by the smallest vector of the search whose
    key no class holds yet, and stores its keys, one member tuple per key,
    and its member count.

    Completeness is certified by counting.  |Aut(G)| times the keys with
    ascending periods, summed over the classes, counts generating vectors,
    so it is at most N, the product-one tuple count of
    ``_product_one_count``; once it equals N every vector is in a class and
    the search stops.  When the seeds run out first (some product-one tuples
    do not generate), the sum must equal the vector count the search
    enumerated, or the search was not exhaustive.  |Aut(G)| is counted by
    orbit and stabilizer, and only once a first seed exists.  The output is
    deterministic and independent of the order of ``periods``.
    """
    base = tuple(sorted(int(m) for m in periods))
    seeds = _vector_iter(G, base)
    target = _product_one_count(G, base)
    if not target:
        return []
    counted = enumerated = 0
    classes = []
    for seed in seeds:
        enumerated += G.class_size(seed[0])
        key = _cayley_key(G._table, seed)
        if any(key in c.members for c in classes):
            continue
        if not classes:
            n_aut = _automorphism_count(G)
        members = _orbit(G, seed)
        counted += n_aut * sum(
            tuple(G.element_order(i) for i in t) == base for t in members.values()
        )
        classes.append(ActionClass(G, members, n_aut * len(members)))
        if counted == target:
            return classes
    if counted != enumerated:
        raise InvariantViolation(
            f"classes count {counted} of {enumerated} vectors; the search was not exhaustive"
        )
    return classes


def kernel_genus(group_order: int, s: Signature) -> int:
    """Genus of the covering surface cut out by a smooth action.

    Solves 2g - 2 = order * normalized_area(s); non-integral or negative
    results mean the inputs are inconsistent and raise.
    """
    area = normalized_area(s)
    g = Fraction(group_order) * area / 2 + 1
    if g.denominator != 1 or g < 0:
        raise InvariantViolation(
            f"no integral genus for order {group_order} on {s}"
        )
    return int(g)


# ---------------------------------------------------------------------------
# The main family and its canonical action.

def family_group(g: int) -> FiniteGroup:
    """The dihedral group of order 4g acting in the main genus-g family."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    return dihedral(4 * g)


def canonical_vector(g: int) -> GeneratingVector:
    """The reference vector (A, D^(g+1)A, D^g, D) on periods (2,2,2,2g)."""
    G = family_group(g)
    D, A = G.generator("D"), G.generator("A")
    images = (A, D ** (g + 1) * A, D ** g, D)
    return GeneratingVector(G, (2, 2, 2, 2 * g), images)


def _unique_main_class(v: GeneratingVector, classes: list) -> ActionClass:
    """The one class of ``classes``, all of v's group on v's periods; it must hold v."""
    g = v.group.order // 4
    if len(classes) != 1:
        raise InvariantViolation(
            f"expected a unique dihedral class at genus {g}, found {len(classes)}"
        )
    if not classes[0].contains(v.images):
        raise InvariantViolation(
            f"canonical vector escaped the unique class at genus {g}"
        )
    return classes[0]


def main_action_class(g: int) -> ActionClass:
    """The unique class on (2,2,2,2g) over the order-4g dihedral group."""
    v = canonical_vector(g)
    return _unique_main_class(v, classify(v.group, v.periods))


# ---------------------------------------------------------------------------
# Elimination of the three rigid (triangle) families.


def _eliminate_family1(g: int, max_order: int) -> dict:
    """Signature (2, 4g, 4g): the cyclic action always extends to order 8g."""
    periods = (2, 4 * g, 4 * g)
    details = {}
    Gq = cyclic(4 * g)
    classes = classify(Gq, periods)
    if len(classes) != 1:
        raise InvariantViolation(
            f"expected one cyclic class on {periods}, found {len(classes)}"
        )
    details["cyclic_classes"] = 1
    if 8 * g <= max_order:
        # adjoin B with B^2 = C^(2g) and B C B^-1 = C^(2g-1): the vector
        # ((BC)^-1, B, C) on (2, 4, 4g) is smooth and restricts to the
        # cyclic action on an index-2 subgroup
        Gp = metacyclic(4 * g, 2 * g - 1, 2 * g)
        B, C = Gp.generator("B"), Gp.generator("C")
        vector = GeneratingVector(Gp, (2, 4, 4 * g), ((B * C).inverse(), B, C))
        if Gp.order // len(Gp.subgroup([C])) != 2:
            raise InvariantViolation("adjoined overgroup does not contain C at index 2")
        details["extension_order"] = 8 * g
        details["extension_periods"] = (2, 4, 4 * g)
        details["extension_vector"] = vector
        details["cyclic_subgroup_index"] = 2
        details["constructed"] = True
    else:
        details["constructed"] = False
        details["skipped"] = f"extension order {8 * g} above cap {max_order}"
    return {"family": 1, "periods": periods, "verdict": "not-full", "details": details}


def _eliminate_family2(g: int, max_order: int) -> dict:
    """Signature (3, 6, 2g): no order-4g group admits a smooth vector.

    An order-3 image would have to lie inside the index-2 cyclic subgroup
    generated by the order-2g image while also generating the rest of the
    group with it — a contradiction.  The brute-force sweep over the catalog
    double-checks this whenever the order is within the cap.
    """
    periods = (3, 6, 2 * g)
    admissible = all((4 * g) % m == 0 for m in periods)
    details = {"admissible_note": None if admissible else "some period does not divide 4g"}
    if 4 * g <= max_order:
        groups = small_groups(4 * g)
        found = 0
        for G in groups:
            found += len(smooth_vectors(G, periods))
        if found:
            raise InvariantViolation(
                f"family-2 smooth vector found at genus {g}; engine inconsistency"
            )
        details["groups_tested"] = len(groups)
        details["catalog_complete"] = 4 * g in COMPLETE_CATALOG_ORDERS
        details["vectors_found"] = 0
    else:
        details["groups_tested"] = 0
        details["skipped"] = f"order {4 * g} above cap {max_order}"
    return {"family": 2, "periods": periods, "verdict": "impossible", "details": details}


def _eliminate_family3(g: int, max_order: int) -> dict:
    """Signature (4, 4, 2g): forced presentation, then the swap extension.

    Writing C for the order-2g image and A for the first order-4 image, the
    subgroup <C> has index 2, A^2 must be the unique involution C^g of <C>,
    and conjugation by A is an involutory unit twist s on C.  The order of
    the second image A^-1 C^-1 forces s = 2g-1; the resulting group admits
    the swap automorphism A -> A^-1 C^-1, C -> C^-1, which extends every
    action to a group of order 8g.
    """
    periods = (4, 4, 2 * g)
    n = 2 * g
    candidates = []
    rejected = {}
    survivor = None
    details = {}
    for s in range(1, n):
        try:
            Gs = metacyclic(n, s, g, names=("A", "C"))
        except GroupConstructionError:
            continue
        candidates.append(s)
        A, C = Gs.generator("A"), Gs.generator("C")
        second = A.inverse() * C.inverse()
        if second.order() != 4:
            rejected[s] = f"second image has order {second.order()}, not 4"
            continue
        vectors = smooth_vectors(Gs, periods) if 4 * g <= max_order else None
        if vectors is not None and not vectors:
            rejected[s] = "no smooth vector"
            continue
        if survivor is not None:
            raise InvariantViolation("more than one surviving family-3 twist")
        survivor = s
        swap = automorphism_search(
            Gs, constraint={A: second, C: C.inverse()}, limit=1
        )
        if not swap:
            raise InvariantViolation("family-3 swap automorphism not found")
        alpha = swap[0]
        if alpha[second.idx] != A.idx:
            raise InvariantViolation("family-3 automorphism does not swap the images")
        details["swap_automorphism"] = {
            "A": Gs.element(alpha[A.idx]).name,
            "C": Gs.element(alpha[C.idx]).name,
        }
        if 8 * g <= max_order:
            ext = semidirect_with_automorphism(Gs, alpha, top_order=2, top_name="d")
            d = ext.generator("d")
            a_ext = ext.generator("A")
            b_ext = ext.generator(second.name)
            vector = GeneratingVector(
                ext, (2, 4, 4 * g), (d, b_ext, d * a_ext.inverse())
            )
            details["extension_order"] = 8 * g
            details["extension_periods"] = (2, 4, 4 * g)
            details["extension_vector"] = vector
            details["constructed"] = True
        else:
            details["constructed"] = False
            details["skipped"] = f"extension order {8 * g} above cap {max_order}"
    if survivor is None:
        raise InvariantViolation(f"no surviving family-3 twist at genus {g}")
    if survivor != n - 1:
        raise InvariantViolation(
            f"family-3 survivor twist {survivor} differs from expected {n - 1}"
        )
    details["square_exponent"] = g
    details["candidate_twists"] = candidates
    details["rejected_twists"] = rejected
    details["surviving_twist"] = survivor
    return {"family": 3, "periods": periods, "verdict": "not-full", "details": details}


def eliminate_cases(g: int, max_order: int = DEFAULT_MAX_ORDER) -> list:
    """Elimination reports for the three rigid signatures at genus g.

    Each report is a dict ``{"family", "periods", "verdict", "details"}``.
    The verdict is "not-full" when every action on the signature extends
    to a larger automorphism group, so 4g is not the full order, and
    "impossible" when no group of order 4g acts with the signature at all.
    ``max_order`` caps the sizes at which explicit groups are constructed;
    above it the reports keep their verdicts (the arguments are uniform in g)
    but mark the constructive evidence as skipped.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    return [
        _eliminate_family1(g, max_order),
        _eliminate_family2(g, max_order),
        _eliminate_family3(g, max_order),
    ]


def exceptional_search(g: int, groups):
    """Candidate actions on the sporadic and quadruple signatures at genus g.

    Scans the supplied order-4g groups; fullness of the candidates is not
    decided here.  Returns (signature, action class) pairs.
    """
    groups = list(groups)
    for G in groups:
        if G.order != 4 * g:
            raise ValueError(
                f"group {G.name} has order {G.order}, expected {4 * g}"
            )
    specials = [
        sig
        for sig, tag in enumerate_4g_signatures(g)
        if tag in (TAG_QUADRUPLE, TAG_SPORADIC)
    ]
    results = []
    for sig in specials:
        for G in groups:
            for cls in classify(G, sig.proper_periods):
                results.append((sig, cls))
    return results
