"""Finite groups as dense multiplication tables, with search utilities.

Elements are integers indexing into a multiplication table; the identity is
always index 0.  Construction verifies the group axioms so that ingested
tables cannot silently poison later computations.  Associativity is exact
at every order: Light's test over the declared generators, one whole row at
a time.

Callers get index data: a ``GroupElement`` is a view built on demand, a
subgroup or centralizer is the frozenset of its element indices, an
automorphism is a full image list, and a union of conjugacy classes is
read as the classes' smallest indices (``_class_minima``).

Every closure and homomorphism check goes through one walk of a Cayley graph
(``_extend_hom``): subgroup closure, extending a generator map in the
isomorphism and automorphism searches, the automorphism check of
``semidirect_with_automorphism`` and an extension's orientation character (a
map onto C2, computed in ``extensions``).  Each node of those searches
resumes its parent's walk rather than starting from the identity.

Every constructor builds its table with one Cayley-graph fill
(``_cayley_table``) from its generators' rows, which it reads off what it
holds (a presentation, the factors' rows, a permutation group's discovery
tree); every other row is a known row composed through a generator's row.
Up to order 256 a row is ``bytes`` and is composed by one
``bytes.translate``; above it a row is a tuple and is composed by one
C-level ``itemgetter`` call.  ``_row`` makes a row and ``_through``
composes through one, both keyed on the order alone; every reader indexes
rows alike.  The order check is made before anything of that size is
allocated, so an oversized request fails with ``GroupConstructionError``
rather than exhausting memory.  A table the package built is stored as
built, with no copy and no second range scan.

Work that needs the whole group is done from its generators, which must
span it: a conjugacy class is the orbit of its smallest element under
conjugation by the generators, and the commutator subgroup is the normal
closure of the commutators of generator pairs, so both cost O(n*k) for k
generators rather than O(n^2).

Every element has a signature, its (element order, class size, square-root
count), which an isomorphism preserves.  ``iso_search`` compares the order
and the cached multiset of signatures first and searches only when they
agree; ``is_isomorphic`` is its truth value.  The search tries as images of
a generator only the elements with its signature.  ``small_groups`` builds
its candidates one at a time and keeps the first of each isomorphism type;
it builds no direct product of two abelian groups, since
``_abelian_groups`` already lists every abelian group of the order, and no
product whose factor multiset an earlier product of the order had.

A generating tuple's Cayley key (``_cayley_key``) names its automorphism
class; action classes and the extension certificate both use it.

``recognize`` returns the name of a group's shape, the string reports
print.  It finds both dihedral shapes with one witness search
(``_dihedral_pair``): a rotation of order n/2 and a reflection inverting it
for the dihedral group of order n, and a rotation of order n/4 plus a
central involution outside the dihedral subgroup for dihedral x C2.  The
first element of the needed order decides: in either shape every element
of that order is a rotation (times the central factor) that every
reflection inverts.
"""

from __future__ import annotations

import re
from collections import Counter
from math import gcd
from operator import itemgetter

from .errors import GroupConstructionError, InputFormatError, InvariantViolation

MAX_ORDER = 4096


class GroupElement:
    """A single element of a FiniteGroup; supports *, ** and inverse()."""

    __slots__ = ("group", "idx")

    def __init__(self, group: "FiniteGroup", idx: int):
        self.group = group
        self.idx = idx

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group is not self.group:
            raise ValueError("cannot multiply elements of different groups")
        return GroupElement(self.group, self.group._table[self.idx][other.idx])

    def __pow__(self, exponent: int) -> "GroupElement":
        group = self.group
        base = self.idx if exponent >= 0 else group._inv[self.idx]
        k = abs(exponent)
        result = 0
        table = group._table
        while k:
            if k & 1:
                result = table[result][base]
            base = table[base][base]
            k >>= 1
        return GroupElement(group, result)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group._inv[self.idx])

    def order(self) -> int:
        return self.group.element_order(self.idx)

    @property
    def name(self) -> str:
        return self.group._names[self.idx]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and other.group is self.group
            and other.idx == self.idx
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.idx))

    def __repr__(self) -> str:
        return self.name


class FiniteGroup:
    """Immutable finite group given by a full multiplication table.

    Rows of the table are ``bytes`` up to order 256 and tuples above
    (``_row``).  ``generator_indices`` must span the group: conjugacy
    classes and the commutator subgroup are computed from them.

    ``verify=True`` is for a table from a caller: its rows are checked to
    be square over 0..n-1, then copied to rows of that kind, and
    ``_verify`` checks the identity, that the generators span, and
    associativity.  ``verify=False`` is for a table this package built,
    and stores it as handed over: the constructor vouches for such rows
    over 0..n-1 and for a group table spanned by the generators.
    ``_cayley_table`` puts every entry in range by checking each
    generator's row once; ``cyclic``, ``metacyclic`` and ``from_table``
    then run ``_verify`` themselves, and the other constructors compose
    groups already verified, or permutations.  Names are checked to be
    unique and inverses are computed for every group.

    The group holds its table and index caches only.  Element orders,
    conjugacy classes, the isomorphism invariant and the name lookup are
    cached on first use; elements are built per call and automorphisms are
    never stored.  An orientation character belongs to an action, not to a
    group, so ``ExtendedAction`` computes its own from its images.
    """

    def __init__(
        self,
        table,
        names,
        generator_indices,
        *,
        name: str = "G",
        verify: bool = True,
    ):
        n = len(table)
        if n == 0:
            raise GroupConstructionError("a group needs at least the identity")
        if n > MAX_ORDER:
            raise GroupConstructionError(
                f"order {n} exceeds the supported maximum {MAX_ORDER}"
            )
        if verify:
            table = [tuple(row) for row in table]
            for row in table:
                if len(row) != n or min(row) < 0 or max(row) >= n:
                    raise GroupConstructionError(
                        "multiplication table is not square over 0..n-1"
                    )
            table = [_row(n, row) for row in table]
        self._table = table
        if isinstance(names, _CycleNames):
            self._names = names  # canonical cycle notation: distinct by construction
        else:
            self._names = list(names)
            if len(self._names) != n or len(set(self._names)) != n:
                raise GroupConstructionError(
                    "element names must be unique, one per element"
                )
        self.name = name
        self._gen_idx = tuple(generator_indices)
        self._inv = self._compute_inverses()
        self._orders = None
        self._classes = None
        self._class_of = None
        self._invariant_counts = None
        self._name_to_idx = None
        if verify:
            self._verify()

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._table)

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    def element(self, idx: int) -> GroupElement:
        if not 0 <= idx < len(self._table):
            raise IndexError(f"element index {idx} is outside 0..{self.order - 1}")
        return GroupElement(self, idx)

    def _index_of_name(self) -> dict:
        """Element index by display name, built on first use."""
        if self._name_to_idx is None:
            self._name_to_idx = {nm: i for i, nm in enumerate(self._names)}
        return self._name_to_idx

    def generator(self, name: str) -> GroupElement:
        """Look up an element by its display name."""
        try:
            return GroupElement(self, self._index_of_name()[name])
        except KeyError:
            raise KeyError(f"group {self.name} has no element named {name!r}") from None

    def _order_list(self) -> list:
        """Every element's order, computed once."""
        if self._orders is None:
            self._orders = _element_orders(self._table)
        return self._orders

    def element_order(self, idx: int) -> int:
        return self._order_list()[idx]

    def is_abelian(self) -> bool:
        return len(self._class_index()[0]) == self.order

    def __repr__(self) -> str:
        return f"<group {self.name} of order {self.order}>"

    # -- verification ------------------------------------------------------

    def _compute_inverses(self):
        table = self._table
        inv = []
        for i, row in enumerate(table):
            try:
                j = row.index(0)
            except ValueError:
                raise GroupConstructionError(f"element {i} has no inverse") from None
            if table[j][i] != 0:
                raise GroupConstructionError(
                    f"element {i} has a right inverse that is not a left inverse"
                )
            inv.append(j)
        return inv

    def _verify(self):
        """Check the identity, that the declared generators span the group,
        and associativity by Light's test.

        Light's test checks ``(x*a)*y == x*(a*y)`` for all x and y, one row
        x at a time, for each declared generator a.  The elements a that
        pass form a closed set, so a group spanned by passing elements is
        associative.  Row x*a is compared with row x composed through row a;
        a failing row is scanned for its first failing y.  Rows a caller
        handed over unverified may be lists, so each row is compared as the
        row ``_row`` makes of it, which is the row itself for a built one.
        """
        n = self.order
        table = [_row(n, row) for row in self._table]
        ident = _row(n, range(n))
        if table[0] != ident or _row(n, [row[0] for row in table]) != ident:
            raise GroupConstructionError("index 0 is not a two-sided identity")
        reached = _closure(table, self._gen_idx)
        if len(reached) != n:
            raise GroupConstructionError(
                f"declared generators span only {len(reached)} of {n} elements"
            )
        for a in self._gen_idx or [0]:
            row_a = table[a]
            compose = _through(row_a)
            for x, row_x in enumerate(table):
                row_xa = table[row_x[a]]
                if row_xa != compose(row_x):
                    y = next(y for y in range(n) if row_xa[y] != row_x[row_a[y]])
                    raise GroupConstructionError(f"associativity fails at ({x},{a},{y})")

    # -- subgroup machinery ------------------------------------------------

    def subgroup(self, elements) -> frozenset:
        """Element indices of the subgroup generated by the given elements."""
        return frozenset(_closure(self._table, [e.idx for e in elements]))

    def centralizer(self, e: GroupElement) -> frozenset:
        """Element indices of the centralizer of e."""
        table = self._table
        i = e.idx
        return frozenset(a for a in range(self.order) if table[a][i] == table[i][a])

    def _class_index(self):
        """``(classes, class_of)``: each class's member indices, sorted, with
        classes ordered by smallest index, and every element's class number.

        Each class is the orbit of its smallest element under conjugation by
        the generators, so the generators must span the group.
        """
        if self._classes is None:
            table = self._table
            conjugators = [(table[g], self._inv[g]) for g in self._gen_idx]
            class_of = [-1] * self.order
            classes = []
            for a in range(self.order):
                if class_of[a] >= 0:
                    continue
                cid = len(classes)
                class_of[a] = cid
                orbit = [a]
                for b in orbit:  # orbit grows while it is walked
                    for row_g, g_inv in conjugators:
                        c = table[row_g[b]][g_inv]
                        if class_of[c] < 0:
                            class_of[c] = cid
                            orbit.append(c)
                classes.append(tuple(sorted(orbit)))
            self._classes = classes
            self._class_of = class_of
        return self._classes, self._class_of

    def class_size(self, idx: int) -> int:
        classes, class_of = self._class_index()
        return len(classes[class_of[idx]])

    def _signatures(self) -> list:
        """(element order, class size, number of square roots) of every
        element; an isomorphism preserves each element's triple."""
        classes, class_of = self._class_index()
        roots = Counter(row[a] for a, row in enumerate(self._table))
        return [
            (order, len(classes[class_of[a]]), roots[a])
            for a, order in enumerate(self._order_list())
        ]

    def _invariant(self) -> tuple:
        """Multiset of ``_signatures()`` as sorted ``(triple, count)`` pairs.

        Isomorphic groups have equal invariants.
        """
        if self._invariant_counts is None:
            self._invariant_counts = tuple(sorted(Counter(self._signatures()).items()))
        return self._invariant_counts


def _gather(keys):
    """``f`` with ``f(seq) == tuple(seq[k] for k in keys)``: one C-level
    ``itemgetter`` call for two keys or more, which alone returns a tuple."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda seq: tuple(seq[k] for k in keys)


def _row(order: int, entries):
    """A row of a table of ``order`` elements, from its entries in
    0..order-1: ``bytes`` up to order 256, where every entry fits a byte,
    and a tuple above."""
    return bytes(entries) if order <= 256 else tuple(entries)


def _through(row):
    """``f`` with ``f(seq)[y] == seq[row[y]]``, for ``seq`` a row of the
    same order, both made by ``_row``; ``f`` returns such a row too.  Byte
    rows are composed by one ``bytes.translate``, tuple rows by one
    ``itemgetter`` call (``_gather``)."""
    n = len(row)
    if n <= 256:
        pad = bytes(256 - n)  # translate reads a table of 256 bytes
        return lambda seq: row.translate(seq + pad)
    return _gather(row)


def _extend_hom(tg, th, pairs, parent=None, *, injective=False):
    """Extend a partial map between two tables to a homomorphism.

    ``pairs`` is a sequence of (source index, image index).  One walk over
    the Cayley graph of the subgroup the sources generate, from the
    identity, sets or checks ``img[a*s] = img[a]*img[s]`` on every edge.
    Returns ``(img, reached)``, where ``img`` holds -1 off the subgroup and
    ``reached`` lists its elements in discovery order (identity first), or
    ``None`` when an edge disagrees, i.e. no homomorphism extends the pairs.
    With ``injective``, it also returns ``None`` as soon as an element other
    than the identity maps to the identity.

    ``parent``, the result for ``pairs[:-1]``, resumes that walk: the
    elements it reached are walked along the last pair's edges only, and the
    elements this adds along every pair's edges.  ``parent`` is not changed.
    """
    if parent is None:
        img = [-1] * len(tg)
        img[0] = 0
        reached = [0]
        known = 0
    else:
        img = parent[0][:]
        reached = parent[1][:]
        known = len(reached)
    last = pairs[-1:]
    for i, a in enumerate(reached):  # reached grows while it is walked
        row = tg[a]
        hrow = th[img[a]]
        for s, fs in pairs if i >= known else last:
            p = row[s]
            q = hrow[fs]
            fp = img[p]
            if fp == -1:
                if q == 0 and injective:
                    return None
                img[p] = q
                reached.append(p)
            elif fp != q:
                return None
    return img, reached


def _element_orders(table) -> list:
    """Order of every element of a multiplication table (identity at 0).

    The powers of each element not yet settled are walked once: when it has
    order k, its j-th power has order k // gcd(j, k)."""
    orders = [0] * len(table)
    orders[0] = 1
    for i, row in enumerate(table):
        if orders[i]:
            continue
        powers = [i]
        acc = row[i]
        while acc:
            powers.append(acc)
            acc = row[acc]
        k = len(powers) + 1
        for j, p in enumerate(powers, 1):
            orders[p] = k // gcd(j, k)
    return orders


def _closure(table, gen_indices) -> set:
    """Indices of the subgroup of ``table`` generated by the given indices."""
    pairs = [(g, g) for g in set(gen_indices) if g]
    return set(_extend_hom(table, table, pairs)[1])


def _cayley_key(table, t) -> tuple:
    """The right Cayley graph of the group on t, relabelled in BFS order.

    Walks from the identity (index 0) along right multiplication by t's
    entries in order, labels each element by when it is first reached, and
    lists the labels at the ends of every element's edges.  For generating
    tuples, two keys are equal exactly when an isomorphism maps one tuple
    onto the other entry by entry, also between different copies of a group.
    """
    label = [-1] * len(table)
    label[0] = 0
    reached = [0]
    key = []
    for a in reached:
        row = table[a]
        for s in t:
            b = row[s]
            lb = label[b]
            if lb < 0:
                lb = label[b] = len(reached)
                reached.append(b)
            key.append(lb)
    return tuple(key)


def _class_minima(G: FiniteGroup, members: set) -> list:
    """The smallest element of each conjugacy class inside ``members``, in
    increasing order; ``members`` must be a union of classes."""
    minima = []
    for cls in G._class_index()[0]:
        inside = sum(i in members for i in cls)
        if inside == len(cls):
            minima.append(cls[0])
        elif inside:
            raise InvariantViolation("members split a conjugacy class; not a class function")
    return minima


def _small_generating_set(table, members) -> tuple:
    """Greedy small generating set for a subgroup given as an index set.

    Members are taken in increasing order, each one kept when it is not yet
    in the span of those kept before.  Raises unless the span is exactly
    the member set.
    """
    gens = []
    span = {0}
    for idx in sorted(members):
        if idx not in span:
            gens.append(idx)
            span = _closure(table, gens)
            if len(span) == len(members):
                break
    if span != set(members):
        raise InvariantViolation("member set is not closed under multiplication")
    return tuple(gens)


# ---------------------------------------------------------------------------
# Constructors.


def _cayley_table(order: int, gen_rows) -> list:
    """Multiplication table of the group of ``order`` elements spanned by
    the generators in ``gen_rows``.

    ``gen_rows`` yields ``(g, row)`` pairs, ``row[y]`` being the product
    ``g*y``; it is read only after the order check, so nothing of the
    order's size is allocated first.  Each row is checked once to have
    ``order`` entries inside 0..order-1, which puts every entry of the table
    in range.  The rows are filled by walking the Cayley graph from the
    identity by right multiplication: row ``a*g`` is row ``a`` composed
    through row ``g`` (``_through``), and ``a*g`` is entry ``g`` of row
    ``a``.  Rows are made by ``_row``: bytes up to order 256, tuples above.
    """
    if order < 1:
        raise GroupConstructionError(f"a group has at least one element, got order {order}")
    if order > MAX_ORDER:
        raise GroupConstructionError(f"order {order} exceeds {MAX_ORDER}")
    steps = []
    for g, row in gen_rows:
        if not 0 <= g < order or len(row) != order or min(row) < 0 or max(row) >= order:
            raise GroupConstructionError(
                f"generator {g} needs a row of {order} entries, none outside 0..{order - 1}"
            )
        steps.append((g, _through(_row(order, row))))
    rows = [None] * order
    rows[0] = _row(order, range(order))
    reached = [0]
    for a in reached:  # reached grows while it is walked
        row = rows[a]
        for g, compose in steps:
            c = row[g]
            if rows[c] is None:
                rows[c] = compose(row)
                reached.append(c)
    if len(reached) != order:
        raise GroupConstructionError(
            f"generators span only {len(reached)} of {order} elements"
        )
    return rows


def cyclic(n: int, gen_name: str = "c") -> FiniteGroup:
    """Cyclic group of order n, generator named ``gen_name``."""
    if n < 1:
        raise GroupConstructionError("cyclic group order must be positive")
    gens = [1] if n > 1 else []
    table = _cayley_table(n, ((g, (*range(1, n), 0)) for g in gens))  # 1 + y
    names = ["1"] + [gen_name if i == 1 else f"{gen_name}^{i}" for i in range(1, n)]
    group = FiniteGroup(table, names, gens, name=f"C{n}", verify=False)
    group._verify()
    return group


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order; elements ``D^i A^j``.

    ``D`` is the rotation of order ``order/2`` and ``A`` a reflection.  Note
    the naming convention used throughout this package: the dihedral group
    "D_2g" is the one with rotation subgroup of order 2g, i.e. order 4g.
    """
    if order < 2 or order % 2:
        raise GroupConstructionError("dihedral order must be even and >= 2")
    n = order // 2
    group = metacyclic(n, -1, names=("A", "D"))
    group._gen_idx = (1, n) if n > 1 else (n,)  # (D, A); D^i A^j sits at i + n*j
    group.name = f"D(order {order})"
    return group


def dihedral_from_reflections(order: int, names=("w", "x")) -> FiniteGroup:
    """Dihedral group of the given order generated by two reflections.

    With generators (w, x), the rotation t = w*x has order ``order/2`` and
    elements are written t^i or t^i*x.
    """
    if order < 4 or order % 2:
        raise GroupConstructionError("order must be even and >= 4")
    n = order // 2
    first, second = names
    rot_name = first + second

    def pack(i, d):
        return i + n * d

    # same packing as dihedral(), which verified this table: t^i*x^d sits
    # where D^i*A^d does there
    table = dihedral(order)._table
    elt_names = ["1"] * order
    for i in range(1, n):
        elt_names[pack(i, 0)] = rot_name if i == 1 else f"({rot_name})^{i}"
    elt_names[pack(0, 1)] = second
    elt_names[pack(1, 1)] = first
    for i in range(2, n):
        elt_names[pack(i, 1)] = f"({rot_name})^{i}{second}"
    gens = [pack(1, 1), pack(0, 1)]  # first, then second
    return FiniteGroup(
        table, elt_names, gens, name=f"D(order {order};{first},{second})", verify=False
    )


def metacyclic(n: int, t: int, square: int = 0, names=("B", "C")) -> FiniteGroup:
    """Group <B, C : C^n = 1, B^-1 C B = C^t, B^2 = C^square> of order 2n.

    Consistency demands t^2 = 1 and square*(t - 1) = 0 modulo n; anything else
    is rejected.  square = 0 gives the split extension (dihedral when
    t = n - 1); square = n/2 with t = n - 1 gives the dicyclic group.
    """
    if n < 1:
        raise GroupConstructionError("n must be positive")
    t %= n
    square %= n
    if gcd(t, n) != 1:
        raise GroupConstructionError(f"twist {t} is not a unit modulo {n}")
    if (t * t) % n != 1 % n:
        raise GroupConstructionError(f"twist {t} does not square to 1 modulo {n}")
    if (square * (t - 1)) % n != 0:
        raise GroupConstructionError(
            f"B^2 = C^{square} is not fixed by the twist {t} modulo {n}"
        )
    b_name, c_name = names
    order = 2 * n

    def gen_rows():  # C^i B^j sits at i + n*j; B C^i = C^(i*t) B and B^2 = C^square
        yield n, [i * t % n + n for i in range(n)] + [(i * t + square) % n for i in range(n)]
        if n > 1:
            yield 1, [(i + 1) % n + n * j for j in (0, 1) for i in range(n)]

    gens = [n, 1] if n > 1 else [n]  # B, C
    table = _cayley_table(order, gen_rows())
    elt_names = ["1"] * order
    for i in range(1, n):
        elt_names[i] = c_name if i == 1 else f"{c_name}^{i}"
    elt_names[n] = b_name
    for i in range(1, n):
        elt_names[i + n] = elt_names[i] + b_name
    group = FiniteGroup(
        table, elt_names, gens, name=f"metacyclic({n},{t},{square})", verify=False
    )
    group._verify()
    return group


def dicyclic(m: int) -> FiniteGroup:
    """Dicyclic group of order 4m: <A, C : C^2m = 1, A^2 = C^m, A C A^-1 = C^-1>."""
    if m < 2:
        raise GroupConstructionError("dicyclic groups start at order 8 (m >= 2)")
    return metacyclic(2 * m, 2 * m - 1, m, names=("A", "C"))


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str = None) -> FiniteGroup:
    """Direct product with pair indexing and combined element names."""
    ng, nh = G.order, H.order
    order = ng * nh
    tg, th = G._table, H._table

    def gen_rows():  # (a, b) sits at a*nh + b
        for g in G._gen_idx:
            yield g * nh, [x * nh + b for x in tg[g] for b in range(nh)]
        for h in H._gen_idx:
            yield h, [a * nh + y for a in range(ng) for y in th[h]]

    gens = [g * nh for g in G._gen_idx] + list(H._gen_idx)
    table = _cayley_table(order, gen_rows())
    names = ["1"] * order
    for a in range(ng):
        for b in range(nh):
            if a == 0 and b == 0:
                continue
            na, nb = G._names[a], H._names[b]
            names[a * nh + b] = na if b == 0 else (nb if a == 0 else f"{na}*{nb}")
    if len(set(names)) != order:
        # factor names overlap; fall back to unambiguous pair naming
        for a in range(ng):
            for b in range(nh):
                if a or b:
                    names[a * nh + b] = f"({G._names[a]}, {H._names[b]})"
    return FiniteGroup(
        table, names, gens, name=name or f"{G.name} x {H.name}", verify=False
    )


def semidirect_cyclic(n: int, k: int, t: int, names=("c", "b")) -> FiniteGroup:
    """Split extension of C_n by C_k where the C_k generator acts as c -> c^t."""
    if n < 1 or k < 1:
        raise GroupConstructionError("orders must be positive")
    t %= n
    c_name, b_name = names
    return semidirect_with_automorphism(
        cyclic(n, c_name),
        [i * t % n for i in range(n)],
        top_order=k,
        top_name=b_name,
        name=f"C{n}:C{k}(t={t})",
    )


def semidirect_with_automorphism(
    G: FiniteGroup, alpha, top_order: int = 2, top_name: str = "x", name: str = None
) -> FiniteGroup:
    """Split extension of G by a cyclic group acting through the automorphism
    whose full image list is ``alpha``."""
    mapping = list(alpha)
    _require_automorphism(G, mapping)
    ng = G.order
    identity = list(range(ng))
    period, power = 1, mapping  # power is alpha^period
    while power != identity and period <= top_order:
        power = [mapping[i] for i in power]
        period += 1
    if top_order % period:
        raise GroupConstructionError(f"automorphism order does not divide {top_order}")
    order = ng * top_order
    tg, k = G._table, top_order

    def gen_rows():  # a x^j sits at a*k + j; x a x^-1 = alpha(a)
        for g in G._gen_idx:
            yield g * k, [y * k + j for y in tg[g] for j in range(k)]
        if k > 1:
            yield 1, [y * k + j for y in mapping for j in (*range(1, k), 0)]

    gens = [g * k for g in G._gen_idx] + ([1] if k > 1 else [])
    table = _cayley_table(order, gen_rows())
    names = ["1"] * order
    for a in range(ng):
        for j in range(top_order):
            if a == 0 and j == 0:
                continue
            na = "" if a == 0 else G._names[a]
            nx = "" if j == 0 else (top_name if j == 1 else f"{top_name}^{j}")
            names[a * top_order + j] = na if not nx else (nx if not na else f"{na}*{nx}")
    return FiniteGroup(
        table, names, gens, name=name or f"{G.name}:C{top_order}", verify=False
    )


_PERM_LINE = re.compile(r"^\s*perm\b\s*(.*)$")
_CYCLE = re.compile(r"\(([^()]*)\)")


def _is_numeral(token: str) -> bool:
    """Whether a token is an ASCII decimal numeral: no sign, no leading zero."""
    return token.isascii() and token.isdigit() and (token[0] != "0" or token == "0")


def _numeral(token: str):
    """The value of a numeral, or None for any other token (and for a
    numeral too long for ``int``)."""
    if _is_numeral(token):
        try:
            return int(token)
        except ValueError:
            pass
    return None


def from_permutations(source) -> FiniteGroup:
    """Group generated by permutations, one ``perm (a b c)(d e)`` per line.

    Points are 1-based numerals no greater than ``MAX_ORDER``.  Accepts a
    string (newline separated) or a list of lines.  The table is the
    composition table of the permutations reached from the identity, so it
    is a group table spanned by the generators by construction and is not
    verified again.  Element names use cycle notation and are spelled when
    first read (``_CycleNames``); only the generator permutations outlive
    construction.
    """
    lines = source.splitlines() if isinstance(source, str) else list(source)
    raw_gens = []
    degree = 0
    for line in lines:
        if not line.strip():
            continue
        m = _PERM_LINE.match(line)
        if not m:
            raise InputFormatError(f"expected 'perm (...)(...)', got {line!r}")
        body = m.group(1).strip()
        cycles = []
        for cm in _CYCLE.finditer(body):
            entries = cm.group(1).replace(",", " ").split()
            points = list(map(_numeral, entries))
            if None in points:
                raise InputFormatError(f"bad cycle {cm.group(0)!r} in {line!r}")
            if 0 in points:
                raise InputFormatError("permutation points are 1-based")
            if max(points, default=0) > MAX_ORDER:
                raise InputFormatError(
                    f"permutation point {max(points)} exceeds {MAX_ORDER}"
                )
            if len(set(points)) != len(points):
                raise InputFormatError(f"repeated point in cycle {cm.group(0)!r}")
            cycles.append(points)
            degree = max(degree, max(points, default=0))
        if _CYCLE.sub("", body).strip():
            raise InputFormatError(f"unparsed text in {line!r}")
        raw_gens.append(cycles)
    if not raw_gens:
        raise InputFormatError("no permutations given")
    perms = []
    for cycles in raw_gens:
        perm = list(range(degree))
        touched = set()
        for cycle in cycles:
            if not touched.isdisjoint(cycle):
                raise InputFormatError("cycles within one permutation must be disjoint")
            touched.update(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a - 1] = b - 1
        perms.append(_row(degree, perm))

    steps = [_through(q) for q in perms]  # steps[k](p) is p * perms[k]
    identity = _row(degree, range(degree))
    index_of = {identity: 0}
    elements = [identity]
    parent, via = [0], [0]  # each element is elements[parent] * perms[via]
    right = {}  # right[x][k] = index of elements[x] * perms[k]
    frontier = [0]
    while frontier:
        x = frontier.pop()
        p = elements[x]
        row = []
        for k, step in enumerate(steps):
            prod = step(p)
            j = index_of.get(prod)
            if j is None:
                if len(elements) >= MAX_ORDER:
                    raise GroupConstructionError(
                        f"permutation group exceeds order {MAX_ORDER}"
                    )
                j = index_of[prod] = len(elements)
                elements.append(prod)
                parent.append(x)
                via.append(k)
                frontier.append(j)
            row.append(j)
        right[x] = row
    gen_idx = [index_of[p] for p in perms]
    order = len(elements)

    def gen_rows():  # g * x = (g * elements[parent]) * perms[via], parents found first
        for g in gen_idx:
            row = [g] * order
            for x in range(1, order):
                row[x] = right[row[parent[x]]][via[x]]
            yield g, row

    table = _cayley_table(order, gen_rows())
    names = _CycleNames(steps, parent, via, degree)
    return FiniteGroup(
        table, names, gen_idx, name=f"perm-group({len(elements)})", verify=False
    )


class _CycleNames:
    """Cycle-notation names of a permutation group's elements, each spelled
    when it is first read.

    Only the generators are kept as permutations; every element is its
    parent times one generator, so its permutation is composed along the
    path from the identity.  Iteration goes through ``__getitem__``, as for
    any sequence, so every name has one read path.
    """

    __slots__ = ("_steps", "_parent", "_via", "_identity", "_labels", "_names")

    def __init__(self, steps, parent, via, degree):
        self._steps = steps
        self._parent = parent
        self._via = via
        self._identity = _row(degree, range(degree))
        self._labels = [str(i) for i in range(1, degree + 1)]
        self._names = [None] * len(parent)

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, x: int) -> str:
        name = self._names[x]
        if name is None:
            path = []
            a = x
            while a:
                path.append(self._via[a])
                a = self._parent[a]
            perm = self._identity
            for k in reversed(path):
                perm = self._steps[k](perm)
            name = self._names[x] = _cycle_notation(perm, self._labels)
        return name


def _cycle_notation(perm: tuple, labels) -> str:
    """``perm`` in cycle notation, point i spelled ``labels[i]``."""
    seen = [False] * len(perm)
    parts = []
    for start, image in enumerate(perm):
        if seen[start] or image == start:
            continue
        cycle = [labels[start]]
        seen[start] = True
        while image != start:
            cycle.append(labels[image])
            seen[image] = True
            image = perm[image]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) or "()"


def from_table(text: str) -> FiniteGroup:
    """Parse the plain-text table format.

    Line 1 is exactly ``order n`` (``order`` in any case); the next n lines
    are rows of n space-separated 0-based indices (row i lists the products
    i*j); an optional final line whose first token is ``generators`` (in any
    case) lists a generating set.  Numbers are ASCII decimal numerals with
    no sign and no leading zero.  The identity may sit at any index;
    elements are relabeled so it lands at index 0, with names remembering
    the original position (``g3`` for input index 3).
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    n = _numeral(head[1]) if len(head) == 2 and head[0].lower() == "order" else None
    if n is None:
        raise InputFormatError("first line must be 'order n'")
    if n < 1 or n > MAX_ORDER:
        raise InputFormatError(f"order must be between 1 and {MAX_ORDER}")
    if len(lines) < n + 1:
        raise InputFormatError(f"expected {n} table rows, found {len(lines) - 1}")
    index = dict(zip(map(str, range(n)), range(n)))
    raw = []
    for i in range(n):
        tokens = lines[i + 1].split()
        row = None
        if len(tokens) == n:
            try:
                row = _row(n, _gather(tokens)(index))
            except KeyError:
                pass
        if row is None:
            bad = next((t for t in tokens if not _is_numeral(t)), None)
            if bad is not None:
                raise InputFormatError(f"entry {bad!r} in row {i} is not a decimal numeral")
            raise InputFormatError(f"row {i} must have {n} entries in 0..{n - 1}")
        raw.append(row)
    gen_line = None
    if len(lines) > n + 1:
        tail = lines[n + 1].split()
        if tail[0].lower() != "generators":
            raise InputFormatError("trailing content must be a 'generators ...' line")
        gen_line = list(map(index.get, tail[1:]))
        if None in gen_line:
            bad = next((t for t in tail[1:] if not _is_numeral(t)), None)
            if bad is not None:
                raise InputFormatError(f"bad generator index {bad!r}")
            raise InputFormatError("generator indices out of range")
        if len(lines) > n + 2:
            raise InputFormatError("unexpected extra lines after the generators line")
    ident = _row(n, range(n))
    identity = next(
        (e for e, row in enumerate(raw) if row == ident and _row(n, [r[e] for r in raw]) == ident),
        None,
    )
    if identity is None:
        raise InputFormatError("table has no two-sided identity")
    order_old, table = range(n), raw
    if identity:
        # move the identity to index 0, keeping the others in input order
        order_old = [identity, *range(identity), *range(identity + 1, n)]
        new_of = _row(n, [*range(1, identity + 1), 0, *range(identity + 1, n)])
        pick_old = _through(_row(n, order_old))
        table = [_through(pick_old(raw[a]))(new_of) for a in order_old]
        if gen_line is not None:
            gen_line = [new_of[i] for i in gen_line]
    names = [f"g{old}" for old in order_old]
    gens = gen_line if gen_line is not None else _small_generating_set(table, range(n))
    try:
        group = FiniteGroup(table, names, gens, name=f"table-group({n})", verify=False)
        group._verify()
        return group
    except GroupConstructionError as exc:
        raise InputFormatError(f"invalid table: {exc}") from None


def from_text(text: str) -> FiniteGroup:
    """Parse a group file: a table (``from_table``) when the first word of
    its first non-blank line is ``order`` in any case, a permutation list
    (``from_permutations``) when that line is a ``perm`` line."""
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    if first.lower().split()[:1] == ["order"]:
        return from_table(text)
    if _PERM_LINE.match(first):
        return from_permutations(text)
    raise InputFormatError("first line must be 'order n' or a 'perm ...' generator")


# ---------------------------------------------------------------------------
# Homomorphism search: automorphisms, isomorphisms, recognition.


def close_generator_map(G: FiniteGroup, H: FiniteGroup, pairs):
    """Force a partial generator assignment closed under products.

    ``pairs`` is a sequence of (source index, image index).  Returns
    ``(img, covered)`` where ``img`` maps each element of the subgroup
    generated by the sources to its forced image and ``covered`` is the size
    of that subgroup, or ``None`` if the assignment is inconsistent (either
    non-multiplicative or non-injective).  ``covered == G.order`` therefore
    certifies an injective homomorphism defined on all of G.
    """
    closed = _extend_hom(G._table, H._table, pairs, injective=True)
    if closed is None:
        return None
    img, reached = closed
    return img, len(reached)


def _hom_search(G: FiniteGroup, H: FiniteGroup, constraint_pairs, limit=None):
    """Isomorphisms G -> H (G and H of equal order) extending the constraints.

    Depth-first over the image of each source in turn; every search node
    resumes its parent's walk (``_extend_hom``) with the one new pair.  A free
    generator's candidate images are the elements of H with its signature
    (``FiniteGroup._signatures``), the only ones an isomorphism can use.
    """
    if G.order == 1:
        return [[0]] if H.order >= 1 else []
    gen_idx = G._gen_idx
    fixed = dict(constraint_pairs)
    levels = [(a, (b,)) for a, b in fixed.items() if a not in gen_idx]
    g_sigs = G._signatures()
    h_sigs = g_sigs if H is G else H._signatures()
    for g in gen_idx:
        if g in fixed:
            levels.append((g, (fixed[g],)))
        else:
            sig = g_sigs[g]
            levels.append((g, tuple(j for j, s in enumerate(h_sigs) if s == sig)))
    tg, th = G._table, H._table
    results = []
    assignment = []
    total_levels = len(levels)

    def dfs(level, parent):
        if limit is not None and len(results) >= limit:
            return
        src, candidates = levels[level]
        last = level + 1 == total_levels
        for cand in candidates:
            assignment.append((src, cand))
            closed = _extend_hom(tg, th, assignment, parent, injective=True)
            if closed is not None:
                img, reached = closed
                if last:
                    if len(reached) == G.order:
                        results.append(img)
                else:
                    dfs(level + 1, closed)
            assignment.pop()
            if limit is not None and len(results) >= limit:
                return

    dfs(0, None)
    return results


def automorphism_search(G: FiniteGroup, constraint: dict = None, limit=None):
    """Automorphisms of G as full image lists, optionally pinning images of
    some elements.

    ``constraint`` maps elements to their required images; at most ``limit``
    maps are returned.  The search assigns the generators in order, each to
    its candidate images in increasing order, so the maps come in ascending
    order of their generator images and the output order is reproducible.
    """
    pairs = []
    if constraint:
        for src, dst in constraint.items():
            pairs.append((src.idx, dst.idx))
    return _hom_search(G, G, pairs, limit=limit)


def _automorphism_count(G: FiniteGroup) -> int:
    """|Aut(G)| by orbit and stabilizer, with no automorphism list kept.

    Generators are taken in order, a repeated one once (a table file may
    list a generator twice): each one's orbit under the automorphisms
    fixing the earlier generators is the set of images with its signature
    that some such automorphism gives it, one ``limit=1`` search each.  An
    automorphism fixing every generator is the identity, so |Aut(G)| is the
    product of the orbit sizes.
    """
    sigs = G._signatures()
    fixed = []
    count = 1
    for g in dict.fromkeys(G._gen_idx):
        count *= sum(
            1
            for x, sig in enumerate(sigs)
            if sig == sigs[g] and _hom_search(G, G, fixed + [(g, x)], limit=1)
        )
        fixed.append((g, g))
    return count


def iso_search(G: FiniteGroup, H: FiniteGroup):
    """At most one isomorphism G -> H as a full image array, in a list
    (empty if none)."""
    if G.order != H.order or G._invariant() != H._invariant():
        return []
    return _hom_search(G, H, [], limit=1)


def is_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    return bool(iso_search(G, H))


# ---------------------------------------------------------------------------
# Structure recognition.


def _dihedral_pair(G: FiniteGroup, half: int):
    """The first element r of order ``half`` and the first involution s
    outside <r> with s*r*s = r^-1, as indices, or None: <r, s> is dihedral
    of order 2*half.  For half >= 3 the first r decides: in a dihedral group,
    and in one times C2, it is a rotation (times the central factor) and
    every reflection inverts it."""
    table = G._table
    r = next((i for i in range(G.order) if G.element_order(i) == half), None)
    if r is None:
        return None
    powers = _closure(table, [r])
    r_inv = G._inv[r]
    for s in range(G.order):
        if G.element_order(s) == 2 and s not in powers and table[table[s][r]][s] == r_inv:
            return r, s
    return None


def recognize(G: FiniteGroup) -> str:
    """Name G's shape: ``C12``, ``C2^3``, ``dihedral of order 24``,
    ``dihedral of order 12 x C2``, or, for anything else, ``unrecognized
    group of order 24`` with its abelianization invariants appended when
    they are nontrivial.  Each dihedral name rests on a witness pair found
    by ``_dihedral_pair`` from the first element of the needed order.
    """
    n = G.order
    orders = [G.element_order(i) for i in range(n)]
    if max(orders) == n:
        return f"C{n}"
    if G.is_abelian():
        non_identity = set(orders[1:])
        if len(non_identity) == 1:
            # p is prime, since a composite order has a power of smaller
            # order, and n is a power of p by Cauchy's theorem, so n has
            # rank + 1 divisors
            (p,) = non_identity
            return f"C{p}^{len(divisors_of(n)) - 1}"
    if n % 2 == 0 and n >= 6 and _dihedral_pair(G, n // 2) is not None:
        return f"dihedral of order {n}"
    pair = _dihedral_pair(G, n // 4) if n % 4 == 0 and n >= 12 else None
    if pair is not None:
        # The first pair decides.  H = <r, s> has index 2.  If G is
        # D(n/2) x C2 but not dihedral, n/4 is even (D(2m) x C2 with m odd is
        # D(4m)), so Z(G) holds three involutions; Z(G) meets H inside Z(H),
        # of order 2, so some central involution lies outside H.  Conversely
        # any such y gives G = H x <y>.
        dihedral_half = _closure(G._table, pair)
        for y in range(n):
            if G.element_order(y) == 2 and G.class_size(y) == 1 and y not in dihedral_half:
                return f"dihedral of order {n // 2} x C2"
    invariants = list(abelianization(G))
    tail = f", abelianization {invariants}" if invariants else ""
    return f"unrecognized group of order {n}{tail}"


# ---------------------------------------------------------------------------
# Abelianization.


def _quotient(table, normal_set):
    """Quotient of a multiplication table by a normal subgroup.

    Returns ``(coset_of, q_table)``: the coset number of every element and
    the quotient's table.  Cosets are numbered by their smallest element, so
    coset 0 is the subgroup itself and the quotient's identity sits at 0.
    """
    coset_of = {}
    reps = []
    for a in range(len(table)):
        if a in coset_of:
            continue
        row = table[a]
        for h in normal_set:
            coset_of[row[h]] = len(reps)
        reps.append(a)
    q_table = [[coset_of[table[a][b]] for b in reps] for a in reps]
    return coset_of, q_table


def _abelian_invariants_from_table(table) -> tuple:
    if len(table) == 1:
        return ()
    orders = _element_orders(table)
    d1 = max(orders)
    cyclic_set = _closure(table, [orders.index(d1)])
    return (d1,) + _abelian_invariants_from_table(_quotient(table, cyclic_set)[1])


def abelianization(G: FiniteGroup) -> tuple:
    """Invariant factors (largest first) of G modulo its commutator subgroup.

    [G, G] is the normal closure of the commutators of generator pairs: the
    quotient by it is generated by commuting images, so it is abelian.
    """
    table = G._table
    inv = G._inv
    gens = G._gen_idx
    comm_gens = {
        table[table[inv[a]][inv[b]]][table[a][b]]
        for i, a in enumerate(gens)
        for b in gens[:i]
    }
    comm_gens.discard(0)
    if not comm_gens:
        return _abelian_invariants_from_table(table)
    k_gens = sorted(comm_gens)
    k_set = _closure(table, k_gens)
    for h in k_gens:  # k_gens grows while it is walked
        for g in gens:
            c = table[table[g][h]][inv[g]]
            if c not in k_set:
                k_gens.append(c)
                k_set = _closure(table, k_gens)
    if len(k_set) == G.order:
        return ()
    for h in k_set:
        for g in gens:
            if table[table[g][h]][inv[g]] not in k_set:
                raise InvariantViolation("quotient by a non-normal subgroup")
    return _abelian_invariants_from_table(_quotient(table, k_set)[1])


# ---------------------------------------------------------------------------
# Catalog of groups of a given small order.

# Orders at which the catalog below provably lists every isomorphism type
# (cross-checked against the standard census counts in the test suite).
COMPLETE_CATALOG_ORDERS = frozenset(range(1, 16)) | {20, 21, 22, 25, 26, 28, 30, 33, 34, 35}


def _abelian_groups(n: int):
    """Every abelian group of order n, each a direct product of prime-power
    cyclic groups and generated by one generator of each factor."""
    factors = Counter()
    m = n
    while m > 1:
        p = divisors_of(m)[1]  # the least divisor above 1 is prime
        factors[p] += 1
        m //= p

    def partitions(k):
        if k == 0:
            yield ()
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or rest[0] <= first:
                    yield (first,) + rest

    per_prime = [
        [(p, part) for part in partitions(e)] for p, e in sorted(factors.items())
    ]

    def combine(level):
        if level == len(per_prime):
            yield []
            return
        for p, part in per_prime[level]:
            for rest in combine(level + 1):
                yield [(p, exp) for exp in part] + rest

    if n == 1:
        return [cyclic(1)]
    letters = "abcdefghijkl"  # 2^12 = MAX_ORDER caps the factor count
    groups = []
    for combo in combine(0):
        orders = sorted((p ** e for p, e in combo), reverse=True)
        G = cyclic(orders[0], letters[0])
        for pos, extra in enumerate(orders[1:], start=1):
            G = direct_product(G, cyclic(extra, letters[pos]))
        G.name = "C" + "xC".join(str(o) for o in orders)
        groups.append(G)
    return groups


def divisors_of(n: int) -> list:
    """Sorted list of positive divisors of n."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _catalog_candidates(n: int, memo: dict):
    """Every catalog construction of order n, in order, with its factor
    multiset: the sorted catalog places ``(order, index)`` of groups whose
    direct product it is isomorphic to (``C_q`` is ``(q, 0)``), or ``None``
    for a group that stands for itself.  A product of ``memo``'s catalog
    groups carries the union of their multisets and is not built when an
    earlier product had the same one, being isomorphic to it."""
    for G in _abelian_groups(n):  # each generator spans one cyclic factor
        yield G, tuple(sorted((G.element_order(g), 0) for g in G._gen_idx))
    if n % 2 == 0 and n >= 6:
        yield dihedral(n), None
    if n % 4 == 0 and n >= 8:
        yield dicyclic(n // 4), None
    for a in divisors_of(n):
        b = n // a
        if a < 3 or b < 2:
            continue
        for t in range(2, a):
            if gcd(t, a) == 1 and pow(t, b, a) == 1:
                yield semidirect_cyclic(a, b, t), None
    if n == 12:
        yield from_permutations(["perm (1 2 3)", "perm (1 2)(3 4)"]), None
    if n == 24:
        yield from_permutations(["perm (1 2 3 4)", "perm (1 2)"]), None
    if n == 60:
        yield from_permutations(["perm (1 2 3 4 5)", "perm (1 2 3)"]), None
    built = set()
    for a in divisors_of(n):
        b = n // a
        if a < 2 or b < 2 or a > b:
            continue
        _distinct_groups(a, memo), _distinct_groups(b, memo)  # fill memo[a] and memo[b]
        for G1, factors1 in memo[a].items():
            for G2, factors2 in memo[b].items():
                if G1.is_abelian() and G2.is_abelian():
                    continue  # _abelian_groups(n) yielded every abelian group
                factors = tuple(sorted(factors1 + factors2))
                if factors not in built:
                    built.add(factors)
                    yield direct_product(G1, G2), factors


def _distinct_groups(n: int, memo: dict) -> list:
    """The catalog of order n, built once into ``memo`` as ``{group: factor
    multiset}``: the first of each isomorphism type, with its own multiset
    or its place ``(n, index)``.  A later product isomorphic to a kept group
    hands it a multiset with more factors, so that larger orders meet it."""
    if n not in memo:
        kept = {}
        for G, factors in _catalog_candidates(n, memo):
            H = next((H for H in kept if is_isomorphic(G, H)), None)
            if H is None:
                kept[G] = ((n, len(kept)),) if factors is None else factors
            elif factors is not None and len(factors) > len(kept[H]):
                kept[H] = factors
        memo[n] = kept
    return list(memo[n])


def small_groups(n: int):
    """Groups of order n from the built-in catalog, pairwise non-isomorphic.

    Complete for every order in COMPLETE_CATALOG_ORDERS; a best-effort list
    (abelian, dihedral, dicyclic, cyclic-by-cyclic, direct products, and the
    small permutation specials) elsewhere.  The first of each isomorphism
    type among ``_catalog_candidates(n)`` is kept; candidates are built one
    at a time, so a rejected duplicate is dropped at once, and a direct
    product whose factor multiset was already built is not built at all.
    The catalogs of the smaller orders that direct products draw on, and
    their multisets, are memoized for one call only: each call builds
    afresh and keeps nothing but its result.
    """
    if n < 1 or n > MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}")
    return _distinct_groups(n, {})


def _require_automorphism(G: FiniteGroup, mapping):
    n = G.order
    if len(mapping) != n or sorted(mapping) != list(range(n)):
        raise GroupConstructionError("mapping is not a bijection on the group")
    closed = close_generator_map(G, G, [(g, mapping[g]) for g in G._gen_idx])
    if closed is None or closed[0] != list(mapping):
        raise GroupConstructionError("mapping is not multiplicative")
