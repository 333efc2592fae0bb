"""Signatures of planar crystallographic groups, with exact rational arithmetic.

A signature ``(h; sign; [m_1, ..., m_r]; {(n_11, ...), ..., (n_k1, ...)})``
records the quotient-orbifold data of a cocompact group of hyperbolic
isometries: underlying genus ``h``, orientability sign, proper (cone) periods
``m_i``, and one tuple of link periods per boundary component.  All derived
quantities (normalized areas) are computed as exact ``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputFormatError
from .groups import divisors_of


class _Infinity:
    """Singleton marker for an infinite (parabolic) period."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()

SIGN_PLUS = "+"
SIGN_MINUS = "-"


def is_period(value) -> bool:
    """True for a legal period entry: an integer >= 2 or the marker ``INF``."""
    if value is INF:
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value >= 2


def _period_key(value):
    return (1, 0) if value is INF else (0, value)


def _period_text(value) -> str:
    return "inf" if value is INF else str(value)


class Signature:
    """A signature, equal and hashed by its four fields; proper periods are
    kept sorted ascending.  Nothing reassigns a field after construction.

    Period cycles keep the order they were given in, since reflections in a
    cycle are only identified up to cyclic rotation and reversal and callers
    track that themselves where it matters.
    """

    __slots__ = ("genus", "sign", "proper_periods", "period_cycles")

    def __init__(self, genus: int, sign: str, proper_periods=(), period_cycles=()):
        if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
            raise ValueError(f"genus must be a non-negative integer, got {genus!r}")
        if sign not in (SIGN_PLUS, SIGN_MINUS):
            raise ValueError(f"sign must be '+' or '-', got {sign!r}")
        periods = tuple(sorted(proper_periods, key=_period_key))
        for m in periods:
            if not is_period(m):
                raise ValueError(f"proper period {m!r} is not an integer >= 2 or inf")
        cycles = tuple(tuple(cycle) for cycle in period_cycles)
        for cycle in cycles:
            for n in cycle:
                if n is INF or not is_period(n):
                    raise ValueError(f"link period {n!r} is not an integer >= 2")
        self.genus, self.sign = genus, sign
        self.proper_periods, self.period_cycles = periods, cycles

    def _fields(self) -> tuple:
        return (self.genus, self.sign, self.proper_periods, self.period_cycles)

    def __eq__(self, other):
        return other.__class__ is Signature and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __str__(self) -> str:
        """Canonical text form, e.g. ``(0;+;[2,2,2,4];{-})``."""
        if self.proper_periods:
            periods = "[" + ",".join(_period_text(m) for m in self.proper_periods) + "]"
        else:
            periods = "[-]"
        if self.period_cycles:
            cycles = "{" + ",".join(
                "(" + ",".join(str(n) for n in cycle) + ")" for cycle in self.period_cycles
            ) + "}"
        else:
            cycles = "{-}"
        return f"({self.genus};{self.sign};{periods};{cycles})"


class SignatureSyntaxError(InputFormatError):
    """Raised on malformed signature text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise SignatureSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise SignatureSyntaxError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise SignatureSyntaxError("integer too long", start) from None

    def period(self, infinite: bool):
        self.skip_ws()
        if self.text.startswith("inf", self.pos):
            if not infinite:
                raise SignatureSyntaxError("a link period cannot be inf", self.pos)
            self.pos += 3
            return INF
        start = self.pos
        value = self.integer()
        if value < 2:
            raise SignatureSyntaxError(f"period {value} is less than 2", start)
        return value

    def periods(self, infinite: bool) -> tuple:
        """One or more comma-separated periods; ``infinite`` allows inf."""
        values = [self.period(infinite)]
        while self.peek() == ",":
            self.pos += 1
            values.append(self.period(infinite))
        return tuple(values)


def parse_signature(text: str) -> Signature:
    """Parse ``(h;sign;[m1,...];{(n11,...),...})``; ``[-]``/``{-}`` mean empty."""
    cur = _Cursor(text)
    cur.expect("(")
    genus = cur.integer()
    cur.expect(";")
    cur.skip_ws()
    if cur.peek() not in (SIGN_PLUS, SIGN_MINUS):
        raise SignatureSyntaxError("expected '+' or '-'", cur.pos)
    sign = cur.text[cur.pos]
    cur.pos += 1
    cur.expect(";")
    cur.expect("[")
    periods = ()
    if cur.peek() == "-":
        cur.pos += 1
    else:
        periods = cur.periods(infinite=True)
    cur.expect("]")
    cur.expect(";")
    cur.expect("{")
    cycles = []
    if cur.peek() == "-":
        cur.pos += 1
    else:
        while True:
            cur.expect("(")
            cycles.append(cur.periods(infinite=False) if cur.peek() != ")" else ())
            cur.expect(")")
            if cur.peek() != ",":
                break
            cur.pos += 1
    cur.expect("}")
    cur.expect(")")
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise SignatureSyntaxError("trailing characters", cur.pos)
    return Signature(genus, sign, periods, tuple(cycles))


def normalized_area(sig: Signature) -> Fraction:
    """Hyperbolic area of a fundamental region divided by 2*pi, exactly.

        area = eps*h - 2 + k + sum(1 - 1/m_i) + (1/2) * sum(1 - 1/n_ij)

    with eps 2 for an orientable quotient and 1 otherwise, and k cycles.
    A parabolic period ``INF`` counts 1 - 1/inf = 1, which gives the finite
    area of a quotient with cusps, e.g. 1/6 for the modular group
    ``(0;+;[2,3,inf])``.
    """
    eps = 2 if sig.sign == SIGN_PLUS else 1
    total = Fraction(eps * sig.genus - 2 + len(sig.period_cycles))
    for m in sig.proper_periods:
        total += 1 if m is INF else 1 - Fraction(1, m)
    for cycle in sig.period_cycles:
        for n in cycle:
            total += Fraction(1, 2) * (1 - Fraction(1, n))
    return total


def chain_signature(g: int) -> Signature:
    """The reflection-chain signature ``(0;+;[-];{(2,2,2,2g)})``."""
    return Signature(0, SIGN_PLUS, (), ((2, 2, 2, 2 * g),))


def mixed_signature(g: int) -> Signature:
    """The one-cone-point reflection signature ``(0;+;[2];{(2,2g)})``."""
    return Signature(0, SIGN_PLUS, (2,), ((2, 2 * g),))


def wiman_quotient_signature(g: int) -> Signature:
    """Extended quotient signature of the order-8g mirror-maximal surface."""
    if g == 2:
        return Signature(0, SIGN_PLUS, (), ((2, 3, 8),))
    return Signature(0, SIGN_PLUS, (), ((2, 4, 4 * g),))


# ---------------------------------------------------------------------------
# Enumeration of genus-0 quotient signatures compatible with 4g automorphisms.

TAG_FAMILY1 = "family-1"
TAG_FAMILY2 = "family-2"
TAG_FAMILY3 = "family-3"
TAG_FAMILY4 = "family-4"
TAG_QUADRUPLE = "quadruple-exceptional"
TAG_SPORADIC = "sporadic"


def _classify_periods(g: int, periods: tuple) -> str:
    if len(periods) == 3:
        if periods == (2, 4 * g, 4 * g):
            return TAG_FAMILY1
        if periods == tuple(sorted((3, 6, 2 * g))):
            return TAG_FAMILY2
        if periods == tuple(sorted((4, 4, 2 * g))):
            return TAG_FAMILY3
        return TAG_SPORADIC
    if periods == (2, 2, 2, 2 * g):
        return TAG_FAMILY4
    return TAG_QUADRUPLE


def enumerate_4g_signatures(g: int) -> list:
    """All genus-0 signatures a group of order 4g acting on genus g can have,
    as ``(signature, tag)`` pairs, the tag naming the family it belongs to.

    A group of order N = 4g acting on a genus-g surface has a genus-0 quotient
    with cone periods dividing N and total area (2g-2)/N, so by
    Riemann-Hurwitz the sum of the 1 - 1/m_i is 5/2 - 1/(2g).  Each term lies
    in [1/2, 1), so only r = 3 or r = 4 cone points are possible; positive
    genus quotients are impossible (the total would drop by at least 2).
    Both cases are solved in integers, periods ascending:

    - r = 3: 1/l + 1/m + 1/k = (g+1)/(2g).  Then 3/l > 1/2 gives l <= 5,
      and for each m >= l, k = 2g*l*m / ((g+1)*l*m - 2g*(l+m)) must be an
      integer k >= m.  k falls as m grows, so m stops once k < m.
    - r = 4: three periods 2 leave (2,2,2,2g); two leave (2,2,3,n) with
      n = 6g/(g+3), integral only at g = 3, 6 and 15; any larger second
      or third period leaves no room.
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    n = 4 * g
    usable = [d for d in divisors_of(n) if d >= 2]
    found = []
    for l in usable:
        if l > 5:
            break
        for m in usable:
            if m < l:
                continue
            den = (g + 1) * l * m - 2 * g * (l + m)
            if den <= 0:
                continue
            k, rem = divmod(2 * g * l * m, den)
            if k < m:
                break
            if not rem and n % k == 0:
                found.append((l, m, k))
    found.append((2, 2, 2, 2 * g))
    if 6 * g % (g + 3) == 0 and n % (6 * g // (g + 3)) == 0:
        found.append((2, 2, 3, 6 * g // (g + 3)))
    found.sort(key=lambda periods: (len(periods), periods))
    return [
        (Signature(0, SIGN_PLUS, periods), _classify_periods(g, periods))
        for periods in found
    ]


def sporadic_genera(limit: int) -> list:
    """Genera up to ``limit`` admitting a sporadic (non-family) triangle signature.

    These are arithmetic candidates only: a genus may appear here even when no
    group of order 4g realizes the signature, so callers must cross-check
    against an action search before drawing conclusions.  Empty below 2.
    """
    return [
        g
        for g in range(2, limit + 1)
        if any(tag == TAG_SPORADIC for _, tag in enumerate_4g_signatures(g))
    ]
