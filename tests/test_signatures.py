"""Signature parsing, area arithmetic, and the 4g enumeration."""

from fractions import Fraction

import pytest

from fourg.groups import divisors_of
from fourg.signatures import (
    INF,
    SIGN_PLUS,
    Signature,
    SignatureSyntaxError,
    TAG_FAMILY1,
    TAG_FAMILY2,
    TAG_FAMILY3,
    TAG_FAMILY4,
    TAG_QUADRUPLE,
    TAG_SPORADIC,
    _classify_periods,
    chain_signature,
    enumerate_4g_signatures,
    mixed_signature,
    normalized_area,
    parse_signature,
    sporadic_genera,
)

# Genera (up to 861) whose 4g enumeration includes a sporadic triangle
# signature.  Frozen from an independent arithmetic pass over equation
# m3 = 4g*m/( (2g-2)*m - ... ) done by hand for small cases and cross-checked
# against the published census of this family.
SPORADIC_GENERA_LIST = [
    3, 6, 9, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30, 33, 36, 40, 42, 45,
    60, 66, 72, 84, 90, 105, 126, 132, 153, 190, 273, 276, 420, 429, 861,
]


def test_render_round_trip():
    text = "(0;+;[2,2,2,4];{-})"
    sig = parse_signature(text)
    assert str(sig) == text
    assert sig.genus == 0
    assert sig.proper_periods == (2, 2, 2, 4)
    assert sig.period_cycles == ()


def test_parse_cycles():
    sig = parse_signature("(0;+;[-];{(2,2,2,4)})")
    assert sig.proper_periods == ()
    assert sig.period_cycles == ((2, 2, 2, 4),)
    assert str(sig) == "(0;+;[-];{(2,2,2,4)})"


def test_parse_sorts_proper_periods():
    sig = parse_signature("(1;-;[4,2,3];{-})")
    assert sig.proper_periods == (2, 3, 4)
    assert str(sig) == "(1;-;[2,3,4];{-})"


def test_parse_empty_cycle_and_multiple_cycles():
    sig = parse_signature("(0;+;[-];{(),(2,2)})")
    assert sig.period_cycles == ((), (2, 2))
    assert len(sig.period_cycles) == 2


def test_parse_whitespace_tolerated():
    sig = parse_signature(" ( 0 ; + ; [ 2 , 4 ] ; { - } ) ")
    assert str(sig) == "(0;+;[2,4];{-})"


def test_parse_inf_period():
    sig = parse_signature("(0;+;[inf,2,4];{-})")
    assert sig.proper_periods == (2, 4, INF)
    assert INF in sig.proper_periods
    assert str(sig) == "(0;+;[2,4,inf];{-})"


@pytest.mark.parametrize(
    "text",
    [
        "(0;+;[2,2];{-}",      # missing close paren
        "(0;*;[2];{-})",        # bad sign
        "(0;+;[1,2];{-})",      # period below 2
        "(0;+;[2];{-})x",       # trailing junk
        "(-1;+;[-];{-})",       # negative genus
        "(0;+;[];{-})",         # empty brackets need the dash
        "(0;+;[-];{(inf)})",    # a link period is never parabolic
        "(0;+;[2];{(2,inf)})",
        "(\u00b2;+;[-];{-})",   # isdigit() but not a decimal digit
        pytest.param("(0;+;[" + "9" * 5000 + "];{-})", id="beyond-int-digit-limit"),
    ],
)
def test_parse_errors(text):
    with pytest.raises(SignatureSyntaxError) as info:
        parse_signature(text)
    assert info.value.position >= 0


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, "+", (2, 1))
    with pytest.raises(ValueError):
        Signature(0, "?", ())
    with pytest.raises(ValueError):
        Signature(0, "+", (), ((INF, 2),))


def test_normalized_area_quadrilateral():
    # 0 - 2 + 0 + 3*(1/2) + 3/4 = 1/4
    assert normalized_area(parse_signature("(0;+;[2,2,2,4];{-})")) == Fraction(1, 4)


def test_normalized_area_chain_g2():
    # -2 + 1 + (1/2)*(3*(1/2) + 3/4) = 1/8
    assert normalized_area(parse_signature("(0;+;[-];{(2,2,2,4)})")) == Fraction(1, 8)


def test_normalized_area_surface():
    assert normalized_area(Signature(2, SIGN_PLUS)) == 2
    assert normalized_area(Signature(5, SIGN_PLUS)) == 8


@pytest.mark.parametrize("g", range(2, 12))
def test_canonical_signatures_share_area(g):
    # Both extension signatures have half the area of the quadrilateral one.
    quad = normalized_area(Signature(0, SIGN_PLUS, (2, 2, 2, 2 * g)))
    assert quad == Fraction(1, 2) - Fraction(1, 2 * g)
    assert normalized_area(chain_signature(g)) == quad / 2
    assert normalized_area(mixed_signature(g)) == quad / 2


def test_normalized_area_counts_cusps():
    # a parabolic period counts 1 - 1/inf = 1
    modular = normalized_area(parse_signature("(0;+;[2,3,inf];{-})"))
    assert modular == Fraction(1, 6)
    # an index-3 subgroup of the modular group has three times its area
    assert normalized_area(parse_signature("(0;+;[2,inf,inf];{-})")) == 3 * modular
    assert normalized_area(parse_signature("(0;+;[inf,2,4];{-})")) == Fraction(1, 4)


@pytest.mark.parametrize(
    "g,expected",
    [
        (2, {(2, 8, 8), (4, 4, 4), (2, 2, 2, 4)}),
        (4, {(2, 16, 16), (4, 4, 8), (2, 2, 2, 8)}),
        (5, {(2, 20, 20), (4, 4, 10), (5, 5, 5), (2, 2, 2, 10)}),
        (7, {(2, 28, 28), (4, 4, 14), (2, 2, 2, 14)}),
        (8, {(2, 32, 32), (4, 4, 16), (2, 2, 2, 16)}),
    ],
)
def test_enumeration_small_genera(g, expected):
    result = {sig.proper_periods for sig, _ in enumerate_4g_signatures(g)}
    assert result == expected


def test_enumeration_g3_includes_exceptions():
    result = {sig.proper_periods: tag for sig, tag in enumerate_4g_signatures(3)}
    assert result == {
        (2, 12, 12): TAG_FAMILY1,
        (3, 6, 6): TAG_FAMILY2,
        (4, 4, 6): TAG_FAMILY3,
        (3, 4, 12): TAG_SPORADIC,
        (2, 2, 2, 6): TAG_FAMILY4,
        (2, 2, 3, 3): TAG_QUADRUPLE,
    }


def test_enumeration_tags_g5():
    tags = {sig.proper_periods: tag for sig, tag in enumerate_4g_signatures(5)}
    assert tags[(5, 5, 5)] == TAG_SPORADIC
    assert tags[(2, 20, 20)] == TAG_FAMILY1
    assert tags[(4, 4, 10)] == TAG_FAMILY3
    assert tags[(2, 2, 2, 10)] == TAG_FAMILY4


@pytest.mark.parametrize("g", range(2, 40))
def test_enumeration_properties(g):
    for sig, _ in enumerate_4g_signatures(g):
        assert sig.genus == 0
        assert sig.sign == SIGN_PLUS and not sig.period_cycles
        # every period divides 4g and the area matches (2g-2)/4g
        assert all(4 * g % m == 0 for m in sig.proper_periods)
        assert normalized_area(sig) == Fraction(2 * g - 2, 4 * g)
        assert len(sig.proper_periods) in (3, 4)


def test_quadruple_exceptional_genera():
    # (2,2,3,q) solutions exist exactly at g = 3, 6, 15.
    hits = {}
    for g in range(2, 200):
        for sig, tag in enumerate_4g_signatures(g):
            if tag == TAG_QUADRUPLE:
                hits[g] = sig.proper_periods
    assert hits == {3: (2, 2, 3, 3), 6: (2, 2, 3, 4), 15: (2, 2, 3, 5)}


def test_sporadic_genera_matches_frozen_list(sporadic_genera_861):
    found = sporadic_genera_861
    assert set(found) >= set(SPORADIC_GENERA_LIST)
    # The arithmetic enumeration legitimately picks up one genus beyond the
    # published census: g = 5 via (5,5,5).  It is reported, not suppressed;
    # the action search elsewhere shows no order-20 group realizes it.
    extras = sorted(set(found) - set(SPORADIC_GENERA_LIST))
    assert extras == [5]


def test_sporadic_genera_small():
    assert sporadic_genera(4) == [3]
    assert sporadic_genera(1) == []


# ---------------------------------------------------------------------------
# Reference: the search over ascending divisor multisets with exact
# ``Fraction`` sums that the census used before it was solved in closed
# form.  Copied verbatim, except that it returns the (signature, tag)
# pairs the census returns now.


def _reference_enumerate_4g_signatures(g: int) -> list:
    """All genus-0 signatures a group of order 4g acting on genus g can have.

    A group of order N = 4g acting on a genus-g surface has a genus-0 quotient
    with cone periods dividing N and total area (2g-2)/N; that pins the period
    sums exactly.  Each term 1 - 1/m lies in [1/2, 1), and the required total
    is 5/2 - 1/(2g), strictly between 2 and 5/2, so only r = 3 or r = 4 cone
    points are possible and the search below is exhaustive.  Positive genus
    quotients are impossible for the same reason (the total would drop by at
    least 2).
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    target = Fraction(5, 2) - Fraction(1, 2 * g)
    usable = [d for d in divisors_of(4 * g) if d >= 2]
    found = []

    def extend(start: int, chosen: list, total: Fraction):
        if total == target:
            if len(chosen) >= 3:
                found.append(tuple(chosen))
            return
        if len(chosen) == 4:
            return
        for pos in range(start, len(usable)):
            m = usable[pos]
            term = 1 - Fraction(1, m)
            if total + term > target:
                break  # terms only grow from here
            chosen.append(m)
            extend(pos, chosen, total + term)
            chosen.pop()

    extend(0, [], Fraction(0))
    found.sort(key=lambda periods: (len(periods), periods))
    return [
        (Signature(0, SIGN_PLUS, periods), _classify_periods(g, periods))
        for periods in found
    ]


def test_closed_form_census_matches_search():
    for g in range(2, 400):
        assert enumerate_4g_signatures(g) == _reference_enumerate_4g_signatures(g), g
