"""Arbitrary text given to the four input parsers fails cleanly.

``parse_signature``, ``from_table``, ``from_permutations`` and the config
file reader each return a value or raise ``InputFormatError``; building a
group from permutations may also raise ``GroupConstructionError`` when the
permutations generate too large a group.  Anything else escaping is a
traceback for the user.  Each parser is fed arbitrary text and text shaped
like its own format, so that the later stages of the parse are reached too.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fourg.cli import _load_config
from fourg.errors import GroupConstructionError, InputFormatError
from fourg.groups import FiniteGroup, from_permutations, from_table
from fourg.signatures import Signature, parse_signature

# Derandomized and without an example database, like the other property
# tests, so every run of the suite draws the same examples.
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)


def _joined(tokens, sep=","):
    return st.lists(tokens, max_size=4).map(sep.join)


_PERIODS = st.sampled_from(
    ["2", "3", "12", "inf", "1", "0", "-", "", " 4 ", "²", "x", "9" * 5000]
)

SIGNATURE_LIKE = st.builds(
    "({};{};[{}];{{{}}}){}".format,
    st.sampled_from(["0", "1", "-1", "²", "", "12"]),
    st.sampled_from(["+", "-", "*", ""]),
    _joined(_PERIODS),
    _joined(_joined(_PERIODS).map("({})".format)) | st.just("-"),
    st.sampled_from(["", " ", "x", ")"]),
)


@st.composite
def table_like(draw):
    """A cyclic group table, relabelled, with a few entries and lines spoiled."""
    n = draw(st.integers(1, 5))
    label = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[label[i]][label[j]] = label[(i + j) % n]
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-1, n))
    for i, j, v in draw(st.lists(entry, max_size=2)):
        table[i][j] = v
    rows = [" ".join(map(str, row)) for row in table]
    rows = rows[: draw(st.integers(0, n))] + rows[n:] if draw(st.booleans()) else rows
    head = draw(
        st.sampled_from(
            [f"order {n}", f"order {n + 1}", "order 0", "order", "order x"]
            + [f"order {n} junk", f"orderly {n}", f"ORDER {n}", f"order +{n}", f"order 0{n}"]
        )
    )
    tail = draw(
        st.sampled_from(
            ["", "generators", "generators 1", f"generators {n}", "generators x", "extra"]
            + ["generatorsfoo 1", "GENERATORS 0", "generators +1", "generators 01"]
        )
    )
    return "\n".join([head, *rows, tail])


_CYCLE = st.lists(st.integers(0, 6), max_size=4).map(
    lambda points: "(" + " ".join(map(str, points)) + ")"
)
PERMUTATIONS_LIKE = _joined(
    st.builds(
        "perm {}{}".format, _joined(_CYCLE, ""), st.sampled_from(["", "(", "x", "(1,2)"])
    ),
    "\n",
)

CONFIG_LIKE = _joined(
    st.builds(
        "{}{}{}".format,
        st.sampled_from(
            ["genus", "range", "format", "tables", "max-order", "check", "bogus", " ", ""]
        ),
        st.sampled_from(["=", " = ", "", "=="]),
        st.sampled_from(["3", "2:5", "json", "yes", "maybe", "", "# note", "x=1"]),
    ),
    "\n",
)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(st.one_of(st.text(), SIGNATURE_LIKE))
def test_parse_signature_fails_cleanly(text):
    try:
        result = parse_signature(text)
    except InputFormatError:
        return
    assert isinstance(result, Signature)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.one_of(st.text(), table_like()))
def test_from_table_fails_cleanly(text):
    try:
        result = from_table(text)
    except InputFormatError:
        return
    assert isinstance(result, FiniteGroup)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.one_of(st.text(), PERMUTATIONS_LIKE))
def test_from_permutations_fails_cleanly(text):
    try:
        result = from_permutations(text)
    except (InputFormatError, GroupConstructionError):
        return
    assert isinstance(result, FiniteGroup)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.one_of(st.binary(), st.text().map(str.encode), CONFIG_LIKE.map(str.encode)))
def test_load_config_fails_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fourg.cfg"
        path.write_bytes(data)
        try:
            result = _load_config(str(path))
        except InputFormatError:
            return
    assert isinstance(result, dict)
