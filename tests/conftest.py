"""Shared pytest hooks and fixtures.

The terminal summary prints compact pass/fail lines for the acceptance
criteria; ``capped_python`` runs a Python subprocess under an address-space
cap; ``sporadic_genera_861`` computes the arithmetic sporadic list up to the
census bound once per session (a few seconds of signature enumeration);
``restricted_vector`` rebuilds an extension's restriction as a vector over
``_reference_plus_part``, the reindexed orientation-preserving half that the
package built before it keyed the restriction words in the extension itself.

``SIGNS`` holds, per extension kind, the generator signs that the package
once attached to each hand-built target group; ``_reference_orientation``
extends them to the character that every extension of that kind must
compute from its own images.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fourg
from fourg.actions import GeneratingVector
from fourg.errors import InvariantViolation
from fourg.extensions import restrict_to_index2
from fourg.groups import FiniteGroup, _extend_hom, _gather, _small_generating_set
from fourg.signatures import sporadic_genera

ACCEPTANCE_FILE = "test_acceptance.py"

# Inputs that once allocated gigabytes run under this cap, so a regression
# ends in MemoryError instead of exhausting the machine.
MEMORY_CAP = 512 * 1024 * 1024


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.fixture
def capped_python(tmp_path):
    """Run ``python *args`` in tmp_path under the address-space cap."""
    src = str(Path(fourg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run(*args):
        return subprocess.run(
            [sys.executable, *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=_cap_memory,
        )

    return run


@pytest.fixture(scope="session")
def sporadic_genera_861():
    return tuple(sporadic_genera(861))


# Generator signs of the chain target (kind a) and the cone target (kind b).
CHAIN_SIGNS = {"w": -1, "x": -1, "y": -1}
CONE_SIGNS = {"z": -1, "w": -1, "x": 1}
SIGNS = {"a": CHAIN_SIGNS, "b": CONE_SIGNS}


def _reference_orientation(G: FiniteGroup, signs: dict) -> tuple:
    """The +/-1 character of G that takes the named generators to ``signs``.

    A homomorphism onto C2 = {0: +1, 1: -1}, extended from the generators as
    the package's ``attach_orientation`` did; signs that define no character
    of the whole group raise.
    """
    pairs = [(G.generator(name).idx, (1 - sign) // 2) for name, sign in signs.items()]
    closed = _extend_hom(G._table, ((0, 1), (1, 0)), pairs)
    if closed is None or len(closed[1]) != G.order:
        raise ValueError(f"the signs {signs} define no character of {G.name}")
    return tuple(1 - 2 * v for v in closed[0])


def _reference_plus_part(G: FiniteGroup, signs: dict) -> FiniteGroup:
    """The index-2 subgroup of orientation-preserving elements, as a group.

    The character is ``_reference_orientation(G, signs)``.  Its elements are
    reindexed in increasing parent order.  The result is cached on G and
    carries ``parent_indices`` (new index -> parent index) and
    ``from_parent`` (parent index -> new index).
    """
    cached = getattr(G, "_plus_part", None)
    if cached is not None:
        return cached
    kappa = _reference_orientation(G, signs)
    members = frozenset(i for i in range(G.order) if kappa[i] == 1)
    if len(members) * 2 != G.order:
        raise InvariantViolation(
            "orientation-preserving elements do not form an index-2 subgroup"
        )
    gens = _small_generating_set(G._table, members)  # raises unless closed
    ordered = sorted(members)
    new_of = {old: new for new, old in enumerate(ordered)}
    pick = _gather(ordered)
    table = [_gather(pick(G._table[a]))(new_of) for a in ordered]
    plus = FiniteGroup(
        table,
        [G._names[i] for i in ordered],
        [new_of[i] for i in gens],
        name=f"{G.name}+",
        verify=False,  # restriction of a verified table stays associative
    )
    plus.parent_indices = tuple(ordered)
    plus.from_parent = new_of
    G._plus_part = plus
    return plus


@pytest.fixture(scope="session")
def restricted_vector():
    """e -> the restriction words of e as a vector over ``_reference_plus_part``."""

    def build(e) -> GeneratingVector:
        plus = _reference_plus_part(e.group, SIGNS[e.kind])
        images = tuple(plus.element(plus.from_parent[p.idx]) for p in restrict_to_index2(e))
        return GeneratingVector(plus, tuple(x.order() for x in images), images)

    return build


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = str(getattr(rep, "nodeid", ""))
            if ACCEPTANCE_FILE not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and outcome == "passed":
                continue
            status = "PASS" if outcome == "passed" else "FAIL"
            lines.append((nodeid.split("::")[-1], status))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, status in sorted(set(lines)):
        terminalreporter.write_line(f"{status}  {name}")
