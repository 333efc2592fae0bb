"""Shared pytest hooks and fixtures.

The terminal summary prints compact pass/fail lines for the acceptance
criteria; ``capped_python`` runs a Python subprocess under an address-space
cap; ``sporadic_genera_861`` computes the arithmetic sporadic list up to the
census bound once per session (a few seconds of signature enumeration);
``restricted_vector`` rebuilds an extension's restriction as a vector over
``_reference_plus_part``, the reindexed orientation-preserving half that the
package built before it keyed the restriction words in the extension itself.
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
from fourg.groups import FiniteGroup, _gather, _small_generating_set
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


def _reference_plus_part(G: FiniteGroup) -> FiniteGroup:
    """The index-2 subgroup of orientation-preserving elements, as a group.

    Its elements are reindexed in increasing parent order.  The result is
    cached on G and carries ``parent_indices`` (new index -> parent index)
    and ``from_parent`` (parent index -> new index).
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
        plus = _reference_plus_part(e.group)
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
