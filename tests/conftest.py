"""Shared pytest hooks and fixtures.

The terminal summary prints compact pass/fail lines for the acceptance
criteria; ``capped_python`` runs a Python subprocess under an address-space
cap; ``sporadic_genera_861`` computes the arithmetic sporadic list up to the
census bound once per session (a few seconds of signature enumeration).
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fourg
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
