"""Smoke test: every script in demos/ runs cleanly against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourg

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    src = str(Path(fourg.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
