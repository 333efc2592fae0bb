"""Smoke test: every script in demos/ runs cleanly against the package, and
the README's library quick start passes as a doctest."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourg

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_quick_start():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python", 1)[1]
    block = block.split("```", 1)[0] + "```"  # an output must not run into the fence
    test = doctest.DocTestParser().get_doctest(block, {}, "quick start", "README.md", 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
