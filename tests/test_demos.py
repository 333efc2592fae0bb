"""Every script in demos/ runs cleanly against the package and prints its
pinned output, and the README's library quick start passes as a doctest."""

import doctest
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourg

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change here is a change of engine output
DEMO_OUTPUT_SHA256 = {
    "01_signatures_and_area": "f647365798438792b5c8d2205d31c788e65fcd06259acfd03cd0a00053837b3c",
    "02_the_unique_action": "2da53561b94365aeb15226126061a277138b314ba1c2f2b07e3a78d53c99b741",
    "03_extended_symmetry_groups": "7e142b8449ba36fa3117d5637c614ea7457f8922bcbbf9a10afac40268ebef8a",
    "04_real_forms_and_ovals": "2e5a72f2a51d72e84b8ee4cb23847d339edef8647269f938daf3c29bfb50e72d",
    "05_moduli_boundary": "2f4a97727fa501a989b515691a712738728dc859339baf080716bdd119ae8060",
    "06_exceptional_genera": "e6dbc0cce21b744c7305b9e3f3582a2cc027daddb1ef19a0ee8434fd3ff11bc9",
}


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
    digest = hashlib.sha256(run.stdout.encode("utf-8")).hexdigest()
    assert digest == DEMO_OUTPUT_SHA256[script.stem], run.stdout


def test_readme_quick_start():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python", 1)[1]
    block = block.split("```", 1)[0] + "```"  # an output must not run into the fence
    test = doctest.DocTestParser().get_doctest(block, {}, "quick start", "README.md", 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
