"""Record the benchmark's reference answers from the checkout it sits in.

Usage: python3 perfbench/record.py

Writes ``data/expected.json``: the stdout sha256 and the computed/expected
disagreements of the ``atlas`` and ``catalog`` commands, and for every
genus of the ``tables`` workload the built-in catalog's ``exceptional``
answer (multisets of group structures and of candidates).

Run it only at a commit whose outputs are known to be right: the benchmark
holds every later commit to these answers.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import run
import tables


def capture(bench: run.Bench, argv) -> bytes:
    outputs = []
    result = bench.run(argv, lambda out: outputs.append(out))
    if result.status != 0:
        raise SystemExit(f"{' '.join(argv)} exited {result.status}")
    return outputs[0]


def record_expected() -> None:
    run.WORK_ROOT.mkdir(exist_ok=True)
    expected = {"tables": {}}
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as work:
        bench = run.Bench(Path(work), limit_s=3600)
        for name, argv in run.FIXED_ARGV.items():
            stdout = capture(bench, argv)
            expected[name] = {
                "argv": argv,
                "sha256": hashlib.sha256(stdout).hexdigest(),
                "disagreements": [
                    path for path, pair in run.annotation_pairs(json.loads(stdout))
                    if pair["computed"] != pair["expected"]
                ],
            }
        for g in tables.GENERA:
            stdout = capture(bench, ["exceptional", "--genus", str(g), "--json"])
            expected["tables"][str(g)] = run.answer_digest(json.loads(stdout))
    run.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED_FILE}")


if __name__ == "__main__":
    record_expected()
