"""Cold-process benchmark of the fourg command line.

Usage:
    python3 perfbench/run.py --workload {atlas,catalog,tables,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is used from ``src`` through
PYTHONPATH, not installed.  One client runs the workload's commands one
after another, each as a fresh ``python -m fourg.cli`` process in a new
empty working directory (HOME and XDG_CACHE_HOME inside it), and checks
every output against ``data/expected.json``.  Passes repeat while another
one fits in ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (see trace_child.py) and prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  Without
``src/fourg`` in the checkout the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tables

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
EXPECTED_FILE = BENCH_DIR / "data" / "expected.json"
TRACE_CHILD = BENCH_DIR / "trace_child.py"

WORKLOADS = ("atlas", "catalog", "tables")
FIXED_ARGV = {
    "atlas": ["atlas", "--range", "2:14", "--json"],
    "catalog": ["exceptional", "--genus", "24", "--json"],
}
SETUP_ARGV = ["--help"]
SETUP_PROBES = 9
HARD_LIMIT_S = 170.0
# cmd_tail_s is this fixed percentile of the command times, reported only
# once at least TAIL_ABOVE samples lie above it.
TAIL_PERCENTILE = 86
TAIL_ABOVE = 10

E2E_UNITS = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (span name, stat, unit); "calls" and "self_s" come from every span,
# the rest from the per-call stat recorded by trace_child.STATS.
PER_LAYER = (
    ("signatures.enumerate_4g_signatures", "calls", "count"),
    ("signatures.enumerate_4g_signatures", "self_s", "s"),
    ("groups.close_generator_map", "calls", "count"),
    ("groups.close_generator_map", "self_s", "s"),
    ("groups.close_generator_map", "ok_ratio", "ratio"),
    ("groups.automorphism_search", "calls", "count"),
    ("groups.automorphism_search", "self_s", "s"),
    ("groups.iso_search", "calls", "count"),
    ("groups.iso_search", "self_s", "s"),
    ("groups.is_isomorphic", "calls", "count"),
    ("groups.is_isomorphic", "self_s", "s"),
    ("groups.is_isomorphic", "true_ratio", "ratio"),
    ("groups.recognize", "calls", "count"),
    ("groups.recognize", "self_s", "s"),
    ("groups.small_groups", "calls", "count"),
    ("groups.small_groups", "self_s", "s"),
    ("groups.small_groups", "groups_kept", "count"),
    ("cli.load_group_tables", "self_s", "s"),
    ("cli.load_group_tables", "bytes", "bytes"),
    ("groups.from_table", "calls", "count"),
    ("groups.from_table", "self_s", "s"),
    ("groups.from_permutations", "calls", "count"),
    ("groups.from_permutations", "self_s", "s"),
    ("actions.smooth_vectors", "calls", "count"),
    ("actions.smooth_vectors", "self_s", "s"),
    ("actions.smooth_vectors", "vectors", "count"),
    ("actions.classify", "calls", "count"),
    ("actions.classify", "self_s", "s"),
    ("actions.classify", "classes", "count"),
    ("actions.classify", "orbit_elems", "count"),
    ("actions.main_action_class", "self_s", "s"),
    ("actions.exceptional_search", "self_s", "s"),
    ("extensions.build_extensions", "calls", "count"),
    ("extensions.build_extensions", "self_s", "s"),
    ("realforms.species_set", "self_s", "s"),
    ("realforms.symmetry_classes_with_ovals", "self_s", "s"),
    ("boundary.boundary_description", "self_s", "s"),
    ("report.build_report", "calls", "count"),
    ("report.build_report", "self_s", "s"),
    ("report.atlas_reports", "self_s", "s"),
    ("cli.main", "self_s", "s"),
)


class Run:
    """One timed command: exit status, wall and rusage, and the check verdict."""

    def __init__(self, wall, status, rusage, error, spans=None):
        self.wall = wall
        self.status = status
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.error = error
        self.spans = spans


class Bench:
    """Runs commands under one scratch directory and keeps their results."""

    def __init__(self, work: Path, limit_s: float = HARD_LIMIT_S):
        self.work = work
        self.started = time.perf_counter()
        self.limit_s = limit_s
        self.count = 0
        self.runs = []

    def run(self, argv, check, traced=False, record=True) -> Run:
        """Run one cold command, wait for it with wait4, check its stdout."""
        self.count += 1
        cwd = self.work / f"cmd{self.count:05d}"
        cwd.mkdir()
        logs = self.work / "logs"
        logs.mkdir(exist_ok=True)
        for sub in ("home", "cache", "tmp"):
            (cwd / sub).mkdir()
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "HOME": str(cwd / "home"),
            "XDG_CACHE_HOME": str(cwd / "cache"),
            "TMPDIR": str(cwd / "tmp"),
            "LC_ALL": "C.UTF-8",
        }
        spans_file = logs / f"{self.count:05d}.spans.json"
        if traced:
            cmd = [sys.executable, str(TRACE_CHILD), "--out", str(spans_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "fourg.cli", *argv]
        out_path = logs / f"{self.count:05d}.out"
        err_path = logs / f"{self.count:05d}.err"
        timeout = max(1.0, self.limit_s - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = status = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        if status != 0:
            message = err_path.read_bytes().decode(errors="replace").strip()[-300:]
            error = f"exit status {status}: {message}"
        else:
            try:
                error = check(stdout)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        spans = None
        if traced and error is None:
            spans = json.loads(spans_file.read_text())
        shutil.rmtree(cwd)
        for path in (out_path, err_path, spans_file):
            path.unlink(missing_ok=True)
        result = Run(wall, status, rusage, error, spans)
        if error is not None:
            print(f"perfbench: FAILED {' '.join(argv)}: {error}", file=sys.stderr)
        if record:
            self.runs.append(result)
        return result


# -- output checks ---------------------------------------------------------


def annotation_pairs(node, path=""):
    """Yield (path, pair) for every computed/expected annotation in a payload."""
    if isinstance(node, dict):
        if "computed" in node and "expected" in node:
            yield path, node
        for key, value in node.items():
            yield from annotation_pairs(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from annotation_pairs(value, f"{path}/{i}")


def digest_check(expected: dict):
    """Stdout must hash to the recorded digest, and every computed/expected
    pair must agree except the disagreements recorded with it."""

    def check(stdout: bytes):
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != expected["sha256"]:
            return f"stdout sha256 {digest} != recorded {expected['sha256']}"
        disagree = []
        for path, pair in annotation_pairs(json.loads(stdout)):
            if pair.get("agrees", True) != (pair["computed"] == pair["expected"]):
                return f"{path}: 'agrees' does not match computed == expected"
            if pair["computed"] != pair["expected"]:
                disagree.append(path)
        if disagree != expected["disagreements"]:
            return f"computed/expected disagreements {disagree} != recorded"
        return None

    return check


def answer_digest(payload: dict) -> dict:
    """The catalog-independent part of an ``exceptional`` answer."""
    return {
        "structures": sorted(entry["structure"] for entry in payload["groups"]),
        "candidates": sorted(
            [c["signature"], c["group_structure"], c["orbit_size"]]
            for c in payload["candidates"]
        ),
    }


def tables_check(g: int, expected: dict):
    """An answer over relabelled tables must equal the catalog's answer."""

    def check(stdout: bytes):
        payload = json.loads(stdout)
        if (payload["genus"], payload["order"]) != (g, 4 * g):
            return f"answer is for genus {payload['genus']}, not {g}"
        got = answer_digest(payload)
        for key in ("structures", "candidates"):
            if got[key] != expected[key]:
                return f"genus {g}: {key} differ from the built-in catalog's answer"
        return None

    return check


def help_check(stdout: bytes):
    return None if stdout.startswith(b"usage: fourg") else "no usage text from --help"


# -- workloads ---------------------------------------------------------------


def workload_commands(name: str, seed: int, work: Path, expected: dict) -> list:
    """(argv, check) pairs for one pass; table inputs are written here, untimed."""
    if name in FIXED_ARGV:
        return [(FIXED_ARGV[name], digest_check(expected[name]))]
    inputs = tables.write_inputs(seed, work / "tables")
    print(f"perfbench: tables seed {seed}: {sum(inputs['files'].values())} group files,"
          f" sha256 {inputs['sha256']}")
    return [
        (["exceptional", "--genus", str(g), "--tables", str(inputs["dirs"][g]), "--json"],
         tables_check(g, expected["tables"][str(g)]))
        for g in tables.GENERA
    ]


def run_pass(bench: Bench, commands, traced=False) -> list:
    return [bench.run(argv, check, traced=traced) for argv, check in commands]


def tail_min_passes(commands_per_pass: int) -> int:
    """Passes needed for TAIL_ABOVE command times above the tail percentile."""
    return -(-TAIL_ABOVE * 100 // ((100 - TAIL_PERCENTILE) * commands_per_pass))


def repeat_passes(bench: Bench, seconds: float, once, min_passes: int = 1) -> None:
    """Call ``once`` at least ``min_passes`` times, then until the next call
    would not end within ``seconds``."""
    begin = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        once()
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - begin
        if len(durations) >= min_passes and elapsed + statistics.median(durations) > seconds:
            break
        if time.perf_counter() - bench.started > HARD_LIMIT_S / 2:
            break


# -- metrics -----------------------------------------------------------------


def tail(values: list):
    """The TAIL_PERCENTILE-th percentile (interpolated) of ``values``.

    The percentile is fixed, so on ``tables`` it reads the same genus's
    commands whatever the number of passes.  With fewer than TAIL_ABOVE
    samples above it the median is reported instead; ``tables`` always runs
    enough passes (tail_min_passes) and ``atlas``/``catalog`` never do.
    """
    if len(values) * (100 - TAIL_PERCENTILE) < TAIL_ABOVE * 100:
        return statistics.median(values), f"p50 (fewer than {TAIL_ABOVE} samples above p{TAIL_PERCENTILE})"
    value = statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, f"p{TAIL_PERCENTILE} ({sum(v > value for v in values)} samples above)"


def e2e_metrics(passes: list, probes: list) -> dict:
    """Metric values and a sample note for each, from clean passes only."""
    walls = [sum(r.wall for r in p) for p in passes]
    cpus = [sum(r.cpu for r in p) for p in passes]
    rss = [max(r.rss_mb for r in p) for p in passes]
    cmds = [r.wall for p in passes for r in p]
    setups = [r.wall for r in probes]
    tail_value, tail_label = tail(cmds)
    return {
        "wall_s": (statistics.median(walls), f"median of {len(walls)} passes"),
        "cmd_p50_s": (statistics.median(cmds), f"median of {len(cmds)} commands"),
        "cmd_tail_s": (tail_value, f"{tail_label} of {len(cmds)} commands"),
        "cpu_s": (statistics.median(cpus), f"median of {len(cpus)} passes"),
        "peak_rss_mb": (statistics.median(rss), f"median of {len(rss)} passes"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} cold --help"),
    }


def layer_totals(runs: list) -> dict:
    """Per span name: calls, summed self time and summed stats over commands."""
    totals = {}
    for run in runs:
        spans = run.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, stat in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, stat) in enumerate(spans):
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "stat": None})
            t["calls"] += 1
            t["self_s"] += (end - start) - child[i]
            if stat is not None:
                if isinstance(stat, list):
                    t["stat"] = [a + b for a, b in zip(t["stat"] or [0] * len(stat), stat)]
                else:
                    t["stat"] = (t["stat"] or 0) + stat
    return totals


def layer_value(totals: dict, name: str, stat: str):
    t = totals.get(name, {"calls": 0, "self_s": 0.0, "stat": None})
    if stat in ("calls", "self_s"):
        return t[stat]
    calls, extra = t["calls"], t["stat"]
    if stat in ("ok_ratio", "true_ratio"):
        return extra / calls if calls else 0.0
    if stat == "orbit_elems":
        return extra[1] if extra else 0
    if stat == "classes":
        return extra[0] if extra else 0
    return extra or 0


def span_counts(run: Run) -> dict:
    """Per span name of one traced command: its calls and summed stat."""
    return {name: (t["calls"], t["stat"]) for name, t in layer_totals([run]).items()}


def count_mismatches(traced_passes: list) -> int:
    """Traced commands whose span counts differ from the first traced pass's
    run of the same command; a traced command must repeat them exactly."""
    first = [span_counts(r) for r in traced_passes[0]]
    return sum(
        span_counts(r) != first[i] for p in traced_passes[1:] for i, r in enumerate(p)
    )


def layer_metrics(traced_passes: list, plain_walls: list) -> dict:
    all_totals = [layer_totals(p) for p in traced_passes]
    values = {}
    for name, stat, unit in PER_LAYER:
        samples = [layer_value(t, name, stat) for t in all_totals]
        values[f"{name}.{stat}"] = (statistics.median(samples), unit)
    traced_wall = statistics.median(sum(r.wall for r in p) for p in traced_passes)
    values["trace.overhead_s"] = (traced_wall - statistics.median(plain_walls), "s")
    return values


# -- driver ------------------------------------------------------------------


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its result object (the last-line JSON)."""
    expected = json.loads(EXPECTED_FILE.read_text())
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        bench = Bench(work)
        commands = workload_commands(name, seed, work, expected)
        # Untimed warm-up so that byte-compiling the package is paid here.
        bench.run(SETUP_ARGV, help_check, record=False)
        print(f"perfbench: {name} seed={seed} seconds={seconds} trace={int(trace)}"
              f" env before {json.dumps(environment())}")
        passes, traced_passes, probes = [], [], []

        def probe(count):
            # Cold starts are sampled before and after the passes, so their
            # median spans the run rather than one moment of it.
            if not trace:
                probes.extend(bench.run(SETUP_ARGV, help_check) for _ in range(count))

        probe(SETUP_PROBES // 2)
        if trace:
            def once():
                passes.append(run_pass(bench, commands))
                traced_passes.append(run_pass(bench, commands, traced=True))
        else:
            def once():
                passes.append(run_pass(bench, commands))
        # Only a multi-command pass (tables) can reach the tail percentile.
        min_passes = tail_min_passes(len(commands)) if len(commands) > 1 and not trace else 1
        repeat_passes(bench, seconds, once, min_passes)
        probe(SETUP_PROBES - SETUP_PROBES // 2)
        print(f"perfbench: {name} env after {json.dumps(environment())}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass

    failed = sum(r.error is not None for r in bench.runs)
    attempted = len(bench.runs)
    if trace and not failed:
        mismatched = count_mismatches(traced_passes)
        if mismatched:
            print(f"perfbench: FAILED {mismatched} traced commands repeat their span"
                  " counts differently from the first traced pass", file=sys.stderr)
        failed += mismatched
    print(f"perfbench: {name} fail_ratio {failed}/{attempted}"
          f" = {failed / attempted:.4f} (commands that exited non-zero, failed a check"
          " or, traced, changed their span counts)")
    for label, group in (("untraced", passes), ("traced", traced_passes)):
        if group:
            walls = " ".join(f"{sum(r.wall for r in p):.3f}" for p in group)
            print(f"perfbench: {name} {label} pass walls (s): {walls}")
    metrics = {}
    if failed:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": metrics}
    if trace:
        plain_walls = [sum(r.wall for r in p) for p in passes]
        for key, (value, unit) in layer_metrics(traced_passes, plain_walls).items():
            metrics[key] = {"value": value, "unit": unit}
            print(f"  {name:8s} {key:48s} {value:14.6f} {unit:6s}"
                  f" ({len(traced_passes)} traced passes)")
    else:
        for key, (value, note) in e2e_metrics(passes, probes).items():
            metrics[key] = {"value": value, "unit": E2E_UNITS[key]}
            print(f"  {name:8s} {key:12s} {value:12.6f} {E2E_UNITS[key]:3s} ({note})")
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold-process benchmark of the fourg CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fourg" / "cli.py").is_file():
        print(f"perfbench: no fourg sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: measure(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
