"""Traced runs repeat their counts exactly and their spans nest."""

import pytest

import run
import tables


def _traced(bench, argv):
    result = bench.run(argv, lambda out: None, traced=True)
    assert result.status == 0 and result.error is None
    return result


@pytest.fixture
def bench(tmp_path):
    return run.Bench(tmp_path)


def test_two_traced_runs_agree_and_spans_nest(bench, tmp_path):
    inputs = tables.write_inputs(1, tmp_path / "tables")
    commands = [
        ["report", "--genus", "3", "--json"],
        ["exceptional", "--genus", "3", "--tables", str(inputs["dirs"][3]), "--json"],
    ]
    for argv in commands:
        first, second = _traced(bench, argv), _traced(bench, argv)
        assert run.span_counts(first) == run.span_counts(second)
        assert run.count_mismatches([[first], [second]]) == 0
        for result in (first, second):
            spans = result.spans
            assert [s[0] for s in spans if s[3] == -1] == ["cli.main"]
            assert spans[0][3] == -1
            # Each child lies inside its parent, so no self time is negative
            # and the self times of all spans add up to the root's wall.
            for i, (name, start, end, parent, _) in enumerate(spans[1:], 1):
                assert 0 <= parent < i, name
                assert spans[parent][1] <= start <= end <= spans[parent][2], name
            assert all(t["self_s"] >= 0 for t in run.layer_totals([result]).values())


def test_changed_counts_are_mismatches():
    def fake(spans):
        return run.Run(0.0, 0, _Rusage(), None, spans)

    root = ["cli.main", 0.0, 3.0, -1, None]
    one = [root, ["groups.close_generator_map", 1.0, 2.0, 0, 1]]
    other = [root, ["groups.close_generator_map", 1.0, 2.0, 0, 0]]
    assert run.count_mismatches([[fake(one)], [fake(one)]]) == 0
    assert run.count_mismatches([[fake(one)], [fake(other)]]) == 1


class _Rusage:
    ru_utime = ru_stime = 0.0
    ru_maxrss = 0


def test_every_binding_is_wrapped(bench):
    result = _traced(bench, ["report", "--genus", "3", "--json"])
    names = {s[0] for s in result.spans}
    # Reached only through extensions' and report's own bindings.
    assert {"groups.close_generator_map", "extensions.build_extensions",
            "actions.classify", "realforms.species_set",
            "boundary.boundary_description", "report.build_report"} <= names
