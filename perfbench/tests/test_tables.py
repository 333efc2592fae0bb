"""The seeded table inputs are reproducible and describe real groups."""

import tables

# Digest of the files written for seed 1; it must not change between commits.
SEED1_SHA256 = "cdd3d15f53ceb1c770a04264cc570289a6e2da53feadb30edf69fae14a5e3555"


def test_seed_fixes_the_files(tmp_path):
    base = tables.load_base_groups()
    first = tables.write_inputs(1, tmp_path / "a", base)
    again = tables.write_inputs(1, tmp_path / "b", base)
    other = tables.write_inputs(2, tmp_path / "c", base)
    assert first["sha256"] == again["sha256"] == SEED1_SHA256
    assert other["sha256"] != first["sha256"]
    assert sum(first["files"].values()) == 244
    names = sorted(p.name for p in first["dirs"][24].iterdir())
    assert len(names) == 69
    assert any(n.endswith(".perm") for n in names)
    assert any(n.endswith(".tbl") for n in names)


def test_regular_table_is_a_group_table():
    base = tables.load_base_groups()
    for order in (12, 48):
        for gens in base[order]:
            table = tables.regular_table(order, gens)
            assert table[0] == list(range(order))
            assert all(sorted(row) == list(range(order)) for row in table)
            assert all(row[0] == i for i, row in enumerate(table))
            a, b, c = 1, order // 2, order - 1
            assert table[table[a][b]][c] == table[a][table[b][c]]


def test_relabelled_table_keeps_identity_at_zero(tmp_path):
    inputs = tables.write_inputs(5, tmp_path, tables.load_base_groups())
    for path in sorted(inputs["dirs"][3].iterdir()):
        lines = path.read_text().splitlines()
        if path.suffix == ".tbl":
            n = int(lines[0].split()[1])
            assert lines[1].split() == [str(i) for i in range(n)]
            assert lines[-1].startswith("generators ")
        else:
            assert all(line.startswith("perm (") for line in lines)
