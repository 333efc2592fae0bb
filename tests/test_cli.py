"""End-to-end tests for the command-line front end."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fourg
from fourg.cli import (
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    load_group_tables,
    main,
)
from fourg.errors import InputFormatError
from fourg.groups import dihedral


def table_text(G):
    """Serialize a group as a multiplication-table file body."""
    lines = [f"order {G.order}"]
    for i in range(G.order):
        lines.append(" ".join(str(G._table[i][j]) for j in range(G.order)))
    gens = " ".join(str(gen) for gen in G._gen_idx)
    lines.append(f"generators {gens}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def order20_tables(tmp_path):
    directory = tmp_path / "tables"
    directory.mkdir()
    (directory / "d20.table").write_text(table_text(dihedral(20)))
    cycle = "(" + " ".join(str(i) for i in range(1, 21)) + ")"
    (directory / "c20.perms").write_text(f"perm {cycle}\n")
    return directory


def _assert_stdout_digests(tmp_path, cases):
    """Run each command in fresh processes under two hash seeds and check
    that both print the same stdout, with the pinned sha256 digest."""
    src = str(Path(fourg.__file__).resolve().parents[1])
    for args, digest in cases:
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-m", "fourg.cli", *args],
                cwd=tmp_path, env=env, capture_output=True, check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1], args
        assert hashlib.sha256(outputs[0]).hexdigest() == digest, args


class TestColdImport:
    def test_import_adds_neither_dataclasses_nor_inspect(self, tmp_path):
        # every command pays the import; compared with a bare interpreter in
        # the same environment, since ``site`` may import modules of its own
        src = str(Path(fourg.__file__).resolve().parents[1])
        loaded = []
        for statement in ("pass", "import fourg.cli"):
            run = subprocess.run(
                [sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"],
                cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                capture_output=True, check=True, text=True,
            )
            loaded.append(set(run.stdout.split()))
        bare, imported = loaded
        assert "fourg.cli" in imported - bare
        assert not {"dataclasses", "inspect"} & (imported - bare)


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "command is required" in capsys.readouterr().err

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "report" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self):
        assert main(["report", "--genus", "2", "--bogus"]) == EXIT_USAGE

    def test_missing_genus_is_usage_error(self, capsys):
        assert main(["report"]) == EXIT_USAGE
        assert "--genus" in capsys.readouterr().err

    def test_small_genus_is_usage_error(self):
        assert main(["report", "--genus", "1"]) == EXIT_USAGE

    def test_bad_range_is_usage_error(self):
        assert main(["atlas", "--range", "4:2"]) == EXIT_USAGE
        assert main(["atlas", "--range", "2-4"]) == EXIT_USAGE
        assert main(["atlas"]) == EXIT_USAGE

    def test_bad_worker_and_order_values(self):
        # there is no --workers flag: every command runs in one thread
        assert main(["atlas", "--range", "2:3", "--workers", "2"]) == EXIT_USAGE
        assert main(["report", "--genus", "2", "--max-order", "4"]) == EXIT_USAGE

    def test_bad_table_file_is_input_error(self, tmp_path, capsys):
        (tmp_path / "x.txt").write_text("hello world\n")
        code = main(["exceptional", "--genus", "5", "--tables", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "x.txt" in capsys.readouterr().err

    def test_wrong_order_table_is_input_error(self, tmp_path, capsys):
        (tmp_path / "d12.table").write_text(table_text(dihedral(12)))
        code = main(["exceptional", "--genus", "5", "--tables", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "expected 20" in capsys.readouterr().err

    def test_huge_permutation_point_is_input_error(self, tmp_path, capped_python):
        # one point label used to size a list(range(99999999)) permutation
        tables = tmp_path / "tables"
        tables.mkdir()
        (tables / "big.perm").write_text("perm (1 99999999)\n")
        run = capped_python("-m", "fourg.cli", "exceptional", "--genus", "3", "--tables", str(tables))
        assert run.returncode == EXIT_INPUT, run.stderr
        assert run.stderr == "input error: big.perm: permutation point 99999999 exceeds 4096\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["report", "--genus", "5000"],
            ["report", "--genus", "99999999999"],
            ["report", "--genus", "513"],
            ["exceptional", "--genus", "1025"],
            ["atlas", "--range", "2:5000"],
            ["exceptional", "--genus", "300"],
            ["exceptional", "--genus", "70", "--max-order", "64"],
        ],
    )
    def test_huge_genus_is_usage_error(self, args, capped_python):
        # the order-4g dihedral table used to be built before any order check,
        # and the order-4g catalog whatever --max-order said
        run = capped_python("-m", "fourg.cli", *args)
        assert run.returncode == EXIT_USAGE, run.stderr
        assert run.stderr.startswith("usage error: genus ")
        assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr

    def test_largest_genus_passes_the_order_check(self):
        from fourg.cli import _check_genus

        _check_genus(512, 8)
        _check_genus(1024, 4)

    def test_non_utf8_files_are_input_errors(self, tmp_path, capsys):
        (tmp_path / "x.table").write_bytes(b"\xff\xfe")
        code = main(["exceptional", "--genus", "3", "--tables", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "x.table" in capsys.readouterr().err
        cfg = tmp_path / "fourg.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["report", "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot read config file") and err.count("\n") == 1


class TestReportCommand:
    def test_json_output_parses(self, capsys):
        assert main(["report", "--genus", "2", "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["genus"] == 2
        assert data["group"] == {"description": "dihedral of order 8", "order": 8}

    def test_json_output_is_byte_identical_across_runs(self, capsys):
        main(["report", "--genus", "3", "--json"])
        first = capsys.readouterr().out
        main(["report", "--genus", "3", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_markdown_is_the_default(self, capsys):
        assert main(["report", "--genus", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("# Genus 2")
        assert "## Symmetry types" in out

    def test_report_accepts_tables_for_the_search(self, order20_tables, capsys):
        code = main(
            ["report", "--genus", "5", "--json", "--tables", str(order20_tables)]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        search = data["exceptional"]["search"]
        assert search["groups_scanned"] == 2
        assert search["catalog_complete"] is False

    def test_report_note_names_the_supplied_tables(self, order20_tables, capsys):
        # only the cyclic group: no candidate, and the note must say the
        # supplied tables were searched, not the built-in catalog
        (order20_tables / "d20.table").unlink()
        argv = ["report", "--genus", "5", "--json", "--tables", str(order20_tables)]
        assert main(argv) == EXIT_OK
        notes = json.loads(capsys.readouterr().out)["notes"]
        searched = [note for note in notes if note.startswith("action search")]
        assert len(searched) == 1
        assert "supplied group tables" in searched[0]
        assert "inconclusive" in searched[0]
        assert "built-in catalog" not in searched[0]

    def test_report_searches_tables_above_max_order(self, tmp_path, capsys):
        # --max-order caps the built-in catalog, not the supplied files
        (tmp_path / "c12.perms").write_text(
            "perm (" + " ".join(str(i) for i in range(1, 13)) + ")\n"
        )
        argv = ["report", "--genus", "3", "--json", "--max-order", "8"]
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["exceptional"]["search"] is None
        assert main(argv + ["--tables", str(tmp_path)]) == EXIT_OK
        search = json.loads(capsys.readouterr().out)["exceptional"]["search"]
        assert search["groups_scanned"] == 1
        assert search["catalog_complete"] is False


class TestAtlasCommand:
    def test_json_reports_and_summary(self, capsys):
        assert main(["atlas", "--range", "2:4", "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert [r["genus"] for r in data["reports"]] == [2, 3, 4]
        assert data["summary"]["genera"] == [2, 3, 4]
        assert data["summary"]["sporadic_arithmetic"] == [3]

    def test_json_bytes_independent_of_hash_seed(self, tmp_path):
        # fresh processes share no cache; the pinned digests keep the
        # output from drifting between engine versions (2:14 is the
        # byte-identity sweep of the roadmap, genus 24 searches the
        # 69-group catalog of order 96, and the genus-30 and genus-120
        # reports pin the extensions and the boundary above genus 14)
        cases = (
            (
                ["atlas", "--range", "2:6", "--json"],
                "396fd1db66efacb49926a1832241ba817e5ea777e9b17b8d7747e8bb62484ab0",
            ),
            (
                ["atlas", "--range", "2:14", "--json"],
                "f1587b12a5b2946c28fa6a4db7115fe011ecac21112c09ff00138742c5e94f5e",
            ),
            (
                ["exceptional", "--genus", "24", "--json"],
                "2b38b6ce03276fe7cbf0cd81c00fef36a6425a15908552ea2aaea1166a2a992b",
            ),
            (
                ["report", "--genus", "30", "--json"],
                "ce2d1a54bf3764bd6da30be2a72999d2a6b9ef1025458cdfc0bfc5a4fa249727",
            ),
            (
                ["report", "--genus", "120", "--json"],
                "ae527564a423e66e29bb821d438b41d966d160aee82a5a95f7da28d0e9a7f4bf",
            ),
        )
        _assert_stdout_digests(tmp_path, cases)

    def test_markdown_bytes_independent_of_hash_seed(self, tmp_path):
        # the default format of each command, pinned like the JSON above;
        # only stdout is hashed, so the catalog warning of exceptional at
        # genus 24 (stderr) does not count
        cases = (
            (
                ["report", "--genus", "30"],
                "962277b81098b13feca448df005ad2625cc23c865c2d64ccc46cfadecd8abfdf",
            ),
            (
                ["atlas", "--range", "2:6"],
                "517374094d4521177b1ecfaa0c078390f4a259862725de92dc614ccf73d3f2a6",
            ),
            (
                ["exceptional", "--genus", "24"],
                "a0abc42f4a26c0b6dbb5bc717f403f10a51aecc832067c4c1c4c84e0e4687839",
            ),
        )
        _assert_stdout_digests(tmp_path, cases)

    def test_tables_flag_is_usage_error(self, tmp_path, capsys):
        # atlas takes no table input, so it must not accept the flag silently
        absent = str(tmp_path / "absent")
        assert main(["atlas", "--range", "2:3", "--json", "--tables", absent]) == EXIT_USAGE
        assert "--tables" in capsys.readouterr().err
        # a shared config file may still name tables for the other commands
        cfg = tmp_path / "fourg.cfg"
        cfg.write_text(f"range = 2:3\nformat = json\ntables = {absent}\n")
        assert main(["atlas", "--config", str(cfg)]) == EXIT_OK
        assert [r["genus"] for r in json.loads(capsys.readouterr().out)["reports"]] == [2, 3]

    def test_markdown_ends_with_summary(self, capsys):
        assert main(["atlas", "--range", "2:3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "# Genus 2" in out
        assert "# Genus 3" in out
        assert "# Sweep summary" in out
        assert out.index("# Sweep summary") > out.index("# Genus 3")


class TestExceptionalCommand:
    def test_genus_three_finds_candidates(self, capsys):
        assert main(["exceptional", "--genus", "3", "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        signatures = {c["signature"] for c in data["candidates"]}
        assert "(0;+;[3,4,12];{-})" in signatures
        assert "(0;+;[2,2,3,3];{-})" in signatures
        assert data["catalog_complete"] is True

    def test_genus_five_is_empty_over_complete_catalog(self, capsys):
        assert main(["exceptional", "--genus", "5", "--json"]) == EXIT_OK
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["candidates"] == []
        assert data["catalog_complete"] is True
        assert "warning" not in captured.err

    def test_incomplete_builtin_catalog_warns(self, capsys):
        assert main(["exceptional", "--genus", "12", "--json"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "order 48" in captured.err
        assert json.loads(captured.out)["catalog_complete"] is False

    def test_tables_replace_the_builtin_pool(self, order20_tables, capsys):
        code = main(
            ["exceptional", "--genus", "5", "--tables", str(order20_tables), "--json"]
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert [(g["name"], g["source"]) for g in data["groups"]] == [
            ("c20", "table"),
            ("d20", "table"),
        ]
        assert data["candidates"] == []

    def test_markdown_table_rendering(self, capsys):
        assert main(["exceptional", "--genus", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "# Beyond the families at genus 3" in out
        assert "| C4xC3 | C12 | builtin |" in out


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "fourg.cfg"
        cfg.write_text("genus = 2\nformat = json\n")
        assert main(["report", "--config", str(cfg)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["genus"] == 2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "fourg.cfg"
        cfg.write_text("genus = 2\nformat = json  # trailing comment\n")
        assert main(["report", "--config", str(cfg), "--markdown"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("# Genus 2")
        assert main(["report", "--genus", "3", "--config", str(cfg)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["genus"] == 3

    def test_unknown_key_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "fourg.cfg"
        for line in ("spin = 7\n", "workers = 2\n"):
            cfg.write_text(line)
            assert main(["report", "--genus", "2", "--config", str(cfg)]) == EXIT_INPUT
            assert "unknown key" in capsys.readouterr().err

    def test_missing_config_is_input_error(self, tmp_path):
        missing = tmp_path / "absent.cfg"
        assert main(["report", "--genus", "2", "--config", str(missing)]) == EXIT_INPUT

    def test_malformed_line_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "fourg.cfg"
        cfg.write_text("just words\n")
        assert main(["report", "--genus", "2", "--config", str(cfg)]) == EXIT_INPUT
        assert "key=value" in capsys.readouterr().err

    def test_keys_fill_only_the_commands_own_flags(self, tmp_path, capsys):
        # one config file serves every command: its range is atlas's, so
        # report --genus 5 --check must check genus 5 alone
        cfg = tmp_path / "fourg.cfg"
        cfg.write_text("range = 2:3\ngenus = 4\nformat = json\n")
        assert main(["report", "--genus", "5", "--check", "--config", str(cfg)]) == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["genus"] == 5
        assert "PASS  group-axioms: 3 multiplication tables verified" in captured.err
        assert main(["atlas", "--check", "--config", str(cfg)]) == EXIT_OK
        captured = capsys.readouterr()
        assert [r["genus"] for r in json.loads(captured.out)["reports"]] == [2, 3]
        assert "PASS  group-axioms: 6 multiplication tables verified" in captured.err

    def test_bad_boolean_is_input_error(self, tmp_path):
        cfg = tmp_path / "fourg.cfg"
        cfg.write_text("check = maybe\n")
        assert main(["report", "--genus", "2", "--config", str(cfg)]) == EXIT_INPUT


class TestCheckFlag:
    def test_check_passes_and_keeps_stdout_clean(self, capsys):
        assert main(["report", "--genus", "2", "--json", "--check"]) == EXIT_OK
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout must stay pure JSON
        assert "PASS" in captured.err
        assert "FAIL" not in captured.err

    def test_check_lines_pinned(self, tmp_path):
        # the PASS/FAIL lines of every suite, pinned like the stdout digests
        src = str(Path(fourg.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "fourg.cli", "report", "--genus", "5", "--check"],
            cwd=tmp_path, env=dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=src),
            capture_output=True, check=True,
        )
        assert hashlib.sha256(run.stderr).hexdigest() == (
            "6463252d3cefd3ec5d0750c1c70a5da10b76edc7826b21c7912af757d34fbf89"
        ), run.stderr.decode()

    def test_check_failure_exit_code(self, monkeypatch, capsys):
        from fourg import cli

        def fake_checks(g_min, g_max):
            return [("synthetic", False, "forced failure")]

        monkeypatch.setattr(cli, "run_all_checks", fake_checks)
        assert main(["report", "--genus", "2", "--check"]) == EXIT_INVARIANT
        assert "FAIL  synthetic: forced failure\n" in capsys.readouterr().err

    def test_check_above_the_order_8g_cap_is_usage_error(self, monkeypatch, tmp_path, capsys):
        # exceptional allows g up to 1024, but the suites build order-8g
        # groups: genus 513 must stop before any suite runs
        from fourg import cli

        ran = []
        monkeypatch.setattr(cli, "run_all_checks", lambda *args: ran.append(args) or [])
        cycle = " ".join(str(i) for i in range(1, 2053))
        (tmp_path / "c2052.txt").write_text(f"perm ({cycle})\n")
        code = main(
            ["exceptional", "--genus", "513", "--tables", str(tmp_path), "--json", "--check"]
        )
        assert code == EXIT_USAGE
        assert ran == []
        assert "genus 513 needs groups of order 4104" in capsys.readouterr().err

    def test_check_cap_is_applied_before_the_command_prints(self, tmp_path, capsys):
        # a rejected --check invocation prints nothing on stdout: the cap
        # is checked before the command loads or searches anything
        cycle = " ".join(str(i) for i in range(1, 2053))
        (tmp_path / "c2052.txt").write_text(f"perm ({cycle})\n")
        code = main(
            ["exceptional", "--genus", "513", "--tables", str(tmp_path), "--json", "--check"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "genus 513 needs groups of order 4104" in captured.err


class TestLoadGroupTables:
    def test_reads_both_formats_in_sorted_order(self, order20_tables):
        groups = load_group_tables(order20_tables)
        assert [G.name for G in groups] == ["c20", "d20"]
        assert [G.order for G in groups] == [20, 20]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_group_tables(tmp_path / "absent")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(InputFormatError, match="no group files"):
            load_group_tables(tmp_path)

    @pytest.mark.parametrize(
        "first", ["orderly 2", "ordered", "permute (1 2)", "PERM (1 2)", "group 2"]
    )
    def test_file_kind_is_read_from_an_exact_first_word(self, tmp_path, first):
        (tmp_path / "bad.table").write_text(f"{first}\n0 1\n1 0\n")
        with pytest.raises(InputFormatError, match="^bad.table: first line must be 'order n' or"):
            load_group_tables(tmp_path)

    def test_two_files_with_one_stem_are_an_input_error(self, order20_tables, capsys):
        # both files would name their group "d20"
        (order20_tables / "d20.txt").write_text(table_text(dihedral(20)))
        with pytest.raises(InputFormatError, match="d20.table and d20.txt"):
            load_group_tables(order20_tables)
        assert main(["exceptional", "--genus", "5", "--tables", str(order20_tables)]) == EXIT_INPUT
        assert "d20.table and d20.txt" in capsys.readouterr().err

    def test_order_mismatch(self, order20_tables):
        with pytest.raises(InputFormatError, match="expected 12"):
            load_group_tables(order20_tables, expected_order=12)
