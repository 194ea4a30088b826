"""End-to-end command-line checks, run in process via main(argv)."""

import json
import os
import time

import pytest

from conftest import ECHO_X_TEXT, PUSH_FOREVER_TEXT, SEESAW_TEXT, echo_x_spec
from kslab import cli, kolmo
from kslab.cli import main
from kslab.entropy import _MAX_DIGITS
from kslab.kolmo import INTERPRETER_TAG
from kslab.machine import serialize_machine


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKsCommands:
    def test_pair_encode(self, capsys):
        code, out, err = run(capsys, "ks", "pair-encode", "0", "1")
        assert (code, out, err) == (0, "00011\n", "")

    def test_pair_encode_of_two_empty_strings(self, capsys):
        code, out, err = run(capsys, "ks", "pair-encode", "", "")
        assert (code, out, err) == (0, "01\n", "")

    def test_compute_not_found_json_has_null_value_and_witness(self, capsys):
        code, out, _ = run(capsys, "ks", "compute", "1" * 20, "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "cap": 14, "condition": "", "s": 0, "target": "1" * 20, "value": None, "witness": None,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("ks", "compute", "2"),
            ("ks", "compute", "101", "--x", "2"),
            ("ks", "pair-encode", "2", "1"),
        ],
    )
    def test_non_bit_strings_are_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: bitstring must consist of '0'/'1' characters, got '2'\n"

    def test_compute_text(self, capsys):
        code, out, _ = run(capsys, "ks", "compute", "101")
        assert code == 0
        assert out == "value: 4\nwitness: 0101\n"

    def test_compute_with_condition_and_json(self, capsys):
        code, out, _ = run(
            capsys, "ks", "compute", "10110", "--x", "101", "--s", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 4 and payload["witness"] == "1010"

    def test_compute_not_found_has_no_witness_line(self, capsys):
        code, out, _ = run(capsys, "ks", "compute", "1" * 20)
        assert code == 0
        assert out == "value: NotFound(cap=14)\n"

    def test_table_shape_and_determinism(self, capsys):
        argv = ("ks", "table", "--targets-to", "2", "--s-grid", "8,16", "--cap", "14")
        code, first, _ = run(capsys, *argv)
        assert code == 0
        lines = first.splitlines()
        assert lines[0] == "y,x,s,cap,value,witness"
        assert len(lines) == 1 + 7 * 2  # 7 strings of length <= 2, two bounds
        code, second, _ = run(capsys, *argv)
        assert code == 0 and second == first

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_conditions_default_to_the_empty_string_alone(self, capsys, fmt):
        argv = ("ks", "table", "--targets-to", "2", "--s-grid", "0,8", "--format", fmt)
        code, default, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--conditions-to", "0") == (0, default, "")

    def test_table_json_format(self, capsys):
        code, out, _ = run(
            capsys, "ks", "table", "--targets-to", "1", "--s-grid", "8", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3 and {"y", "x", "s", "cap", "value", "witness"} <= set(rows[0])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--targets-to", "24", "--s-grid", "1"],
            ["--targets-to", "17", "--s-grid", "1,2"],
            ["--targets-to", "1000000000", "--conditions-to", "1000000000", "--s-grid", "1"],
        ],
    )
    def test_table_above_the_row_limit_is_refused(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "ks", "table", *argv)
        assert code == 1 and out == "" and err.startswith("error:")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("grid", ["", ","])
    def test_table_refuses_an_empty_s_grid(self, capsys, grid):
        # As in law verify: an empty grid is refused, not printed as a bare header.
        code, out, err = run(capsys, "ks", "table", "--targets-to", "1", "--s-grid", grid)
        assert (code, out, err) == (1, "", "error: --s-grid must be nonempty\n")


class TestCache:
    def test_cache_is_transparent_and_persistent(self, capsys, tmp_path):
        argv = (
            "ks", "table", "--targets-to", "2", "--conditions-to", "1",
            "--s-grid", "0,4", "--format", "json",
        )
        _, uncached, _ = run(capsys, *argv)
        _, cold, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (tmp_path / "complexity.tsv").exists()
        _, warm, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert warm == cold == uncached

    def test_a_record_planted_between_calls_in_one_process_is_printed(self, capsys, tmp_path):
        # The third call reuses what the second parsed and reads only the planted line.
        argv = ("ks", "table", "--targets-to", "1", "--s-grid", "0", "--cache-dir", str(tmp_path))
        _, cold, _ = run(capsys, *argv)
        _, warm, _ = run(capsys, *argv)
        assert warm == cold == "y,x,s,cap,value,witness\n,,0,14,1,0\n0,,0,14,2,00\n1,,0,14,2,01\n"
        with open(tmp_path / "complexity.tsv", "a") as fh:
            fh.write(f"{INTERPRETER_TAG}\t3\t1\t0\t14\t9\t200\n")  # "1" at value 9
        _, planted, _ = run(capsys, *argv)
        assert planted == cold.replace("1,,0,14,2,01\n", "1,,0,14,9,000000000\n")

    def test_in_process_calls_keep_one_cache_and_parse_only_lines_written_elsewhere(
        self, capsys, tmp_path, monkeypatch
    ):
        tails, pattern = [], kolmo._RECORD

        class Spy:
            def findall(self, text):
                tails.append(text)
                return pattern.findall(text)

            def __getattr__(self, name):
                return getattr(pattern, name)

        monkeypatch.setattr(kolmo, "_RECORD", Spy())
        here, there = tmp_path / "here", tmp_path / "there"
        law = ("law", "verify", "pair_swap", "--n", "1", "--s-grid", "32,64", "--format", "csv")
        table = ("ks", "table", "--targets-to", "1", "--s-grid", "0")
        calls = [law, table, table]  # the last one a warm repeat
        outs = [run(capsys, *argv, "--cache-dir", str(here)) for argv in calls]
        assert outs == [run(capsys, *argv) for argv in calls] and outs[0][0] == 0
        assert tails == [""] * 3  # one parse a call, of no record this process wrote
        planted = f"{INTERPRETER_TAG}\t3\t1\t0\t14\t9\t200\n"  # "1" at value 9
        with open(here / "complexity.tsv", "a") as fh:
            fh.write(planted)
        _, out, _ = run(capsys, *table, "--cache-dir", str(here))
        assert tails[-1] == planted and out == outs[1][1].replace("1,,0,14,2,01\n", "1,,0,14,9,000000000\n")
        run(capsys, *table, "--cache-dir", str(there))
        del tails[:]
        assert run(capsys, *table, "--cache-dir", str(here))[1] == out
        assert tails == [(here / "complexity.tsv").read_text().partition("\n")[2]]  # parsed whole, once
        assert cli._cache_at.cache_info().currsize <= 1

    def test_a_cached_table_appends_its_records_in_one_write(self, capsys, tmp_path, monkeypatch):
        real_write, writes = os.write, []

        def counted(fd, data):
            writes.append(len(data))
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counted)
        argv = ("ks", "table", "--targets-to", "3", "--conditions-to", "1", "--s-grid", "0,4")
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and len(out.splitlines()) == 1 + 15 * 3 * 2
        assert writes == [(tmp_path / "complexity.tsv").stat().st_size]

    def test_cache_dir_environment_variable_is_ignored(self, capsys, tmp_path, monkeypatch):
        # Only --cache-dir opens a cache: an inherited variable must not
        # turn an uncached run into a cached one.
        monkeypatch.setenv("KSLAB_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "ks", "table", "--targets-to", "1", "--s-grid", "0")
        assert code == 0 and out == "y,x,s,cap,value,witness\n,,0,14,1,0\n0,,0,14,2,00\n1,,0,14,2,01\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("ks", "compute", "11"),
            ("law", "staged", "--x", "", "--target-y", "", "--m", "3", "--n", "1"),
        ],
    )
    def test_only_the_cached_commands_take_a_cache_dir(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestHaltCommands:
    @pytest.fixture()
    def machine_file(self, tmp_path):
        path = tmp_path / "echo.txt"
        path.write_text(ECHO_X_TEXT)
        return str(path)

    def test_decide_true(self, capsys, machine_file):
        code, out, _ = run(
            capsys, "halt", "decide", "--machine", machine_file, "--x", "10", "--s", "6"
        )
        assert (code, out) == (0, "terminates: true\n")

    def test_decide_false_on_loops_and_space_overruns(self, capsys, tmp_path):
        for name, text in [("seesaw", SEESAW_TEXT), ("pf", PUSH_FOREVER_TEXT)]:
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            code, out, _ = run(
                capsys, "halt", "decide", "--machine", str(path), "--s", "4"
            )
            assert (code, out) == (0, "terminates: false\n")

    @pytest.mark.parametrize("method", ["backward", "forward", "counter"])
    def test_methods_agree(self, capsys, machine_file, method):
        code, out, _ = run(
            capsys, "halt", "decide", "--machine", machine_file,
            "--x", "1", "--s", "5", "--method", method,
        )
        assert (code, out) == (0, "terminates: true\n")

    @pytest.mark.parametrize("s", ["16", "1000000000"])
    @pytest.mark.parametrize("method", ["backward", "forward", "counter"])
    def test_over_budget_is_refused_up_front(self, capsys, tmp_path, method, s):
        # A 1-state write loop: 2,097,153 configurations at s = 16; at s = 10^9
        # the count alone would be an integer of about 125 MB.
        path = tmp_path / "loop.txt"
        path.write_text("states: 1\n0 _ _ -> write 0 0\n")
        start = time.perf_counter()
        code, out, err = run(
            capsys, "halt", "decide", "--machine", str(path), "--s", s, "--method", method
        )
        assert code == 1 and out == "" and err.startswith("error:") and "configurations" in err
        assert time.perf_counter() - start < 1

    def test_a_state_count_above_the_bound_is_refused_at_once(self, capsys, tmp_path):
        # Parsing the table of 400,000 states alone took 14.5 s.
        path = tmp_path / "huge.txt"
        path.write_text("states: 400000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "halt", "decide", "--machine", str(path), "--s", "1")
        assert (code, out) == (1, "") and err.startswith("error: line 1:")
        assert time.perf_counter() - start < 0.5

    def test_serialized_machine_files_are_detected(self, capsys, tmp_path):
        path = tmp_path / "echo.bits"
        path.write_text(serialize_machine(echo_x_spec()) + "\n")
        code, out, _ = run(
            capsys, "halt", "decide", "--machine", str(path), "--x", "0", "--s", "4"
        )
        assert (code, out) == (0, "terminates: true\n")

    @pytest.mark.parametrize(
        "tapes, message",
        [
            (["--p", "2"], "program tape must consist of '0'/'1' characters, got '2'"),
            (["--p", "1", "--x", "x"], "condition tape must consist of '0'/'1' characters, got 'x'"),
        ],
    )
    def test_non_bit_tapes_are_a_domain_error(self, capsys, machine_file, tapes, message):
        code, out, err = run(capsys, "halt", "decide", "--machine", machine_file, "--s", "1", *tapes)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_machine_file_is_a_domain_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "halt", "decide", "--machine", str(tmp_path / "nope"), "--s", "2"
        )
        assert code == 1 and err.startswith("error:")


class TestLawCommands:
    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "law", "verify", "pair_swap", "--n", "1", "--s-grid", "32,64")
        assert code == 0
        payload = json.loads(out)
        assert payload["law"] == "pair_swap" and payload["minimal_c"] >= 0
        assert payload["violations"] == []

    def test_verify_json_is_deterministic(self, capsys):
        argv = ("law", "verify", "symmetry", "--n", "1", "--s-grid", "64,128", "--format", "json")
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert code == 0 and second == first

    def test_verify_csv(self, capsys):
        code, out, _ = run(
            capsys, "law", "verify", "symmetry", "--n", "1", "--s-grid", "32",
            "--format", "csv",
        )
        assert code == 0
        assert out.startswith("law,n,cap,s_grid,minimal_c,")

    def test_verify_refuses_an_oversized_grid_before_building_it(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "law", "verify", "basic", "--n", "3", "--k", "6", "--i", "1", "--j", "2",
            "--s-grid", "8",
        )
        assert code == 1 and out == "" and err.startswith("error:")
        assert time.perf_counter() - start < 1

    def test_verify_refuses_basic_arity_above_the_bound(self, capsys):
        # At n = 0 the grid has one point whatever k is; only the arity bound refuses.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "law", "verify", "basic", "--n", "0", "--k", "3000000", "--i", "1",
            "--j", "2", "--s-grid", "8", "--format", "csv",
        )
        assert code == 1 and out == "" and err.startswith("error:")
        code, out, err = run(
            capsys, "law", "verify", "basic", "--n", "0", "--k", "3", "--i", "1000000000",
            "--s-grid", "8",
        )
        assert code == 1 and out == "" and err.startswith("error:")
        assert time.perf_counter() - start < 1
        code, out, _ = run(
            capsys, "law", "verify", "basic", "--n", "0", "--k", "16", "--i", "1", "--j", "2",
            "--s-grid", "8", "--format", "csv",
        )
        assert code == 0 and "k=16" in out

    def test_verify_basic_law_flags(self, capsys):
        code, out, _ = run(
            capsys, "law", "verify", "basic", "--n", "1", "--s-grid", "32",
            "--i", "1", "--j", "2", "--k", "2",
        )
        assert code == 0
        assert json.loads(out)["law"] == "basic(I={1},J={2},k=2)"

    def test_verify_shannon_requires_a_member(self, capsys):
        code, _, err = run(
            capsys, "law", "verify", "shannon", "--n", "1", "--s-grid", "32",
            "--inequality", "k=2; {1}:1 {2}:-1",
        )
        assert code == 1 and "error:" in err
        code, out, _ = run(
            capsys, "law", "verify", "shannon", "--n", "1", "--s-grid", "32",
            "--inequality", "k=2; {1}:1 {2}:1 {1,2}:-1",
        )
        assert code == 0 and json.loads(out)["minimal_c"] >= 0

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--s-grid", "x", "--i", "1", "--j", "2"], "--s-grid"),
            (["--s-grid", "8", "--i", "x", "--j", "2"], "--i"),
            (["--s-grid", "8", "--i", "1", "--j", "x"], "--j"),
        ],
    )
    def test_a_bad_integer_list_names_its_flag(self, capsys, flags, flag):
        code, out, err = run(capsys, "law", "verify", "basic", "--n", "1", *flags)
        assert (code, out) == (1, "")
        assert err == f"error: bad {flag} 'x', expected comma-separated integers\n"

    def test_verify_baseline_cycle(self, capsys, tmp_path):
        argv = (
            "law", "verify", "pair_swap", "--n", "1", "--s-grid", "32",
            "--baseline-dir", str(tmp_path),
        )
        code, _, err = run(capsys, *argv)
        assert code == 0 and "baseline: created" in err
        code, _, err = run(capsys, *argv)
        assert code == 0 and "baseline: matched" in err
        stored = next(tmp_path.glob("law__pair-swap__*.json"))
        stored.write_text(stored.read_text().replace('"minimal_c": ', '"minimal_c": 9'))
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:")

    def test_staged(self, capsys):
        code, out, _ = run(
            capsys, "law", "staged", "--x", "", "--target-y", "", "--m", "3", "--n", "1"
        )
        assert code == 0
        assert out.startswith("ordinal: 0\nstage: 0\ntotal: ")
        code, out, _ = run(
            capsys, "law", "staged", "--x", "", "--target-y", "", "--m", "3", "--n", "1",
            "--format", "json",
        )
        assert json.loads(out)["ordinal"] == 0

    def test_staged_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "law", "staged", "--x", "", "--target-y", "", "--m", "3", "--n", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"ordinal": 0, "stage": 0, "threshold": 3, "total": 1, "x": "", "y": ""}

    def test_staged_stops_at_the_target_stage(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "law", "staged", "--x", "", "--target-y", "", "--m", "3", "--n", "1")
        assert (code, out) == (0, "ordinal: 0\nstage: 0\ntotal: 1\n")
        assert time.perf_counter() - start < 1

    def test_staged_refuses_a_stage_above_the_point_limit(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "law", "staged", "--x", "", "--target-y", "", "--m", "3", "--n", "24"
        )
        assert code == 1 and out == "" and err.startswith("error:")
        assert time.perf_counter() - start < 1

    def test_staged_unreachable_is_a_domain_error(self, capsys):
        code, _, err = run(
            capsys, "law", "staged", "--x", "", "--target-y", "1", "--m", "1", "--n", "1"
        )
        assert code == 1 and err.startswith("error:")

    def test_staged_unreachable_stops_after_the_last_stage_that_can_add_a_pair(self, capsys):
        # No program of length <= m is charged workspace, so stage 0 is the last
        # stage that can list a pair.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "law", "staged", "--x", "", "--target-y", "1", "--m", "1", "--n", "1"
        )
        assert code == 1 and out == "" and "never reaches threshold" in err
        assert time.perf_counter() - start < 1

    def test_typical_set(self, capsys):
        code, out, _ = run(
            capsys, "law", "typical-set", "--xs", "01,1", "--u", "8", "--n", "2"
        )
        assert code == 0
        assert "members: 21" in out and "u_star: 1056" in out

    def test_typical_set_json_matches_the_text_listing(self, capsys):
        argv = ("law", "typical-set", "--xs", "01,1", "--u", "8", "--n", "2")
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["base"], payload["u"], payload["u_star"], payload["n"], payload["cap"]) == (
            ["01", "1"], 8, 1056, 2, 14,
        )
        assert [",".join(m) for m in payload["members"]] == text.splitlines()[4:]
        assert len(payload["members"]) == 21

    def test_typical_set_gap_report(self, capsys):
        code, out, _ = run(
            capsys, "law", "typical-set", "--xs", "01,1", "--u", "8", "--n", "2",
            "--gap-report",
        )
        assert code == 0
        assert out.splitlines()[1] == "I\tJ\tH_bits\tKS\tgap"


class TestConeCommands:
    def test_elemental_count(self, capsys):
        code, out, _ = run(capsys, "cone", "elemental", "--k", "3")
        assert code == 0 and len(out.splitlines()) == 9
        code, out, _ = run(capsys, "cone", "elemental", "--k", "3", "--format", "json")
        assert len(json.loads(out)["inequalities"]) == 9

    def test_elemental_small_k_listing(self, capsys):
        code, out, _ = run(capsys, "cone", "elemental", "--k", "1")
        assert (code, out) == (0, "k=1; {1}:1\n")
        code, out, _ = run(capsys, "cone", "elemental", "--k", "2")
        assert (code, out) == (
            0, "k=2; {2}:-1 {1,2}:1\nk=2; {1}:-1 {1,2}:1\nk=2; {1}:1 {2}:1 {1,2}:-1\n",
        )

    def test_check_member(self, capsys):
        code, out, _ = run(capsys, "cone", "check", "k=2; {1}:1 {2}:1 {1,2}:-1")
        assert code == 0
        assert out.splitlines()[0] == "member: true"
        assert out.splitlines()[1].startswith("weights: ")

    def test_check_non_member_prints_witness(self, capsys):
        code, out, _ = run(capsys, "cone", "check", "k=2; {1}:1 {2}:-1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "member: false" and lines[1].startswith("witness: {")

    def test_check_json(self, capsys):
        code, out, _ = run(
            capsys, "cone", "check", "k=1; {1}:1", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["member"] is True

    def test_check_json_non_member_carries_its_witness(self, capsys):
        code, out, _ = run(capsys, "cone", "check", "k=1; {1}:-1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"k": 1, "member": False, "weights": {}, "witness": {"1": "1"}}

    def test_check_a_variable_out_of_range_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "cone", "check", "k=2; {3}:1")
        assert (code, out) == (1, "")
        assert err == "error: bad term '{3}:1': variable out of range for k=2\n"

    def test_check_a_repeated_variable_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "cone", "check", "k=3; {1,1}:1")
        assert (code, out) == (1, "")
        assert err == "error: bad term '{1,1}:1': a variable is repeated\n"

    def test_check_reads_files(self, capsys, tmp_path):
        path = tmp_path / "ineq.txt"
        path.write_text("k=2; {1}:1\n")
        code, out, _ = run(capsys, "cone", "check", "--file", str(path))
        assert code == 0 and "member: true" in out

    @pytest.mark.parametrize(
        "argv",
        [["check", "k=1000000000; {1}:1"], ["elemental", "--k", "40"], ["check", "k=7; {1}:1"]],
    )
    def test_k_above_the_bound_is_refused(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "cone", *argv)
        assert code == 1 and out == "" and err.startswith("error:")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("coeff", ["1e100000", "1e4000000", "2.5E-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["cone", "check", "k=1; {1}:COEFF"],
            ["law", "verify", "shannon", "--n", "1", "--s-grid", "32", "--inequality", "k=1; {1}:COEFF"],
        ],
    )
    def test_exponent_notation_is_refused(self, capsys, argv, coeff):
        start = time.perf_counter()
        code, out, err = run(capsys, *(a.replace("COEFF", coeff) for a in argv))
        assert (code, out) == (1, "") and err.startswith("error:")
        assert time.perf_counter() - start < 0.5

    def test_a_certificate_too_long_to_print_leaves_stdout_empty(self, capsys):
        # The weight 2N would have 4,301 digits, past str()'s limit for ints;
        # N is refused when parsed.
        n = "9" * 4300
        code, out, err = run(capsys, "cone", "check", f"k=2; {{1}}:{n} {{2}}:-{n} {{1,2}}:{n}")
        assert (code, out) == (1, "") and err.startswith("error: bad term")

    def test_the_longest_admitted_coefficient_prints_its_certificate(self, capsys):
        n = "9" * _MAX_DIGITS
        code, out, _ = run(capsys, "cone", "check", f"k=2; {{1}}:{n} {{2}}:-{n} {{1,2}}:{n}")
        assert code == 0 and out.startswith("member: true\nweights: ")
        assert str(2 * int(n)) in out

    @pytest.mark.parametrize(
        "text",
        [
            "k=2; {1}:9N {2}:-N {1,2}:N",
            "k=2; {1}:1/9N",
            "k=2; {1}:0.N",
            "k=0N; {1}:1",
            "k=2; {0N1}:1",
        ],
    )
    def test_one_digit_past_the_bound_is_refused(self, capsys, text):
        code, out, err = run(capsys, "cone", "check", text.replace("N", "9" * _MAX_DIGITS))
        assert (code, out) == (1, "") and err.startswith("error: ")
        assert f"over {_MAX_DIGITS} digits" in err and "set_int_max_str_digits" not in err

    def test_check_requires_an_inequality(self, capsys):
        code, _, err = run(capsys, "cone", "check")
        assert code == 1 and err.startswith("error:")


class TestOneParserPerProcess:
    """main builds its parser once per process; every call must still start clean."""

    CALLS = [
        ("ks", "compute", "10110", "--x", "101", "--format", "json"),
        ("ks", "table", "--targets-to", "2", "--conditions-to", "1", "--s-grid", "0,8"),
        ("law", "verify", "pair_swap", "--n", "1", "--s-grid", "32,64", "--format", "csv"),
        ("law", "typical-set", "--xs", "01,1", "--u", "8", "--n", "2"),
        ("cone", "check", "k=2; {1}:1 {2}:1 {1,2}:-1"),
        ("cone", "elemental", "--k", "2"),
        ("halt", "decide", "--machine", "MACHINE", "--x", "10", "--s", "6"),
    ]

    @pytest.mark.parametrize("argv", CALLS, ids=lambda argv: " ".join(argv[:2]))
    def test_a_call_after_a_usage_and_a_domain_error_prints_the_same_bytes(self, capsys, tmp_path, argv):
        machine = tmp_path / "echo.txt"
        machine.write_text(ECHO_X_TEXT)
        argv = [str(machine) if a == "MACHINE" else a for a in argv]
        first = run(capsys, *argv)
        assert first[0] == 0
        with pytest.raises(SystemExit) as exc:  # --targets-to is missing
            main(["ks", "table", "--format", "json", "--cap", "3", "--s-grid", "8"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "law", "verify", "symmetry", "--n", "-1", "--s-grid", "8", "--format", "csv")[0] == 1
        assert run(capsys, *argv) == first

    def test_handlers_are_looked_up_when_main_runs(self, capsys, monkeypatch):
        # A tracer replaces cli.cmd_* between calls; a parser that kept the
        # handler objects it was built with would bypass it, or outlive it.
        argv = ("cone", "elemental", "--k", "2")
        code, listing, _ = run(capsys, *argv)
        assert code == 0 and listing
        seen = []
        monkeypatch.setattr(cli, "cmd_cone_elemental", lambda args: seen.append(args.k) or 0)
        assert run(capsys, *argv) == (0, "", "")
        assert seen == [2]
        monkeypatch.undo()
        assert run(capsys, *argv) == (0, listing, "")
        assert seen == [2]


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ks"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["law", "verify", "no_such_law", "--n", "1", "--s-grid", "8"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_the_groups_are_ks_halt_law_and_cone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lemma", "iterate", "--s", "4", "--c", "1", "--k", "0", "--n", "1"])
        assert exc.value.code == 2
        assert "(choose from 'ks', 'halt', 'law', 'cone')" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("ks", "compute", "101", "--s", "-1"), "workspace bound must be >= 0"),
            (("ks", "compute", "101", "--cap", "-1"), "cap must be >= 0"),
            (("ks", "table", "--targets-to", "1", "--s-grid", "8", "--cap", "-1"), "cap must be >= 0"),
            (("ks", "table", "--targets-to", "1", "--s-grid", "-8"), "workspace bound must be >= 0"),
            (("ks", "table", "--targets-to", "-1", "--s-grid", "8"), "--targets-to must be >= 0"),
            (
                ("ks", "table", "--targets-to", "1", "--conditions-to", "-5", "--s-grid", "8"),
                "--conditions-to must be >= 0",
            ),
            (
                ("ks", "table", "--targets-to", "1", "--conditions-to", "-1", "--s-grid", "8"),
                "--conditions-to must be >= 0",
            ),
            (("halt", "decide", "--machine", "MACHINE", "--s", "-1"), "space bound must be >= 0"),
            (("law", "verify", "symmetry", "--n", "-1", "--s-grid", "8"), "n must be >= 0"),
            (("law", "verify", "symmetry", "--n", "1", "--s-grid", "-8"), "s_grid must be nonempty with s >= 0"),
            (("law", "verify", "symmetry", "--n", "1", "--s-grid", "8", "--cap", "-1"), "cap must be >= 0"),
            (
                ("law", "verify", "basic", "--n", "1", "--s-grid", "8", "--i", "1", "--j", "2", "--k", "-1"),
                "basic law needs 0 <= k <= 16, got -1",
            ),
            (("law", "staged", "--m", "-1", "--n", "1"), "threshold must be >= 0"),
            (("law", "typical-set", "--xs", "01,1", "--u", "-1", "--n", "2"), "workspace bound must be >= 0"),
            (("cone", "elemental", "--k", "0"), "k must be between 1 and 6, got 0"),
            (("cone", "elemental", "--k", "-1"), "k must be between 1 and 6, got -1"),
            (("cone", "check", "k=2; {0}:1"), "variable indices are 1-based, got 0"),
        ],
    )
    def test_negative_values_are_a_domain_error(self, capsys, tmp_path, argv, message):
        machine = tmp_path / "echo.txt"
        machine.write_text(ECHO_X_TEXT)
        code, out, err = run(capsys, *(str(machine) if a == "MACHINE" else a for a in argv))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_shannon_law_without_an_inequality_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "law", "verify", "shannon", "--n", "1", "--s-grid", "8")
        assert (code, out, err) == (1, "", "error: shannon law needs --inequality\n")

    def test_domain_errors_exit_one(self, capsys):
        code, _, err = run(capsys, "ks", "compute", "102")
        assert code == 1 and err.startswith("error:")
        code, _, err = run(capsys, "ks", "compute", "1", "--cap", "99")
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["cone", "check", "k=2; {1}:1/0"],
            ["law", "verify", "shannon", "--n", "1", "--s-grid", "32", "--inequality", "k=2; {1}:1/0"],
        ],
    )
    def test_a_zero_denominator_is_a_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: bad term '{1}:1/0': zero denominator\n")
