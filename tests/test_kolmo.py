"""Reference interpreter, pair codecs, shortest-program search, cache."""

import itertools
import os
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_bits,
    brute_scan,
    copy_p_spec,
    decode_pair_by_pairs,
    decode_tuple,
    echo_x_spec,
    first_unequal_pair,
    live_by_pairs,
    outcome,
    sample_machine_bits,
    seesaw_spec,
)
from kslab import kolmo
from kslab.kolmo import (
    C_SIM,
    INTERPRETER_TAG,
    MACHINE_MODE_MIN_LENGTH,
    MAX_CLOSED_FORM_CAP,
    ComplexityCache,
    ComplexityResult,
    ReferenceParseError,
    ReferenceRunError,
    cached_ks,
    decode_pair,
    encode_pair,
    encode_subtuple,
    ks,
    ks_scan,
    reference_decode,
    scan_combine,
)
from kslab.kolmo import _live
from kslab.machine import Verdict, parse_machine, serialize_machine, serialized_length
from workloads import Interpret

BITS = st.text(alphabet="01", max_size=8)


def doubled(bits: str) -> str:
    return "".join(b + b for b in bits)


class TestPairCodec:
    def test_fixed_encodings(self):
        assert encode_pair("0", "1") == "00011"
        assert encode_pair("", "") == "01"
        assert encode_subtuple(("0", "1", "1"), (1, 2, 3)) == "0000001111011"
        assert encode_subtuple(("0", "101"), (2,)) == "101"
        assert encode_subtuple(("0", "1"), (2, 1)) == encode_pair("1", "0")
        assert encode_subtuple(("0", "1"), ()) == ""

    def test_decode_inverts_encode(self):
        assert decode_pair("00011") == ("0", "1")
        assert decode_tuple("0000001111011", 3) == ("0", "1", "1")

    @given(x=BITS, y=BITS)
    @settings(max_examples=100, deadline=None)
    def test_pair_round_trip(self, x, y):
        assert decode_pair(encode_pair(x, y)) == (x, y)

    @given(items=st.lists(BITS, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_tuple_round_trip(self, items):
        indices = tuple(range(1, len(items) + 1))
        assert decode_tuple(encode_subtuple(items, indices), len(items)) == tuple(items)

    @pytest.mark.parametrize("bad", ["", "0", "11", "10x", "100", "1011"])
    def test_malformed_pair_encodings_rejected(self, bad):
        with pytest.raises(ValueError):
            decode_pair(bad)

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValueError):
            decode_tuple("01", 0)

    def test_decode_matches_the_pair_by_pair_walk(self):
        for bits in all_bits(14):
            assert outcome(decode_pair, bits) == outcome(decode_pair_by_pairs, bits), bits

    def test_first_component_is_self_delimiting(self):
        # Appending to the second component never disturbs the first.
        enc = encode_pair("1101", "0")
        assert decode_pair(enc + "11")[0] == "1101"


class TestReferenceDecode:
    def test_literal_mode_writes_the_tail(self):
        assert reference_decode("0", "", 0) == ""
        assert reference_decode("0101", "1111", 0) == "101"

    def test_echo_mode_prepends_the_condition(self):
        assert reference_decode("10", "111", 0) == "111"
        assert reference_decode("1001", "11", 0) == "1101"

    @pytest.mark.parametrize("bad", ["", "1", "1110", "11" + "10"])
    def test_programs_outside_the_grammar_fail_to_parse(self, bad):
        with pytest.raises(ReferenceParseError):
            reference_decode(bad, "", 100)

    def test_general_mode_header_must_be_a_machine(self):
        # Properly doubled header that is not a valid serialization.
        with pytest.raises(ReferenceParseError):
            reference_decode(doubled("111") + "01", "", 1000)

    def test_general_mode_runs_the_decoded_machine(self):
        r = serialize_machine(echo_x_spec())
        prog = doubled(r) + "01"
        threshold = 2 * len(r) + C_SIM
        assert len(r) == 329 and threshold == 674
        assert reference_decode(prog, "10110", threshold) == "10110"

    def test_general_mode_charges_the_header_and_simulation_overhead(self):
        r = serialize_machine(echo_x_spec())
        prog = doubled(r) + "01"
        with pytest.raises(ReferenceRunError):
            reference_decode(prog, "10110", 2 * len(r) + C_SIM - 1)

    def test_program_tape_reaches_the_machine(self):
        r = serialize_machine(copy_p_spec())
        prog = doubled(r) + "01" + "0110"
        assert reference_decode(prog, "", 2 * len(r) + C_SIM) == "0110"

    def test_looping_machine_reports_step_limit(self):
        # The seesaw loops in space 1, well inside s_eff = 5.
        r = serialize_machine(seesaw_spec())
        prog = doubled(r) + "01"
        with pytest.raises(ReferenceRunError) as info:
            reference_decode(prog, "", 2 * len(r) + C_SIM + 5)
        assert info.value.verdict is Verdict.STEP_LIMIT

    @pytest.mark.parametrize("x", ["", "1"])
    def test_looping_machine_fails_fast_at_large_space(self, x):
        # config_count is about 2^522 here: only the loop check ends the run.
        prog = doubled(serialize_machine(seesaw_spec())) + "01"
        start = time.perf_counter()
        with pytest.raises(ReferenceRunError) as info:
            reference_decode(prog, x, 512)
        assert info.value.verdict is Verdict.STEP_LIMIT
        assert time.perf_counter() - start < 1.0

    def test_halting_machine_decodes_fast_at_huge_space(self):
        # The step limit stops growing with s once config_count passes
        # 2^62, so s = 10^8 costs what s = 10^3 does.
        prog = doubled(serialize_machine(parse_machine("states: 2\n0 _ _ -> write 1 1\n"))) + "01"
        assert reference_decode(prog, "", 1000) == "1"
        start = time.perf_counter()
        assert reference_decode(prog, "", 10**8) == "1"
        assert time.perf_counter() - start < 0.02

    def test_writing_loop_keeps_memory_bounded(self):
        # A step-limited run would write config_count = 458,753 bits at
        # s_eff = 14 (about 4 MiB of output list); the loop check stops it
        # after a few steps.
        r = serialize_machine(parse_machine("states: 1\n0 _ _ -> write 1 0\n"))
        prog = doubled(r) + "01"
        tracemalloc.start()
        try:
            with pytest.raises(ReferenceRunError) as info:
                reference_decode(prog, "", 2 * len(r) + C_SIM + 14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.verdict is Verdict.STEP_LIMIT
        assert peak < 64 * 1024

    def test_negative_space_rejected(self):
        with pytest.raises(ValueError):
            reference_decode("0", "", -1)


class TestKs:
    def test_shortest_general_mode_program_length(self):
        assert MACHINE_MODE_MIN_LENGTH == 2 * serialized_length(1) + 2 == 78
        assert MAX_CLOSED_FORM_CAP == 77

    def test_fixed_values(self):
        assert (ks("").value, ks("").witness) == (1, "0")
        assert (ks("101").value, ks("101").witness) == (4, "0101")
        assert (ks("10110", "101").value, ks("10110", "101").witness) == (4, "1010")
        assert ks("11", "110").value == 3  # condition is not a prefix

    def test_literal_wins_ties_lexicographically(self):
        result = ks("10", "1")  # echo "10" and literal "010" both have length 3
        assert result.value == 3
        assert result.witness == "010"

    def test_long_condition_makes_targets_cheap(self):
        result = ks("1" * 30, "1" * 30, 0, 2)
        assert result.value == 2 and result.witness == "10"

    def test_not_found_reports_the_cap(self):
        result = ks("1" * 20, "", 0, 14)
        assert result.value is None and result.witness is None
        assert result.describe() == "NotFound(cap=14)"

    def test_caps_beyond_the_builtin_range_are_rejected(self):
        with pytest.raises(ValueError):
            ks("1", "", 0, MAX_CLOSED_FORM_CAP + 1)

    def test_value_is_independent_of_s_below_the_general_mode(self):
        for s in (0, 1, 32, 512):
            assert ks("0110", "01", s).value == ks("0110", "01", 0).value

    def test_witness_actually_decodes_to_the_target(self):
        rng = random.Random(3)
        for _ in range(200):
            y = "".join(rng.choice("01") for _ in range(rng.randrange(6)))
            x = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
            result = ks(y, x, 5, 14)
            if result.value is not None:
                assert reference_decode(result.witness, x, 5) == y
                assert len(result.witness) == result.value


class TestScanOracle:
    def test_closed_form_matches_exhaustive_scan(self):
        targets = [""] + ["".join(t) for L in (1, 2, 3) for t in itertools.product("01", repeat=L)]
        conditions = ["", "0", "1", "10", "110"]
        for y in targets:
            for x in conditions:
                for cap in (0, 1, 3, 6, 8):
                    fast = ks(y, x, 4, cap)
                    slow = ks_scan(y, x, 4, cap)
                    assert (fast.value, fast.witness) == (slow.value, slow.witness)

    def test_sharded_scan_equals_whole_scan(self):
        for y, x in [("101", ""), ("1101", "11"), ("0000", "01"), ("", "")]:
            whole = ks_scan(y, x, 4, 8)
            for prefixes in (("0", "1"), ("0", "10", "11")):
                shards = [ks_scan(y, x, 4, 8, prefix=pfx) for pfx in prefixes]
                merged = scan_combine(shards)
                assert (merged.value, merged.witness) == (whole.value, whole.witness)

    def test_scan_combine_rejects_mixed_searches(self):
        with pytest.raises(ValueError):
            scan_combine([ks_scan("1", "", 0, 3), ks_scan("0", "", 0, 3)])

    def test_scan_combine_refuses_no_shards(self):
        with pytest.raises(ValueError, match="^nothing to combine$"):
            scan_combine([])

    def test_empty_program_never_produces_output(self):
        # The length-0 program is not covered by first-bit shards; it must
        # be unparsable for sharding to be safe.
        with pytest.raises(ReferenceParseError):
            reference_decode("", "", 100)

    @pytest.mark.parametrize("prefix", ["", "0", "1", "10", "11"])
    def test_pruned_scan_equals_brute_force_scan(self, prefix):
        # One brute-force scan to cap 10 answers every smaller cap too: its
        # first match, when that is no longer than the cap.
        for y in all_bits(4):
            for x in all_bits(4):
                whole = brute_scan(y, x, 3, 10, prefix)
                for cap in range(11):
                    scan = ks_scan(y, x, 3, cap, prefix)
                    found = whole.value is not None and whole.value <= cap
                    expected = (whole.value, whole.witness) if found else (None, None)
                    assert (scan.value, scan.witness) == expected, (y, x, cap)

    @pytest.mark.parametrize("y, x", [("1" * 16, ""), ("0" * 16, "1"), ("1" * 20, "111")])
    def test_not_found_after_every_program_up_to_cap_16(self, y, x):
        scan = ks_scan(y, x, 600, 16)
        brute = brute_scan(y, x, 600, 16)
        assert (scan.value, scan.witness) == (brute.value, brute.witness) == (None, None)

    def test_general_mode_programs_are_never_pruned(self):
        rng = random.Random(7)
        checked = 0
        while checked < 40:
            r = sample_machine_bits(rng, rng.randint(1, 2))
            header = doubled(r) + "01"
            prog = header + "".join(rng.choice("01") for _ in range(rng.randrange(4)))
            x = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            s = 2 * len(r) + C_SIM + 6
            try:
                y = reference_decode(prog, x, s)
            except ReferenceRunError:
                continue
            assert all(_live(prog[:i], x, y) for i in range(len(prog) + 1))
            scan = ks_scan(y, x, s, len(header) + 3, prefix=header)
            brute = brute_scan(y, x, s, len(header) + 3, prefix=header)
            assert (scan.value, scan.witness) == (brute.value, brute.witness)
            assert scan.value <= len(prog)
            checked += 1

    def test_live_matches_the_pair_by_pair_walk(self):
        # Every program up to length 14, then sampled headers: whole, cut
        # short (not a serialization), with one bit flipped, and broken.
        progs = all_bits(14)
        rng = random.Random(11)
        headers = []
        for _ in range(30):
            r = sample_machine_bits(rng, rng.randint(1, 2))
            flip = rng.randrange(len(r))
            headers += [r, r[:-1], r[:flip] + "01"[r[flip] == "0"] + r[flip + 1 :]]
            cut = 2 * rng.randrange(len(r))
            progs += [doubled(r)[:cut] + "10", doubled(r)[:cut] + "1", doubled(r)[: cut + 1]]
        progs += [doubled(header) + "01" + tail for header in headers for tail in ("", "0", "11")]
        assert {live_by_pairs(doubled(header) + "01", "", "") for header in headers} == {False, True}
        for y, x in (("101", "1"), ("0110", ""), ("", "")):
            for prog in progs:
                assert _live(prog, x, y) == live_by_pairs(prog, x, y), (prog, x, y)

    @pytest.mark.parametrize("prefix", ["", "0", "10", "11", "whole header"])
    def test_the_carried_rule_is_live(self, prefix):
        # The scan's growth step keeps each program's doubled-run end instead
        # of reading it again; it must keep exactly the extensions _live keeps,
        # with the run end that the pair-by-pair walk finds, to length 22.
        def run_end(prog):
            i = first_unequal_pair(prog)
            return len(prog) // 2 * 2 if i is None else i

        if prefix == "whole header":
            prefix = doubled(serialize_machine(copy_p_spec())) + "01"
        for y, x in (("1011", "10"), ("0110", "")):
            level, ends, grown_total = [prefix], [run_end(prefix)], 0
            for _ in range(len(prefix), max(22, len(prefix) + 10)):
                grown, grown_ends = kolmo._grow(level, ends, x, y)
                assert grown == [g for p in level for g in (p + "0", p + "1") if _live(g, x, y)]
                assert grown_ends == list(map(run_end, grown))
                level, ends, grown_total = grown, grown_ends, grown_total + len(grown)
            assert grown_total > 0

    def test_open_headers_are_not_decoded(self, monkeypatch):
        # The `11` shards of the benchmark's scans (seed 7, caps 16 and 17):
        # no header closes below length 78, so no program there is decoded.
        # Then a shard past a machine's header, whose programs all are.
        shards = [
            job.args[1:]
            for job in Interpret(Path(__file__).resolve().parents[1], None, 7, False).jobs
            if getattr(job.func, "__name__", "") == "_scan_shard" and job.args[-1] == "11"
        ]
        assert [cap for _, _, _, cap, _ in shards] == [16, 17]
        decoded = []

        def decode(prog, x, s):
            # Every general-mode program reaching here has its separator.
            assert prog[:2] != "11" or first_unequal_pair(prog) is not None, prog
            decoded.append(prog)
            return reference_decode(prog, x, s)

        monkeypatch.setattr(kolmo, "reference_decode", decode)
        for y, x, s, cap, prefix in shards:
            assert ks_scan(y, x, s, cap, prefix).value is None
        assert decoded == []
        r = serialize_machine(copy_p_spec())
        header = doubled(r) + "01"
        scan = ks_scan("0110", "", 2 * len(r) + C_SIM, len(header) + 4, prefix=header)
        assert (scan.value, scan.witness) == (len(header) + 4, header + "0110")
        assert len(decoded) == 1 + 2 + 4 + 8 + 7

    @pytest.mark.parametrize(
        "y, x, s, cap, prefix",
        [("1", "2", 0, 0, "11"), ("1", "", 0, -3, ""), ("1", "", -1, 1, "11")],
        ids=["bad-condition", "negative-cap", "negative-space"],
    )
    def test_arguments_are_checked_before_searching(self, y, x, s, cap, prefix):
        with pytest.raises(ValueError) as from_ks:
            ks(y, x, s, cap)
        with pytest.raises(ValueError) as from_scan:
            ks_scan(y, x, s, cap, prefix=prefix)
        assert str(from_scan.value) == str(from_ks.value)

    def test_the_benchmark_scans_are_admitted(self):
        for cap in (16, 17, 24):
            assert ks_scan("1", "", 0, cap, prefix="11").value is None

    def test_refused_one_live_program_past_the_limit(self, monkeypatch):
        # The `11` shard's largest length below cap 16 holds 128 live programs, first at length 15.
        monkeypatch.setattr(kolmo, "_MAX_LIVE", 128)
        assert ks_scan("1", "", 0, 16, prefix="11").value is None
        # A whole scan holds the literal and echo programs too, which the
        # limit does not count: it is admitted exactly when its `11` shard is.
        y = "1" * 40
        whole = ks_scan(y, "", 0, 16)
        assert whole == scan_combine(ks_scan(y, "", 0, 16, prefix=pfx) for pfx in ("0", "10", "11"))
        assert whole.value is None
        monkeypatch.setattr(kolmo, "_MAX_LIVE", 127)
        with pytest.raises(ValueError, match="^128 live programs of length 15, limit 127$"):
            ks_scan("1", "", 0, 16, prefix="11")
        with pytest.raises(ValueError, match="^128 live programs of length 15, limit 127$"):
            ks_scan(y, "", 0, 16)


class TestCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            stored = cached_ks("10110", "101", 4, 14, cache)
            missing = cached_ks("1" * 30, "", 0, 14, cache)
            empty = cached_ks("", "", 0, 14, cache)
        reloaded = ComplexityCache(path)
        assert reloaded.get("10110", "101", 4, 14) == stored
        assert reloaded.get("1" * 30, "", 0, 14) == missing
        assert reloaded.get("", "", 0, 14) == empty
        assert reloaded.records_loaded == 3
        assert [missing.value, empty.value] == [None, 1]

    def test_put_is_idempotent(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            result = cached_ks("101", "", 0, 14, cache)
            cache.put(result)
            cache.put(result)
        assert ComplexityCache(path).records_loaded == 1

    def test_conflicting_record_is_rejected(self, tmp_path):
        cache = ComplexityCache(tmp_path / "cache.tsv")
        cache.put(ComplexityResult("101", "", 0, 14, 4, "0101"))
        with pytest.raises(ValueError):
            cache.put(ComplexityResult("101", "", 0, 14, 3, "010"))

    def test_a_put_conflicting_with_a_loaded_record_is_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            cache.put(ComplexityResult("101", "", 0, 14, 4, "0101"))
        before = path.read_bytes()
        with ComplexityCache(path) as reloaded:
            with pytest.raises(ValueError, match="cache conflict"):
                reloaded.put(ComplexityResult("101", "", 0, 14, 3, "010"))
            with pytest.raises(ValueError, match="cache conflict"):
                reloaded.put(ComplexityResult("101", "", 0, 14, 4, "0100"))
        assert path.read_bytes() == before

    def test_cache_hits_are_authoritative(self, tmp_path):
        # A planted record proves lookups do not recompute.
        path = tmp_path / "cache.tsv"
        planted = ComplexityResult("101", "", 0, 14, 9, "0" * 9)
        with ComplexityCache(path) as cache:
            cache.put(planted)
        assert cached_ks("101", "", 0, 14, ComplexityCache(path)) == planted

    def test_distinct_keys_do_not_collide(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            a = cached_ks("01", "", 0, 14, cache)
            b = cached_ks("0", "1", 0, 14, cache)
            c = cached_ks("01", "", 1, 14, cache)
            d = cached_ks("01", "", 0, 13, cache)
        assert ComplexityCache(path).records_loaded == 4
        assert {a.s, c.s} == {0, 1} and b.condition == "1" and d.cap == 13

    def test_wrong_header_is_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            ComplexityCache(path)

    def test_corrupt_record_is_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            cache.put(ComplexityResult("1", "", 0, 14, 2, "01"))
        path.write_text(path.read_text() + "broken line\n")
        with pytest.raises(ValueError):
            ComplexityCache(path)

    def test_hex_field_without_sentinel_bit_is_rejected(self, tmp_path):
        # "0" has no sentinel bit; it must not decode to the empty string.
        path = tmp_path / "cache.tsv"
        path.write_text(
            "kslab-cache 1\n"
            f"{INTERPRETER_TAG}\t3\t1\t0\t14\t2\t5\n"
            f"{INTERPRETER_TAG}\t0\t1\t0\t14\t2\t5\n"
        )
        with pytest.raises(ValueError, match=r"cache\.tsv:3: bad cache record"):
            ComplexityCache(path)

    @pytest.mark.parametrize("field", ["0x3", "+3", " 3", "1_1", "A"])
    def test_non_canonical_hex_field_is_rejected(self, tmp_path, field):
        # int(field, 16) accepts each of these; put writes plain lowercase hex only.
        path = tmp_path / "cache.tsv"
        path.write_text(
            "kslab-cache 1\n"
            f"{INTERPRETER_TAG}\t3\t1\t0\t14\t2\t5\n"
            f"{INTERPRETER_TAG}\t{field}\t1\t0\t14\t2\t5\n"
        )
        with pytest.raises(ValueError, match=r"cache\.tsv:3: bad cache record"):
            ComplexityCache(path)

    @pytest.mark.parametrize("text", ["+3", " 3", "03", "1_0", "-1"])
    @pytest.mark.parametrize("column", [3, 4, 5], ids=["s", "cap", "value"])
    def test_non_canonical_decimal_field_is_rejected(self, tmp_path, column, text):
        # int(text) accepts each of these; put writes plain decimal only.
        fields = [INTERPRETER_TAG, "3", "1", "0", "14", "2", "5"]
        fields[column] = text
        path = tmp_path / "cache.tsv"
        path.write_text(
            "kslab-cache 1\n"
            f"{INTERPRETER_TAG}\t3\t1\t0\t14\t2\t5\n"
            + "\t".join(fields) + "\n"
        )
        with pytest.raises(ValueError, match=r"cache\.tsv:3: bad cache record"):
            ComplexityCache(path)

    def test_a_bad_record_after_blank_lines_reports_its_own_line(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text(
            "kslab-cache 1\n"
            f"{INTERPRETER_TAG}\t3\t1\t0\t14\t2\t5\n"
            "\n\n"
            f"{INTERPRETER_TAG}\t5\t1\t0\t14\t3\t9\n"
            "\n"
            f"{INTERPRETER_TAG}\t5\t1\t0\t14\t3\t09\n"
        )
        with pytest.raises(ValueError, match=r"cache\.tsv:7: bad cache record"):
            ComplexityCache(path)
        path.write_text(path.read_text().rpartition(f"{INTERPRETER_TAG}")[0])
        cache = ComplexityCache(path)  # blank lines alone are skipped
        assert cache.records_loaded == 2 and cache.get("01", "", 0, 14).value == 3

    @pytest.mark.parametrize("bad", [-1, True, 2.0])
    @pytest.mark.parametrize("field", ["s", "cap", "value"])
    def test_a_record_the_load_would_refuse_is_not_put(self, tmp_path, field, bad):
        path = tmp_path / "cache.tsv"
        result = ComplexityResult("1", "", 0, 14, 2, "01")._replace(**{field: bad})
        with ComplexityCache(path) as cache:
            with pytest.raises(ValueError, match="not a cache record"):
                cache.put(result)
            assert cache.get("1", "", result.s, result.cap) is None
        assert not path.exists()

    def test_a_query_that_is_not_a_bit_string_is_refused(self, tmp_path):
        # int("1" + "0_1", 2) reads "0_1" as "01", whose record this is.
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            cached_ks("01", "", 0, 14, cache)
        for cache in (cache, ComplexityCache(path)):
            assert cache.get("01", "", 0, 14) is not None
            with pytest.raises(ValueError, match="must consist of '0'/'1' characters"):
                cache.get("0_1", "", 0, 14)
            with pytest.raises(ValueError, match="must consist of '0'/'1' characters"):
                cache.get("01", "0_1", 0, 14)

    def test_a_with_block_that_raises_still_writes_its_records(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with pytest.raises(RuntimeError, match="the command failed"):
            with ComplexityCache(path) as cache:
                first = cached_ks("101", "", 0, 14, cache)
                second = cached_ks("", "1", 3, 14, cache)
                raise RuntimeError("the command failed")
        reloaded = ComplexityCache(path)
        assert reloaded.records_loaded == 2
        assert reloaded.get("101", "", 0, 14) == first and reloaded.get("", "1", 3, 14) == second

    def test_records_are_queued_until_the_flush(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            cached_ks("101", "", 0, 14, cache)
            assert not path.exists()
        assert ComplexityCache(path).records_loaded == 1

    def test_torn_final_record_is_skipped_and_cut_off_by_the_next_put(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            first = cached_ks("101", "", 0, 14, cache)
            second = cached_ks("0110", "1", 2, 14, cache)
            cached_ks("11", "", 0, 14, cache)
        intact = path.read_bytes()
        path.write_bytes(intact[:-5])  # a crash partway through the last append
        torn = ComplexityCache(path)
        assert torn.records_loaded == 2
        assert torn.get("101", "", 0, 14) == first and torn.get("0110", "1", 2, 14) == second
        assert torn.get("11", "", 0, 14) is None
        assert path.read_bytes() == intact[:-5]  # loading alone writes nothing
        with torn:
            third = cached_ks("11", "", 0, 14, torn)
        reloaded = ComplexityCache(path)
        assert reloaded.records_loaded == 3 and reloaded.get("11", "", 0, 14) == third
        assert path.read_bytes() == intact

    @pytest.mark.parametrize("content", [b"kslab-cac", b""])
    def test_torn_or_empty_header_is_rewritten_by_the_next_put(self, tmp_path, content):
        path = tmp_path / "cache.tsv"
        path.write_bytes(content)  # a crash during the first put
        torn = ComplexityCache(path)
        assert torn.records_loaded == 0
        assert path.read_bytes() == content  # loading alone writes nothing
        with torn:
            result = cached_ks("101", "", 0, 14, torn)
        reloaded = ComplexityCache(path)
        assert reloaded.records_loaded == 1 and reloaded.get("101", "", 0, 14) == result
        fresh = tmp_path / "fresh.tsv"
        with ComplexityCache(fresh) as cache:
            cache.put(result)
        assert path.read_bytes() == fresh.read_bytes()

    def test_file_bytes_are_pinned(self, tmp_path):
        # Written by the buffered-text put this one replaced; the format is unchanged.
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            cache.put(ComplexityResult("10110", "101", 4, 14, 7, "0010110"))
            cache.put(ComplexityResult("1" * 30, "", 0, 14, None, None))
            cache.put(ComplexityResult("", "", 0, 14, 1, "0"))
        with open(path, "ab") as fh:  # a record written under another interpreter tag
            fh.write(b"other-tag\t5\t3\t512\t9\t3\t9\n")
        with cache:
            cache.put(ComplexityResult("10110", "101", 4, 14, 7, "0010110"))
        with ComplexityCache(path) as reloaded:
            reloaded.put(ComplexityResult("0", "0000", 3, 14, 2, "00"))
        assert path.read_bytes() == (
            b"kslab-cache 1\n"
            b"kslab-v1\t36\td\t4\t14\t7\t96\n"
            b"kslab-v1\t7fffffff\t1\t0\t14\t-\t-\n"
            b"kslab-v1\t1\t1\t0\t14\t1\t2\n"
            b"other-tag\t5\t3\t512\t9\t3\t9\n"
            b"kslab-v1\t2\t10\t3\t14\t2\t4\n"
        )

    def test_writers_sharing_a_file_interleave_whole_records(self, tmp_path):
        path = tmp_path / "cache.tsv"
        first, second = ComplexityCache(path), ComplexityCache(path)  # neither found a file
        results = [ks(y, "", 0, 14) for y in ("", "0", "1", "01", "110", "0110")]
        for i, result in enumerate(results):
            writer = first if i % 2 else second
            writer.put(result)
            writer.flush()
        with ComplexityCache(path) as third:  # found the file: appends without a header
            third.put(ks("1010", "1", 2, 14))
        reloaded = ComplexityCache(path)
        assert reloaded.records_loaded == 7
        assert all(reloaded.get(r.target, "", 0, 14) == r for r in results)
        assert path.read_bytes().count(b"kslab-cache 1\n") == 1

    def test_a_writer_that_found_no_file_adds_no_second_header(self, tmp_path):
        path = tmp_path / "cache.tsv"
        late = ComplexityCache(path)
        with ComplexityCache(path) as early:  # creates the file after late's load
            early.put(ks("101", "", 0, 14))
        with late:
            late.put(ks("11", "", 0, 14))
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"kslab-cache 1" and b"kslab-cache 1" not in lines[1:]
        assert ComplexityCache(path).records_loaded == 2

    def test_a_writer_that_loses_the_race_to_create_the_file_adds_no_header(
        self, tmp_path, monkeypatch
    ):
        # Another writer creates the file between this flush's failed append
        # open and its O_EXCL create.
        path = tmp_path / "cache.tsv"
        real_open = os.open
        raced = []

        def racing_open(file, flags, mode=0o777):
            try:
                return real_open(file, flags, mode)
            except FileNotFoundError:
                if not raced:
                    raced.append(file)
                    with ComplexityCache(path) as other:
                        other.put(ks("101", "", 0, 14))
                raise

        with monkeypatch.context() as patched:
            patched.setattr(os, "open", racing_open)
            with ComplexityCache(path) as cache:
                cache.put(ks("11", "", 0, 14))
        assert raced == [path]
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"kslab-cache 1" and b"kslab-cache 1" not in lines[1:]
        assert ComplexityCache(path).records_loaded == 2

    def test_tag_separates_namespaces(self, tmp_path):
        # A record of another interpreter tag loads but is never returned.
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            cache.put(ComplexityResult("0", "", 0, 14, 2, "00"))
        with open(path, "ab") as fh:
            fh.write(b"other-tag\t3\t1\t0\t14\t9\t3ff\n")  # "1" at value 9
        cache = ComplexityCache(path)
        assert cache.records_loaded == 2
        assert cache.get("1", "", 0, 14) is None
        assert cached_ks("1", "", 0, 14, cache) == ks("1", "", 0, 14)

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Every text that a load hands to the record pattern, in order."""

        texts, pattern = [], kolmo._RECORD

        class Spy:
            def findall(self, text):
                texts.append(text)
                return pattern.findall(text)

            def __getattr__(self, name):
                return getattr(pattern, name)

        monkeypatch.setattr(kolmo, "_RECORD", Spy())
        return texts

    def test_a_refresh_parses_nothing_this_cache_flushed(self, tmp_path, parsed):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            results = [cached_ks(y, "", 0, 14, cache) for y in ("", "0", "1")]
        assert cache.refresh().records_loaded == 3
        results.append(cached_ks("01", "", 0, 14, cache))
        assert cache.refresh() is cache and cache.records_loaded == 4  # it flushes first
        assert [cache.get(r.target, "", 0, 14) for r in results] == results
        assert parsed == [""] * 3  # the load that found no file, then both refreshes
        foreign = f"{INTERPRETER_TAG}\t6\t1\t0\t14\t3\ta\n"  # "10" at value 3, as another process writes it
        with open(path, "a") as fh:
            fh.write(foreign)
        assert cache.refresh().records_loaded == 5 and parsed[-1] == foreign
        assert cache.get("10", "", 0, 14) == ks("10", "", 0, 14)
        with ComplexityCache(path) as other:
            other.put(ks("11", "", 0, 14))
        with cache:  # lands after other's record, which cache never loaded
            cache.put(ks("00", "", 0, 14))
        assert cache.refresh().records_loaded == 7
        assert parsed[-1] == path.read_text().partition("\n")[2]

    def test_a_record_planted_before_a_refresh_is_returned(self, tmp_path, parsed):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            cached_ks("1", "", 0, 14, cache)
        assert cache.refresh().get("1", "", 0, 14).value == 2 and parsed[-1] == ""
        earlier = ComplexityCache(path)
        with open(path, "a") as fh:
            fh.write(f"{INTERPRETER_TAG}\t3\t1\t0\t14\t9\t200\n")  # "1" at value 9
        assert cache.refresh().records_loaded == 2
        assert cached_ks("1", "", 0, 14, cache) == ComplexityResult("1", "", 0, 14, 9, "0" * 9)
        assert earlier.get("1", "", 0, 14).value == 2  # another cache keeps what it read

    def test_a_rewrite_inside_the_parsed_lines_forces_a_full_parse(self, tmp_path, parsed):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            for y in ("0", "1", "01"):
                cached_ks(y, "", 0, 14, cache)
        assert cache.refresh().get("1", "", 0, 14).value == 2
        # Same length: "1" at value 3, witness "011", where it had 2 and "01".
        path.write_text(path.read_text().replace("\t3\t1\t0\t14\t2\t5\n", "\t3\t1\t0\t14\t3\tb\n"))
        assert cache.refresh().get("1", "", 0, 14) == ComplexityResult("1", "", 0, 14, 3, "011")
        assert cache.records_loaded == 3
        assert parsed[-1] == path.read_text().partition("\n")[2]
        path.write_text(path.read_text().replace("\t3\tb\n", "\t3\tB\n"))
        with pytest.raises(ValueError, match=r"cache\.tsv:3: bad cache record"):
            cache.refresh()
        with pytest.raises(ValueError, match=r"cache\.tsv:3: bad cache record"):
            ComplexityCache(path)

    def test_a_bad_record_appended_before_a_refresh_reports_its_own_line(self, tmp_path, parsed):
        path = tmp_path / "cache.tsv"
        path.write_text(
            "kslab-cache 1\n"
            f"{INTERPRETER_TAG}\t3\t1\t0\t14\t2\t5\n"
            "\n"
            f"{INTERPRETER_TAG}\t5\t1\t0\t14\t3\t9\n"
        )
        cache = ComplexityCache(path)
        assert cache.refresh().records_loaded == 2 and parsed[-1] == ""
        appended = f"{INTERPRETER_TAG}\t7\t1\t0\t14\t3\td\n\n{INTERPRETER_TAG}\t7\t1\t0\t14\t3\t0d\n"
        with open(path, "a") as fh:
            fh.write(appended)
        with pytest.raises(ValueError, match=r"cache\.tsv:7: bad cache record"):
            cache.refresh()
        assert parsed[-1] == appended and cache.records_loaded == 2
        path.write_text(path.read_text().removesuffix(appended.rpartition("\n\n")[2]))
        assert cache.refresh().records_loaded == 3
        assert parsed[-1] == f"{INTERPRETER_TAG}\t7\t1\t0\t14\t3\td\n\n"

    def test_a_refreshed_cache_equals_a_freshly_constructed_one(self, tmp_path):
        path = tmp_path / "cache.tsv"
        results = [ks(y, x, 0, 14) for y in ("", "0", "1", "01", "10", "110") for x in ("", "1")]
        queries = [(r.target, r.condition, 0, 14) for r in results]
        watcher = ComplexityCache(path)  # refreshed at every step, and puts nothing

        def same_as_a_fresh_load(*writers):
            """Refresh the watcher and the writers, none with a put queued; each equals a new cache."""

            fresh = ComplexityCache(path)
            for cache in (watcher, *writers):
                assert cache.refresh().records_loaded == fresh.records_loaded
                assert [cache.get(*q) for q in queries] == [fresh.get(*q) for q in queries]
            return fresh.records_loaded

        first, second = ComplexityCache(path), ComplexityCache(path)  # neither found a file
        first.put(results[0])
        first.put(results[1])
        first.flush()  # creates the file
        assert same_as_a_fresh_load(first) == 2
        third = ComplexityCache(path)
        second.put(results[2])
        second.flush()  # lands after first's records, which second never loaded
        assert same_as_a_fresh_load(second) == 3
        third.put(results[3])
        first.put(results[4])
        third.flush()
        first.flush()  # lands after third's record, which first never loaded
        assert same_as_a_fresh_load(third, first) == 5
        with open(path, "a") as fh:
            fh.write(f"{INTERPRETER_TAG}\t7\t1")  # a torn last line
        assert same_as_a_fresh_load() == 5
        with ComplexityCache(path) as torn:  # cuts the fragment off
            torn.put(results[5])
            torn.put(results[0])
        assert same_as_a_fresh_load(torn) == 6
        with open(path, "a") as fh:  # a record appended by hand
            fh.write(f"{INTERPRETER_TAG}\t7\t1\t0\t14\t3\tb\n")
        assert same_as_a_fresh_load() == 7
        with ComplexityCache(path) as writer, ComplexityCache(path) as other:
            writer.put(results[6])
            writer.flush()
            other.put(results[7])
            writer.put(results[8])
            assert same_as_a_fresh_load() == 8  # neither queued put shows
        assert same_as_a_fresh_load(writer, other) == 10
        late = ComplexityCache(path)
        before = path.read_bytes()
        with open(path, "a") as fh:
            fh.write(f"{INTERPRETER_TAG}\t8\t1\t0\t14\t4\t18\n")
        with late:  # lands after the hand-appended record
            late.put(results[9])
        path.write_bytes(before)  # truncated back to what late loaded
        with late:  # lands where late's first flush would have
            late.put(results[10])
        assert same_as_a_fresh_load(late) == 11
        path.unlink()
        with first:  # its entries outlive the file it recreates
            first.put(results[9])
        assert same_as_a_fresh_load(first) == 1
        with ComplexityCache(path) as reader:
            reader.put(results[10])
            reader.put(results[11])
        assert same_as_a_fresh_load(reader) == 3

    def test_a_conflict_names_the_stored_text_of_a_put_or_a_loaded_entry(self, tmp_path):
        path = tmp_path / "cache.tsv"
        expected = r"cache conflict for 'kslab-v1\td\t1\t0\t14': stored '4\t15', new '3\ta'"
        conflicting = ComplexityResult("101", "", 0, 14, 3, "010")
        with ComplexityCache(path) as cache:
            cache.put(ComplexityResult("101", "", 0, 14, 4, "0101"))
            with pytest.raises(ValueError) as put_here:
                cache.put(conflicting)
        with pytest.raises(ValueError) as read_back:
            ComplexityCache(path).put(conflicting)
        assert str(put_here.value) == str(read_back.value) == expected

    def test_puts_not_yet_flushed_are_invisible_to_another_cache_on_the_file(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with ComplexityCache(path) as cache:
            cached_ks("1", "", 0, 14, cache)
        first, second = ComplexityCache(path), ComplexityCache(path)
        queued = cached_ks("0", "", 0, 14, first)
        assert first.get("0", "", 0, 14) == queued
        assert second.get("0", "", 0, 14) is None
        third = ComplexityCache(path)
        assert third.records_loaded == 1 and third.get("0", "", 0, 14) is None
        first.flush()
        reloaded = ComplexityCache(path)
        assert reloaded.records_loaded == 2 and reloaded.get("0", "", 0, 14) == queued
        assert second.get("0", "", 0, 14) is None and third.get("0", "", 0, 14) is None

    def test_a_truncated_file_and_alternating_files_reload_exactly(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        with ComplexityCache(a) as cache:
            in_a = [cached_ks(y, "", 0, 14, cache) for y in ("0", "1", "01")]
        with ComplexityCache(b) as cache:
            in_b = cached_ks("0", "1", 2, 14, cache)
        for path, count in [(a, 3), (b, 1), (a, 3), (b, 1), (b, 1), (a, 3)]:
            cache = ComplexityCache(path)
            assert cache.records_loaded == count
            assert [cache.get(r.target, "", 0, 14) for r in in_a] == (in_a if path == a else [None] * 3)
            assert cache.get("0", "1", 2, 14) == (in_b if path == b else None)
        a.write_bytes(b"".join(a.read_bytes().splitlines(keepends=True)[:3]))
        truncated = ComplexityCache(a)
        assert truncated.records_loaded == 2
        assert [truncated.get(r.target, "", 0, 14) for r in in_a] == [*in_a[:2], None]

    def test_a_miss_builds_its_key_once(self, tmp_path, monkeypatch):
        built = []
        real = kolmo._cache_key
        monkeypatch.setattr(kolmo, "_cache_key", lambda *query: built.append(query) or real(*query))
        cache = ComplexityCache(tmp_path / "cache.tsv")
        miss = cached_ks("101", "", 0, 14, cache)
        assert cached_ks("101", "", 0, 14, cache) == miss
        assert built == [("101", "", 0, 14)] * 2
