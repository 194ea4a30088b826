"""Reference interpreter, pair codecs, shortest-program search, cache."""

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import copy_p_spec, echo_x_spec, seesaw_spec
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
    complexity_profile,
    decode_pair,
    decode_tuple,
    encode_pair,
    encode_tuple,
    ks,
    ks_scan,
    reference_decode,
    scan_combine,
)
from kslab.machine import Verdict, parse_machine, serialize_machine, serialized_length

BITS = st.text(alphabet="01", max_size=8)


def doubled(bits: str) -> str:
    return "".join(b + b for b in bits)


class TestPairCodec:
    def test_fixed_encodings(self):
        assert encode_pair("0", "1") == "00011"
        assert encode_pair("", "") == "01"
        assert encode_tuple(["0", "1", "1"]) == "0000001111011"
        assert encode_tuple(["101"]) == "101"

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
        assert decode_tuple(encode_tuple(items), len(items)) == tuple(items)

    @pytest.mark.parametrize("bad", ["", "0", "11", "10x", "100", "1011"])
    def test_malformed_pair_encodings_rejected(self, bad):
        with pytest.raises(ValueError):
            decode_pair(bad)

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValueError):
            encode_tuple([])
        with pytest.raises(ValueError):
            decode_tuple("01", 0)

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
        assert not result.found
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
            if result.found:
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

    def test_empty_program_never_produces_output(self):
        # The length-0 program is not covered by first-bit shards; it must
        # be unparsable for sharding to be safe.
        with pytest.raises(ReferenceParseError):
            reference_decode("", "", 100)


class TestProfile:
    def test_entry_count_is_pairs_of_disjoint_masks(self):
        for k in (1, 2, 3):
            strings = ["0"] * k
            profile = complexity_profile(strings, 4, 14)
            assert len(profile.entries) == 3**k - 2**k

    def test_entries_match_direct_queries(self):
        profile = complexity_profile(["0", "1", "1"], 6, 14)
        assert profile.value(0b001, 0) == ks("0", "", 6, 14).value
        assert profile.value(0b011, 0b100) == ks(encode_pair("0", "1"), "1", 6, 14).value
        assert profile.value(0b111, 0) == ks(encode_tuple(["0", "1", "1"]), "", 6, 14).value

    def test_condition_mask_zero_means_empty_condition(self):
        profile = complexity_profile(["01"], 4, 14)
        entry = profile.entries[(1, 0)]
        assert entry.condition == ""


class TestCache:
    def test_round_trip_and_stats(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = ComplexityCache(path)
        stored = cached_ks("10110", "101", 4, 14, cache)
        missing = cached_ks("1" * 30, "", 0, 14, cache)
        empty = cached_ks("", "", 0, 14, cache)
        reloaded = ComplexityCache(path)
        assert reloaded.get("10110", "101", 4, 14) == stored
        assert reloaded.get("1" * 30, "", 0, 14) == missing
        assert reloaded.get("", "", 0, 14) == empty
        assert len(reloaded) == 3 and reloaded.records_loaded == 3
        stats = reloaded.stats()
        assert stats["found"] == 2 and stats["not_found"] == 1
        assert stats["by_tag"] == {INTERPRETER_TAG: 3}

    def test_put_is_idempotent(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = ComplexityCache(path)
        result = cached_ks("101", "", 0, 14, cache)
        cache.put(result)
        cache.put(result)
        assert ComplexityCache(path).records_loaded == 1

    def test_conflicting_record_is_rejected(self, tmp_path):
        cache = ComplexityCache(tmp_path / "cache.tsv")
        cache.put(ComplexityResult("101", "", 0, 14, 4, "0101"))
        with pytest.raises(ValueError):
            cache.put(ComplexityResult("101", "", 0, 14, 3, "010"))

    def test_cache_hits_are_authoritative(self, tmp_path):
        # A planted record proves lookups do not recompute.
        path = tmp_path / "cache.tsv"
        planted = ComplexityResult("101", "", 0, 14, 9, "0" * 9)
        ComplexityCache(path).put(planted)
        assert cached_ks("101", "", 0, 14, ComplexityCache(path)) == planted

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ComplexityCache(tmp_path / "cache.tsv")
        a = cached_ks("01", "", 0, 14, cache)
        b = cached_ks("0", "1", 0, 14, cache)
        c = cached_ks("01", "", 1, 14, cache)
        d = cached_ks("01", "", 0, 13, cache)
        assert len(cache) == 4 and {a.s, c.s} == {0, 1} and b.condition == "1" and d.cap == 13

    def test_wrong_header_is_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            ComplexityCache(path)

    def test_corrupt_record_is_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = ComplexityCache(path)
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

    def test_torn_final_record_is_skipped_and_cut_off_by_the_next_put(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = ComplexityCache(path)
        first = cached_ks("101", "", 0, 14, cache)
        second = cached_ks("0110", "1", 2, 14, cache)
        cached_ks("11", "", 0, 14, cache)
        intact = path.read_bytes()
        path.write_bytes(intact[:-5])  # a crash partway through the last append
        torn = ComplexityCache(path)
        assert len(torn) == 2 and torn.records_loaded == 2
        assert torn.get("101", "", 0, 14) == first and torn.get("0110", "1", 2, 14) == second
        assert torn.get("11", "", 0, 14) is None
        assert path.read_bytes() == intact[:-5]  # loading alone writes nothing
        third = cached_ks("11", "", 0, 14, torn)
        reloaded = ComplexityCache(path)
        assert len(reloaded) == 3 and reloaded.get("11", "", 0, 14) == third
        assert path.read_bytes() == intact

    @pytest.mark.parametrize("content", [b"kslab-cac", b""])
    def test_torn_or_empty_header_is_rewritten_by_the_next_put(self, tmp_path, content):
        path = tmp_path / "cache.tsv"
        path.write_bytes(content)  # a crash during the first put
        torn = ComplexityCache(path)
        assert len(torn) == 0 and torn.records_loaded == 0
        assert path.read_bytes() == content  # loading alone writes nothing
        result = cached_ks("101", "", 0, 14, torn)
        reloaded = ComplexityCache(path)
        assert len(reloaded) == 1 and reloaded.get("101", "", 0, 14) == result
        fresh = tmp_path / "fresh.tsv"
        ComplexityCache(fresh).put(result)
        assert path.read_bytes() == fresh.read_bytes()

    def test_tag_separates_namespaces(self, tmp_path):
        cache = ComplexityCache(tmp_path / "cache.tsv")
        result = ComplexityResult("1", "", 0, 14, 2, "01")
        cache.put(result, tag="other-tag")
        assert cache.get("1", "", 0, 14) is None
        assert cache.get("1", "", 0, 14, tag="other-tag") == result
        with pytest.raises(ValueError):
            cache.put(result, tag="bad\ttag")
