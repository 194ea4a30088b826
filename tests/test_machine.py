"""Machine model: stepping, space accounting, text and bit formats."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ECHO_X_TEXT,
    _record_valid,
    all_bits,
    echo_x_spec,
    outcome,
    parse_bits_by_fields,
    push_forever_spec,
    sample_machine_bits,
    sample_spec,
    seesaw_spec,
    simulate,
    trace,
)
from kslab.halting import config_count
from kslab.machine import (
    EMPTY_STACK,
    BitsParseError,
    Configuration,
    MachineFormatError,
    MachineSpec,
    Op,
    Verdict,
    canonicalize,
    final_configuration,
    initial_configuration,
    parse_bits,
    parse_machine,
    record_width,
    run,
    serialize_machine,
    serialized_length,
    state_width,
    step,
)

BITS = st.text(alphabet="01", max_size=6)
HALT = (Op.HALT, 0, 0, 0, 0)

# The fields each opcode uses, stated here independently of the machine module.
USED_FIELDS = {
    Op.HALT: (),
    Op.PUSH_L: ("bit", "t0"),
    Op.PUSH_R: ("bit", "t0"),
    Op.POP_L: ("t0",),
    Op.POP_R: ("t0",),
    Op.WRITE: ("bit", "t0"),
    Op.READ_P: ("t0", "t1", "t2"),
    Op.READ_X: ("t0", "t1", "t2"),
}
FIELDS = ("bit", "t0", "t1", "t2")
USED = [(op, f) for op in Op for f in FIELDS if f in USED_FIELDS[op]]
UNUSED = [(op, f) for op in Op for f in FIELDS if f not in USED_FIELDS[op]]


def _param_id(value):
    return getattr(value, "name", value)


def _row(op, field=None, value=0):
    """The row of `op` with every operand zero but `field`, which holds `value`."""

    return (op, *[value if f == field else 0 for f in FIELDS])


def _table_with(ins, states):
    """A table whose first entry is ins and every other entry halt."""

    return (ins,) + (HALT,) * (9 * states - 1)


class TestInstructions:
    @pytest.mark.parametrize("states", [1, 3])
    @pytest.mark.parametrize("op,field", UNUSED, ids=_param_id)
    def test_unused_fields_must_stay_zero(self, op, field, states):
        spec = MachineSpec(states, _table_with(_row(op), states))
        assert spec.instruction(0, 0, 0) == _row(op)
        with pytest.raises(ValueError):
            MachineSpec(states, _table_with(_row(op, field, 1), states))

    @pytest.mark.parametrize("states", [1, 3])
    @pytest.mark.parametrize("op,field", USED, ids=_param_id)
    def test_state_operands_must_be_in_range(self, op, field, states):
        # A used bit must be 0 or 1, a used state below the state count.
        top = 1 if field == "bit" else states - 1
        ins = _row(op, field, top)
        assert MachineSpec(states, _table_with(ins, states)).instruction(0, 0, 0) == ins
        for bad in (-1, top + 1):
            with pytest.raises(ValueError):
                MachineSpec(states, _table_with(_row(op, field, bad), states))

    @pytest.mark.parametrize("states", [1, 4, 5])
    def test_a_table_is_accepted_iff_every_row_is_valid(self, states):
        # Rows over every opcode and 1.0, and a field value below, at and
        # above each bound, floats among them (1.0 == 1): the walk accepts
        # exactly the rows that this rule does, and a table it accepts reads
        # back from its bits through the rows MachineSpec accepts by identity.
        values = (-1, 0, 1, 0.5, 1.0, states - 1, states)

        def valid(op, *fields):
            return isinstance(op, int) and op in USED_FIELDS and all(
                isinstance(v, int)
                and (v == 0 or f in USED_FIELDS[op] and (v == 1 if f == "bit" else 0 < v < states))
                for f, v in zip(FIELDS, fields)
            )

        for row in itertools.product((*range(-1, 9), 1.0), values, values, values, values):
            table = (HALT,) * (9 * states - 1) + (row,)
            spec = outcome(MachineSpec, states, table)
            assert valid(*row) == isinstance(spec, MachineSpec), row
            if valid(*row):
                assert parse_bits(serialize_machine(spec)) == spec

    def test_instruction_count_must_match(self):
        with pytest.raises(ValueError):
            MachineSpec(2, tuple([HALT] * 9))

    def test_state_count_must_be_positive(self):
        with pytest.raises(ValueError, match="state_count must be >= 1"):
            MachineSpec(0, ())


class TestStep:
    def test_push_charges_space_and_moves_state(self):
        spec = parse_machine("states: 2\n0 _ _ -> pushL 1 1\n")
        result = step(spec, initial_configuration(), "", "")
        cfg = result.config
        assert (cfg.state, cfg.stack_l, cfg.stack_r) == (1, "1", "")
        assert cfg.space == 1

    def test_pop_on_empty_stack_aborts(self):
        spec = parse_machine("states: 1\n0 _ _ -> popL 0\n")
        result = step(spec, initial_configuration(), "", "")
        assert result.kind.name == "ABNORMAL"

    def test_read_past_end_takes_end_branch_without_moving(self):
        spec = parse_machine("states: 3\n0 _ _ -> readP 1 1 2\n")
        result = step(spec, initial_configuration(), "", "")
        assert result.config.state == 2
        assert result.config.head_p == 0

    def test_read_consumes_one_symbol(self):
        spec = parse_machine("states: 3\n0 _ _ -> readX 1 2 0\n")
        result = step(spec, initial_configuration(), "", "10")
        assert result.config.state == 2
        assert result.config.head_x == 1

    def test_write_appends_to_output(self):
        spec = parse_machine("states: 1\n0 _ _ -> write 1 0\n")
        result = step(spec, initial_configuration(), "", "")
        assert result.emitted == "1"

    def test_dispatch_depends_on_both_stack_tops(self):
        text = (
            "states: 2\n"
            "0 _ _ -> pushL 0 0\n"
            "0 0 _ -> pushR 1 0\n"
            "0 0 1 -> halt\n"
        )
        spec = parse_machine(text)
        result = run(spec, "", "", 4, 100)
        assert result.verdict is Verdict.HALTED
        assert result.steps == 2


def _tail_and_cycle(spec, p, x, s):
    """(tail length, cycle length) of a run within space s, by the oracle `step`.

    None when the run halts, aborts or exceeds s instead of repeating a
    configuration.
    """

    first_seen = {}
    for i, cfg in enumerate(trace(spec, p, x, s, config_count(spec, p, x, s))):
        if cfg in first_seen:
            return first_seen[cfg], i - first_seen[cfg]
        first_seen[cfg] = i
    return None


class TestRun:
    def test_echo_machine_copies_condition_tape(self):
        result = run(echo_x_spec(), "", "101", 0, 1000)
        assert result.verdict is Verdict.HALTED
        assert result.output == "101"
        assert result.max_space == 0

    def test_halting_does_not_count_a_step(self):
        spec = MachineSpec(1, tuple([HALT] * 9))
        result = run(spec, "", "", 0, 10)
        assert result.verdict is Verdict.HALTED
        assert result.steps == 0

    def test_space_bound_reports_offending_push(self):
        result = run(push_forever_spec(), "", "", 5, 1000)
        assert result.verdict is Verdict.SPACE_EXCEEDED
        assert result.max_space == 6
        assert result.steps == 6

    def test_seesaw_hits_step_limit_within_space(self):
        result = run(seesaw_spec(), "", "", 3, 57)
        assert result.verdict is Verdict.STEP_LIMIT
        assert result.max_space == 1

    def test_matches_the_reference_step_simulation(self):
        # HALTED, SPACE_EXCEEDED and ABNORMAL runs equal the oracle's.  A
        # STEP_LIMIT run stops at the limit or at a repeated configuration;
        # its output and max space are the oracle's at that step, and the
        # oracle run to the limit also ends STEP_LIMIT with that max space.
        rng = random.Random(41)
        verdicts = set()
        cut_at_repeat = set()
        for _ in range(150):
            spec = sample_spec(rng, 3)
            p = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
            x = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
            s = rng.randint(0, 4)
            limit = rng.randint(0, 200)
            result = run(spec, p, x, s, limit)
            got = (result.verdict, result.output, result.max_space, result.steps)
            verdicts.add(result.verdict)
            if result.verdict is not Verdict.STEP_LIMIT:
                assert got == simulate(spec, p, x, s, limit), (p, x, s, limit)
                continue
            assert got == simulate(spec, p, x, s, result.steps), (p, x, s, limit)
            at_limit = simulate(spec, p, x, s, limit)
            assert (at_limit[0], at_limit[2]) == (Verdict.STEP_LIMIT, result.max_space)
            configs = list(trace(spec, p, x, s, result.steps))
            assert len(configs) == result.steps + 1
            if result.steps < limit:
                assert configs[-1] in configs[:-1], (p, x, s, limit)
            loop = _tail_and_cycle(spec, p, x, s)
            if loop is not None:
                mu, lam = loop
                assert result.steps <= 2 * max(mu + 1, lam) + lam, (p, x, s, limit, loop)
            cut_at_repeat.add(result.steps < limit)
        assert verdicts == set(Verdict)
        assert cut_at_repeat == {False, True}

    def test_a_repeat_is_seen_within_brents_bound(self):
        # Reads k bits of p, then sits on the end marker: tail k + 1, cycle 1.
        spec = parse_machine("states: 2\n0 _ _ -> readP 0 0 1\n1 _ _ -> readP 1 1 1\n")
        stops = {}
        for k in (0, 1, 2, 6, 30, 99):
            p = "1" * k
            assert _tail_and_cycle(spec, p, "", 0) == (k + 1, 1)
            result = run(spec, p, "", 0, 10**6)
            assert (result.verdict, result.output, result.max_space) == (Verdict.STEP_LIMIT, "", 0)
            assert k + 2 <= result.steps <= 2 * (k + 2) + 1
            stops[k] = result.steps
        # The configuration saved at step 127 is the first one on the cycle.
        assert stops[99] == 128

    def test_rejects_negative_bounds(self):
        spec = MachineSpec(1, tuple([HALT] * 9))
        with pytest.raises(ValueError):
            run(spec, "", "", -1, 10)
        with pytest.raises(ValueError):
            run(spec, "", "", 0, -1)

    def test_trace_starts_at_initial_configuration(self):
        steps = list(trace(echo_x_spec(), "", "1", 4, 10))
        assert steps[0] == initial_configuration()
        assert len(steps) > 1


class TestTextFormat:
    def test_unlisted_entries_default_to_halt(self):
        spec = parse_machine("states: 2\n0 _ _ -> pushL 1 1\n")
        assert spec.instruction(1, 0, 0) == HALT
        assert spec.instruction(0, 1, 0) == HALT

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_machine("# top\n\nstates: 1\n0 _ _ -> halt  # inline\n")
        assert spec.state_count == 1

    @pytest.mark.parametrize(
        "text",
        [
            "0 _ _ -> halt\n",                        # missing header
            "states: 0\n",                            # zero states
            "states: 1\nstates: 1\n",                 # duplicate header
            "states: 1\n0 _ _ -> jump 0\n",           # unknown op
            "states: 1\n0 _ _ -> pushL 2 0\n",        # bad bit
            "states: 1\n0 _ _ -> popL 1\n",           # state out of range
            "states: 1\n0 _ -> halt\n",               # malformed left side
            "states: 1\n0 _ _ -> readP 0 0\n",        # arity
            "states: 1\n0 _ _ -> readX 0 0 0 0\n",    # arity
            "states: 1\n0 _ _ -> halt 0\n",           # arity
            "states: 1\n0 _ _ -> pushL 1\n",          # arity
            "states: 1\n0 _ _ -> write 1 0 0\n",      # arity
            "states: 1\n0 _ _ -> popR\n",             # arity
            "states: 1\n0 _ _ -> popL 0 0\n",         # arity
            "states: 1\n0 2 _ -> halt\n",             # bad top symbol
            "states: 1\nq _ _ -> halt\n",             # non-decimal state
            "states: 1\n-1 _ _ -> halt\n",            # negative state
            "states: 1\n0 _ _ halt\n",                # no arrow
            "states: 1\n0 _ _ ->\n",                  # no instruction
            "states: 1\n0 _ _ -> halt\n0 _ _ -> halt\n",  # duplicate entry
        ],
    )
    def test_malformed_text_is_rejected_with_line_numbers(self, text):
        with pytest.raises(MachineFormatError) as excinfo:
            parse_machine(text)
        assert excinfo.value.line is not None

    @pytest.mark.parametrize("count", ["4097", "100000", "1" + "0" * 40])
    def test_state_count_above_the_bound_is_refused_on_its_line(self, count):
        with pytest.raises(MachineFormatError, match="state count") as excinfo:
            parse_machine(f"# header\nstates: {count}\n")
        assert excinfo.value.line == 2
        assert parse_machine("states: 4096\n").state_count == 4096

    @pytest.mark.parametrize("text", ["", "\n# only a comment\n"])
    def test_empty_description_is_refused_without_a_line(self, text):
        with pytest.raises(MachineFormatError, match="^empty machine description$") as excinfo:
            parse_machine(text)
        assert excinfo.value.line is None

    def test_error_carries_line_number(self):
        try:
            parse_machine("states: 1\n0 _ _ -> popL 9\n")
        except MachineFormatError as exc:
            assert exc.line == 2
        else:
            raise AssertionError("expected a format error")


class TestBitFormat:
    @pytest.mark.parametrize("n,length", [(1, 38), (2, 111), (3, 247), (4, 329)])
    def test_serialized_lengths(self, n, length):
        assert serialized_length(n) == length
        spec = MachineSpec(n, tuple([HALT] * (9 * n)))
        assert len(serialize_machine(spec)) == length

    @pytest.mark.parametrize("n,wd,rw", [(1, 0, 4), (2, 1, 6), (3, 2, 9), (4, 2, 9)])
    def test_field_widths(self, n, wd, rw):
        assert state_width(n) == wd
        assert record_width(n) == rw

    def test_round_trip_on_sampled_machines(self):
        rng = random.Random(5)
        for _ in range(200):
            bits = sample_machine_bits(rng, rng.randint(1, 4))
            spec = parse_bits(bits)
            assert serialize_machine(spec) == bits

    def test_accepts_a_string_iff_every_record_is_valid(self):
        # Strings of serialized length: a valid serialization with 0-2
        # records replaced by uniform random bits.  Each gives the machine,
        # or the error text, that the field-by-field decoder gives.
        rng = random.Random(17)
        outcomes = set()
        errors = set()
        for _ in range(600):
            n = rng.randint(1, 4)
            rw = record_width(n)
            bits = sample_machine_bits(rng, n)
            records = [bits[n + 1 + i * rw : n + 1 + (i + 1) * rw] for i in range(9 * n)]
            for _ in range(rng.randint(0, 2)):
                records[rng.randrange(9 * n)] = format(rng.getrandbits(rw), f"0{rw}b")
            bits = "1" * n + "0" + "".join(records)
            expected = all(_record_valid(record, n) for record in records)
            got = outcome(parse_bits, bits)
            assert got == outcome(parse_bits_by_fields, bits), (n, bits)
            accepted = isinstance(got, MachineSpec)
            if accepted:
                assert serialize_machine(got) == bits
            else:
                errors.add(got[2].split()[0])
            assert accepted == expected, (n, bits)
            outcomes.add(accepted)
        assert outcomes == {False, True}
        assert errors == {"state", "nonzero"}

    def test_round_trip_from_spec_side(self):
        spec = echo_x_spec()
        assert parse_bits(serialize_machine(spec)) == spec

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: "",                       # empty
            lambda b: "0" + b,                  # no unary block
            lambda b: "1" * len(b),             # unterminated unary
            lambda b: b + "0",                  # trailing garbage
            lambda b: b[:-1],                   # truncated
            lambda b: b[: len(b) - 1] + "1" if b.endswith("0") else b[:-1] + "0",
        ],
    )
    def test_malformed_bits_are_rejected(self, mutate):
        good = serialize_machine(echo_x_spec())
        bad = mutate(good)
        assert outcome(parse_bits, bad) == outcome(parse_bits_by_fields, bad)
        try:
            spec = parse_bits(bad)
        except BitsParseError:
            return
        # The only acceptable escape is a mutation that produced another
        # valid machine; it must then re-serialize to itself, not to `good`.
        assert serialize_machine(spec) == bad

    def test_out_of_range_state_operand_rejected(self):
        # 3 states: craft a record with a state operand of 3 (= n) in a popL.
        spec = parse_machine("states: 3\n0 _ _ -> popL 2\n")
        bits = serialize_machine(spec)
        rw = record_width(3)
        # Record index for (state 0, both stacks empty): tops are 0/1/empty.
        start = 4 + 8 * rw
        record = bits[start : start + rw]
        assert record[:3] == "011" and record[3:5] == "10"
        bad = bits[:start] + record[:3] + "11" + record[5:] + bits[start + rw :]
        with pytest.raises(BitsParseError):
            parse_bits(bad)


class TestCanonicalize:
    def test_adds_five_states_and_unique_final_configuration(self):
        spec = echo_x_spec()
        canon = canonicalize(spec)
        assert canon.state_count == spec.state_count + 5
        assert final_configuration(canon, "", "")[0] == spec.state_count + 4
        assert {row[0] for row in canon.instructions[-9:]} == {Op.HALT}

    def test_preserves_output_space_and_verdict(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            spec = sample_spec(rng, 3)
            canon = canonicalize(spec)
            for p in all_bits(2):
                for x in all_bits(2)[:4]:
                    for s in (0, 2, 5):
                        base = run(spec, p, x, s, 3000)
                        lifted = run(canon, p, x, s, 20000)
                        if base.verdict is Verdict.STEP_LIMIT:
                            continue
                        checked += 1
                        assert lifted.verdict is base.verdict, (p, x, s)
                        if base.verdict is Verdict.HALTED:
                            assert lifted.output == base.output
                            assert lifted.max_space == base.max_space
        assert checked > 500

    def test_genuine_halt_lands_in_final_configuration(self):
        canon = canonicalize(echo_x_spec())
        p, x = "01", "110"
        steps = list(trace(canon, p, x, 6, 10000))
        final = steps[-1]
        assert (final.stack_l, final.stack_r) == ("", "")
        packed = (final.state, EMPTY_STACK, EMPTY_STACK, final.head_p, final.head_x)
        assert packed == final_configuration(canon, p, x)
        assert final.head_p == len(p) and final.head_x == len(x)

    def test_canonical_machine_drains_stacks_and_tapes(self):
        text = "states: 2\n0 _ _ -> pushL 1 1\n1 1 _ -> halt\n"
        canon = canonicalize(parse_machine(text))
        result = run(canon, "1011", "01", 8, 10000)
        assert result.verdict is Verdict.HALTED


class TestProperties:
    @given(p=BITS, x=BITS)
    @settings(max_examples=60, deadline=None)
    def test_echo_output_equals_condition(self, p, x):
        result = run(echo_x_spec(), p, x, 0, 10000)
        assert result.verdict is Verdict.HALTED
        assert result.output == x

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_more_space_never_flips_a_halting_verdict(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        spec = sample_spec(rng, 3)
        p = data.draw(BITS)
        x = data.draw(BITS)
        s = data.draw(st.integers(0, 4))
        limit = 5000
        first = run(spec, p, x, s, limit)
        second = run(spec, p, x, s + 1, limit)
        if first.verdict is Verdict.HALTED:
            assert second.verdict is Verdict.HALTED
            assert second.output == first.output
