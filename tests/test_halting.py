"""Halting-within-space deciders: unit checks and cross-validation."""

import random
import tracemalloc
from itertools import product

import pytest

from conftest import (
    all_bits,
    canonical_key,
    copy_p_spec,
    echo_x_spec,
    oracle_backward,
    predecessors,
    push_forever_spec,
    reachable_entries,
    sample_spec,
    seesaw_spec,
    simulate,
    table_entry,
    tops,
)
from kslab import halting
from kslab.halting import (
    _inverse_index,
    config_count,
    decide_backward,
    decide_counter,
    decide_forward,
    stack_pair_count,
)
from kslab.machine import (
    TOP_CHARS,
    _FIELDS,
    _OP_NAMES,
    _OPERANDS,
    Configuration,
    MachineSpec,
    Op,
    StepKind,
    Verdict,
    canonicalize,
    initial_configuration,
    parse_machine,
    run,
    step,
)

WRITE_LOOP = parse_machine("states: 1\n0 _ _ -> write 0 0\n")
# WRITE_LOOP beside pushes of 0 and 1 on both stacks that no run reaches
# (its stacks stay empty), so decide_counter's N is |Q| * stack_pair_count(s).
WRITE_LOOP_BESIDE_PUSHES = parse_machine(
    "states: 1\n0 _ _ -> write 0 0\n0 0 0 -> pushL 0 0\n0 0 1 -> pushL 1 0\n"
    "0 1 0 -> pushR 0 0\n0 1 1 -> pushR 1 0\n"
)
# Pushes 1 on L and on R, pops both and starts over, in space 2.  For all
# the prune knows, its pops may leave a 0 on top, so it keeps the halts at
# tops (0, 1) and (1, 0), which no run executes; the backward search walks
# their tree.  Of the 1-state tables that a hill climb tried, its largest
# admitted decide_backward call (s = 12) took longest.
LOOP_WITH_REACHABLE_HALTS = parse_machine(
    "states: 1\n0 _ _ -> pushL 1 0\n0 1 _ -> pushR 1 0\n0 1 1 -> popL 0\n"
    "0 _ 1 -> popR 0\n0 _ 0 -> pushL 1 0\n"
)
IMMEDIATE_HALT = MachineSpec(1, ((Op.HALT, 0, 0, 0, 0),) * 9)
# Reads p forever: its head moves once per bit, then sits at the end marker.
READ_P_FOREVER = parse_machine("states: 1\n0 _ _ -> readP 0 0 0\n")
# Reads p to the end marker, then writes forever in state 1.
READ_P_THEN_WRITE_LOOP = parse_machine("states: 2\n0 _ _ -> readP 0 0 1\n1 _ _ -> write 0 1\n")
# Reads p, pushing a 0 on R per bit, then counts R up in binary (low bit on
# top) from 0^|p|, carrying 1s over to L and back, until the count
# overflows and the machine halts: 2^|p| counts in one phase with no head
# move, within space |p|.
BINARY_COUNTER = parse_machine(
    "states: 7\n"
    + "".join(
        f"{q} {a} {b} -> {ins}\n"
        for q, ins in ((0, "readP 1 1 2"), (1, "pushR 0 0"), (3, "pushL 1 2"), (4, "pushR 1 5"), (6, "pushR 0 5"))
        for a in "01_"
        for b in "01_"
    )
    + "".join(f"2 {a} 1 -> popR 3\n2 {a} 0 -> popR 4\n" for a in "01_")
    + "".join(f"5 1 {b} -> popL 6\n5 _ {b} -> write 0 2\n" for b in "01_")
)


def phase_bound(spec, s):
    """decide_counter's N: |Q| * stack_pair_count(s, a, b), where a (b) is the
    number of distinct bits that spec's PUSH_L (PUSH_R) instructions push."""

    a = len({bit for op, bit, *_ in spec.instructions if op == Op.PUSH_L})
    b = len({bit for op, bit, *_ in spec.instructions if op == Op.PUSH_R})
    return spec.state_count * stack_pair_count(s, a, b)


class TestCounts:
    @pytest.mark.parametrize("s,count", [(0, 1), (1, 5), (2, 17), (3, 49)])
    def test_stack_pair_count_closed_form(self, s, count):
        assert stack_pair_count(s) == count

    def test_stack_pair_count_matches_enumeration(self):
        # Every pair of words over a left alphabet of 0, 1 or 2 bits and a
        # right one of 0, 1 or 2 bits; the empty word is over every alphabet.
        for s in range(6):
            for left in range(3):
                for right in range(3):
                    pairs = sum(
                        1
                        for l_len in range(s + 1)
                        for r_len in range(s + 1 - l_len)
                        for _ in product(range(left), repeat=l_len)
                        for _ in product(range(right), repeat=r_len)
                    )
                    assert stack_pair_count(s, left, right) == pairs, (s, left, right)
            assert stack_pair_count(s) == stack_pair_count(s, 2, 2)

    def test_config_count_examples(self):
        one_state = IMMEDIATE_HALT
        two_state = parse_machine("states: 2\n0 _ _ -> pushL 1 1\n")
        assert config_count(one_state, "", "", 0) == 1
        assert config_count(one_state, "", "", 1) == 5
        assert config_count(two_state, "1", "", 1) == 20

    def test_config_count_counts_exactly_the_bounded_configurations(self):
        spec = parse_machine("states: 2\n0 _ _ -> pushL 1 1\n")
        p, x, s = "0", "10", 2
        total = 0
        for state in range(spec.state_count):
            for l_len in range(s + 1):
                for r_len in range(s + 1 - l_len):
                    total += (
                        2 ** (l_len + r_len) * (len(p) + 1) * (len(x) + 1)
                    )
        assert config_count(spec, p, x, s) == total


def random_bits(rng, max_len):
    return "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))


class TestPredecessors:
    def test_initial_configuration_of_push_only_machine_has_no_predecessors(self):
        canon, buckets, _ = _inverse_index(push_forever_spec())
        cfg = Configuration(0, "", "", 0, 0)
        assert cfg not in predecessors(canon, "", "", 3)
        assert buckets[table_entry(cfg)] == ()

    def test_push_inverts_to_stack_minus_top(self):
        canon, buckets, _ = _inverse_index(parse_machine("states: 2\n0 _ _ -> pushL 1 1\n"))
        cfg = Configuration(1, "1", "", 0, 0)
        assert Configuration(0, "", "", 0, 0) in predecessors(canon, "", "", 2)[cfg]
        # Undoing the push from state 0 must leave an empty L top.
        assert (int(Op.PUSH_L), 0, 2) in buckets[table_entry(cfg)]

    def test_matches_brute_force_inverse_of_step(self):
        # The instruction each predecessor executes is inverted in its
        # target's bucket, at the index `positions` gives it, when a run
        # from the start can execute it, and the predecessors' indices
        # ascend in canonical order.  A predecessor that executes an entry
        # no run reaches has no key.
        rng = random.Random(71)
        checked = unreachable = 0
        for _ in range(125):
            spec, buckets, positions = _inverse_index(sample_spec(rng, 2))
            p, x, s = random_bits(rng, 2), random_bits(rng, 2), rng.randint(0, 3)
            reachable = reachable_entries(spec)
            for cfg, sources in predecessors(spec, p, x, s).items():
                target = table_entry(cfg)
                found = []
                for source in sources:
                    q, op, _, a, b, branch = canonical_key(spec, p, x, source)
                    key = ((q * 3 + a) * 3 + b) * 3 + branch
                    if table_entry(source) not in reachable:
                        assert key not in positions[target], (cfg, source, p, x, s)
                        unreachable += 1
                        continue
                    arg = {Op.PUSH_L: a, Op.PUSH_R: b, Op.POP_L: a, Op.POP_R: b}.get(Op(op), branch)
                    i = positions[target][key]
                    assert buckets[target][i] == (op, q, arg), (cfg, source, p, x, s)
                    found.append(i)
                assert found == sorted(set(found)), (cfg, p, x, s)
                checked += len(found)
        assert checked > 1000 and unreachable > 1000


def apply_recipe(recipe, cfg, p, x, s):
    """The child a bucket recipe yields from `cfg` within space s, or None."""

    op, q, arg = Op(recipe[0]), recipe[1], recipe[2]
    _, left, right, hp, hx = cfg
    if op in (Op.POP_L, Op.POP_R):
        if cfg.space >= s:
            return None
        if op is Op.POP_L:
            left += str(arg)
        else:
            right += str(arg)
    elif op in (Op.PUSH_L, Op.PUSH_R):
        stack = (left if op is Op.PUSH_L else right)[:-1]
        if (int(stack[-1]) if stack else 2) != arg:
            return None
        if op is Op.PUSH_L:
            left = stack
        else:
            right = stack
    elif op in (Op.READ_P, Op.READ_X):
        tape, head = (p, hp) if op is Op.READ_P else (x, hx)
        if arg == 2:
            if head != len(tape):
                return None
        elif head == 0 or tape[head - 1] != str(arg):
            return None
        else:
            head -= 1
        if op is Op.READ_P:
            hp = head
        else:
            hx = head
    return Configuration(q, left, right, hp, hx)


class TestRelocation:
    def test_up_returns_the_index_the_enumerator_pairs_with_each_child(self):
        # The children of a parent are the configurations its bucket's
        # recipes yield, in bucket order.  From each child, the up move is
        # one step of the reference simulation back to the parent, then the
        # lookup in `positions` of the child's entry and read branch; it
        # must return the index of the recipe that yielded the child.
        rng = random.Random(4141)
        checked = end_branches = shared_targets = 0
        for _ in range(200):
            spec, buckets, positions = _inverse_index(sample_spec(rng, 3))
            p, x, s = random_bits(rng, 3), random_bits(rng, 2), rng.randint(0, 4)
            # Only entries that a run from the start can execute have keys.
            reachable = reachable_entries(spec)
            assert all(key // 3 in reachable for bucket in positions for key in bucket), spec
            for _ in range(150):
                l_len = rng.randint(0, s)
                parent = Configuration(
                    rng.randrange(spec.state_count),
                    random_bits(rng, l_len),
                    random_bits(rng, s - l_len),
                    rng.randint(0, len(p)),
                    rng.randint(0, len(x)),
                )
                for idx, recipe in enumerate(buckets[table_entry(parent)]):
                    child = apply_recipe(recipe, parent, p, x, s)
                    if child is None:
                        continue
                    kind, successor, _ = step(spec, child, p, x)
                    assert (kind, successor) == (StepKind.NEXT, parent), (child, p, x, s)
                    op, _, t0, t1, _ = spec.instruction(child.state, *tops(child))
                    branch = 0
                    if op in (Op.READ_P, Op.READ_X):
                        tape, head = (p, child.head_p) if op == Op.READ_P else (x, child.head_x)
                        branch = int(tape[head]) if head < len(tape) else 2
                        end_branches += branch == 2
                        shared_targets += branch < 2 and t0 == t1
                    entry = table_entry(child)
                    assert positions[table_entry(parent)][entry * 3 + branch] == idx, (child, p, x, s)
                    checked += 1
        assert checked > 2000
        assert end_branches > 100 and shared_targets > 100


class TestReachableEntries:
    def test_every_entry_a_run_executes_is_reachable(self):
        # The backward search inverts only these entries, so it finds the
        # start only if every configuration of a run from the start executes
        # one of them.  Each run of a canonical machine, on every pair of
        # tapes of length <= 2 at s = 4 (a run within a smaller s is a
        # prefix of it), is followed with `step` until it halts, aborts,
        # passes s or repeats a configuration.
        rng = random.Random(2323)
        executed = pops_leaving_a_bit = 0
        for _ in range(300):
            spec = canonicalize(sample_spec(rng, 3))
            reachable = halting._reachable_entries(halting._inversions(spec.instructions))
            for p in all_bits(2):
                for x in all_bits(2):
                    cfg, seen = initial_configuration(), set()
                    while cfg.space <= 4 and cfg not in seen:
                        seen.add(cfg)
                        assert table_entry(cfg) in reachable, (spec, p, x, cfg)
                        executed += 1
                        op = spec.instruction(cfg.state, *tops(cfg))[0]
                        pops_leaving_a_bit += (op == Op.POP_L and len(cfg.stack_l) > 1) or (
                            op == Op.POP_R and len(cfg.stack_r) > 1
                        )
                        kind, cfg, _ = step(spec, cfg, p, x)
                        if kind is not StepKind.NEXT:
                            break
        assert executed > 50_000 and pops_leaving_a_bit > 100

    def test_equals_the_stepped_oracle(self):
        # The worklist over `_inversions` reaches exactly the entries that
        # `conftest.reachable_entries` reaches by stepping stand-ins with
        # `step`, neither more nor fewer.
        rng = random.Random(2525)
        popping = 0
        for _ in range(300):
            canon = canonicalize(sample_spec(rng, 3))
            reachable = halting._reachable_entries(halting._inversions(canon.instructions))
            assert reachable == reachable_entries(canon), canon
            # Reachable pops of a bit, which may leave any top below it.
            for entry in reachable:
                op, a, b = canon.instructions[entry][0], entry // 3 % 3, entry % 3
                popping += (op == 3 and a < 2) or (op == 4 and b < 2)
        assert popping > 30

    def test_keeps_halts_that_a_pop_may_uncover(self):
        # LOOP_WITH_REACHABLE_HALTS pops only 1s, but the set does not
        # track what lies below a top: it keeps the halts at entries 1 and
        # 3, tops (0, 1) and (1, 0).
        reachable = halting._reachable_entries(halting._inversions(LOOP_WITH_REACHABLE_HALTS.instructions))
        assert sorted(reachable) == [1, 3, 4, 5, 6, 7, 8]
        assert not decide_forward(LOOP_WITH_REACHABLE_HALTS, "", "", 12).terminates_within_s


class TestPackedTable:
    def test_rows_are_exact_ints(self):
        # `run` and every decider read the one table a machine carries, and
        # every builder writes its fields as exact ints, not `Op` members or
        # bools, which would take `_execute` off CPython's fast int
        # comparisons: `parse_bits`, `parse_machine` (given the sampled
        # machine as text) and `canonicalize`.
        names = {op: name for name, op in _OP_NAMES.items()}
        rng = random.Random(2626)
        for _ in range(150):
            spec = sample_spec(rng, 3)
            text = f"states: {spec.state_count}\n" + "".join(
                f"{i // 9} {TOP_CHARS[i // 3 % 3]} {TOP_CHARS[i % 3]} -> {names[row[0]]} "
                + " ".join(str(row[1 + _FIELDS.index(field)]) for field in _OPERANDS[row[0]])
                + "\n"
                for i, row in enumerate(spec.instructions)
            )
            parsed = parse_machine(text)
            canon = _inverse_index(spec)[0]
            assert parsed == spec and canon == canonicalize(spec)
            p, x, s = random_bits(rng, 2), random_bits(rng, 2), rng.randint(0, 3)
            run(spec, p, x, s, 200)
            for decide in (decide_forward, decide_counter, decide_backward):
                decide(spec, p, x, s)
            for machine in (spec, parsed, canon):
                assert all(type(field) is int for row in machine.instructions for field in row)
                # Equality and hash are the rows', whatever the machine has
                # cached: a spec rebuilt from them, with exact ints or with
                # `Op` members, is the same machine.
                for rows in (
                    tuple(tuple(row) for row in machine.instructions),
                    tuple((Op(op), *operands) for op, *operands in machine.instructions),
                ):
                    fresh = MachineSpec(machine.state_count, rows)
                    assert fresh == machine and hash(fresh) == hash(machine)


class TestBackward:
    def test_echo_machine_halts_with_zero_space(self):
        assert decide_backward(echo_x_spec(), "1", "", 0).terminates_within_s

    def test_push_forever_never_halts(self):
        for s in range(5):
            assert not decide_backward(push_forever_spec(), "", "", s).terminates_within_s

    def test_write_loop_never_halts(self):
        assert not decide_backward(WRITE_LOOP, "", "", 4).terminates_within_s

    def test_seesaw_never_halts_despite_bounded_space(self):
        assert not decide_backward(seesaw_spec(), "", "", 3).terminates_within_s

    # (terminates_within_s, configurations_visited, peak_live_configurations)
    # at s = 0..4.  A search that finds the start stops there, so its count
    # depends on the order in which children are visited: these pins fix the
    # canonical child order.  No run of push_forever or write_loop can reach
    # a halt entry, so their searches end at the root.  Sampled machines are
    # sample_spec(Random(seed), 3) on p = "10", x = "1".
    PINNED_STATS = {
        "echo": [(True, 9, 3)] * 5,
        "push_forever": [(False, 1, 1)] * 5,
        "write_loop": [(False, 1, 1)] * 5,
        "seesaw": [(False, 5, 3), (False, 9, 3), (False, 19, 3), (False, 39, 3), (False, 79, 3)],
        "loop_with_reachable_halts": [
            (False, 4, 3), (False, 8, 3), (False, 24, 3), (False, 72, 3), (False, 199, 3)
        ],
        45: [(False, 15, 3), (False, 33, 3), (False, 93, 3), (False, 261, 3), (True, 259, 3)],
        225: [(True, 28, 3)] * 5,
        242: [(False, 21, 3), (True, 35, 3), (True, 60, 3), (True, 110, 3), (True, 210, 3)],
    }

    @pytest.mark.parametrize("machine", list(PINNED_STATS))
    def test_probe_stats_are_pinned(self, machine):
        named = {
            "echo": (echo_x_spec(), "1", ""),
            "push_forever": (push_forever_spec(), "", ""),
            "write_loop": (WRITE_LOOP, "", ""),
            "seesaw": (seesaw_spec(), "", ""),
            "loop_with_reachable_halts": (LOOP_WITH_REACHABLE_HALTS, "", ""),
        }
        if machine in named:
            spec, p, x = named[machine]
        else:
            spec, p, x = sample_spec(random.Random(machine), 3), "10", "1"
        got = []
        for s in range(5):
            verdict = decide_backward(spec, p, x, s)
            stats = verdict.probe_stats
            got.append(
                (verdict.terminates_within_s, stats.configurations_visited, stats.peak_live_configurations)
            )
        assert got == self.PINNED_STATS[machine]

    def test_matches_the_oracle_tour(self):
        rng = random.Random(4141)
        verdicts = []
        end_reads = shared_targets = 0
        for i in range(200):
            # Half the machines halt within s = 4: only a search that finds
            # the start has a count that depends on the child order.
            while True:
                spec = sample_spec(rng, 3)
                p, x = random_bits(rng, 3), random_bits(rng, 2)
                if decide_forward(spec, p, x, 4).terminates_within_s == (i % 2 == 0):
                    break
            for s in range(5):
                tour = []
                expected = oracle_backward(spec, p, x, s, tour)
                verdict = decide_backward(spec, p, x, s)
                stats = verdict.probe_stats
                got = (verdict.terminates_within_s, stats.configurations_visited, stats.peak_live_configurations)
                assert got == expected, (spec, p, x, s)
                verdicts.append(got[0])
                # Reads of the sampled machine that the search inverted (the
                # canonical chain's own reads are in every tree).
                for cfg in tour:
                    if cfg.state < spec.state_count:
                        op, _, t0, t1, _ = spec.instruction(cfg.state, *tops(cfg))
                        if op in (Op.READ_P, Op.READ_X):
                            at_end = cfg.head_p == len(p) if op == Op.READ_P else cfg.head_x == len(x)
                            end_reads += at_end
                            shared_targets += not at_end and t0 == t1
        assert len(verdicts) == 1000
        assert min(verdicts.count(True), verdicts.count(False)) > 200
        assert end_reads > 100 and shared_targets > 100

    def test_keeps_at_most_three_configurations_alive(self):
        rng = random.Random(9)
        for _ in range(30):
            spec = sample_spec(rng, 3)
            verdict = decide_backward(spec, "10", "1", 4)
            assert verdict.probe_stats.peak_live_configurations <= 3
            assert verdict.probe_stats.configurations_visited >= 1


class TestForward:
    def test_immediate_halt_visits_one_configuration(self):
        verdict = decide_forward(IMMEDIATE_HALT, "", "", 0)
        assert verdict.terminates_within_s
        assert verdict.probe_stats.configurations_visited == 1

    def test_write_loop_is_detected_within_state_count_steps(self):
        verdict = decide_forward(WRITE_LOOP, "", "", 0)
        assert not verdict.terminates_within_s
        assert verdict.probe_stats.configurations_visited <= WRITE_LOOP.state_count

    def test_abnormal_pop_counts_as_nontermination(self):
        spec = parse_machine("states: 1\n0 _ _ -> popL 0\n")
        assert not decide_forward(spec, "", "", 3).terminates_within_s


class TestCounter:
    def test_immediate_halt(self):
        verdict = decide_counter(IMMEDIATE_HALT, "", "", 0)
        assert verdict.terminates_within_s
        assert verdict.probe_stats.configurations_visited == 1

    def test_write_loop_expires_the_counter(self):
        assert not decide_counter(WRITE_LOOP, "", "", 2).terminates_within_s

    def test_space_overflow_is_nontermination(self):
        assert not decide_counter(push_forever_spec(), "", "", 3).terminates_within_s

    def test_write_loop_keeps_no_output(self):
        # 98,305 steps: one kept output bit per step would peak near 0.8 MB.
        # The unreachable pushes keep N at stack_pair_count(12), config_count.
        spec = WRITE_LOOP_BESIDE_PUSHES
        tracemalloc.start()
        try:
            verdict = decide_counter(spec, "", "", 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not verdict.terminates_within_s
        assert verdict.probe_stats.configurations_visited == config_count(spec, "", "", 12) == 98_305
        assert peak < 64 * 1024

    def test_a_long_halting_phase_runs_to_its_halt(self):
        # BINARY_COUNTER pushes only 1s on L but both bits on R.  Its last
        # phase, after the 2|p| steps of reads and pushes, outlasts a bound
        # that counted R's words over one bit, and the counter must not cut it.
        spec, p = BINARY_COUNTER, "0" * 6
        verdict, _, max_space, steps = simulate(spec, p, "", 6, config_count(spec, p, "", 6))
        assert (verdict, max_space) == (Verdict.HALTED, 6)
        assert spec.state_count * stack_pair_count(6, 1, 1) < steps - 2 * len(p) < phase_bound(spec, 6)
        assert decide_counter(spec, p, "", 6).terminates_within_s
        assert not decide_counter(spec, p, "", 5).terminates_within_s

    @pytest.mark.parametrize("p", ["", "11"])
    def test_reading_the_end_marker_forever_is_stopped(self, p):
        # The head never moves after len(p) reads, so one phase of N steps
        # follows them; the table pushes nothing, so N = |Q| = 1.
        n = phase_bound(READ_P_FOREVER, 2)
        verdict = decide_counter(READ_P_FOREVER, p, "", 2)
        assert not verdict.terminates_within_s
        assert verdict.probe_stats.configurations_visited == len(p) + n == len(p) + 1

    def test_an_end_marker_read_does_not_re_arm(self):
        # Three head moves (steps 1-3) re-arm the limit to step 3 + N, with
        # N = |Q| = 2 for a table that pushes nothing; the end-marker read at
        # step 4 moves no head, so the write at step 5 ends the run there.
        n = phase_bound(READ_P_THEN_WRITE_LOOP, 2)
        verdict = decide_counter(READ_P_THEN_WRITE_LOOP, "101", "", 2)
        assert not verdict.terminates_within_s
        assert verdict.probe_stats.configurations_visited == 3 + n == 5

    def test_agrees_with_the_reference_within_the_per_phase_bound(self):
        # Sampled cases with |p|, |x| <= 4.  A run stops within
        # (|p| + |x| + 1) * N steps, N = phase_bound(spec, s); the
        # reference runs to config_count.  Halting runs longer than N make
        # the re-arm necessary; sampled machines seldom have them, so a
        # fifth of the cases copy a tape to the output at s = 0: 2|tape| + 1
        # steps against N = 4.
        rng = random.Random(2424)
        readers = (echo_x_spec(), copy_p_spec())
        halts_after_n = 0
        for _ in range(400):
            if rng.random() < 0.2:
                spec, s = rng.choice(readers), 0
            else:
                spec, s = sample_spec(rng, 3), rng.randint(0, 3)
            p, x = random_bits(rng, 4), random_bits(rng, 4)
            n = phase_bound(spec, s)
            verdict, _, _, steps = simulate(spec, p, x, s, config_count(spec, p, x, s))
            got = decide_counter(spec, p, x, s)
            assert got.terminates_within_s == (verdict is Verdict.HALTED), (spec, p, x, s)
            assert got.probe_stats.configurations_visited <= (len(p) + len(x) + 1) * n, (spec, p, x, s)
            halts_after_n += verdict is Verdict.HALTED and steps > n
        assert halts_after_n > 30


class TestBudget:
    @pytest.mark.parametrize("decider", [decide_backward, decide_forward, decide_counter])
    def test_refused_one_configuration_past_the_budget(self, decider, monkeypatch):
        # decide_backward explores the canonical machine, so its count is that one's.
        spec = canonicalize(WRITE_LOOP) if decider is decide_backward else WRITE_LOOP
        count = config_count(spec, "1", "", 3)
        monkeypatch.setattr(halting, "_MAX_CONFIGS", count)
        assert not decider(WRITE_LOOP, "1", "", 3).terminates_within_s
        monkeypatch.setattr(halting, "_MAX_CONFIGS", count - 1)
        with pytest.raises(ValueError, match=f"{count} configurations within space 3"):
            decider(WRITE_LOOP, "1", "", 3)


class TestCrossChecks:
    def test_three_deciders_agree_on_sampled_machines(self):
        rng = random.Random(20260815)
        for _ in range(12):
            spec = sample_spec(rng, 3)
            for p in all_bits(2):
                for x in all_bits(1):
                    for s in range(5):
                        b = decide_backward(spec, p, x, s)
                        f = decide_forward(spec, p, x, s)
                        c = decide_counter(spec, p, x, s)
                        assert (
                            b.terminates_within_s
                            == f.terminates_within_s
                            == c.terminates_within_s
                        ), (p, x, s)
                        assert b.probe_stats.peak_live_configurations <= 3

    def test_forward_and_counter_agree_with_the_reference_step_simulation(self):
        rng = random.Random(5150)
        outcomes = set()
        for _ in range(60):
            spec = sample_spec(rng, 3)
            p = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            x = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            s = rng.randint(0, 3)
            verdict = simulate(spec, p, x, s, config_count(spec, p, x, s))[0]
            halts = verdict is Verdict.HALTED
            assert decide_forward(spec, p, x, s).terminates_within_s == halts, (p, x, s)
            assert decide_counter(spec, p, x, s).terminates_within_s == halts, (p, x, s)
            outcomes.add(verdict)
        assert outcomes == set(Verdict)

    def test_termination_is_monotone_in_space(self):
        rng = random.Random(77)
        for _ in range(25):
            spec = sample_spec(rng, 3)
            previous = False
            for s in range(5):
                now = decide_forward(spec, "1", "0", s).terminates_within_s
                if previous:
                    assert now
                previous = now

    def test_runs_repeat_a_configuration_before_the_counter_expires(self):
        # Any run staying within space s must hit a terminal event or a
        # repeated configuration within config_count steps.
        rng = random.Random(13)
        for _ in range(40):
            spec = sample_spec(rng, 2)
            p, x, s = "1", "0", 3
            limit = config_count(spec, p, x, s)
            cfg = Configuration(0, "", "", 0, 0)
            seen = {cfg}
            outcome = None
            for _step_no in range(limit + 1):
                result = step(spec, cfg, p, x)
                if result.kind is not StepKind.NEXT:
                    outcome = "terminal"
                    break
                cfg = result.config
                if cfg.space > s:
                    outcome = "space"
                    break
                if cfg in seen:
                    outcome = "repeat"
                    break
                seen.add(cfg)
            assert outcome is not None, "pigeonhole bound violated"

    def test_runs_repeat_a_configuration_within_n_steps_of_a_head_move(self):
        # decide_counter's per-phase bound: heads never move back, and a
        # stack holds only bits that the table pushes on it, so a run within
        # space s ends, leaves the bound or repeats a configuration within
        # N = phase_bound(spec, s) steps of its last head move.
        rng = random.Random(1980)
        repeats_after_a_move = 0
        for _ in range(300):
            spec = sample_spec(rng, 3)
            p, x, s = random_bits(rng, 3), random_bits(rng, 3), rng.randint(0, 3)
            n = phase_bound(spec, s)
            cfg = initial_configuration()
            seen = {cfg}
            since_move = moves = 0
            while True:
                result = step(spec, cfg, p, x)
                if result.kind is not StepKind.NEXT:
                    break
                nxt = result.config
                since_move += 1
                if nxt.space > s:
                    break
                if (nxt.head_p, nxt.head_x) != (cfg.head_p, cfg.head_x):
                    # Configurations of earlier phases hold other heads.
                    seen, since_move = set(), 0
                    moves += 1
                elif nxt in seen:
                    repeats_after_a_move += moves > 0
                    break
                assert since_move < n, ("per-phase pigeonhole bound violated", spec, p, x, s)
                seen.add(nxt)
                cfg = nxt
        assert repeats_after_a_move > 20

    def test_counter_agrees_with_forward_where_space_binds(self):
        # Space-binding cases: the run halts within s but not within s - 1,
        # so s is the least space at which the counter's N must not cut it
        # short.  `run` finds each halting run's space m >= 1 on tapes of
        # length <= 3 and <= 2; the oracle confirms it, and both deciders
        # must say halts at m and does not at m - 1.
        rng = random.Random(27)
        binding = 0
        for _ in range(300):
            spec = sample_spec(rng, 4)
            for p in all_bits(3):
                for x in all_bits(2):
                    result = run(spec, p, x, 6, config_count(spec, p, x, 6))
                    if result.verdict is not Verdict.HALTED or result.max_space == 0:
                        continue
                    m = result.max_space
                    verdict, _, max_space, _ = simulate(spec, p, x, m, result.steps + 1)
                    assert (verdict, max_space) == (Verdict.HALTED, m), (spec, p, x)
                    for s, halts in ((m, True), (m - 1, False)):
                        counter = decide_counter(spec, p, x, s).terminates_within_s
                        assert counter == decide_forward(spec, p, x, s).terminates_within_s == halts, (spec, p, x, s)
                    binding += 1
        assert binding == 1260

    def test_backward_agrees_on_canonicalized_input_too(self):
        spec = canonicalize(echo_x_spec())
        assert decide_backward(spec, "", "11", 1).terminates_within_s
        assert decide_forward(spec, "", "11", 1).terminates_within_s
