"""Halting-within-space deciders: unit checks and cross-validation."""

import random
import tracemalloc
from itertools import product

import pytest

from conftest import (
    all_bits,
    echo_x_spec,
    predecessors,
    push_forever_spec,
    sample_spec,
    seesaw_spec,
    simulate,
)
from kslab import halting
from kslab.halting import (
    _tree_moves,
    config_count,
    decide_backward,
    decide_counter,
    decide_forward,
    stack_pair_count,
)
from kslab.machine import (
    Configuration,
    MachineSpec,
    Op,
    StepKind,
    Verdict,
    canonicalize,
    final_configuration,
    halt,
    pack_config,
    parse_machine,
    step,
)

WRITE_LOOP = parse_machine("states: 1\n0 _ _ -> write 0 0\n")
IMMEDIATE_HALT = MachineSpec(1, tuple([halt()] * 9))


class TestCounts:
    @pytest.mark.parametrize("s,count", [(0, 1), (1, 5), (2, 17), (3, 49)])
    def test_stack_pair_count_closed_form(self, s, count):
        assert stack_pair_count(s) == count

    def test_stack_pair_count_matches_enumeration(self):
        for s in range(6):
            pairs = sum(
                1
                for l_len in range(s + 1)
                for r_len in range(s + 1 - l_len)
                for _ in range(2 ** (l_len + r_len))
            )
            assert stack_pair_count(s) == pairs

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


def enumerate_configurations(spec, p, x, s):
    for state in range(spec.state_count):
        for l_len in range(s + 1):
            for sl in product("01", repeat=l_len):
                for r_len in range(s + 1 - l_len):
                    for sr in product("01", repeat=r_len):
                        for hp in range(len(p) + 1):
                            for hx in range(len(x) + 1):
                                yield Configuration(
                                    state, "".join(sl), "".join(sr), hp, hx
                                )


class TestPredecessors:
    def test_initial_configuration_of_push_only_machine_has_no_predecessors(self):
        spec = canonicalize(push_forever_spec())
        cfg = Configuration(0, "", "", 0, 0)
        assert predecessors(spec, "", "", cfg, 3) == []

    def test_push_inverts_to_stack_minus_top(self):
        spec = canonicalize(parse_machine("states: 2\n0 _ _ -> pushL 1 1\n"))
        cfg = Configuration(1, "1", "", 0, 0)
        preds = predecessors(spec, "", "", cfg, 2)
        assert Configuration(0, "", "", 0, 0) in preds

    def test_matches_brute_force_inverse_of_step(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(25):
            spec = canonicalize(sample_spec(rng, 2))
            p = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            x = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            s = rng.randint(0, 3)
            configs = list(enumerate_configurations(spec, p, x, s))
            inverse = {}
            for cfg in configs:
                result = step(spec, cfg, p, x)
                if result.kind is StepKind.NEXT and result.config.space <= s:
                    inverse.setdefault(result.config, []).append(cfg)
            for cfg in configs:
                expected = inverse.get(cfg, [])
                got = predecessors(spec, p, x, cfg, s)
                assert sorted(got) == sorted(expected), (cfg, p, x, s)
                assert len(got) == len(set(got))
                # Primary order key: ascending source state.
                assert [c.state for c in got] == sorted(c.state for c in got)
                checked += 1
        assert checked > 1000


def random_configuration(rng, spec, p, x, s):
    l_len = rng.randint(0, s)
    return Configuration(
        rng.randrange(spec.state_count),
        "".join(rng.choice("01") for _ in range(l_len)),
        "".join(rng.choice("01") for _ in range(rng.randint(0, s - l_len))),
        rng.randint(0, len(p)),
        rng.randint(0, len(x)),
    )


class TestRelocation:
    def test_up_matches_the_reference_step(self):
        rng = random.Random(11)
        kinds = set()
        for _ in range(300):
            spec = sample_spec(rng, 3)
            p = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            x = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            cfg = random_configuration(rng, spec, p, x, 4)
            _, up = _tree_moves(spec, p, x, 4)
            ref = step(spec, cfg, p, x)
            kinds.add(ref.kind)
            if ref.kind is StepKind.NEXT:
                assert up(pack_config(cfg))[0] == pack_config(ref.config), (cfg, p, x)
            else:
                with pytest.raises(KeyError):
                    up(pack_config(cfg))
        assert kinds == set(StepKind)

    def test_up_returns_the_index_the_enumerator_pairs_with_each_child(self):
        rng = random.Random(4141)
        checked = end_branches = shared_targets = 0
        for _ in range(40):
            spec = canonicalize(sample_spec(rng, 3))
            p = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
            x = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            s = rng.randint(0, 4)
            child_after, up = _tree_moves(spec, p, x, s)
            for _ in range(150):
                parent = pack_config(random_configuration(rng, spec, p, x, s))
                child, idx = child_after(parent, -1)
                while child is not None:
                    assert up(child) == (parent, idx), (parent, p, x, s)
                    st, sl, sr, hp, hx = child
                    top_l, top_r = sl & 1 if sl > 1 else 2, sr & 1 if sr > 1 else 2
                    ins = spec.instruction(st, top_l, top_r)
                    if ins.op in (Op.READ_P, Op.READ_X):
                        at_end = hp == len(p) if ins.op is Op.READ_P else hx == len(x)
                        end_branches += at_end
                        shared_targets += not at_end and ins.t0 == ins.t1
                    checked += 1
                    child, idx = child_after(parent, idx)
        assert checked > 2000
        assert end_branches > 100 and shared_targets > 100


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
    # canonical child order.  Sampled machines are sample_spec(Random(seed), 3)
    # on p = "10", x = "1".
    PINNED_STATS = {
        "echo": [(True, 9, 3), (True, 13, 3), (True, 21, 3), (True, 37, 3), (True, 69, 3)],
        "push_forever": [(False, 5, 3), (False, 13, 3), (False, 36, 3), (False, 96, 3), (False, 244, 3)],
        "write_loop": [(False, 5, 3), (False, 15, 3), (False, 43, 3), (False, 115, 3), (False, 291, 3)],
        "seesaw": [(False, 6, 3), (False, 19, 3), (False, 59, 3), (False, 163, 3), (False, 419, 3)],
        45: [(False, 21, 3), (False, 57, 3), (False, 165, 3), (False, 453, 3), (True, 487, 3)],
        225: [(True, 28, 3), (True, 63, 3), (True, 149, 3), (True, 353, 3), (True, 825, 3)],
        242: [(False, 27, 3), (True, 55, 3), (True, 128, 3), (True, 306, 3), (True, 726, 3)],
    }

    @pytest.mark.parametrize("machine", list(PINNED_STATS))
    def test_probe_stats_are_pinned(self, machine):
        named = {
            "echo": (echo_x_spec(), "1", ""),
            "push_forever": (push_forever_spec(), "", ""),
            "write_loop": (WRITE_LOOP, "", ""),
            "seesaw": (seesaw_spec(), "", ""),
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
        tracemalloc.start()
        try:
            verdict = decide_counter(WRITE_LOOP, "", "", 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.probe_stats.configurations_visited == config_count(WRITE_LOOP, "", "", 12)
        assert peak < 64 * 1024


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

    def test_backward_agrees_on_canonicalized_input_too(self):
        spec = canonicalize(echo_x_spec())
        assert decide_backward(spec, "", "11", 1).terminates_within_s
        assert decide_forward(spec, "", "11", 1).terminates_within_s
