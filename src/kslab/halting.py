"""Halting-within-space-s deciders for the two-stack machine model.

Three deciders answer "does the machine, run on (p, x), execute a halt
instruction before its combined stack length ever exceeds s?":

* `decide_forward` and `decide_counter` share the packed execution loop of
  `kslab.machine` with `machine.run`, and the three differ only in how they
  detect a loop.  The forward decider keeps a set of visited
  configurations, and a repeat proves an infinite loop.  The counter
  decider keeps nothing but a step counter: by pigeonhole, a run within
  space s longer than `config_count` steps has repeated a configuration and
  therefore loops forever.  (`run` keeps one saved configuration and stops
  at the first repeat that Brent's check sees.)
* `decide_backward` explores, in constant auxiliary configuration storage, the
  tree of configurations that reach the unique final configuration of the
  canonicalized machine, and reports whether the initial configuration is in
  that tree.  The traversal is a memoryless Euler tour with three moves: to a
  vertex's first child, to its next sibling (both by the predecessor
  enumerator `child_after` of this module, in a fixed canonical order) and
  up to its parent (`up`: one forward step, which also returns the vertex's
  index among the parent's children), so at most three configurations are
  held at any moment.

All three agree on every input; the test suite checks this exhaustively over
sampled machine families, and checks the shared loop and both tree moves
against the string-configuration oracle `kslab.machine.step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .machine import (
    Configuration,
    EMPTY_STACK,
    MachineSpec,
    Op,
    PackedConfig,
    Verdict,
    _execute,
    canonicalize,
    check_bits,
    compile_spec,
    final_configuration,
    initial_configuration,
    pack_config,
    unpack_config,
)


@dataclass(frozen=True)
class ProbeStats:
    configurations_visited: int
    peak_live_configurations: int


@dataclass(frozen=True)
class HaltVerdict:
    terminates_within_s: bool
    probe_stats: ProbeStats


def stack_pair_count(s: int) -> int:
    """Number of stack pairs (L, R) with |L| + |R| <= s.

    Sum over l = 0..s of (l+1) * 2^l, in closed form s * 2^(s+1) + 1.
    """

    if s < 0:
        return 0
    return s * 2 ** (s + 1) + 1


def config_count(spec: MachineSpec, p: str, x: str, s: int) -> int:
    """Number of configurations with space <= s: |Q| (|p|+1) (|x|+1) pairs(s)."""

    return spec.state_count * (len(p) + 1) * (len(x) + 1) * stack_pair_count(s)


# ---------- moves in the termination tree ----------
#
# A recipe is a precompiled inversion of one transition-table entry.  Applied
# to a configuration C it yields the unique C' with tops matching the entry's
# guard such that executing the entry in C' produces C, if such a C' exists.
# Recipes are grouped into buckets keyed by (state, ta, tb): C's state and its
# own stack tops, at index (state * 3 + ta) * 3 + tb.  A bucket holds only the
# recipes whose guard C's tops already satisfy, so what is left to check per
# recipe is the top below a push, the space bound for a pop and the tape bit
# for a read.  Each bucket is sorted in the canonical child order: ascending
# source state, then instruction kind, then pushed/popped bit (read
# inversions break remaining ties by branch: 0, 1, end).  Applying the
# recipes of C's bucket in order therefore yields the predecessors of C in
# canonical order.

# (opcode, source state, arg): arg is the guard on the top left after undoing
# a push (a for PUSH_L, b for PUSH_R), the popped bit for a pop, the branch
# for a read (0, 1, or 2 for the end marker), else 0.
_Recipe = tuple[int, int, int]
_Buckets = tuple[tuple[_Recipe, ...], ...]

_ANY_TOP = -1


@lru_cache(maxsize=256)
def _inverse_index(spec: MachineSpec) -> tuple[_Buckets, tuple[dict[int, int], ...]]:
    """The recipe buckets of `spec`, and where each recipe sits in them.

    The second part maps, per bucket, source entry * 3 + branch to the
    recipe's index in the bucket, where entry = (q * 3 + a) * 3 + b is the
    inverted table entry and branch is 0, 1 or 2 for a read's 0, 1 and end
    branches and 0 for every other instruction.  No key inverts a halt or a
    pop guarded by an empty top.
    """

    # Per target state: (sort key, recipe, required L-top, required R-top, position key).
    by_target: list[list[tuple[tuple[int, ...], _Recipe, int, int, int]]] = [
        [] for _ in range(spec.state_count)
    ]
    for entry, ins in enumerate(spec.instructions):
        q, a, b = entry // 9, entry // 3 % 3, entry % 3
        op = ins.op
        if op is Op.HALT:
            continue
        # (target state, arg, required L-top of C, required R-top of C, sort bit)
        if op is Op.PUSH_L:
            # Undoing the push leaves a top that must match the guard a.
            inversions = [(ins.t0, a, ins.bit, b, ins.bit)]
        elif op is Op.PUSH_R:
            inversions = [(ins.t0, b, a, ins.bit, ins.bit)]
        elif op is Op.POP_L:
            # The predecessor's L-top is the popped bit, which must match the
            # entry's guard; an empty-top guard cannot pop.
            inversions = [(ins.t0, a, _ANY_TOP, b, a)] if a != 2 else []
        elif op is Op.POP_R:
            inversions = [(ins.t0, b, a, _ANY_TOP, b)] if b != 2 else []
        elif op is Op.WRITE:
            inversions = [(ins.t0, 0, a, b, 0)]
        else:  # READ_P, READ_X
            inversions = [(t, branch, a, b, 0) for branch, t in enumerate((ins.t0, ins.t1, ins.t2))]
        for branch, (target, arg, need_l, need_r, bit) in enumerate(inversions):
            sort_key = (q, int(op), bit, a, b, branch)
            by_target[target].append((sort_key, (int(op), q, arg), need_l, need_r, entry * 3 + branch))

    buckets: list[tuple[_Recipe, ...]] = []
    positions: list[dict[int, int]] = []
    for candidates in by_target:
        candidates.sort()
        for ta in range(3):
            for tb in range(3):
                fits = [
                    (recipe, key)
                    for _, recipe, need_l, need_r, key in candidates
                    if need_l in (ta, _ANY_TOP) and need_r in (tb, _ANY_TOP)
                ]
                buckets.append(tuple(recipe for recipe, _ in fits))
                positions.append({key: i for i, (_, key) in enumerate(fits)})
    return tuple(buckets), tuple(positions)


def _tree_moves(
    spec: MachineSpec,
    p: str,
    x: str,
    s: int,
) -> tuple[
    Callable[[PackedConfig, int], tuple[Optional[PackedConfig], int]],
    Callable[[PackedConfig], tuple[PackedConfig, int]],
]:
    """Build the two moves of the termination tree for one (spec, p, x, s).

    `child_after(cfg, from_idx)` returns the first predecessor of `cfg` with
    space <= s produced by a recipe with index > from_idx in cfg's bucket,
    and that index; (None, -1) when there is none.  Resuming from the
    returned index walks the predecessors of `cfg` in canonical order.

    `up(child)` returns the configuration `child` steps to and the index
    that `child_after` pairs with `child` there, so resuming the parent from
    it yields `child`'s next sibling.  A halt, a pop of an empty stack, or a
    step with no recipe in the parent's bucket raises KeyError.
    """

    prog = compile_spec(spec)
    buckets, positions = _inverse_index(spec)
    # The branch a read takes at each head position: the bit there, or 2 at
    # the end marker.  Index -1 is the end marker too, which no bit matches.
    p_branch = tuple(int(bit) for bit in p) + (2,)
    x_branch = tuple(int(bit) for bit in x) + (2,)

    def child_after(cfg: PackedConfig, from_idx: int) -> tuple[Optional[PackedConfig], int]:
        st, sl, sr, hp, hx = cfg
        bucket = buckets[(st * 3 + (sl & 1 if sl > 1 else 2)) * 3 + (sr & 1 if sr > 1 else 2)]
        for i in range(from_idx + 1, len(bucket)):
            op, q, arg = bucket[i]
            # Pops first: the drain states that canonicalize appends make
            # them the kind tried most often, then the reads of its chain.
            if op == 3:  # POP_L
                if sl.bit_length() + sr.bit_length() - 2 < s:
                    return (q, sl * 2 + arg, sr, hp, hx), i
            elif op == 4:  # POP_R
                if sl.bit_length() + sr.bit_length() - 2 < s:
                    return (q, sl, sr * 2 + arg, hp, hx), i
            elif op == 6:  # READ_P: the head sat before a read bit, or at the end
                h = hp - 1 if arg < 2 else hp
                if p_branch[h] == arg:
                    return (q, sl, sr, h, hx), i
            elif op == 5:  # WRITE
                return (q, sl, sr, hp, hx), i
            elif op == 1:  # PUSH_L
                psl = sl >> 1
                if (psl & 1 if psl > 1 else 2) == arg:
                    return (q, psl, sr, hp, hx), i
            elif op == 2:  # PUSH_R
                psr = sr >> 1
                if (psr & 1 if psr > 1 else 2) == arg:
                    return (q, sl, psr, hp, hx), i
            else:  # READ_X
                h = hx - 1 if arg < 2 else hx
                if x_branch[h] == arg:
                    return (q, sl, sr, hp, h), i
        return None, -1

    def up(cfg: PackedConfig) -> tuple[PackedConfig, int]:
        st, sl, sr, hp, hx = cfg
        entry = (st * 3 + (sl & 1 if sl > 1 else 2)) * 3 + (sr & 1 if sr > 1 else 2)
        op, bit, t0, t1, t2 = prog[entry]
        branch = 0
        if op == 3:  # POP_L; an empty stack leaves 0, and its entry has no key
            sl >>= 1
        elif op == 4:  # POP_R
            sr >>= 1
        elif op == 6:  # READ_P
            branch = p_branch[hp]
            if branch == 2:
                t0 = t2
            else:
                t0 = t1 if branch else t0
                hp += 1
        elif op == 7:  # READ_X
            branch = x_branch[hx]
            if branch == 2:
                t0 = t2
            else:
                t0 = t1 if branch else t0
                hx += 1
        elif op == 1:  # PUSH_L
            sl = sl * 2 + bit
        elif op == 2:  # PUSH_R
            sr = sr * 2 + bit
        # WRITE and HALT change only the state; a halt has no key either.
        bucket = positions[(t0 * 3 + (sl & 1 if sl > 1 else 2)) * 3 + (sr & 1 if sr > 1 else 2)]
        return (t0, sl, sr, hp, hx), bucket[entry * 3 + branch]

    return child_after, up


def predecessors(spec: MachineSpec, p: str, x: str, cfg: Configuration, s: int) -> list[Configuration]:
    """All configurations C' with space <= s that step to `cfg`, in canonical order."""

    check_bits(p, "program tape")
    check_bits(x, "condition tape")
    child_after, _ = _tree_moves(spec, p, x, s)
    packed = pack_config(cfg)
    found = []
    child, idx = child_after(packed, -1)
    while child is not None:
        found.append(unpack_config(child))
        child, idx = child_after(packed, idx)
    return found


def _check_inputs(p: str, x: str, s: int) -> None:
    check_bits(p, "program tape")
    check_bits(x, "condition tape")
    if s < 0:
        raise ValueError("space bound must be >= 0")


def decide_backward(spec: MachineSpec, p: str, x: str, s: int) -> HaltVerdict:
    """Sipser-style backward search over the termination tree.

    The machine is canonicalized so that halting runs share one final
    configuration, the root.  Children of a vertex are its predecessors in
    canonical order.  The search is an Euler tour with three moves: to the
    child after index idx of the current vertex (`child_after`), and, when
    there is none, up to the parent together with the current vertex's
    index among the parent's children (`up`, one forward step and one table
    lookup).  It holds only the current vertex, one neighbour and the
    comparison target.
    """

    _check_inputs(p, x, s)
    canon = canonicalize(spec)
    child_after, up = _tree_moves(canon, p, x, s)
    root = pack_config(final_configuration(canon, p, x))
    start = pack_config(initial_configuration())

    visited = 1
    peak_live = 1
    if root == start:
        return HaltVerdict(True, ProbeStats(visited, peak_live))

    node, idx = root, -1
    while True:
        child, idx = child_after(node, idx)
        if child is not None:
            visited += 1
            if peak_live < 2:
                peak_live = 2  # the vertex and its child
            if child == start:
                return HaltVerdict(True, ProbeStats(visited, peak_live))
            node, idx = child, -1
        elif node == root:
            return HaltVerdict(False, ProbeStats(visited, peak_live))
        else:
            # Tree vertices reach the root, so `up` never raises here.
            node, idx = up(node)
            peak_live = 3  # a vertex, its parent and a sibling: the most ever held


def decide_forward(spec: MachineSpec, p: str, x: str, s: int) -> HaltVerdict:
    """Forward simulation with an explicit visited set for loop detection."""

    _check_inputs(p, x, s)
    # A run within space s repeats a configuration before config_count steps,
    # so the step limit never ends this run; a repeat does, as STEP_LIMIT.
    seen = {(0, EMPTY_STACK, EMPTY_STACK, 0, 0)}
    verdict, _, _ = _execute(compile_spec(spec), p, x, s, config_count(spec, p, x, s), None, seen)
    return HaltVerdict(verdict is Verdict.HALTED, ProbeStats(len(seen), len(seen)))


def decide_counter(spec: MachineSpec, p: str, x: str, s: int) -> HaltVerdict:
    """Pigeonhole decider: simulate for at most config_count(spec, p, x, s) steps.

    A run that neither halts nor leaves the space bound within that many steps
    has revisited a configuration and therefore never halts.  Keeps no visited
    set and no output; aborts early only on events (space overflow, abnormal
    pop) after which halting is impossible.  The executed halt counts as a
    visited configuration.
    """

    _check_inputs(p, x, s)
    verdict, _, steps = _execute(compile_spec(spec), p, x, s, config_count(spec, p, x, s), None, None)
    halted = verdict is Verdict.HALTED
    return HaltVerdict(halted, ProbeStats(steps + halted, 1))


__all__ = [
    "HaltVerdict",
    "ProbeStats",
    "config_count",
    "decide_backward",
    "decide_counter",
    "decide_forward",
    "predecessors",
    "stack_pair_count",
]
