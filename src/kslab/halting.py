"""Halting-within-space-s deciders for the two-stack machine model.

Three deciders answer "does the machine, run on (p, x), execute a halt
instruction before its combined stack length ever exceeds s?":

* `decide_forward` and `decide_counter` share the packed execution loop of
  `kslab.machine` and differ only in how they detect a loop.  The forward
  decider keeps a set of visited configurations, and a repeat proves an
  infinite loop.  The counter decider keeps nothing but a step counter: by
  pigeonhole, a run within space s longer than `config_count` steps has
  repeated a configuration and therefore loops forever.
* `decide_backward` explores, in constant auxiliary configuration storage, the
  tree of configurations that reach the unique final configuration of the
  canonicalized machine, and reports whether the initial configuration is in
  that tree.  The traversal is memoryless depth-first: the only moves are
  parent (one forward step, `kslab.machine.step_packed`), first child and next
  sibling (the predecessor enumerator of this module, in a fixed canonical
  order), so at most three configurations are held at any moment.

All three agree on every input; the test suite checks this exhaustively over
sampled machine families, and checks the shared loop and the predecessor
enumerator against the string-configuration oracle `kslab.machine.step`.
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
    StepKind,
    Verdict,
    _execute,
    canonicalize,
    check_bits,
    compile_spec,
    pack_config,
    step_packed,
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


# ---------- predecessor enumeration ----------
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

_RK_PUSH_L = 0
_RK_PUSH_R = 1
_RK_POP_L = 2
_RK_POP_R = 3
_RK_WRITE = 4
_RK_READ_P0 = 5
_RK_READ_P1 = 6
_RK_READ_PE = 7
_RK_READ_X0 = 8
_RK_READ_X1 = 9
_RK_READ_XE = 10

# (rkind, source state, arg): arg is the guard on the top left after undoing
# a push (a for PUSH_L, b for PUSH_R), the popped bit for a pop, else 0.
_Recipe = tuple[int, int, int]
_Buckets = tuple[tuple[_Recipe, ...], ...]

_ANY_TOP = -1


@lru_cache(maxsize=256)
def _inverse_index(spec: MachineSpec) -> tuple[_Buckets, tuple[dict[int, int], ...]]:
    """The recipe buckets of `spec`, and where each recipe sits in them.

    The second part maps, per bucket, source entry * 3 + branch to the
    recipe's index in the bucket, where entry = (q * 3 + a) * 3 + b is the
    inverted table entry and branch is 0, 1 or 2 for a read's 0, 1 and end
    branches and 0 for every other instruction.
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
        # (target state, rkind, arg, required L-top of C, required R-top of C, sort bit)
        if op is Op.PUSH_L:
            # Undoing the push leaves a top that must match the guard a.
            inversions = [(ins.t0, _RK_PUSH_L, a, ins.bit, b, ins.bit)]
        elif op is Op.PUSH_R:
            inversions = [(ins.t0, _RK_PUSH_R, b, a, ins.bit, ins.bit)]
        elif op is Op.POP_L:
            # The predecessor's L-top is the popped bit, which must match the
            # entry's guard; an empty-top guard cannot pop.
            inversions = [(ins.t0, _RK_POP_L, a, _ANY_TOP, b, a)] if a != 2 else []
        elif op is Op.POP_R:
            inversions = [(ins.t0, _RK_POP_R, b, a, _ANY_TOP, b)] if b != 2 else []
        elif op is Op.WRITE:
            inversions = [(ins.t0, _RK_WRITE, 0, a, b, 0)]
        elif op is Op.READ_P:
            inversions = [
                (ins.t0, _RK_READ_P0, 0, a, b, 0),
                (ins.t1, _RK_READ_P1, 0, a, b, 0),
                (ins.t2, _RK_READ_PE, 0, a, b, 0),
            ]
        else:
            inversions = [
                (ins.t0, _RK_READ_X0, 0, a, b, 0),
                (ins.t1, _RK_READ_X1, 0, a, b, 0),
                (ins.t2, _RK_READ_XE, 0, a, b, 0),
            ]
        for branch, (target, rkind, arg, need_l, need_r, bit) in enumerate(inversions):
            sort_key = (q, int(op), bit, a, b, branch)
            by_target[target].append((sort_key, (rkind, q, arg), need_l, need_r, entry * 3 + branch))

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


def _child_enumerator(
    buckets: _Buckets,
    p: str,
    x: str,
    s: int,
) -> Callable[[PackedConfig, int], tuple[Optional[PackedConfig], int]]:
    """Build the resumable predecessor enumerator for one (buckets, p, x, s).

    `child_after(cfg, from_idx)` returns the first predecessor of `cfg` with
    space <= s produced by a recipe with index > from_idx in cfg's bucket,
    and that index; (None, -1) when there is none.  Resuming from the
    returned index walks the predecessors of `cfg` in canonical order.
    """

    lp, lx = len(p), len(x)

    def child_after(cfg: PackedConfig, from_idx: int) -> tuple[Optional[PackedConfig], int]:
        st, sl, sr, hp, hx = cfg
        bucket = buckets[(st * 3 + (sl & 1 if sl > 1 else 2)) * 3 + (sr & 1 if sr > 1 else 2)]
        for i in range(from_idx + 1, len(bucket)):
            rkind, q, arg = bucket[i]
            # Pops first: the drain states that canonicalize appends make
            # them the kind tried most often, then the reads of its chain.
            if rkind == _RK_POP_L:
                if sl.bit_length() + sr.bit_length() - 2 < s:
                    return (q, sl * 2 + arg, sr, hp, hx), i
            elif rkind == _RK_POP_R:
                if sl.bit_length() + sr.bit_length() - 2 < s:
                    return (q, sl, sr * 2 + arg, hp, hx), i
            elif rkind == _RK_READ_P0:
                if hp >= 1 and p[hp - 1] == "0":
                    return (q, sl, sr, hp - 1, hx), i
            elif rkind == _RK_READ_P1:
                if hp >= 1 and p[hp - 1] == "1":
                    return (q, sl, sr, hp - 1, hx), i
            elif rkind == _RK_READ_PE:
                if hp == lp:
                    return (q, sl, sr, hp, hx), i
            elif rkind == _RK_WRITE:
                return (q, sl, sr, hp, hx), i
            elif rkind == _RK_PUSH_L:
                psl = sl >> 1
                if (psl & 1 if psl > 1 else 2) == arg:
                    return (q, psl, sr, hp, hx), i
            elif rkind == _RK_PUSH_R:
                psr = sr >> 1
                if (psr & 1 if psr > 1 else 2) == arg:
                    return (q, sl, psr, hp, hx), i
            elif rkind == _RK_READ_X0:
                if hx >= 1 and x[hx - 1] == "0":
                    return (q, sl, sr, hp, hx - 1), i
            elif rkind == _RK_READ_X1:
                if hx >= 1 and x[hx - 1] == "1":
                    return (q, sl, sr, hp, hx - 1), i
            else:  # _RK_READ_XE
                if hx == lx:
                    return (q, sl, sr, hp, hx), i
        return None, -1

    return child_after


def _child_locator(
    prog: tuple[tuple[int, int, int, int, int], ...],
    positions: tuple[dict[int, int], ...],
    p: str,
    x: str,
) -> Callable[[PackedConfig, PackedConfig], int]:
    """Build `index_of(child, parent)` for one (compiled table, positions, p, x).

    `parent` must be the forward step of `child`.  The result is the index
    that `child_after(parent, ·)` returns with `child`: the entry `child`
    executes, with the branch it takes if that entry is a read, names the
    recipe that inverts the step.  A recipe missing from the parent's
    bucket raises KeyError.
    """

    # The branch a read takes at each head position: the bit there, or 2 at the end.
    p_branch = tuple(int(bit) for bit in p) + (2,)
    x_branch = tuple(int(bit) for bit in x) + (2,)
    read_p, read_x = int(Op.READ_P), int(Op.READ_X)

    def index_of(child: PackedConfig, parent: PackedConfig) -> int:
        st, sl, sr, hp, hx = child
        entry = (st * 3 + (sl & 1 if sl > 1 else 2)) * 3 + (sr & 1 if sr > 1 else 2)
        op = prog[entry][0]
        branch = p_branch[hp] if op == read_p else x_branch[hx] if op == read_x else 0
        pst, psl, psr, _, _ = parent
        bucket = (pst * 3 + (psl & 1 if psl > 1 else 2)) * 3 + (psr & 1 if psr > 1 else 2)
        return positions[bucket][entry * 3 + branch]

    return index_of


def predecessors(spec: MachineSpec, p: str, x: str, cfg: Configuration, s: int) -> list[Configuration]:
    """All configurations C' with space <= s that step to `cfg`, in canonical order."""

    check_bits(p, "program tape")
    check_bits(x, "condition tape")
    child_after = _child_enumerator(_inverse_index(spec)[0], p, x, s)
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
    canonical order; the traversal keeps only the current vertex, one
    candidate neighbour, and the comparison target, recomputing parents by a
    forward step and siblings by resuming the parent's child enumeration
    just after the current vertex, whose position among the parent's
    children is one table lookup (`_child_locator`).
    """

    _check_inputs(p, x, s)
    canon = canonicalize(spec)
    prog = compile_spec(canon)
    buckets, positions = _inverse_index(canon)
    child_after = _child_enumerator(buckets, p, x, s)
    index_of = _child_locator(prog, positions, p, x)
    root: PackedConfig = (canon.state_count - 1, EMPTY_STACK, EMPTY_STACK, len(p), len(x))
    start: PackedConfig = (0, EMPTY_STACK, EMPTY_STACK, 0, 0)

    visited = 1
    peak_live = 1
    if root == start:
        return HaltVerdict(True, ProbeStats(visited, peak_live))

    NEXT = StepKind.NEXT  # a local: enum attribute lookups are slow in the loop
    current = root
    descending = True
    while True:
        if descending:
            child, _ = child_after(current, -1)
            if child is None:
                descending = False
                continue
            peak_live = max(peak_live, 2)
            current = child
            visited += 1
            if current == start:
                return HaltVerdict(True, ProbeStats(visited, peak_live))
        else:
            if current == root:
                return HaltVerdict(False, ProbeStats(visited, peak_live))
            # Tree vertices reach the root, so their forward step is defined.
            kind, parent, _ = step_packed(prog, current, p, x)
            assert kind == NEXT, "tree vertex without a forward step"
            peak_live = 3  # current, its parent and a sibling: the most ever held
            sibling, _ = child_after(parent, index_of(current, parent))
            if sibling is None:
                current = parent
            else:
                current = sibling
                visited += 1
                if current == start:
                    return HaltVerdict(True, ProbeStats(visited, peak_live))
                descending = True


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
