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
# Recipes are grouped by the entry's target state and pre-sorted in the
# canonical child order: ascending source state, then instruction kind, then
# pushed/popped bit (read inversions break remaining ties by branch: 0, 1,
# end).  Applying the recipes of recipes[C.state] in order therefore yields
# the predecessors of C in canonical order.

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

_Recipe = tuple[int, int, int, int, int]  # (rkind, source state, guard a, guard b, bit)


@lru_cache(maxsize=256)
def _inverse_index(spec: MachineSpec) -> tuple[tuple[_Recipe, ...], ...]:
    by_target: list[list[tuple[tuple[int, int, int, int, int, int], _Recipe]]] = [
        [] for _ in range(spec.state_count)
    ]

    def add(target: int, rkind: int, q: int, a: int, b: int, bit: int, op: Op, branch: int) -> None:
        sort_key = (q, int(op), bit, a, b, branch)
        by_target[target].append((sort_key, (rkind, q, a, b, bit)))

    idx = 0
    for q in range(spec.state_count):
        for a in range(3):
            for b in range(3):
                ins = spec.instructions[idx]
                idx += 1
                op = ins.op
                if op is Op.HALT:
                    continue
                if op is Op.PUSH_L:
                    add(ins.t0, _RK_PUSH_L, q, a, b, ins.bit, op, 0)
                elif op is Op.PUSH_R:
                    add(ins.t0, _RK_PUSH_R, q, a, b, ins.bit, op, 0)
                elif op is Op.POP_L:
                    # The predecessor's L-top is the popped bit, which must
                    # match the entry's guard; an empty-top guard cannot pop.
                    if a != 2:
                        add(ins.t0, _RK_POP_L, q, a, b, a, op, 0)
                elif op is Op.POP_R:
                    if b != 2:
                        add(ins.t0, _RK_POP_R, q, a, b, b, op, 0)
                elif op is Op.WRITE:
                    add(ins.t0, _RK_WRITE, q, a, b, 0, op, 0)
                elif op is Op.READ_P:
                    add(ins.t0, _RK_READ_P0, q, a, b, 0, op, 0)
                    add(ins.t1, _RK_READ_P1, q, a, b, 0, op, 1)
                    add(ins.t2, _RK_READ_PE, q, a, b, 0, op, 2)
                else:
                    add(ins.t0, _RK_READ_X0, q, a, b, 0, op, 0)
                    add(ins.t1, _RK_READ_X1, q, a, b, 0, op, 1)
                    add(ins.t2, _RK_READ_XE, q, a, b, 0, op, 2)
    return tuple(tuple(recipe for _, recipe in sorted(bucket)) for bucket in by_target)


def _child_enumerator(
    recipes: tuple[tuple[_Recipe, ...], ...],
    p: str,
    x: str,
    s: int,
) -> Callable[[PackedConfig, int], tuple[Optional[PackedConfig], int]]:
    """Build the resumable predecessor enumerator for one (recipes, p, x, s).

    `child_after(cfg, from_idx)` returns the first predecessor of `cfg` with
    space <= s produced by a recipe with index > from_idx, and that index;
    (None, -1) when there is none.  Resuming from the returned index walks
    the predecessors of `cfg` in canonical order.
    """

    lp, lx = len(p), len(x)

    def child_after(cfg: PackedConfig, from_idx: int) -> tuple[Optional[PackedConfig], int]:
        st, sl, sr, hp, hx = cfg
        ta = sl & 1 if sl > 1 else 2
        tb = sr & 1 if sr > 1 else 2
        space = sl.bit_length() + sr.bit_length() - 2
        bucket = recipes[st]
        for i in range(from_idx + 1, len(bucket)):
            rkind, q, a, b, bit = bucket[i]
            if rkind == _RK_WRITE:
                if ta == a and tb == b:
                    return (q, sl, sr, hp, hx), i
            elif rkind == _RK_PUSH_L:
                # Forward pushed `bit` onto L, so C's L-top must be that bit.
                if ta == bit:
                    psl = sl >> 1
                    if (psl & 1 if psl > 1 else 2) == a and tb == b:
                        return (q, psl, sr, hp, hx), i
            elif rkind == _RK_PUSH_R:
                if tb == bit:
                    psr = sr >> 1
                    if ta == a and (psr & 1 if psr > 1 else 2) == b:
                        return (q, sl, psr, hp, hx), i
            elif rkind == _RK_POP_L:
                if tb == b and space < s:
                    return (q, sl * 2 + bit, sr, hp, hx), i
            elif rkind == _RK_POP_R:
                if ta == a and space < s:
                    return (q, sl, sr * 2 + bit, hp, hx), i
            elif rkind == _RK_READ_P0:
                if hp >= 1 and p[hp - 1] == "0" and ta == a and tb == b:
                    return (q, sl, sr, hp - 1, hx), i
            elif rkind == _RK_READ_P1:
                if hp >= 1 and p[hp - 1] == "1" and ta == a and tb == b:
                    return (q, sl, sr, hp - 1, hx), i
            elif rkind == _RK_READ_PE:
                if hp == lp and ta == a and tb == b:
                    return (q, sl, sr, hp, hx), i
            elif rkind == _RK_READ_X0:
                if hx >= 1 and x[hx - 1] == "0" and ta == a and tb == b:
                    return (q, sl, sr, hp, hx - 1), i
            elif rkind == _RK_READ_X1:
                if hx >= 1 and x[hx - 1] == "1" and ta == a and tb == b:
                    return (q, sl, sr, hp, hx - 1), i
            else:  # _RK_READ_XE
                if hx == lx and ta == a and tb == b:
                    return (q, sl, sr, hp, hx), i
        return None, -1

    return child_after


def predecessors(spec: MachineSpec, p: str, x: str, cfg: Configuration, s: int) -> list[Configuration]:
    """All configurations C' with space <= s that step to `cfg`, in canonical order."""

    check_bits(p, "program tape")
    check_bits(x, "condition tape")
    child_after = _child_enumerator(_inverse_index(spec), p, x, s)
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
    forward step and siblings by re-enumerating the parent's children.  The
    index of the recipe that generated the current vertex is carried along
    (an integer, not a configuration) so a sibling advance can resume the
    enumeration instead of rescanning from the first recipe; after a move up
    the index is unknown and one rescan re-locates the vertex.
    """

    _check_inputs(p, x, s)
    canon = canonicalize(spec)
    prog = compile_spec(canon)
    child_after = _child_enumerator(_inverse_index(canon), p, x, s)
    root: PackedConfig = (canon.state_count - 1, EMPTY_STACK, EMPTY_STACK, len(p), len(x))
    start: PackedConfig = (0, EMPTY_STACK, EMPTY_STACK, 0, 0)

    visited = 1
    peak_live = 1
    if root == start:
        return HaltVerdict(True, ProbeStats(visited, peak_live))

    UNKNOWN = -2
    NEXT = StepKind.NEXT  # a local: enum attribute lookups are slow in the loop
    current = root
    current_idx = UNKNOWN  # index of the recipe that generated current from its parent
    descending = True
    while True:
        if descending:
            child, idx = child_after(current, -1)
            if child is None:
                descending = False
                continue
            peak_live = max(peak_live, 2)
            current = child
            current_idx = idx
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
            if current_idx == UNKNOWN:
                # Relocate current among its parent's children.
                idx = -1
                while True:
                    cand, idx = child_after(parent, idx)
                    if cand == current:
                        current_idx = idx
                        break
                    if cand is None:
                        raise AssertionError("vertex missing from its parent's child list")
            sibling, idx = child_after(parent, current_idx)
            if sibling is None:
                current = parent
                current_idx = UNKNOWN
            else:
                current = sibling
                current_idx = idx
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
