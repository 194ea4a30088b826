"""Halting-within-space-s deciders for the two-stack machine model.

Three deciders answer "does the machine, run on (p, x), execute a halt
instruction before its combined stack length ever exceeds s?":

* `decide_forward` and `decide_counter` run the machine's exact-int table
  rows, `MachineSpec.instructions`, in the execution loop of
  `kslab.machine` that `machine.run` uses, and the three differ only in
  how they detect a loop.
  The forward decider keeps a set of visited configurations, and a repeat
  proves an infinite loop.  The counter decider keeps nothing but a step
  counter, counted per head phase: both heads are one-way, so while neither
  moves the run stays among the |Q| * `stack_pair_count(s, a, b)`
  configurations with those heads whose stacks hold only bits the table
  pushes (a and b of them), and by pigeonhole a phase within space s
  longer than that many steps has repeated a configuration and therefore
  loops forever.
  (`run` keeps one saved configuration and stops at the first repeat that
  Brent's check sees.)
* `decide_backward` explores, in constant auxiliary configuration storage, the
  tree of configurations that reach the unique final configuration of the
  canonicalized machine, and reports whether the initial configuration is in
  that tree.  The traversal is a memoryless Euler tour with three moves: to a
  vertex's first child, to its next sibling (both by applying the inverted
  instructions of the vertex's bucket, in a fixed canonical order) and up to
  its parent (one forward step, then a table lookup of the vertex's index
  among the parent's children), so at most three configurations are held at
  any moment.  The moves are not separate functions: one loop runs them over
  the current vertex's fields, with no call and no tuple per move.  One
  inversion of each entry of the canonical machine's table
  (`_inversions`) gives both the entries that a run from the start may
  execute and the recipes that invert them; no other entry is inverted, so
  subtrees that no run can enter are never walked.

Each refuses, before any step, an input whose `config_count` passes
`_MAX_CONFIGS`, so its time is bounded by that count.  All three agree on
every input; the test suite checks this exhaustively over sampled machine
families, checks the shared loop against the string-configuration oracle
`kslab.machine.step`, and checks the backward search's verdict and
`ProbeStats` against a slow tour over a brute-force inverse of that oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .machine import (
    EMPTY_STACK,
    MachineSpec,
    Verdict,
    _execute,
    canonicalize,
    check_bits,
    final_configuration,
)


class ProbeStats(NamedTuple):
    configurations_visited: int
    peak_live_configurations: int


class HaltVerdict(NamedTuple):
    terminates_within_s: bool
    probe_stats: ProbeStats


def stack_pair_count(s: int, left: int = 2, right: int = 2) -> int:
    """Number of stack pairs (L, R) with |L| + |R| <= s, L over `left` bits, R over `right`.

    Sum over l + r <= s of left^l * right^r, with 0^0 = 1.  For two bits
    on each stack, the closed form s * 2^(s+1) + 1.
    """

    if s < 0:
        return 0
    if left == right == 2:  # config_count's case, on every decider call
        return s * 2 ** (s + 1) + 1
    # Summed by length t = l + r: words(t) = left * words(t - 1) + right^t.
    total = words = 0
    for t in range(s + 1):
        words = words * left + right**t
        total += words
    return total


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
# for a read.  Each bucket is sorted in the canonical child order: source
# state, opcode, pushed/popped bit, the source's tops a and b, then a read's
# branch (0, 1, end).  Applying the recipes of C's bucket in order therefore
# yields the predecessors of C in canonical order.

# (opcode, source state, arg): arg is the guard on the top left after undoing
# a push (a for PUSH_L, b for PUSH_R), the popped bit for a pop, the branch
# for a read (0, 1, or 2 for the end marker), else 0.
_Recipe = tuple[int, int, int]
_Buckets = tuple[tuple[_Recipe, ...], ...]
_Inversion = tuple[int, int, int, int, int]

_ANY_TOP = -1


def _inversions(prog: tuple[tuple[int, int, int, int, int], ...]) -> tuple[tuple[_Inversion, ...], ...]:
    """Per entry (q * 3 + a) * 3 + b of the table, the steps it takes.

    Each step is (target state, arg, L-top, R-top, sort bit): arg as in a
    recipe, the stack tops the step leaves (`_ANY_TOP` for the top a pop
    uncovers, which may be 0, 1 or empty) and the pushed or popped bit.  A
    read takes three steps, one per branch in the order 0, 1, end; a halt
    and a pop guarded by an empty top take none.
    """

    out = []
    for entry, (op, bit, t0, t1, t2) in enumerate(prog):
        a, b = entry // 3 % 3, entry % 3
        if op == 1:  # PUSH_L: undoing it leaves a top that must match the guard a
            steps = [(t0, a, bit, b, bit)]
        elif op == 2:  # PUSH_R
            steps = [(t0, b, a, bit, bit)]
        elif op == 3:  # POP_L: pops the guard's bit; an empty-top guard cannot pop
            steps = [(t0, a, _ANY_TOP, b, a)] if a != 2 else []
        elif op == 4:  # POP_R
            steps = [(t0, b, a, _ANY_TOP, b)] if b != 2 else []
        elif op == 5:  # WRITE
            steps = [(t0, 0, a, b, 0)]
        elif op == 0:  # HALT
            steps = []
        else:  # READ_P, READ_X
            steps = [(t, branch, a, b, 0) for branch, t in enumerate((t0, t1, t2))]
        out.append(tuple(steps))
    return tuple(out)


def _reachable_entries(inversions: tuple[tuple[_Inversion, ...], ...]) -> set[int]:
    """The table entries (q * 3 + a) * 3 + b that a run from the start may execute.

    A worklist over `_inversions` from the start's entry (0, empty, empty):
    each step of an entry reaches its target with the tops it leaves, every
    top where a pop uncovers one.  The set holds every entry some run
    executes, and perhaps more.  It does not depend on the tapes or on s.
    """

    reached = {8}  # (0, empty, empty)
    work = [8]
    while work:
        for target, _, need_l, need_r, _ in inversions[work.pop()]:
            for ta in range(3) if need_l == _ANY_TOP else (need_l,):
                for tb in range(3) if need_r == _ANY_TOP else (need_r,):
                    nxt = (target * 3 + ta) * 3 + tb
                    if nxt not in reached:
                        reached.add(nxt)
                        work.append(nxt)
    return reached


@lru_cache(maxsize=256)
def _inverse_index(spec: MachineSpec) -> tuple[MachineSpec, _Buckets, tuple[dict[int, int], ...]]:
    """`canonicalize(spec)`, its recipe buckets and where each recipe sits in them.

    Cached by the machine given, so a repeated call hashes only `spec`.
    Both index parts come from `_inversions(canon.instructions)`.  Positions
    map, per bucket, source entry * 3 + branch to the recipe's index in the bucket,
    where entry = (q * 3 + a) * 3 + b is the inverted table entry and branch
    is 0, 1 or 2 for a read's 0, 1 and end branches and 0 for every other
    instruction.  No key inverts a halt or a pop guarded by an empty top.

    Only entries in `_reachable_entries` are inverted.  Every configuration
    of a run from the start executes one of them, so the pruned tree holds
    the start whenever the full tree does.
    """

    canon = canonicalize(spec)
    prog = canon.instructions
    inversions = _inversions(prog)
    # Per target state: (sort key, recipe, required L-top, required R-top, position key).
    by_target: list[list[tuple[tuple[int, ...], _Recipe, int, int, int]]] = [
        [] for _ in range(canon.state_count)
    ]
    for entry in _reachable_entries(inversions):
        q, a, b = entry // 9, entry // 3 % 3, entry % 3
        op = prog[entry][0]
        for branch, (target, arg, need_l, need_r, bit) in enumerate(inversions[entry]):
            sort_key = (q, op, bit, a, b, branch)
            by_target[target].append((sort_key, (op, q, arg), need_l, need_r, entry * 3 + branch))

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
    return canon, tuple(buckets), tuple(positions)


# Largest config_count of the machine a decider explores; a larger one is
# refused before any step.  The largest admitted calls take 0.27-0.31 s for
# decide_backward at s = 12 (589,830 configurations of the canonical
# machine, 167,851 visited) on the tests' LOOP_WITH_REACHABLE_HALTS, a
# 1-state machine that never halts although the prune keeps two of its
# halts, and 0.14-0.28 s for decide_counter at s = 15 on the tests'
# WRITE_LOOP_BESIDE_PUSHES on empty tapes: a 1-state write loop whose table
# also pushes both bits on both stacks, so that N is config_count and no
# head moves, and it runs all 983,041 steps; each one's next s takes up to
# 0.6 s and 0.56 s (CPython 3.11, 2-vCPU VM).  On other tapes the per-phase
# count stops that loop after N steps: 458,753 for p = "1" at s = 14
# (config_count 917,506).
_MAX_CONFIGS = 1_000_000


def _check_inputs(spec: MachineSpec, p: str, x: str, s: int) -> int:
    """Validate the tapes and s; return config_count(spec, p, x, s).

    Raises ValueError when the count passes _MAX_CONFIGS.  The count
    is at least 2^(s+1), so a large s is refused before it is formed.
    """

    check_bits(p, "program tape")
    check_bits(x, "condition tape")
    if s < 0:
        raise ValueError("space bound must be >= 0")
    if s >= _MAX_CONFIGS.bit_length():
        raise ValueError(f"space {s} has over {_MAX_CONFIGS} configurations")
    count = config_count(spec, p, x, s)
    if count > _MAX_CONFIGS:
        raise ValueError(f"{count} configurations within space {s}, limit {_MAX_CONFIGS}")
    return count


def decide_backward(spec: MachineSpec, p: str, x: str, s: int) -> HaltVerdict:
    """Sipser-style backward search over the termination tree.

    The machine is canonicalized so that halting runs share one final
    configuration, the root.  Children of a vertex are its predecessors in
    canonical order.  The search is an Euler tour with three moves, all in
    one loop over the current vertex's five fields and an index idx: to the
    first child produced by a recipe after idx in the vertex's bucket
    (down, or across to the next sibling after an up), and, when there is
    none, up to the parent, by one forward step, with idx set to the
    vertex's index in the parent's bucket.  It holds only the current
    vertex, one neighbour and the comparison target.  Children that execute
    an entry outside `_reachable_entries` are skipped: no run from the start
    passes through them.  Refused up front (ValueError) when the canonical
    machine's config_count passes _MAX_CONFIGS.
    """

    canon, buckets, positions = _inverse_index(spec)
    _check_inputs(canon, p, x, s)
    prog = canon.instructions
    # The branch a read takes at each head position: the bit there, or 2 at
    # the end marker.  Index -1 is the end marker too, which no bit matches.
    p_branch = tuple(int(bit) for bit in p) + (2,)
    x_branch = tuple(int(bit) for bit in x) + (2,)
    # The root, in the canonical halt state, is never the start (0, EMPTY_STACK, EMPTY_STACK, 0, 0).
    rst, rsl, rsr, rhp, rhx = st, sl, sr, hp, hx = final_configuration(canon, p, x)

    visited = 1
    peak_live = 1

    # A pop's child holds one bit more, so it fits while the vertex's space,
    # its stacks' bit lengths less 2, is below s.
    s2 = s + 2
    idx = -1
    key = (st * 3 + (sl & 1 if sl > 1 else 2)) * 3 + (sr & 1 if sr > 1 else 2)
    while True:
        # Down or across: the first recipe after idx that yields a child.
        bucket = buckets[key]
        for i in range(idx + 1, len(bucket)):
            op, q, arg = bucket[i]
            # Pops first: the drain states that canonicalize appends make
            # them the kind tried most often, then the reads of its chain.
            if op == 3:  # POP_L
                if sl.bit_length() + sr.bit_length() < s2:
                    sl = sl * 2 + arg
                    break
            elif op == 4:  # POP_R
                if sl.bit_length() + sr.bit_length() < s2:
                    sr = sr * 2 + arg
                    break
            elif op == 6:  # READ_P: the head sat before a read bit, or at the end
                h = hp - 1 if arg < 2 else hp
                if p_branch[h] == arg:
                    hp = h
                    break
            elif op == 5:  # WRITE
                break
            elif op == 1:  # PUSH_L
                psl = sl >> 1
                if (psl & 1 if psl > 1 else 2) == arg:
                    sl = psl
                    break
            elif op == 2:  # PUSH_R
                psr = sr >> 1
                if (psr & 1 if psr > 1 else 2) == arg:
                    sr = psr
                    break
            else:  # READ_X
                h = hx - 1 if arg < 2 else hx
                if x_branch[h] == arg:
                    hx = h
                    break
        else:
            if st == rst and sl == rsl and sr == rsr and hp == rhp and hx == rhx:
                return HaltVerdict(False, ProbeStats(visited, peak_live))
            # Up: one forward step.  Tree vertices reach the root, so the
            # step is neither a halt nor a pop of an empty stack, and the
            # parent's bucket holds the recipe that inverts it.
            op, bit, st, t1, t2 = prog[key]
            branch = 0
            if op == 3:  # POP_L
                sl >>= 1
            elif op == 4:  # POP_R
                sr >>= 1
            elif op == 6:  # READ_P
                branch = p_branch[hp]
                if branch == 2:
                    st = t2
                else:
                    if branch:
                        st = t1
                    hp += 1
            elif op == 7:  # READ_X
                branch = x_branch[hx]
                if branch == 2:
                    st = t2
                else:
                    if branch:
                        st = t1
                    hx += 1
            elif op == 1:  # PUSH_L
                sl = sl * 2 + bit
            elif op == 2:  # PUSH_R
                sr = sr * 2 + bit
            # WRITE changes only the state.
            entry = key
            key = (st * 3 + (sl & 1 if sl > 1 else 2)) * 3 + (sr & 1 if sr > 1 else 2)
            idx = positions[key][entry * 3 + branch]
            peak_live = 3  # a vertex, its parent and a sibling: the most ever held
            continue
        st = q
        visited += 1
        if peak_live < 2:
            peak_live = 2  # the vertex and its child
        if st == 0 and hp == hx == 0 and sl == sr == EMPTY_STACK:
            return HaltVerdict(True, ProbeStats(visited, peak_live))
        idx = -1
        key = (st * 3 + (sl & 1 if sl > 1 else 2)) * 3 + (sr & 1 if sr > 1 else 2)


def decide_forward(spec: MachineSpec, p: str, x: str, s: int) -> HaltVerdict:
    """Forward simulation with an explicit visited set for loop detection.

    Refused up front (ValueError) when config_count passes
    _MAX_CONFIGS, which also bounds the visited set.
    """

    limit = _check_inputs(spec, p, x, s)
    # A run within space s repeats a configuration before config_count steps,
    # so the step limit never ends this run; a repeat does, as STEP_LIMIT.
    seen = {(0, EMPTY_STACK, EMPTY_STACK, 0, 0)}
    verdict, _, _ = _execute(spec.instructions, p, x, s, limit, None, seen)
    return HaltVerdict(verdict is Verdict.HALTED, ProbeStats(len(seen), len(seen)))


def decide_counter(spec: MachineSpec, p: str, x: str, s: int) -> HaltVerdict:
    """Pigeonhole decider: simulate for at most N steps per head phase.

    N = |Q| * stack_pair_count(s, a, b), where a and b are
    `spec.pushed_bit_counts`: the distinct bits that the table's PUSH_L
    and PUSH_R entries push.  Stacks start empty, so every word a run
    builds is over those bits, and N counts the configurations within
    space s that a run can reach at fixed head positions.  The whole table
    is read, not only the entries a run may execute, so this decider shares
    nothing with `decide_backward`'s prune.  A phase is a stretch of the
    run in which neither head moves; no opcode moves a head back, so a
    configuration can recur only within its phase.  A phase that lasts N
    steps has visited N + 1 configurations with the same heads, so it has
    revisited one and the run never halts.  The limit starts at N and
    every read that moves a head sets it to N steps past that read, so a
    run stops within (|p| + |x| + 1) * N <= config_count steps.  Keeps no
    visited set and no output; aborts early only on events (space
    overflow, abnormal pop) after which halting is impossible.  The
    executed halt counts as a visited configuration.  Refused up front
    (ValueError) when config_count passes _MAX_CONFIGS.
    """

    _check_inputs(spec, p, x, s)
    phase = spec.state_count * stack_pair_count(s, *spec.pushed_bit_counts)
    verdict, _, steps = _execute(spec.instructions, p, x, s, phase, None, None, phase=phase)
    halted = verdict is Verdict.HALTED
    return HaltVerdict(halted, ProbeStats(steps + halted, 1))


__all__ = [
    "decide_backward",
    "decide_counter",
    "decide_forward",
]
