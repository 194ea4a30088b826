"""Shared helpers: canned machines, uniform sampling of serializations, oracles.

The machine sampler is imported from the benchmark's `perfbench/oracle.py`.
Also the helpers only tests call: the field-by-field and pair-by-pair
decoders that `parse_bits`, `decode_pair` and `kolmo._live` are checked
against, a configuration trace, the table entries a run can reach, a
brute-force inverse of `step` and a slow backward tour over it, a tuple
decoder, seeded random draws, an inequality's value on an entropy vector,
profile level vectors and their stable level, and a dense phase-1 simplex
that the cone decision is checked against.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product, takewhile
from pathlib import Path

from kslab.entropy import LinearInequality
from kslab.kolmo import (
    ComplexityResult,
    ReferenceParseError,
    ReferenceRunError,
    decode_pair,
    reference_decode,
)
from kslab.machine import (
    BitsParseError,
    Configuration,
    MachineSpec,
    Op,
    StepKind,
    Verdict,
    _FIELDS,
    _OPERANDS,
    canonicalize,
    check_bits,
    initial_configuration,
    parse_bits,
    parse_machine,
    record_width,
    state_width,
    step,
)

# The machine sampler is the benchmark's, so both draw the same machines.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracle import _record_valid, sample_machine_bits  # noqa: E402

# Writes the condition tape to the output, bit by bit.
ECHO_X_TEXT = """
states: 4
0 _ _ -> readX 1 2 3
1 _ _ -> write 0 0
2 _ _ -> write 1 0
# state 3 is unlisted and halts
"""

# Writes the program tape to the output, bit by bit.
COPY_P_TEXT = """
states: 4
0 _ _ -> readP 1 2 3
1 _ _ -> write 0 0
2 _ _ -> write 1 0
"""

# Grows the left stack forever; never halts, exceeds any space bound.
PUSH_FOREVER_TEXT = """
states: 1
0 _ _ -> pushL 1 0
0 1 _ -> pushL 1 0
0 1 1 -> pushL 1 0
0 _ 1 -> pushL 1 0
"""

# Alternates push and pop on the left stack; loops forever in space 1.
SEESAW_TEXT = """
states: 2
0 _ _ -> pushL 1 1
1 1 _ -> popL 0
"""


def echo_x_spec() -> MachineSpec:
    return parse_machine(ECHO_X_TEXT)


def copy_p_spec() -> MachineSpec:
    return parse_machine(COPY_P_TEXT)


def push_forever_spec() -> MachineSpec:
    return parse_machine(PUSH_FOREVER_TEXT)


def seesaw_spec() -> MachineSpec:
    return parse_machine(SEESAW_TEXT)


def all_bits(max_len: int) -> list:
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in product("01", repeat=length))
    return out


def sample_spec(rng: random.Random, max_states: int) -> MachineSpec:
    """Uniform state count, then uniform over that count's serializations."""

    n = rng.randint(1, max_states)
    return parse_bits(sample_machine_bits(rng, n))


def simulate(spec: MachineSpec, p: str, x: str, s: int, step_limit: int) -> tuple:
    """`run`'s (verdict, output, max_space, steps), driven by the oracle `step`."""

    cfg = initial_configuration()
    output = ""
    max_space = 0
    for steps in range(step_limit):
        result = step(spec, cfg, p, x)
        if result.kind is StepKind.HALTED:
            return Verdict.HALTED, output, max_space, steps
        if result.kind is StepKind.ABNORMAL:
            return Verdict.ABNORMAL, output, max_space, steps + 1
        cfg = result.config
        output += result.emitted or ""
        max_space = max(max_space, cfg.space)
        if cfg.space > s:
            return Verdict.SPACE_EXCEEDED, output, max_space, steps + 1
    return Verdict.STEP_LIMIT, output, max_space, step_limit


def brute_scan(y: str, x: str, s: int, cap: int, prefix: str = "") -> ComplexityResult:
    """`kolmo.ks_scan` without pruning: runs every program of length <= cap extending prefix."""

    for length in range(len(prefix), cap + 1):
        for tail in product("01", repeat=length - len(prefix)):
            prog = prefix + "".join(tail)
            try:
                out = reference_decode(prog, x, s)
            except (ReferenceParseError, ReferenceRunError):
                continue
            if out == y:
                return ComplexityResult(y, x, s, cap, length, prog)
    return ComplexityResult(y, x, s, cap, None, None)


def outcome(fn, *args):
    """fn(*args), or ("error", type name, message) for the ValueError it raises."""

    try:
        return fn(*args)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))


def parse_bits_by_fields(bits: str) -> MachineSpec:
    """`machine.parse_bits` as a walk over each record's fields, checking each as it is read."""

    check_bits(bits, "machine serialization")
    n = 0
    while n < len(bits) and bits[n] == "1":
        n += 1
    if n == 0:
        raise BitsParseError("missing unary state count")
    if n >= len(bits):
        raise BitsParseError("unary state count not terminated")
    wd = state_width(n)
    rw = record_width(n)
    if len(bits) - n - 1 != 9 * n * rw:
        raise BitsParseError(
            f"expected {9 * n * rw} instruction bits for {n} states, got {len(bits) - n - 1}"
        )
    instructions = []
    for start in range(n + 1, len(bits), rw):
        op = int(bits[start:start + 3], 2)
        pos = start + 3
        values = {}
        for field in _OPERANDS[Op(op)]:
            width = 1 if field == "bit" else wd
            value = int(bits[pos:pos + width], 2) if width else 0
            if value >= n and field != "bit":
                raise BitsParseError(f"state operand {value} out of range for {n} states")
            values[field] = value
            pos += width
        if "1" in bits[pos:start + rw]:
            raise BitsParseError("nonzero padding in instruction record")
        instructions.append((op, *[values.get(field, 0) for field in _FIELDS]))
    return MachineSpec(n, tuple(instructions))


def first_unequal_pair(bits: str):
    """The offset of the first pair bits[i:i + 2] (i even) of unequal bits, or None."""

    for i in range(0, len(bits) - 1, 2):
        if bits[i] != bits[i + 1]:
            return i
    return None


def decode_pair_by_pairs(bits: str) -> tuple[str, str]:
    """`kolmo.decode_pair`, walking the doubled bits a pair at a time."""

    check_bits(bits)
    i = first_unequal_pair(bits)
    if i is None:
        raise ValueError("pair encoding ended before the 01 separator")
    if bits[i] == "1":
        raise ValueError(f"invalid doubled pair at offset {i}")
    return bits[:i:2], bits[i + 2 :]


def live_by_pairs(prog: str, x: str, y: str, cap: int) -> bool:
    """`kolmo._live`, walking a general-mode header a pair at a time."""

    if prog[:1] == "0":
        return y.startswith(prog[1:])
    if prog[:2] == "10":
        return y.startswith(x + prog[2:])
    i = first_unequal_pair(prog)
    if i is None:
        # Open: live while some machine header at least its pairs long, doubled, closes within cap.
        headers = (n + 1 + 9 * n * record_width(n) for n in range(1, cap))
        closing = takewhile(lambda bits: 2 * bits + 2 <= cap, headers)
        return len(prog) < 2 or any(len(prog) // 2 <= bits for bits in closing)
    if prog[i] == "1":
        return False
    try:
        parse_bits_by_fields(prog[:i:2])
    except BitsParseError:
        return False
    return True


def trace(spec: MachineSpec, p: str, x: str, s: int, step_limit: int):
    """Yield the configurations of a bounded run, starting at the initial one.

    Stops yielding after the configuration in which the run halts, aborts,
    exceeds `s`, or hits the step limit.
    """

    cfg: Configuration = initial_configuration()
    yield cfg
    for _ in range(step_limit):
        res = step(spec, cfg, p, x)
        if res.kind is not StepKind.NEXT:
            return
        cfg = res.config
        if cfg.space > s:
            return
        yield cfg


def enumerate_configurations(spec: MachineSpec, p: str, x: str, s: int):
    """Every configuration with space <= s."""

    stacks = [
        ("".join(sl), "".join(sr))
        for l_len in range(s + 1)
        for sl in product("01", repeat=l_len)
        for r_len in range(s + 1 - l_len)
        for sr in product("01", repeat=r_len)
    ]
    for state in range(spec.state_count):
        for sl, sr in stacks:
            for hp in range(len(p) + 1):
                for hx in range(len(x) + 1):
                    yield Configuration(state, sl, sr, hp, hx)


def canonical_key(spec: MachineSpec, p: str, x: str, cfg: Configuration) -> tuple:
    """Where `cfg` sits among the predecessors of its successor.

    The canonical child order: source state, opcode, pushed/popped bit, the
    source's stack tops a and b, then a read's branch (0, 1, 2 for the end).
    """

    a = int(cfg.stack_l[-1]) if cfg.stack_l else 2
    b = int(cfg.stack_r[-1]) if cfg.stack_r else 2
    op, pushed = spec.instruction(cfg.state, a, b)[:2]
    bit, branch = 0, 0
    if op == Op.PUSH_L or op == Op.PUSH_R:
        bit = pushed
    elif op == Op.POP_L:
        bit = a
    elif op == Op.POP_R:
        bit = b
    elif op == Op.READ_P:
        branch = int(p[cfg.head_p]) if cfg.head_p < len(p) else 2
    elif op == Op.READ_X:
        branch = int(x[cfg.head_x]) if cfg.head_x < len(x) else 2
    return (cfg.state, op, bit, a, b, branch)


@lru_cache(maxsize=1)
def predecessors(spec: MachineSpec, p: str, x: str, s: int) -> dict:
    """Brute-force inverse of `step` within space s.

    Maps each configuration to the configurations with space <= s that step
    to it, in canonical order (see `canonical_key`).  The last result is
    kept, so one inverse serves a run of calls on the same machine and tapes.
    """

    inverse: dict = {}
    for cfg in enumerate_configurations(spec, p, x, s):
        kind, successor, _ = step(spec, cfg, p, x)
        if kind is StepKind.NEXT:
            inverse.setdefault(successor, []).append(cfg)
    for sources in inverse.values():
        if len(sources) > 1:
            sources.sort(key=lambda cfg: canonical_key(spec, p, x, cfg))
    return inverse


def tops(cfg: Configuration) -> tuple[int, int]:
    """The stack tops of `cfg`: 0, 1, or 2 for an empty stack."""

    return (int(cfg.stack_l[-1]) if cfg.stack_l else 2, int(cfg.stack_r[-1]) if cfg.stack_r else 2)


def table_entry(cfg: Configuration) -> int:
    """Index (state * 3 + L top) * 3 + R top of the table entry `cfg` executes."""

    top_l, top_r = tops(cfg)
    return (cfg.state * 3 + top_l) * 3 + top_r


def reachable_entries(spec: MachineSpec) -> set:
    """Table entries that `step` reaches from the start, stepping stand-ins.

    An entry (state, a, b) stands for the configurations in that state with
    the L stacks "", or "a", "0a" and "1a" when a is a bit (likewise R), so
    that a pop leaves each top it can leave.  Each is stepped with both
    heads at 0 on the tapes "0", "1" and "", which take a read's three
    branches.  The set holds the start's entry and every entry that a
    stand-in of an entry in the set steps into.
    """

    def stacks(top):
        return [""] if top == 2 else [below + "01"[top] for below in ("", "0", "1")]

    start = table_entry(initial_configuration())
    reached = {start}
    work = [start]
    while work:
        entry = work.pop()
        top_l, top_r = entry // 3 % 3, entry % 3
        for sl in stacks(top_l):
            for sr in stacks(top_r):
                for tape in ("0", "1", ""):
                    kind, successor, _ = step(spec, Configuration(entry // 9, sl, sr, 0, 0), tape, tape)
                    if kind is not StepKind.NEXT:
                        continue
                    nxt = table_entry(successor)
                    if nxt not in reached:
                        reached.add(nxt)
                        work.append(nxt)
    return reached


# Space of the inverse `oracle_backward` builds: one serves every s up to it.
ORACLE_SPACE = 4


def oracle_backward(spec: MachineSpec, p: str, x: str, s: int, visited=None) -> tuple:
    """`decide_backward`'s (terminates_within_s, configurations_visited, peak_live), slowly.

    A depth-first search with an explicit stack over the termination tree of
    the canonicalized machine.  A vertex's children are its `predecessors`
    within max(s, ORACLE_SPACE) that have space <= s and execute an entry
    in `reachable_entries`, in canonical order.  The search stops at the
    initial configuration.  Live configurations: 1 until a child is visited,
    2 until the search first returns from a vertex other than the root,
    then 3.  Every visited configuration is appended to the list `visited`,
    if one is given.
    """

    canon = canonicalize(spec)
    inverse = predecessors(canon, p, x, max(s, ORACLE_SPACE))
    reachable = reachable_entries(canon)

    def children(cfg):
        return iter([c for c in inverse.get(cfg, ()) if c.space <= s and table_entry(c) in reachable])

    # The root: canonical machines halt in their last state, drained and at both ends.
    root = Configuration(canon.state_count - 1, "", "", len(p), len(x))
    start = initial_configuration()
    count, live = 1, 1
    if visited is not None:
        visited.append(root)
    if root == start:
        return True, count, live
    path = [children(root)]
    while path:
        child = next(path[-1], None)
        if child is None:
            path.pop()
            if path:
                live = 3
            continue
        count += 1
        live = max(live, 2)
        if visited is not None:
            visited.append(child)
        if child == start:
            return True, count, live
        path.append(children(child))
    return False, count, live


def decode_tuple(bits: str, count: int) -> tuple[str, ...]:
    """Inverse of `kolmo.encode_subtuple` for a tuple of `count` strings."""

    if count < 1:
        raise ValueError("tuple arity must be >= 1")
    parts: list[str] = []
    rest = bits
    for _ in range(count - 1):
        rest, last = decode_pair(rest)
        parts.append(last)
    check_bits(rest)
    parts.append(rest)
    return tuple(reversed(parts))


def random_rational(k: int, alphabet_sizes, denominator: int, seed: int) -> list:
    """`denominator` seeded uniform draws over the product space.

    Their empirical distribution gives every outcome a multiple of
    1/denominator, and runs are reproducible from the seed.
    """

    if isinstance(alphabet_sizes, int):
        alphabet_sizes = (alphabet_sizes,) * k
    alphabet_sizes = tuple(alphabet_sizes)
    if len(alphabet_sizes) != k or any(a < 1 for a in alphabet_sizes):
        raise ValueError("need one positive alphabet size per variable")
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    rng = random.Random(seed)
    return [tuple(str(rng.randrange(a)) for a in alphabet_sizes) for _ in range(denominator)]


def evaluate(inequality: LinearInequality, vector: dict) -> float:
    """Value of the inequality's left side on an entropy vector (floats)."""

    return sum(float(c) * vector[m] for m, c in inequality.coeffs)


def profile_level_vector(profile: dict, cap: int) -> tuple:
    """Profile as a nonincreasing-in-s integer vector; NotFound maps to cap+1."""

    return tuple(cap + 1 if profile[key] is None else profile[key] for key in sorted(profile))


def find_stable_level(levels) -> int:
    """Smallest index k with levels[k] equal to levels[k+1].

    Input must be coordinatewise nonincreasing; then a list longer than
    1 + total decrease always contains an equal adjacent pair
    (pigeonhole), which is how profile sequences are shown to stabilize.
    """

    levels = [tuple(v) for v in levels]
    for idx in range(len(levels) - 1):
        cur, nxt = levels[idx], levels[idx + 1]
        if len(cur) != len(nxt):
            raise ValueError("level vectors must share a length")
        if any(b > a for a, b in zip(cur, nxt)):
            raise ValueError(f"levels increase at index {idx}")
        if cur == nxt:
            return idx
    raise ValueError("no stable adjacent pair; sequence too short")


def dense_bland_phase1(columns, rhs):
    """The Fraction reference for entropy._bland_phase1.

    The same Bland phase-1 simplex on a tableau of Fractions: every pivot
    divides the whole pivot row and rebuilds every row that has a nonzero
    in the entering column, and the reduced costs, over the full tableau
    width.  Same contract: (solution, None) or (None, Farkas y).
    """

    m = len(rhs)
    n = len(columns)
    signs = [1] * m
    rhs = [Fraction(v) for v in rhs]
    cols = [[Fraction(v) for v in c] for c in columns]
    for i in range(m):
        if rhs[i] < 0:
            signs[i] = -1
            rhs[i] = -rhs[i]
            for col in cols:
                col[i] = -col[i]
    width = n + m + 1
    rows = []
    for i in range(m):
        row = [cols[j][i] for j in range(n)]
        row += [Fraction(1) if t == i else Fraction(0) for t in range(m)]
        row.append(rhs[i])
        rows.append(row)
    basis = [n + i for i in range(m)]
    red = [Fraction(0)] * width
    for j in range(width):
        red[j] = (Fraction(1) if n <= j < n + m else Fraction(0)) - sum(
            rows[i][j] for i in range(m)
        )
    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][width - 1] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded, no unbounded ray exists")
        pivot = rows[leave][enter]
        rows[leave] = [v / pivot for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
        if red[enter] != 0:
            f = red[enter]
            red = [a - f * b for a, b in zip(red, rows[leave])]
        basis[leave] = enter
    objective = sum(rows[i][width - 1] for i in range(m) if basis[i] >= n)
    if objective == 0:
        solution: dict = {}
        for i in range(m):
            if basis[i] < n and rows[i][width - 1] != 0:
                solution[basis[i]] = rows[i][width - 1]
        return solution, None
    y = [(Fraction(1) - red[n + i]) * signs[i] for i in range(m)]
    return None, y
