"""Two-stack machine model.

A machine has a finite control, two binary stacks (L and R), two one-directional
read-only input tapes (the program tape P and the condition tape X, each with an
implicit end marker), and a write-only output tape.  The space used by a
configuration is the total number of bits on the two stacks; input heads and the
output tape are free.

The transition table is total: for every (state, top_L, top_R) triple there is
exactly one instruction, where a stack top is 0, 1, or the empty-stack symbol.
Popping an empty stack aborts the run abnormally.  Reading at or past the end of
an input tape takes the end-marker branch without advancing the head, so heads
are nondecreasing and never exceed the tape length.

Machines have two interchangeable descriptions:

* a line-oriented text format (see `parse_machine`), and
* a flat bitstring layout (see `serialize_machine` / `parse_bits`): a unary
  state count ``1^n 0`` followed by the 9n instructions in lexicographic
  (state, top_L, top_R) order, each a 3-bit opcode plus fixed-width operands,
  zero-padded to a common record width.

`canonicalize` rewrites a machine so that every halting run drains both stacks,
advances both heads to the end markers, and stops in a dedicated halt state,
giving halting runs a single final configuration.  Output, max space, and
halting-within-space-s are preserved; step counts are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cache, cached_property, lru_cache
from itertools import product
from typing import NamedTuple, Optional


class MachineFormatError(ValueError):
    """Raised for malformed machine text; carries a 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class BitsParseError(ValueError):
    """Raised when a bitstring is not a valid machine serialization."""


class Op(IntEnum):
    # Values are the 3-bit opcodes of the serialized form.
    HALT = 0
    PUSH_L = 1
    PUSH_R = 2
    POP_L = 3
    POP_R = 4
    WRITE = 5
    READ_P = 6
    READ_X = 7


# Stack-top symbols in canonical order; EMPTY sorts after the bit values.
TOP_0 = 0
TOP_1 = 1
TOP_EMPTY = 2
TOP_CHARS = "01_"


# A table row is (op, bit, t0, t1, t2), all exact ints: `_execute` and the
# backward decider compare them on CPython's fast int path, which `Op`
# members would leave.  `bit` is a 0/1 payload and every `t` field a state;
# READ_P/READ_X branch to (t0, t1, t2) on reading 0, reading 1, and sitting
# at the end marker.  `_FIELDS` names the operand positions 1 to 4, and
# `_OPERANDS` lists the ones each opcode uses, in text and serialized order;
# unused fields are zero.  Validation, the text parser and both bit codecs
# read this map.
_FIELDS = ("bit", "t0", "t1", "t2")
_OPERANDS: dict[Op, tuple[str, ...]] = {
    Op.HALT: (),
    Op.PUSH_L: ("bit", "t0"),
    Op.PUSH_R: ("bit", "t0"),
    Op.POP_L: ("t0",),
    Op.POP_R: ("t0",),
    Op.WRITE: ("bit", "t0"),
    Op.READ_P: ("t0", "t1", "t2"),
    Op.READ_X: ("t0", "t1", "t2"),
}
# The distinct (bit operands, state operands) counts; `record_width` takes the
# widest.
_SHAPES = {(used.count("bit"), len(used) - used.count("bit")) for used in _OPERANDS.values()}


_HALT = (0, 0, 0, 0, 0)


@dataclass(frozen=True)
class MachineSpec:
    """A validated machine: `state_count` >= 1 and a total transition table.

    `instructions` has exactly 9 * state_count rows (op, bit, t0, t1, t2) in
    lexicographic (state, top_L, top_R) order with tops ordered 0 < 1 < empty.
    """

    state_count: int
    instructions: tuple[tuple[int, int, int, int, int], ...]

    def __post_init__(self) -> None:
        n = self.state_count
        if n < 1:
            raise ValueError("state_count must be >= 1")
        if not isinstance(self.instructions, tuple):  # a list table would leave the spec unhashable
            raise ValueError(f"instructions must be a tuple, got {type(self.instructions).__name__}")
        if len(self.instructions) != 9 * n:
            raise ValueError(f"expected {9 * n} instructions, got {len(self.instructions)}")
        # Rows of `_valid_rows`, as parse_bits builds them, pass by identity (an equal
        # row may hold 1.0 for 1); the walk checks any other and names its first bad row.
        if not (type(n) is int and n <= 4 and _valid_rows(n)[1].issuperset(map(id, self.instructions))):
            for row in self.instructions:
                _validate_instruction(row, n)

    def instruction(self, state: int, top_l: int, top_r: int) -> tuple[int, int, int, int, int]:
        return self.instructions[(state * 3 + top_l) * 3 + top_r]

    @cached_property
    def pushed_bit_counts(self) -> tuple[int, int]:
        """How many distinct bits the PUSH_L and the PUSH_R entries push (0, 1 or 2 each).

        Stacks start empty, so every word a run builds on L (R) is over that
        many bits, whichever entries the run executes; `==` ignores it.
        """

        left = {bit for op, bit, *_ in self.instructions if op == Op.PUSH_L}
        right = {bit for op, bit, *_ in self.instructions if op == Op.PUSH_R}
        return len(left), len(right)


@cache
def _valid_rows(state_count: int) -> tuple[dict, frozenset]:
    """The rows `_validate_instruction` accepts for `state_count` states (about 2n^3) by record; their ids."""

    states, rw = range(state_count), record_width(state_count)
    layout, rows = _record_layout(state_width(state_count), rw), {}
    for op, used in _OPERANDS.items():
        _, _, sb, _, s0, _, s1, _, s2, _ = layout[op]
        operands = [((0, 1) if f == "bit" else states) if f in used else (0,) for f in _FIELDS]
        for bit, t0, t1, t2 in product(*operands):
            rows[op << (rw - 3) | bit << sb | t0 << s0 | t1 << s1 | t2 << s2] = (int(op), bit, t0, t1, t2)
    return rows, frozenset(map(id, rows.values()))  # the dict keeps the rows alive, so the ids stay theirs


def _validate_instruction(row: tuple[int, int, int, int, int], state_count: int) -> None:
    if not (isinstance(row, tuple) and len(row) == 5):
        raise ValueError(f"instruction must be a 5-tuple, got {row!r}")
    op = row[0]
    used = _OPERANDS.get(op) if isinstance(op, int) else None
    if used is None:
        raise ValueError(f"unknown opcode {op!r}")
    for field, value in zip(_FIELDS, row[1:]):
        if not isinstance(value, int):  # 1.0 == 1, but serialize_machine cannot shift it
            raise ValueError(f"instruction {field} must be an int, got {value!r}")
        # Zero is valid in every field; unused fields must stay zero so that
        # equal machines compare equal.
        if value == 0:
            continue
        if field not in used:
            raise ValueError(f"{Op(op).name} does not use {field}")
        if field == "bit":
            if value != 1:
                raise ValueError(f"instruction bit must be 0 or 1, got {value}")
        elif not 0 < value < state_count:
            raise ValueError(f"state operand {value} out of range for {state_count} states")


# The string-configuration simulator: `Configuration`, `initial_configuration`,
# `step` and its result types, `_top_index` and `MachineSpec.instruction`.  The
# package runs only the packed form below; these stay because the benchmark's
# oracle (`perfbench/oracle.py`) and the tests check that form against them.


class Configuration(NamedTuple):
    """A machine configuration; the output tape is deliberately excluded."""

    state: int
    stack_l: str
    stack_r: str
    head_p: int
    head_x: int

    @property
    def space(self) -> int:
        return len(self.stack_l) + len(self.stack_r)


def initial_configuration() -> Configuration:
    return Configuration(0, "", "", 0, 0)


class StepKind(IntEnum):
    NEXT = 0
    HALTED = 1
    ABNORMAL = 2


class StepResult(NamedTuple):
    kind: StepKind
    config: Optional[Configuration]
    emitted: Optional[str]  # '0' or '1' when the step wrote a bit


class Verdict(IntEnum):
    HALTED = 0
    SPACE_EXCEEDED = 1
    ABNORMAL = 2
    STEP_LIMIT = 3


@dataclass(frozen=True)
class RunResult:
    verdict: Verdict
    output: str
    max_space: int
    steps: int


def check_bits(bits: str, what: str = "bitstring") -> str:
    if not isinstance(bits, str) or bits.strip("01") != "":
        raise ValueError(f"{what} must consist of '0'/'1' characters, got {bits!r}")
    return bits


def _top_index(stack: str) -> int:
    if not stack:
        return TOP_EMPTY
    return TOP_0 if stack[-1] == "0" else TOP_1


def step(spec: MachineSpec, cfg: Configuration, p: str, x: str) -> StepResult:
    """Execute one instruction.  Pure; does not enforce any space bound."""

    state, sl, sr, hp, hx = cfg
    op, bit, t0, t1, t2 = spec.instruction(state, _top_index(sl), _top_index(sr))
    if op == Op.HALT:
        return StepResult(StepKind.HALTED, None, None)
    if op == Op.PUSH_L:
        return StepResult(StepKind.NEXT, Configuration(t0, sl + "01"[bit], sr, hp, hx), None)
    if op == Op.PUSH_R:
        return StepResult(StepKind.NEXT, Configuration(t0, sl, sr + "01"[bit], hp, hx), None)
    if op == Op.POP_L:
        if not sl:
            return StepResult(StepKind.ABNORMAL, None, None)
        return StepResult(StepKind.NEXT, Configuration(t0, sl[:-1], sr, hp, hx), None)
    if op == Op.POP_R:
        if not sr:
            return StepResult(StepKind.ABNORMAL, None, None)
        return StepResult(StepKind.NEXT, Configuration(t0, sl, sr[:-1], hp, hx), None)
    if op == Op.WRITE:
        return StepResult(StepKind.NEXT, Configuration(t0, sl, sr, hp, hx), "01"[bit])
    if op == Op.READ_P:
        if hp >= len(p):
            return StepResult(StepKind.NEXT, Configuration(t2, sl, sr, hp, hx), None)
        nxt = Configuration(t0 if p[hp] == "0" else t1, sl, sr, hp + 1, hx)
        return StepResult(StepKind.NEXT, nxt, None)
    # Op.READ_X
    if hx >= len(x):
        return StepResult(StepKind.NEXT, Configuration(t2, sl, sr, hp, hx), None)
    nxt = Configuration(t0 if x[hx] == "0" else t1, sl, sr, hp, hx + 1)
    return StepResult(StepKind.NEXT, nxt, None)


# ---------- fast packed execution ----------
#
# Hot loops (deciders, the reference interpreter, exhaustive searches) run on a
# packed form: the table's exact-int rows as `MachineSpec.instructions` holds
# them, stacks as sentinel integers (1 = empty; push b => v*2+b; pop => v//2;
# top => v&1), and configurations as 5-int tuples (state, sl, sr, hp, hx).
#
# One loop executes this form: `_execute`, behind `run` and the forward and
# counter deciders, which differ only in how the loop detects a repeated
# configuration: Brent's check (`run`), a visited set (forward) or not at all
# (counter, which relies on a step limit re-armed at each head move).  It
# keeps the configuration in locals rather than taking one step per call,
# because a call and a tuple built and unpacked on every step more than
# double its cost: 0.32 s against 0.80 s for 1.04 M steps of step-limit runs
# of sampled machines (2-vCPU VM, CPython 3.11).  The backward decider, which
# moves between arbitrary configurations, inlines its own single forward step
# (`decide_backward` in `kslab.halting`).

EMPTY_STACK = 1

PackedConfig = tuple[int, int, int, int, int]


def _execute(
    prog: tuple[tuple[int, int, int, int, int], ...],
    p: str,
    x: str,
    s: int,
    limit: int,
    out: Optional[list[str]],
    seen: Optional[set[PackedConfig]],
    brent: bool = False,
    phase: int = 0,
) -> tuple[Verdict, int, int]:
    """Run `prog` from the initial configuration; returns (verdict, max_space, steps).

    Stops as `run` describes, with `limit` as the step limit.  Written bits
    are appended to `out` unless it is None.  A deterministic machine that
    repeats a configuration loops forever, and two modes end such a run
    early, as STEP_LIMIT, at a repeat:

    * `seen` a set: every configuration reached is added to it, and the
      first one already in it ends the run.
    * `brent` true: Brent's check (Brent 1980).  One configuration is
      saved, first the initial one; each step's configuration is compared
      with it, and after `power` comparisons the current configuration is
      saved instead and `power` doubles.

    With `phase` positive, every read that moves a head sets the step
    limit to `phase` steps past that read (`decide_counter`'s per-phase
    count); a read at the end marker moves no head and leaves it.
    """

    lp, lx = len(p), len(x)
    st, sl, sr, hp, hx = 0, EMPTY_STACK, EMPTY_STACK, 0, 0
    max_space = 0
    steps = 0
    detect = brent or seen is not None
    # Brent's saved configuration, and the comparisons made against it (lam)
    # out of the `power` it gets before it is replaced.
    bst, bsl, bsr, bhp, bhx = st, sl, sr, hp, hx
    power, lam = 1, 0
    while steps < limit:
        ta = sl & 1 if sl > 1 else 2
        tb = sr & 1 if sr > 1 else 2
        op, bit, t0, t1, t2 = prog[(st * 3 + ta) * 3 + tb]
        if op == 0:  # halting consumes no step
            return Verdict.HALTED, max_space, steps
        steps += 1
        if op == 1:
            sl = sl * 2 + bit
            st = t0
            space = sl.bit_length() + sr.bit_length() - 2
            if space > max_space:
                max_space = space
                if space > s:
                    return Verdict.SPACE_EXCEEDED, max_space, steps
        elif op == 2:
            sr = sr * 2 + bit
            st = t0
            space = sl.bit_length() + sr.bit_length() - 2
            if space > max_space:
                max_space = space
                if space > s:
                    return Verdict.SPACE_EXCEEDED, max_space, steps
        elif op == 3:
            if sl == 1:
                return Verdict.ABNORMAL, max_space, steps
            sl >>= 1
            st = t0
        elif op == 4:
            if sr == 1:
                return Verdict.ABNORMAL, max_space, steps
            sr >>= 1
            st = t0
        elif op == 5:
            if out is not None:
                out.append("01"[bit])
            st = t0
        elif op == 6:
            if hp >= lp:
                st = t2
            else:
                st = t0 if p[hp] == "0" else t1
                hp += 1
                if phase:
                    limit = steps + phase
        else:
            if hx >= lx:
                st = t2
            else:
                st = t0 if x[hx] == "0" else t1
                hx += 1
                if phase:
                    limit = steps + phase
        if detect:
            if brent:
                if st == bst and sl == bsl and sr == bsr and hp == bhp and hx == bhx:
                    return Verdict.STEP_LIMIT, max_space, steps
                lam += 1
                if lam == power:
                    bst, bsl, bsr, bhp, bhx = st, sl, sr, hp, hx
                    power *= 2
                    lam = 0
            else:
                cfg = (st, sl, sr, hp, hx)
                if cfg in seen:
                    return Verdict.STEP_LIMIT, max_space, steps
                seen.add(cfg)
    return Verdict.STEP_LIMIT, max_space, steps


def run(
    spec: MachineSpec,
    p: str,
    x: str,
    s: int,
    step_limit: int,
) -> RunResult:
    """Run from the initial configuration under space bound `s`.

    The run stops at the first of: a Halt instruction (HALTED), the first
    moment the combined stack length exceeds `s` (SPACE_EXCEEDED, with the
    offending space reported in max_space), a pop on an empty stack
    (ABNORMAL), `step_limit` executed instructions (STEP_LIMIT), or the
    first repeated configuration that Brent's check sees (STEP_LIMIT).

    The last stop is exact: a run that repeats a configuration is periodic
    from there on, so it can never halt, overflow or abort, and it reaches
    no configuration it has not reached already.  Its verdict and max_space
    are therefore those at `step_limit`; only `steps` and `output` are
    those at the stopping point.  A run with tail length mu and cycle
    length lam stops within 2 * max(mu + 1, lam) + lam steps.
    """

    check_bits(p, "program tape")
    check_bits(x, "condition tape")
    if s < 0:
        raise ValueError("space bound must be >= 0")
    if step_limit < 0:
        raise ValueError("step_limit must be >= 0")
    out: list[str] = []
    verdict, max_space, steps = _execute(spec.instructions, p, x, s, step_limit, out, None, brent=True)
    return RunResult(verdict, "".join(out), max_space, steps)


# ---------- text format ----------

# Largest state count of the text format, whose header alone makes the
# parser build and validate a 9n-entry table (0.05 s at 4,096 states, 2 s at
# 100,000; CPython 3.11, 2-vCPU VM).  With 4,096 states no decider admits
# s above 4 even on empty tapes.
_MAX_TEXT_STATES = 4096

_OP_NAMES = {
    "halt": Op.HALT,
    "pushL": Op.PUSH_L,
    "pushR": Op.PUSH_R,
    "popL": Op.POP_L,
    "popR": Op.POP_R,
    "write": Op.WRITE,
    "readP": Op.READ_P,
    "readX": Op.READ_X,
}


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        value = int(token, 10)
    except ValueError:
        raise MachineFormatError(f"{what} must be a decimal integer, got {token!r}", line) from None
    if value < 0:
        raise MachineFormatError(f"{what} must be nonnegative, got {token!r}", line)
    return value


def _parse_state(token: str, state_count: int, line: int) -> int:
    value = _parse_int(token, "state", line)
    if value >= state_count:
        raise MachineFormatError(f"state {value} out of range for {state_count} states", line)
    return value


def _parse_bit(token: str, line: int) -> int:
    if token not in ("0", "1"):
        raise MachineFormatError(f"bit must be 0 or 1, got {token!r}", line)
    return int(token)


def _parse_top(token: str, line: int) -> int:
    try:
        return TOP_CHARS.index(token)
    except ValueError:
        raise MachineFormatError(f"stack top must be 0, 1 or _, got {token!r}", line) from None


def parse_machine(text: str) -> MachineSpec:
    """Parse the line-oriented machine format.

    The first significant line is ``states: <n>``.  Each following line is

        <q> <topL> <topR> -> <instruction>

    with tops written 0, 1 or ``_`` and instructions as in the opcode table
    (``halt``, ``pushL <bit> <q'>``, ``popR <q'>``, ``readP <q0> <q1> <qE>``,
    ...).  ``#`` starts a comment.  Unlisted triples default to halt.
    """

    state_count: Optional[int] = None
    table: dict[int, tuple[int, int, int, int, int]] = {}
    seen_lines: dict[int, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if state_count is None:
            if not line.startswith("states:"):
                raise MachineFormatError("expected 'states: <n>' header", lineno)
            state_count = _parse_int(line[len("states:"):].strip(), "state count", lineno)
            if not 1 <= state_count <= _MAX_TEXT_STATES:
                raise MachineFormatError(
                    f"state count must be between 1 and {_MAX_TEXT_STATES}, got {state_count}", lineno
                )
            continue
        if line.startswith("states:"):
            raise MachineFormatError("duplicate 'states:' header", lineno)
        if "->" not in line:
            raise MachineFormatError("expected '<q> <topL> <topR> -> <instruction>'", lineno)
        lhs, rhs = line.split("->", 1)
        lhs_tokens = lhs.split()
        if len(lhs_tokens) != 3:
            raise MachineFormatError("left side must be '<q> <topL> <topR>'", lineno)
        q = _parse_state(lhs_tokens[0], state_count, lineno)
        ta = _parse_top(lhs_tokens[1], lineno)
        tb = _parse_top(lhs_tokens[2], lineno)
        rhs_tokens = rhs.split()
        if not rhs_tokens:
            raise MachineFormatError("missing instruction", lineno)
        name = rhs_tokens[0]
        if name not in _OP_NAMES:
            raise MachineFormatError(f"unknown instruction {name!r}", lineno)
        op = _OP_NAMES[name]
        used = _OPERANDS[op]
        args = rhs_tokens[1:]
        if len(args) != len(used):
            expected = " ".join(f"<{field}>" for field in used) or "no operands"
            raise MachineFormatError(f"{name} takes {expected}", lineno)
        operands = {
            field: _parse_bit(arg, lineno) if field == "bit" else _parse_state(arg, state_count, lineno)
            for field, arg in zip(used, args)
        }
        ins = (op.value, *[operands.get(field, 0) for field in _FIELDS])
        idx = (q * 3 + ta) * 3 + tb
        if idx in table:
            raise MachineFormatError(
                f"duplicate rule for state {q} tops {TOP_CHARS[ta]} {TOP_CHARS[tb]}"
                f" (first at line {seen_lines[idx]})",
                lineno,
            )
        table[idx] = ins
        seen_lines[idx] = lineno
    if state_count is None:
        raise MachineFormatError("empty machine description")
    instructions = tuple(table.get(i, _HALT) for i in range(9 * state_count))
    return MachineSpec(state_count, instructions)


# ---------- bit serialization ----------


def state_width(state_count: int) -> int:
    """Width of a serialized state operand: ceil(log2 n), 0 when n == 1."""

    return (state_count - 1).bit_length()


def record_width(state_count: int) -> int:
    """Common instruction record width: 3-bit opcode plus the widest operand set.

    A bit operand takes 1 bit and a state operand `state_width`; every record
    is zero-padded to this width.
    """

    wd = state_width(state_count)
    return 3 + max([bits + states * wd for bits, states in _SHAPES])


@cache
def _record_layout(wd: int, rw: int) -> tuple[tuple, ...]:
    """Per opcode: the opcode as an int, its padding mask, then a (shift, mask) per operand bit, t0, t1, t2.

    A record read as one integer holds each at rec >> shift & mask, and unused ones have mask 0."""

    layout = []
    for op in Op:
        pos, operands = 3, []
        for field in _FIELDS:  # `_OPERANDS` lists fields in this order
            width = 0 if field not in _OPERANDS[op] else 1 if field == "bit" else wd
            pos += width
            operands += [rw - pos, (1 << width) - 1]
        layout.append((op.value, (1 << (rw - pos)) - 1, *operands))
    return tuple(layout)


def serialize_machine(spec: MachineSpec) -> str:
    rw = record_width(spec.state_count)
    layout = _record_layout(state_width(spec.state_count), rw)
    parts = ["1" * spec.state_count + "0"]
    for op, bit, t0, t1, t2 in spec.instructions:
        _, _, sb, _, s0, _, s1, _, s2, _ = layout[op]
        parts.append(format(op << (rw - 3) | bit << sb | t0 << s0 | t1 << s1 | t2 << s2, f"0{rw}b"))
    return "".join(parts)


def parse_bits(bits: str) -> MachineSpec:
    """Inverse of `serialize_machine`; strict, the whole string must be consumed.

    Records are read as integers, taken from `_valid_rows` or split by `_record_layout`.
    Nonzero padding is rejected here and bad states by `MachineSpec` (as BitsParseError,
    first bad record first), so every machine has one serialization and vice versa.
    """

    check_bits(bits, "machine serialization")
    n = len(bits) - len(bits.lstrip("1"))
    if n == 0:
        raise BitsParseError("missing unary state count")
    if n >= len(bits):
        raise BitsParseError("unary state count not terminated")
    if len(bits) != serialized_length(n):
        expected = serialized_length(n) - n - 1
        raise BitsParseError(f"expected {expected} instruction bits for {n} states, got {len(bits) - n - 1}")
    rw = record_width(n)
    layout = _record_layout(state_width(n), rw)
    valid = _valid_rows(n)[0] if n <= 4 else {}
    instructions = []
    for start in range(n + 1, len(bits), rw):
        rec = int(bits[start:start + rw], 2)
        row, pad = valid.get(rec), 0
        if row is None:  # more than 4 states, a bad state or nonzero padding
            op, pad, sb, mb, s0, m0, s1, m1, s2, m2 = layout[rec >> (rw - 3)]
            row = (op, rec >> sb & mb, rec >> s0 & m0, rec >> s1 & m1, rec >> s2 & m2)
        instructions.append(row)
        if rec & pad:
            break
    try:
        # Halts stand in after a record with nonzero padding: a bad state up to it is named first.
        spec = MachineSpec(n, tuple(instructions) + (_HALT,) * (9 * n - len(instructions)))
    except ValueError as exc:
        raise BitsParseError(*exc.args) from exc
    if rec & pad:  # the loop stopped at this record
        raise BitsParseError("nonzero padding in instruction record")
    return spec


@lru_cache(maxsize=64)  # parse_bits asks it of every header; bounded, since n comes from the input
def serialized_length(state_count: int) -> int:
    """Length of any serialization with this state count: n+1 + 9n * record width."""

    return state_count + 1 + 9 * state_count * record_width(state_count)


# ---------- canonicalization ----------


def canonicalize(spec: MachineSpec) -> MachineSpec:
    """Give halting runs a unique final configuration.

    Five states are appended: drain-L, drain-R, advance-P, advance-X, and a
    halt state (in that order, so the halt state has the highest index).
    Every halt instruction of the original table is redirected into the chain.
    The drain states pop their stack until empty; stage changes and the halt
    redirect use reads as jumps (a read at the end marker is a pure state
    change, and one harmlessly consumed bit before the end does not matter
    because the advance states consume the rest of the tape anyway).  No stage
    pushes or writes, so output, max space, and halting-within-space-s are
    preserved for runs from the initial configuration; step counts grow.
    """

    n = spec.state_count
    drain_l = n
    drain_r = n + 1
    adv_p = n + 2
    adv_x = n + 3
    halt_state = n + 4
    read_p, read_x = Op.READ_P.value, Op.READ_X.value
    to_drain = (read_p, 0, drain_l, drain_l, drain_l)
    to_drain_r = (read_p, 0, drain_r, drain_r, drain_r)
    to_adv_p = (read_p, 0, adv_p, adv_p, adv_p)
    instructions = [to_drain if ins[0] == Op.HALT else ins for ins in spec.instructions]
    for ta in range(3):
        for tb in range(3):
            instructions.append((Op.POP_L.value, 0, drain_l, 0, 0) if ta != TOP_EMPTY else to_drain_r)
    for ta in range(3):
        for tb in range(3):
            instructions.append((Op.POP_R.value, 0, drain_r, 0, 0) if tb != TOP_EMPTY else to_adv_p)
    instructions.extend([(read_p, 0, adv_p, adv_p, adv_x)] * 9)
    instructions.extend([(read_x, 0, adv_x, adv_x, halt_state)] * 9)
    instructions.extend([_HALT] * 9)
    return MachineSpec(n + 5, tuple(instructions))


def final_configuration(canonical: MachineSpec, p: str, x: str) -> PackedConfig:
    """The packed configuration in which canonical machines execute halt:
    the last state, both stacks empty, both heads at the end markers."""

    return (canonical.state_count - 1, EMPTY_STACK, EMPTY_STACK, len(p), len(x))


__all__ = [
    "BitsParseError",
    "EMPTY_STACK",
    "MachineSpec",
    "StepKind",
    "Verdict",
    "canonicalize",
    "check_bits",
    "final_configuration",
    "initial_configuration",
    "parse_bits",
    "parse_machine",
    "record_width",
    "run",
    "serialize_machine",
    "serialized_length",
    "state_width",
    "step",
]
