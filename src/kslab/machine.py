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
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional


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


class Instruction(NamedTuple):
    """One table entry.

    `bit` is the payload for PUSH_L/PUSH_R/WRITE.  `t0` is the next state for
    every operation that has one; READ_P/READ_X use (t0, t1, t2) as the
    branch targets for reading 0, reading 1, and sitting at the end marker.
    Unused fields are zero.
    """

    op: Op
    bit: int = 0
    t0: int = 0
    t1: int = 0
    t2: int = 0


def halt() -> Instruction:
    return Instruction(Op.HALT)


def push_l(bit: int, nxt: int) -> Instruction:
    return Instruction(Op.PUSH_L, bit, nxt)


def push_r(bit: int, nxt: int) -> Instruction:
    return Instruction(Op.PUSH_R, bit, nxt)


def pop_l(nxt: int) -> Instruction:
    return Instruction(Op.POP_L, 0, nxt)


def pop_r(nxt: int) -> Instruction:
    return Instruction(Op.POP_R, 0, nxt)


def write(bit: int, nxt: int) -> Instruction:
    return Instruction(Op.WRITE, bit, nxt)


def read_p(on0: int, on1: int, on_end: int) -> Instruction:
    return Instruction(Op.READ_P, 0, on0, on1, on_end)


def read_x(on0: int, on1: int, on_end: int) -> Instruction:
    return Instruction(Op.READ_X, 0, on0, on1, on_end)


@dataclass(frozen=True)
class MachineSpec:
    """A validated machine: `state_count` >= 1 and a total transition table.

    `instructions` has exactly 9 * state_count entries in lexicographic
    (state, top_L, top_R) order with tops ordered 0 < 1 < empty.
    """

    state_count: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self) -> None:
        n = self.state_count
        if n < 1:
            raise ValueError("state_count must be >= 1")
        if len(self.instructions) != 9 * n:
            raise ValueError(f"expected {9 * n} instructions, got {len(self.instructions)}")
        for ins in self.instructions:
            _validate_instruction(ins, n)

    def instruction(self, state: int, top_l: int, top_r: int) -> Instruction:
        return self.instructions[(state * 3 + top_l) * 3 + top_r]


def _validate_instruction(ins: Instruction, state_count: int) -> None:
    op = ins.op
    if op not in (Op.HALT, Op.PUSH_L, Op.PUSH_R, Op.POP_L, Op.POP_R, Op.WRITE, Op.READ_P, Op.READ_X):
        raise ValueError(f"unknown opcode {op!r}")
    if ins.bit not in (0, 1):
        raise ValueError(f"instruction bit must be 0 or 1, got {ins.bit}")
    targets: tuple[int, ...]
    if op in (Op.READ_P, Op.READ_X):
        targets = (ins.t0, ins.t1, ins.t2)
    elif op is Op.HALT:
        targets = ()
    else:
        targets = (ins.t0,)
    for t in targets:
        if not 0 <= t < state_count:
            raise ValueError(f"state operand {t} out of range for {state_count} states")
    # Unused fields must be zero so that equal machines compare equal.
    if op is Op.HALT and (ins.bit, ins.t0, ins.t1, ins.t2) != (0, 0, 0, 0):
        raise ValueError("halt carries no operands")
    if op in (Op.PUSH_L, Op.PUSH_R, Op.WRITE, Op.POP_L, Op.POP_R) and (ins.t1, ins.t2) != (0, 0):
        raise ValueError(f"{op.name} uses only t0")
    if op in (Op.POP_L, Op.POP_R, Op.READ_P, Op.READ_X) and ins.bit != 0:
        raise ValueError(f"{op.name} carries no bit operand")


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

    ins = spec.instruction(cfg.state, _top_index(cfg.stack_l), _top_index(cfg.stack_r))
    op = ins.op
    if op is Op.HALT:
        return StepResult(StepKind.HALTED, None, None)
    if op is Op.PUSH_L:
        nxt = cfg._replace(state=ins.t0, stack_l=cfg.stack_l + "01"[ins.bit])
        return StepResult(StepKind.NEXT, nxt, None)
    if op is Op.PUSH_R:
        nxt = cfg._replace(state=ins.t0, stack_r=cfg.stack_r + "01"[ins.bit])
        return StepResult(StepKind.NEXT, nxt, None)
    if op is Op.POP_L:
        if not cfg.stack_l:
            return StepResult(StepKind.ABNORMAL, None, None)
        return StepResult(StepKind.NEXT, cfg._replace(state=ins.t0, stack_l=cfg.stack_l[:-1]), None)
    if op is Op.POP_R:
        if not cfg.stack_r:
            return StepResult(StepKind.ABNORMAL, None, None)
        return StepResult(StepKind.NEXT, cfg._replace(state=ins.t0, stack_r=cfg.stack_r[:-1]), None)
    if op is Op.WRITE:
        return StepResult(StepKind.NEXT, cfg._replace(state=ins.t0), "01"[ins.bit])
    if op is Op.READ_P:
        if cfg.head_p >= len(p):
            return StepResult(StepKind.NEXT, cfg._replace(state=ins.t2), None)
        bit = p[cfg.head_p]
        nxt = cfg._replace(state=ins.t0 if bit == "0" else ins.t1, head_p=cfg.head_p + 1)
        return StepResult(StepKind.NEXT, nxt, None)
    # Op.READ_X
    if cfg.head_x >= len(x):
        return StepResult(StepKind.NEXT, cfg._replace(state=ins.t2), None)
    bit = x[cfg.head_x]
    nxt = cfg._replace(state=ins.t0 if bit == "0" else ins.t1, head_x=cfg.head_x + 1)
    return StepResult(StepKind.NEXT, nxt, None)


# ---------- fast packed execution ----------
#
# Hot loops (deciders, the reference interpreter, exhaustive searches) run on a
# compiled form: the table as a flat tuple of plain-int rows, stacks as
# sentinel integers (1 = empty; push b => v*2+b; pop => v//2; top => v&1), and
# configurations as 5-int tuples (state, sl, sr, hp, hx).
#
# One loop executes this form: `_execute`, behind `run` and the forward and
# counter deciders, which differ only in how the loop detects a repeated
# configuration: Brent's check (`run`), a visited set (forward) or not at all
# (counter, which relies on its step limit).  It keeps the configuration in
# locals rather than taking one step per call, because a call and a tuple
# built and unpacked on every step more than double its cost: 0.32 s against
# 0.80 s for 1.04 M steps of step-limit runs of sampled machines (2-vCPU VM,
# CPython 3.11).  The one single step, for the backward decider, which moves
# between arbitrary configurations, is `up` in `kslab.halting`.

EMPTY_STACK = 1

PackedConfig = tuple[int, int, int, int, int]


def compile_spec(spec: MachineSpec) -> tuple[tuple[int, int, int, int, int], ...]:
    return tuple((int(i.op), i.bit, i.t0, i.t1, i.t2) for i in spec.instructions)


def pack_config(cfg: Configuration) -> PackedConfig:
    return (
        cfg.state,
        int("1" + cfg.stack_l, 2),
        int("1" + cfg.stack_r, 2),
        cfg.head_p,
        cfg.head_x,
    )


def unpack_config(packed: PackedConfig) -> Configuration:
    st, sl, sr, hp, hx = packed
    return Configuration(st, bin(sl)[3:], bin(sr)[3:], hp, hx)


def _execute(
    prog: tuple[tuple[int, int, int, int, int], ...],
    p: str,
    x: str,
    s: int,
    limit: int,
    out: Optional[list[str]],
    seen: Optional[set[PackedConfig]],
    brent: bool = False,
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
        else:
            if hx >= lx:
                st = t2
            else:
                st = t0 if x[hx] == "0" else t1
                hx += 1
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
    verdict, max_space, steps = _execute(compile_spec(spec), p, x, s, step_limit, out, None, brent=True)
    return RunResult(verdict, "".join(out), max_space, steps)


# ---------- text format ----------

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
    table: dict[int, Instruction] = {}
    seen_lines: dict[int, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if state_count is None:
            if not line.startswith("states:"):
                raise MachineFormatError("expected 'states: <n>' header", lineno)
            state_count = _parse_int(line[len("states:"):].strip(), "state count", lineno)
            if state_count < 1:
                raise MachineFormatError("state count must be >= 1", lineno)
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
        args = rhs_tokens[1:]
        if op is Op.HALT:
            if args:
                raise MachineFormatError("halt takes no operands", lineno)
            ins = halt()
        elif op in (Op.PUSH_L, Op.PUSH_R, Op.WRITE):
            if len(args) != 2:
                raise MachineFormatError(f"{name} takes <bit> <q'>", lineno)
            ins = Instruction(op, _parse_bit(args[0], lineno), _parse_state(args[1], state_count, lineno))
        elif op in (Op.POP_L, Op.POP_R):
            if len(args) != 1:
                raise MachineFormatError(f"{name} takes <q'>", lineno)
            ins = Instruction(op, 0, _parse_state(args[0], state_count, lineno))
        else:
            if len(args) != 3:
                raise MachineFormatError(f"{name} takes <q0> <q1> <qE>", lineno)
            ins = Instruction(
                op,
                0,
                _parse_state(args[0], state_count, lineno),
                _parse_state(args[1], state_count, lineno),
                _parse_state(args[2], state_count, lineno),
            )
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
    instructions = tuple(table.get(i, halt()) for i in range(9 * state_count))
    return MachineSpec(state_count, instructions)


# ---------- bit serialization ----------


def state_width(state_count: int) -> int:
    """Width of a serialized state operand: ceil(log2 n), 0 when n == 1."""

    return (state_count - 1).bit_length()


def record_width(state_count: int) -> int:
    """Common instruction record width: 3-bit opcode plus the widest operand set.

    Push/write carry a bit and a state; reads carry three states; every record
    is zero-padded to this width.
    """

    wd = state_width(state_count)
    return 3 + max(1 + wd, 3 * wd)


def _int_to_bits(value: int, width: int) -> str:
    return format(value, "b").zfill(width) if width else ""


def serialize_machine(spec: MachineSpec) -> str:
    n = spec.state_count
    wd = state_width(n)
    rw = record_width(n)
    parts = ["1" * n + "0"]
    for ins in spec.instructions:
        rec = format(int(ins.op), "03b")
        if ins.op in (Op.PUSH_L, Op.PUSH_R, Op.WRITE):
            rec += str(ins.bit) + _int_to_bits(ins.t0, wd)
        elif ins.op in (Op.POP_L, Op.POP_R):
            rec += _int_to_bits(ins.t0, wd)
        elif ins.op in (Op.READ_P, Op.READ_X):
            rec += _int_to_bits(ins.t0, wd) + _int_to_bits(ins.t1, wd) + _int_to_bits(ins.t2, wd)
        rec += "0" * (rw - len(rec))
        parts.append(rec)
    return "".join(parts)


def parse_bits(bits: str) -> MachineSpec:
    """Inverse of `serialize_machine`; strict, the whole string must be consumed.

    Nonzero padding and out-of-range state operands are rejected, so every
    machine has exactly one serialization and vice versa.
    """

    check_bits(bits, "machine serialization")
    n = 0
    while n < len(bits) and bits[n] == "1":
        n += 1
    if n == 0:
        raise BitsParseError("missing unary state count")
    if n >= len(bits):
        raise BitsParseError("unary state count not terminated")
    pos = n + 1
    wd = state_width(n)
    rw = record_width(n)
    if len(bits) - pos != 9 * n * rw:
        raise BitsParseError(
            f"expected {9 * n * rw} instruction bits for {n} states, got {len(bits) - pos}"
        )

    def take(width: int) -> int:
        nonlocal pos
        if width == 0:
            return 0
        chunk = bits[pos:pos + width]
        pos += width
        return int(chunk, 2)

    def take_state() -> int:
        value = take(wd)
        if value >= n:
            raise BitsParseError(f"state operand {value} out of range for {n} states")
        return value

    instructions = []
    for _ in range(9 * n):
        end = pos + rw
        op_val = take(3)
        op = Op(op_val)
        if op in (Op.PUSH_L, Op.PUSH_R, Op.WRITE):
            bit = take(1)
            ins = Instruction(op, bit, take_state())
        elif op in (Op.POP_L, Op.POP_R):
            ins = Instruction(op, 0, take_state())
        elif op in (Op.READ_P, Op.READ_X):
            ins = Instruction(op, 0, take_state(), take_state(), take_state())
        else:
            ins = halt()
        if bits[pos:end].strip("0") != "":
            raise BitsParseError("nonzero padding in instruction record")
        pos = end
        instructions.append(ins)
    return MachineSpec(n, tuple(instructions))


def serialized_length(state_count: int) -> int:
    """Length of any serialization with this state count: n+1 + 9n * record width."""

    return state_count + 1 + 9 * state_count * record_width(state_count)


# ---------- canonicalization ----------


@lru_cache(maxsize=256)
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
    to_drain = read_p(drain_l, drain_l, drain_l)
    instructions = [to_drain if ins.op is Op.HALT else ins for ins in spec.instructions]
    for ta in range(3):
        for tb in range(3):
            instructions.append(pop_l(drain_l) if ta != TOP_EMPTY else read_p(drain_r, drain_r, drain_r))
    for ta in range(3):
        for tb in range(3):
            instructions.append(pop_r(drain_r) if tb != TOP_EMPTY else read_p(adv_p, adv_p, adv_p))
    instructions.extend([read_p(adv_p, adv_p, adv_x)] * 9)
    instructions.extend([read_x(adv_x, adv_x, halt_state)] * 9)
    instructions.extend([halt()] * 9)
    return MachineSpec(n + 5, tuple(instructions))


def canonical_halt_state(canonical: MachineSpec) -> int:
    return canonical.state_count - 1


def final_configuration(canonical: MachineSpec, p: str, x: str) -> Configuration:
    """The single configuration in which canonical machines execute halt."""

    return Configuration(canonical_halt_state(canonical), "", "", len(p), len(x))


def trace(spec: MachineSpec, p: str, x: str, s: int, step_limit: int) -> Iterator[Configuration]:
    """Yield the configurations of a bounded run, starting at the initial one.

    Stops yielding after the configuration in which the run halts, aborts,
    exceeds `s`, or hits the step limit.  Mostly a test aid.
    """

    cfg = initial_configuration()
    yield cfg
    for _ in range(step_limit):
        res = step(spec, cfg, p, x)
        if res.kind is not StepKind.NEXT:
            return
        cfg = res.config
        if cfg.space > s:
            return
        yield cfg


__all__ = [
    "BitsParseError",
    "Configuration",
    "EMPTY_STACK",
    "Instruction",
    "MachineFormatError",
    "MachineSpec",
    "Op",
    "RunResult",
    "StepKind",
    "StepResult",
    "TOP_0",
    "TOP_1",
    "TOP_CHARS",
    "TOP_EMPTY",
    "Verdict",
    "canonical_halt_state",
    "canonicalize",
    "check_bits",
    "compile_spec",
    "final_configuration",
    "halt",
    "initial_configuration",
    "pack_config",
    "parse_bits",
    "parse_machine",
    "pop_l",
    "pop_r",
    "push_l",
    "push_r",
    "read_p",
    "read_x",
    "record_width",
    "run",
    "serialize_machine",
    "serialized_length",
    "state_width",
    "step",
    "trace",
    "unpack_config",
    "write",
]
