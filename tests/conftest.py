"""Shared helpers: canned machines, uniform sampling of serializations, oracles."""

from __future__ import annotations

import random
from itertools import product

from kslab.kolmo import ComplexityResult, ReferenceParseError, ReferenceRunError, reference_decode
from kslab.machine import (
    MachineSpec,
    Op,
    StepKind,
    Verdict,
    initial_configuration,
    parse_bits,
    parse_machine,
    record_width,
    state_width,
    step,
)

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


def _record_valid(bits: str, n: int) -> bool:
    wd = state_width(n)
    op = int(bits[:3], 2)
    body = bits[3:]

    def state_ok(chunk: str) -> bool:
        return wd == 0 or int(chunk, 2) < n

    if op == int(Op.HALT):
        return body.strip("0") == ""
    if op in (int(Op.PUSH_L), int(Op.PUSH_R), int(Op.WRITE)):
        return state_ok(body[1 : 1 + wd] or "0") and body[1 + wd :].strip("0") == ""
    if op in (int(Op.POP_L), int(Op.POP_R)):
        return state_ok(body[:wd] or "0") and body[wd:].strip("0") == ""
    # READ_P / READ_X: three state operands
    for i in range(3):
        if not state_ok(body[i * wd : (i + 1) * wd] or "0"):
            return False
    return body[3 * wd :].strip("0") == ""


def sample_machine_bits(rng: random.Random, n: int) -> str:
    """Uniform over valid n-state serializations, by per-record rejection."""

    rw = record_width(n)
    parts = ["1" * n + "0"]
    for _ in range(9 * n):
        while True:
            candidate = format(rng.getrandbits(rw), f"0{rw}b")
            if _record_valid(candidate, n):
                break
        parts.append(candidate)
    return "".join(parts)


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
