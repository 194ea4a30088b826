"""Independent references the benchmark checks the program's outputs against.

Nothing here calls the packed execution core, the deciders, the complexity
search or the cone prover.  Machines are simulated one configuration at a
time with the string-configuration `kslab.machine.step`, complexities come
from the closed form written out below, and the elemental inequalities are
generated from their definition.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from kslab.machine import StepKind, initial_configuration, record_width, state_width, step

# ---------- machine sampling (the same rejection sampler as the test suite) ----------


def _record_valid(bits: str, n: int) -> bool:
    wd = state_width(n)
    op = int(bits[:3], 2)
    body = bits[3:]

    def state_ok(chunk: str) -> bool:
        return wd == 0 or int(chunk, 2) < n

    if op == 0:  # halt
        return body.strip("0") == ""
    if op in (1, 2, 5):  # pushL, pushR, write: a bit and a state
        return state_ok(body[1 : 1 + wd] or "0") and body[1 + wd :].strip("0") == ""
    if op in (3, 4):  # popL, popR: a state
        return state_ok(body[:wd] or "0") and body[wd:].strip("0") == ""
    for i in range(3):  # readP, readX: three states
        if not state_ok(body[i * wd : (i + 1) * wd] or "0"):
            return False
    return body[3 * wd :].strip("0") == ""


def sample_machine_bits(rng, n: int) -> str:
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


# ---------- string-configuration simulation with Brent cycle detection ----------

HALT = "halt"
SPACE = "space"
ABNORMAL = "abnormal"
LOOP = "loop"


def simulate(spec, p: str, x: str, s: int, max_steps: int):
    """Outcome of running `spec` on (p, x) within space s.

    Returns (HALT, output), (SPACE, None), (ABNORMAL, None) or (LOOP,
    (writes, length)), the bits the cycle writes and its length, or None
    when no outcome is settled within `max_steps` steps.  A loop is found by
    Brent's method (a repeated configuration inside the space bound), so the
    simulation keeps two configurations, not a visited set.
    """

    out: list[str] = []
    tortoise = hare = initial_configuration()
    power = lam = 1
    for _ in range(max_steps):
        res = step(spec, hare, p, x)
        if res.kind is StepKind.HALTED:
            return HALT, "".join(out)
        if res.kind is StepKind.ABNORMAL:
            return ABNORMAL, None
        hare = res.config
        if res.emitted is not None:
            out.append(res.emitted)
        if hare.space > s:
            return SPACE, None
        if hare == tortoise:
            return LOOP, (_cycle_writes(spec, hare, p, x, lam), lam)
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        lam += 1
    return None


def _cycle_writes(spec, cfg, p: str, x: str, length: int) -> int:
    writes = 0
    for _ in range(length):
        res = step(spec, cfg, p, x)
        writes += res.emitted is not None
        cfg = res.config
    return writes


# ---------- closed-form complexity of the two builtin program modes ----------


def strings_up_to(n: int) -> list:
    return [""] + ["".join(t) for length in range(1, n + 1) for t in product("01", repeat=length)]


def closed_ks(y: str, x: str, cap: int):
    """(value, witness) of the shortest literal or echo program, or (None, None).

    Literal "0"+y has length |y|+1; echo "10"+w has length |y|-|x|+2 when
    x is a prefix of y.  The literal wins ties, since "0..." sorts first.
    """

    value, witness = len(y) + 1, "0" + y
    if y.startswith(x) and len(y) - len(x) + 2 < value:
        value, witness = len(y) - len(x) + 2, "10" + y[len(x) :]
    return (value, witness) if value <= cap else (None, None)


def closed_ks_mode(y: str, x: str, cap: int, prefix: str):
    """closed_ks restricted to the literal ("0") or echo ("10") programs."""

    if prefix == "0":
        value, witness = len(y) + 1, "0" + y
    elif y.startswith(x):
        value, witness = len(y) - len(x) + 2, "10" + y[len(x) :]
    else:
        return None, None
    return (value, witness) if value <= cap else (None, None)


def encode_pair(x: str, y: str) -> str:
    return "".join(b + b for b in x) + "01" + y


def encode_tuple(items) -> str:
    acc = items[0]
    for item in items[1:]:
        acc = encode_pair(acc, item)
    return acc


def clog2(v: int) -> int:
    return (v + 1).bit_length()


def law_reference(law: str, n: int, grid_len: int, cap: int) -> dict:
    """Minimal constant of `pair_swap` or `basic` (I={1}, J={2}, k=3) on a grid.

    With the closed form no value depends on s, so each point's inequality
    reads lhs <= base + c * slope and its least c is ceil((lhs - base) / slope).
    """

    def k(z):
        return closed_ks(z, "", cap)[0]

    needs = []  # (lhs, base, slope) per point, None when vacuous
    if law == "pair_swap":
        for x, y in product(strings_up_to(n), repeat=2):
            lhs, base = k(encode_pair(y, x)), k(encode_pair(x, y))
            needs.append(None if None in (lhs, base) else (lhs, base, 1))
    elif law == "basic":
        for t in product(strings_up_to(n), repeat=3):
            union, inter, vi, vj = k(encode_pair(t[0], t[1])), k(""), k(t[0]), k(t[1])
            vals = (union, inter, vi, vj)
            needs.append(None if None in vals else (union + inter, vi + vj, clog2(n)))
    else:
        raise ValueError(law)
    live = [nd for nd in needs if nd is not None]

    def least_c(lhs, base, slope):
        return max(0, -((base - lhs) // slope))

    minimal_c = max((least_c(*nd) for nd in live), default=0)
    below = None
    if minimal_c > 0:
        below = grid_len * sum(1 for lhs, base, slope in live if lhs > base + (minimal_c - 1) * slope)
    return {
        "minimal_c": minimal_c,
        "points_total": len(needs) * grid_len,
        "points_vacuous": (len(needs) - len(live)) * grid_len,
        "violations_below": below,
    }


# ---------- the Shannon cone from its definition ----------


def mutual_info(k_bits_a: int, k_bits_b: int, given: int = 0) -> dict:
    """Coefficients of I(A; B | C) = H(AC) + H(BC) - H(ABC) - H(C)."""

    out: dict = {}
    for mask, c in ((k_bits_a | given, 1), (k_bits_b | given, 1), (k_bits_a | k_bits_b | given, -1), (given, -1)):
        if mask:
            out[mask] = out.get(mask, 0) + c
    return {m: Fraction(c) for m, c in out.items() if c}


def combine(*terms) -> dict:
    out: dict = {}
    for weight, coeffs in terms:
        for mask, c in coeffs.items():
            out[mask] = out.get(mask, Fraction(0)) + weight * c
    return {m: c for m, c in out.items() if c}


def elemental(k: int) -> list:
    """H(X_i | rest) >= 0 and I(X_i; X_j | X_S) >= 0, as coefficient dicts."""

    full = (1 << k) - 1
    out = [combine((1, {full: 1}), (-1, {full & ~(1 << i): 1} if full & ~(1 << i) else {})) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rest = full & ~((1 << i) | (1 << j))
            for given in range(rest + 1):
                if given & ~rest == 0:
                    out.append(mutual_info(1 << i, 1 << j, given))
    return out


def zhang_yeung(perm) -> dict:
    """2I(C;D) <= I(A;B) + I(A;CD) + 3I(C;D|A) + I(C;D|B), as `rhs - lhs >= 0`.

    `perm` maps A, B, C, D to variable bits, so every seed states the same
    inequality under a relabelling of the four variables.
    """

    a, b, c, d = perm
    return combine(
        (1, mutual_info(a, b)),
        (1, mutual_info(a, c | d)),
        (3, mutual_info(c, d, a)),
        (1, mutual_info(c, d, b)),
        (-2, mutual_info(c, d)),
    )


def mask_label(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def parse_label(label: str) -> int:
    inner = label.strip("{}")
    return sum(1 << (int(i) - 1) for i in inner.split(",")) if inner else 0


def format_inequality(k: int, coeffs: dict) -> str:
    return f"k={k}; " + " ".join(f"{mask_label(m)}:{c}" for m, c in sorted(coeffs.items()))


def parse_terms(text: str) -> dict:
    """'{1}:2 {1,2}:-1/2' -> {mask: Fraction}."""

    out = {}
    for term in text.split():
        label, _, value = term.rpartition(":")
        out[parse_label(label)] = Fraction(value)
    return out


def dot(coeffs: dict, point: dict) -> Fraction:
    return sum((c * point.get(m, Fraction(0)) for m, c in coeffs.items()), Fraction(0))
