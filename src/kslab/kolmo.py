"""Space-bounded conditional complexity under a fixed reference interpreter.

The interpreter V(prog, x, s) maps a binary program and a binary condition
string to a binary output, under a workspace bound s.  Its program grammar
has three modes, dispatched on the leading bits:

  "0" + w            write w and halt; no workspace is charged.
  "10" + w           write x, then w, and halt; no workspace is charged.
  rr "01" p          general mode: the bits of a serialized two-stack
                     machine r, each doubled, then the separator "01", then
                     a program tape p.  V simulates M_r(p, x) with workspace
                     s - (2|r| + C_SIM) and returns its output.  A run that
                     repeats a configuration never halts; the simulation
                     stops at the first repeat that Brent's check sees, so
                     V is total, and `config_count` is only a backstop.

Doubling r makes the machine header self-delimiting, so p can be arbitrary.
Serialized machines start with "1" (the unary state-count block), hence
general-mode programs start with "11" and never collide with the builtin
modes.  The shortest serialized machine is 38 bits, so the shortest
general-mode program is 2*38 + 2 = 78 bits: below that length the builtin
modes are the whole program space, which is what makes small search caps
tractable (see ks).

ks(y, x, s, cap) is the length of the shortest program of length <= cap
with V(prog, x, s) = y, or NotFound.  All complexity values produced here
are relative to this interpreter; comparing numbers across different
interpreters (or across versions of this one) is meaningless, which is why
every cache record and report carries INTERPRETER_TAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .machine import (
    BitsParseError,
    MachineSpec,
    Verdict,
    check_bits,
    parse_bits,
    run,
    serialized_length,
)
from .halting import config_count
from ._masks import indices_of, nonempty_masks

__all__ = [
    "INTERPRETER_TAG",
    "C_SIM",
    "MACHINE_MODE_MIN_LENGTH",
    "MAX_CLOSED_FORM_CAP",
    "ReferenceParseError",
    "ReferenceRunError",
    "encode_pair",
    "decode_pair",
    "encode_tuple",
    "decode_tuple",
    "reference_decode",
    "ComplexityResult",
    "ks",
    "ks_scan",
    "scan_combine",
    "complexity_profile",
    "ComplexityProfile",
    "ComplexityCache",
    "cached_ks",
]

# Bump the tag on any change to the program grammar, the simulation
# overhead, or the underlying machine model: cached values and law
# baselines are only comparable within one tag.
INTERPRETER_TAG = "kslab-v1"

# Workspace charged for general-mode decoding on top of the doubled header:
# covers remembering the header position and the simulation bookkeeping.
C_SIM = 16

# Shortest general-mode program: doubled 1-state machine plus separator.
MACHINE_MODE_MIN_LENGTH = 2 * serialized_length(1) + 2

# ks() enumerates builtin-mode programs in closed form, which is exhaustive
# only below MACHINE_MODE_MIN_LENGTH.
MAX_CLOSED_FORM_CAP = MACHINE_MODE_MIN_LENGTH - 1


class ReferenceParseError(ValueError):
    """Program is not in the interpreter's grammar."""


class ReferenceRunError(RuntimeError):
    """Program parsed but its run produced no output (space/abnormal/loop)."""

    def __init__(self, message: str, verdict: Verdict | None = None):
        super().__init__(message)
        self.verdict = verdict


def encode_pair(x: str, y: str) -> str:
    """Self-delimiting pair: each bit of x doubled, then "01", then y."""

    check_bits(x)
    check_bits(y)
    return "".join(b + b for b in x) + "01" + y


def decode_pair(bits: str) -> tuple[str, str]:
    check_bits(bits)
    i = 0
    first = []
    while True:
        pair = bits[i : i + 2]
        if len(pair) < 2:
            raise ValueError("pair encoding ended before the 01 separator")
        if pair == "01":
            return "".join(first), bits[i + 2 :]
        if pair == "10":
            raise ValueError(f"invalid doubled pair at offset {i}")
        first.append(pair[0])
        i += 2


def encode_tuple(items) -> str:
    """Left-nested pairing; a 1-tuple is the bare string."""

    items = list(items)
    if not items:
        raise ValueError("cannot encode an empty tuple")
    acc = items[0]
    check_bits(acc)
    for item in items[1:]:
        acc = encode_pair(acc, item)
    return acc


def decode_tuple(bits: str, count: int) -> tuple[str, ...]:
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


def _parse_general(prog: str) -> tuple[MachineSpec, str, int]:
    """Split rr"01"p, returning (machine, p, |r|)."""

    i = 0
    header = []
    while True:
        pair = prog[i : i + 2]
        if len(pair) < 2:
            raise ReferenceParseError("program ended inside the doubled header")
        if pair == "01":
            break
        if pair == "10":
            raise ReferenceParseError(f"broken doubling at offset {i}")
        header.append(pair[0])
        i += 2
    r = "".join(header)
    try:
        spec = parse_bits(r)
    except BitsParseError as exc:
        raise ReferenceParseError(f"header is not a serialized machine: {exc}") from exc
    return spec, prog[i + 2 :], len(r)


def reference_decode(prog: str, x: str, s: int) -> str:
    """Run the reference interpreter V(prog, x, s).

    Raises ReferenceParseError for programs outside the grammar and
    ReferenceRunError when the decoded machine exceeds its workspace,
    aborts, or never halts.  A run that never halts within its workspace
    repeats a configuration; `run` stops at the first repeat that Brent's
    check sees, and the configuration-count step limit, by which such a
    run has repeated one, is only a backstop.
    """

    check_bits(prog)
    check_bits(x)
    if s < 0:
        raise ValueError("workspace bound must be >= 0")
    if prog == "":
        raise ReferenceParseError("empty program")
    if prog[0] == "0":
        return prog[1:]
    if prog.startswith("10"):
        return x + prog[2:]
    spec, p, header_len = _parse_general(prog)
    s_eff = s - (2 * header_len + C_SIM)
    if s_eff < 0:
        raise ReferenceRunError(
            f"workspace {s} cannot cover the decoding overhead {2 * header_len + C_SIM}"
        )
    limit = config_count(spec, p, x, s_eff)
    result = run(spec, p, x, s_eff, step_limit=limit)
    if result.verdict is Verdict.HALTED:
        return result.output
    if result.verdict is Verdict.STEP_LIMIT:
        raise ReferenceRunError(
            "machine does not halt within workspace", Verdict.STEP_LIMIT
        )
    raise ReferenceRunError(f"machine run ended {result.verdict.name}", result.verdict)


@dataclass(frozen=True)
class ComplexityResult:
    """Outcome of one shortest-program search.

    value is None when no program of length <= cap produces the target
    (reported as NotFound); otherwise witness is the first program of
    that length in lexicographic order.
    """

    target: str
    condition: str
    s: int
    cap: int
    value: int | None
    witness: str | None

    @property
    def found(self) -> bool:
        return self.value is not None

    def describe(self) -> str:
        if self.value is None:
            return f"NotFound(cap={self.cap})"
        return str(self.value)


def ks(y: str, x: str = "", s: int = 0, cap: int = MAX_CLOSED_FORM_CAP) -> ComplexityResult:
    """Shortest-program length for target y given condition x, bound s.

    Exact for cap <= MAX_CLOSED_FORM_CAP, where every program is in one of
    the two builtin modes and the minimum is available in closed form:

      literal  "0"+y         length |y| + 1
      echo     "10"+w        length |y| - |x| + 2, only when y = x + w

    Both modes run in zero charged workspace, so within this cap range the
    value does not depend on s.  The same range is covered bit-by-bit by
    ks_scan, which this closed form is tested against.
    """

    check_bits(y)
    check_bits(x)
    if s < 0:
        raise ValueError("workspace bound must be >= 0")
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if cap > MAX_CLOSED_FORM_CAP:
        raise ValueError(
            f"cap {cap} admits general-mode programs (length >= "
            f"{MACHINE_MODE_MIN_LENGTH}); closed-form search is only exhaustive "
            f"up to cap {MAX_CLOSED_FORM_CAP}, use ks_scan"
        )
    best_len = len(y) + 1
    best_witness = "0" + y
    if len(y) >= len(x) and y.startswith(x):
        echo_len = len(y) - len(x) + 2
        # Lexicographic tie-break: "0..." precedes "10...", so the literal
        # witness stands unless the echo is strictly shorter.
        if echo_len < best_len:
            best_len = echo_len
            best_witness = "10" + y[len(x) :]
    if best_len <= cap:
        return ComplexityResult(y, x, s, cap, best_len, best_witness)
    return ComplexityResult(y, x, s, cap, None, None)


def _programs(cap: int, prefix: str) -> Iterator[str]:
    """All bit strings of length <= cap extending prefix, shortest first."""

    if len(prefix) <= cap:
        yield prefix
    for length in range(len(prefix) + 1, cap + 1):
        tail = length - len(prefix)
        for v in range(1 << tail):
            yield prefix + format(v, f"0{tail}b")


def ks_scan(
    y: str,
    x: str = "",
    s: int = 0,
    cap: int = MAX_CLOSED_FORM_CAP,
    prefix: str = "",
) -> ComplexityResult:
    """Brute-force shortest-program search by running every candidate.

    Independent of ks(): no closed form, just enumeration of programs in
    (length, lexicographic) order through reference_decode.  The optional
    prefix restricts the search to programs extending it, which lets a
    caller shard the space ("0", "10", "11", ...) and combine shards with
    scan_combine; sharding must not change the answer.
    """

    check_bits(y)
    check_bits(prefix)
    for prog in _programs(cap, prefix):
        try:
            out = reference_decode(prog, x, s)
        except (ReferenceParseError, ReferenceRunError):
            continue
        if out == y:
            return ComplexityResult(y, x, s, cap, len(prog), prog)
    return ComplexityResult(y, x, s, cap, None, None)


def scan_combine(results) -> ComplexityResult:
    """Merge shard results: shortest wins, lexicographic witness on ties."""

    results = list(results)
    if not results:
        raise ValueError("nothing to combine")
    base = results[0]
    best = None
    for res in results:
        if (res.target, res.condition, res.s, res.cap) != (
            base.target,
            base.condition,
            base.s,
            base.cap,
        ):
            raise ValueError("shards describe different searches")
        if res.value is None:
            continue
        if (
            best is None
            or res.value < best.value
            or (res.value == best.value and res.witness < best.witness)
        ):
            best = res
    return best if best is not None else base


@dataclass(frozen=True)
class ComplexityProfile:
    """ks values for every pair of disjoint index subsets of a tuple.

    entries maps (target_mask, condition_mask) to a ComplexityResult where
    the target is the sub-tuple selected by target_mask (encoded with
    encode_tuple when it has more than one component) and the condition is
    the sub-tuple of condition_mask, or the empty string for mask 0.
    """

    strings: tuple[str, ...]
    s: int
    cap: int
    entries: dict

    def value(self, target_mask: int, condition_mask: int) -> int | None:
        return self.entries[(target_mask, condition_mask)].value


def _subtuple_encoding(strings: tuple[str, ...], mask: int) -> str:
    picked = [strings[i - 1] for i in indices_of(mask)]
    return encode_tuple(picked)


def complexity_profile(
    strings,
    s: int,
    cap: int,
    cache: "ComplexityCache | None" = None,
) -> ComplexityProfile:
    """ks of every nonempty sub-tuple given every disjoint sub-tuple.

    Masks are enumerated in numeric order so profiles are deterministic
    and two runs over the same strings touch the cache identically.
    """

    strings = tuple(strings)
    if not strings:
        raise ValueError("need at least one string")
    for item in strings:
        check_bits(item)
    k = len(strings)
    entries: dict = {}
    for target_mask in nonempty_masks(k):
        target = _subtuple_encoding(strings, target_mask)
        free = ((1 << k) - 1) ^ target_mask
        # Disjoint condition masks are exactly the submasks of the complement.
        cond_mask = 0
        while True:
            condition = "" if cond_mask == 0 else _subtuple_encoding(strings, cond_mask)
            entries[(target_mask, cond_mask)] = cached_ks(target, condition, s, cap, cache)
            if cond_mask == free:
                break
            cond_mask = (cond_mask - free) & free
    return ComplexityProfile(strings, s, cap, entries)


def _bits_to_hex(bits: str | None) -> str:
    if bits is None:
        return "-"
    # Sentinel bit keeps leading zeros; "" encodes as "1".
    return format(int("1" + bits, 2), "x")


# Cached because a cache file repeats a few distinct fields many times (one
# of 20,211 records written by `ks table` and `law verify` calls has at most
# 1,480), and every load parses all of them.
@lru_cache(maxsize=4096)
def _hex_to_bits(text: str) -> str | None:
    if text == "-":
        return None
    value = int(text, 16)
    # int() also takes "0x3", "+3", " 3", "1_1" and "A", and "0" has no
    # sentinel bit: only the text _bits_to_hex writes is accepted.
    if value < 1 or "%x" % value != text:
        raise ValueError(f"hex bit string {text!r} is not in canonical form")
    return bin(value)[3:]


_CACHE_HEADER = "kslab-cache 1"


class ComplexityCache:
    """Append-only file of ks results, keyed by interpreter tag.

    One record per line: tag, target, condition, s, cap, value, witness,
    tab-separated, bit strings hex-packed behind a sentinel bit.  Reloading
    takes the last record for a key, so rewriting an entry is just
    appending.  put() is idempotent and refuses to change the stored value
    for a key, because a (tag, target, condition, s, cap) search has
    exactly one correct outcome.  A last line without its newline, left by
    a crash partway through an append, is skipped on load and cut off by
    the next put; a file that holds only part of the header, or nothing,
    loads as empty and is rewritten from the start by the next put.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._entries: dict = {}
        self.records_loaded = 0
        self._torn_at: int | None = None  # length of the file without its torn last line
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        # newline="\n": no translation, so lengths read are byte offsets.
        with open(self.path, "r", encoding="ascii", newline="\n") as fh:
            header = fh.readline()
            if not header.endswith("\n") and (_CACHE_HEADER + "\n").startswith(header):
                # Empty, or torn by a crash during the first put: the next
                # put starts the file afresh.
                self._torn_at = 0
                return
            if header != _CACHE_HEADER + "\n":
                raise ValueError(f"{self.path}: not a complexity cache (header {header.rstrip()!r})")
            offset = len(header)
            for line_no, line in enumerate(fh, start=2):
                if not line.endswith("\n"):
                    # Torn by a crash.  Cut off, not newline-terminated, by
                    # the next put: a terminated fragment would be a bad
                    # record to every later load.
                    self._torn_at = offset
                    break
                offset += len(line)
                if line == "\n":
                    continue
                try:
                    tag, y_h, x_h, s_t, cap_t, value_t, wit_h = line[:-1].split("\t")
                    target = _hex_to_bits(y_h)
                    condition = _hex_to_bits(x_h)
                    if target is None or condition is None:
                        raise ValueError("target and condition are mandatory")
                    s, cap = int(s_t), int(cap_t)
                    value = None if value_t == "-" else int(value_t)
                    result = ComplexityResult(target, condition, s, cap, value, _hex_to_bits(wit_h))
                except ValueError as exc:
                    raise ValueError(f"{self.path}:{line_no}: bad cache record") from exc
                self._entries[(tag, target, condition, s, cap)] = result
                self.records_loaded += 1

    def get(self, y: str, x: str, s: int, cap: int, tag: str = INTERPRETER_TAG):
        return self._entries.get((tag, y, x, s, cap))

    def put(self, result: ComplexityResult, tag: str = INTERPRETER_TAG) -> None:
        if "\t" in tag or "\n" in tag:
            raise ValueError("tag must not contain tabs or newlines")
        key = (tag, result.target, result.condition, result.s, result.cap)
        known = self._entries.get(key)
        if known is not None:
            if (known.value, known.witness) != (result.value, result.witness):
                raise ValueError(
                    f"cache conflict for {key}: stored {known.value}, new {result.value}"
                )
            return
        line = "\t".join(
            [
                tag,
                _bits_to_hex(result.target),
                _bits_to_hex(result.condition),
                str(result.s),
                str(result.cap),
                "-" if result.value is None else str(result.value),
                _bits_to_hex(result.witness),
            ]
        )
        fresh = self._torn_at == 0 or not self.path.exists()
        with open(self.path, "a", encoding="ascii") as fh:
            if self._torn_at is not None:
                fh.truncate(self._torn_at)
                self._torn_at = None
            if fresh:
                fh.write(_CACHE_HEADER + "\n")
            fh.write(line + "\n")
        self._entries[key] = result

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        by_tag: dict = {}
        found = 0
        for (tag, *_rest), result in self._entries.items():
            by_tag[tag] = by_tag.get(tag, 0) + 1
            if result.value is not None:
                found += 1
        return {
            "path": str(self.path),
            "entries": len(self._entries),
            "found": found,
            "not_found": len(self._entries) - found,
            "by_tag": by_tag,
        }


def cached_ks(
    y: str,
    x: str,
    s: int,
    cap: int,
    cache: ComplexityCache | None = None,
) -> ComplexityResult:
    if cache is None:
        return ks(y, x, s, cap)
    hit = cache.get(y, x, s, cap)
    if hit is not None:
        return hit
    result = ks(y, x, s, cap)
    cache.put(result)
    return result
