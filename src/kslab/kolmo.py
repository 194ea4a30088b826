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
                     V is total.

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

import os
import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .machine import (
    BitsParseError,
    Verdict,
    check_bits,
    parse_bits,
    run,
    serialized_length,
)

__all__ = [
    "INTERPRETER_TAG",
    "C_SIM",
    "ReferenceParseError",
    "ReferenceRunError",
    "encode_pair",
    "encode_subtuple",
    "reference_decode",
    "ComplexityResult",
    "ks",
    "ks_scan",
    "scan_combine",
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

# Backstop step limit of a general-mode decode: Brent's check in `run` ends
# every run that repeats a configuration, and no run of 2^62 steps can be
# simulated anyway.
_MAX_DECODE_STEPS = 2**62

# Most live programs ks_scan holds at one length.  From cap 78 up the `11`
# shard keeps about 2^(length/2) live, so such a scan is refused at length 33.
_MAX_LIVE = 1 << 15

# Shortest general-mode program: doubled 1-state machine plus separator.
MACHINE_MODE_MIN_LENGTH = 2 * serialized_length(1) + 2

# ks() enumerates builtin-mode programs in closed form, which is exhaustive
# only below MACHINE_MODE_MIN_LENGTH.
MAX_CLOSED_FORM_CAP = MACHINE_MODE_MIN_LENGTH - 1

# Largest workspace charged to a program of length <= MAX_CLOSED_FORM_CAP:
# each is a literal or an echo, and neither is charged any.  So no ks value
# at such a cap changes with s past this bound.
MAX_CLOSED_FORM_SPACE = 0

# The doubled bits that open a pair encoding or a general-mode header; "01" ends them.
_DOUBLED = re.compile("(?:00|11)*")


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
    """Inverse of encode_pair on a bitstring; raises ValueError off the encoding."""

    i = _DOUBLED.match(bits).end()
    if bits.startswith("01", i):
        return bits[:i:2], bits[i + 2 :]
    if i < len(bits) - 1:
        raise ValueError(f"invalid doubled pair at offset {i}")
    raise ValueError("pair encoding ended before the 01 separator")


def encode_subtuple(strings, indices) -> str:
    """Left-nested pairing of strings[i - 1] for i in indices, in that order.

    () is ε and a 1-tuple is the bare string.  Each component is checked
    by encode_pair, or by the ks query a bare string goes to.
    """

    if not indices:
        return ""
    acc = strings[indices[0] - 1]
    for i in indices[1:]:
        acc = encode_pair(acc, strings[i - 1])
    return acc


def reference_decode(prog: str, x: str, s: int) -> str:
    """Run the reference interpreter V(prog, x, s).

    Raises ReferenceParseError for programs outside the grammar and
    ReferenceRunError when the decoded machine exceeds its workspace,
    aborts, or never halts.  A run that never halts within its workspace
    repeats a configuration; `run` stops at the first repeat that Brent's
    check sees, and the fixed step limit _MAX_DECODE_STEPS is only a
    backstop.
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
    # A general-mode program rr"01"p is encode_pair(r, p).
    try:
        r, p = decode_pair(prog)
        spec = parse_bits(r)
    except ValueError as exc:
        # exc's own message: formatting a new one costs more than the rest of a failed decode.
        raise ReferenceParseError(exc) from exc
    s_eff = s - (2 * len(r) + C_SIM)
    if s_eff < 0:
        raise ReferenceRunError(
            f"workspace {s} cannot cover the decoding overhead {2 * len(r) + C_SIM}"
        )
    result = run(spec, p, x, s_eff, step_limit=_MAX_DECODE_STEPS)
    if result.verdict is Verdict.HALTED:
        return result.output
    if result.verdict is Verdict.STEP_LIMIT:
        raise ReferenceRunError(
            "machine does not halt within workspace", Verdict.STEP_LIMIT
        )
    raise ReferenceRunError(f"machine run ended {result.verdict.name}", result.verdict)


def _live(prog: str, x: str, y: str, cap: int) -> bool:
    """Whether some program extending prog (prog included) may decode to y, a general-mode one within cap.

    Read from the grammar alone: a builtin-mode prefix already fixes the
    start of its output, and a general-mode prefix is dead once its header
    breaks the doubling, its separator ends a header that is not a
    serialized machine, or its open doubled run is longer than any machine
    header that closes within cap.  Runs are not looked into.
    """

    if prog[:1] == "0":
        return y.startswith(prog[1:])
    if prog[:2] == "10":
        return y.startswith(x + prog[2:])
    i = _DOUBLED.match(prog).end()
    if prog.startswith("01", i):
        return _is_machine(prog[:i:2])
    return not prog.startswith("10", i) and i <= 2 * _longest_machine(cap)


@lru_cache(maxsize=256)
def _longest_machine(cap: int) -> int:
    """Length of the longest serialized machine whose doubled header plus "01" fits in cap, or 0."""

    lo, hi = 0, cap // 2  # the state counts that may fit: n states serialize to more than n bits
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if 2 * serialized_length(mid) + 2 <= cap else (lo, mid - 1)
    return serialized_length(lo) if lo else 0


def _is_machine(header: str) -> bool:
    try:
        parse_bits(header)
    except BitsParseError:
        return False
    return True


def _grow(level: list, ends: list, x: str, y: str, cap: int) -> tuple[list, list]:
    """The live one-bit extensions of live programs, and the end of each one's doubled run.

    _live's rule, read from the end i of a program's doubled run (the end
    of _DOUBLED's match), which a bit moves only when it closes a pair.  A
    general-mode header is parsed once, when its "01" separator closes;
    until then it lives while its run fits a machine that closes within
    cap, and past that every extension is live.
    """

    run = 2 * _longest_machine(cap)
    grown, grown_ends = [], []
    for prog, i in zip(level, ends):
        for bit in "01":
            child = prog + bit
            paired = i + 1 == len(prog)  # the bit pairs with prog's last, unpaired bit
            end = i + 2 if paired and prog[i] == bit else i
            if child[:1] == "0" or child[:2] == "10":
                live = _live(child, x, y, cap)
            elif paired and end == i:  # the pair ends the run: "01" closes a header, "10" breaks it
                live = bit == "1" and _is_machine(prog[:i:2])
            else:  # an open header, or a closed one's program tape
                live = end <= run or end + 2 <= len(child)
            if live:
                grown.append(child)
                grown_ends.append(end)
    return grown, grown_ends


class ComplexityResult(NamedTuple):
    """Outcome of one shortest-program search.

    value is None when no program of length <= cap produces the target
    (reported as NotFound); otherwise witness is the first program of
    that length in lexicographic order.  A NamedTuple because a ks call
    builds one every time: a frozen dataclass took half a closed-form call.
    """

    target: str
    condition: str
    s: int
    cap: int
    value: int | None
    witness: str | None

    def describe(self) -> str:
        if self.value is None:
            return f"NotFound(cap={self.cap})"
        return str(self.value)


def _check_query(y: str, x: str, s: int, cap: int) -> None:
    check_bits(y)
    check_bits(x)
    if s < 0:
        raise ValueError("workspace bound must be >= 0")
    if cap < 0:
        raise ValueError("cap must be >= 0")


def ks(y: str, x: str = "", s: int = 0, cap: int = MAX_CLOSED_FORM_CAP) -> ComplexityResult:
    """Shortest-program length for target y given condition x, bound s.

    Exact for cap <= MAX_CLOSED_FORM_CAP, where every program is in one of
    the two builtin modes and the minimum is available in closed form:

      literal  "0"+y         length |y| + 1
      echo     "10"+w        length |y| - |x| + 2, only when y = x + w

    Both modes run in zero charged workspace, so within this cap range the
    value does not depend on s.  ks_scan, which this closed form is tested
    against, finds the same values by running programs.
    """

    if not (type(s) is type(cap) is int and s >= 0 and cap >= 0 and type(y) is type(x) is str
            and not y.strip("01") and not x.strip("01")):  # any other query goes to _check_query
        _check_query(y, x, s, cap)
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


def ks_scan(
    y: str,
    x: str = "",
    s: int = 0,
    cap: int = MAX_CLOSED_FORM_CAP,
    prefix: str = "",
) -> ComplexityResult:
    """Shortest-program search by running candidates, pruned by prefix.

    Independent of ks(): no closed form, just programs in (length,
    lexicographic) order through reference_decode.  Programs are grown one
    bit at a time from prefix, and a program is extended only while it is
    live: "0"+w while w is a prefix of y, "10"+w while x+w is, and a
    general-mode program until its doubled header breaks, ends in a header
    that is not a serialized machine, or runs longer than the longest
    machine header that can close within cap.  A dead program has no
    extension of length <= cap that decodes to y, so the answer is that of
    running every program, and the rule reads only the grammar and the
    machine length serialized_length gives, never ks's closed form or
    MACHINE_MODE_MIN_LENGTH, so the scan stays a check of ks.  Each program
    carries the end of its doubled run (_grow), so growing one costs no
    regex and a header is parsed once, when its separator closes.  Each
    length holds at most two live builtin-mode programs plus the live
    general-mode ones: the open doubled headers, which are not run (no
    separator yet, so the grammar cannot parse them), and every extension
    of a header that is a serialized machine.  Below cap 78 no header can
    close, so the `11` shard is empty and a scan costs O(cap); from cap 78
    up the open headers number about 2^(length/2).  A length with more than
    _MAX_LIVE live general-mode (`11`-prefixed) programs is refused
    (ValueError), so a whole scan is refused exactly when its `11` shard
    is.  An admitted length's list holds at most _MAX_LIVE + 2 programs,
    and the list grown from it at most 2 * _MAX_LIVE + 2.

    The optional prefix restricts the search to programs extending it,
    which lets a caller shard the space ("0", "10", "11", ...) and combine
    shards with scan_combine; sharding must not change the answer.
    """

    _check_query(y, x, s, cap)
    check_bits(prefix)
    level, ends = ([prefix], [_DOUBLED.match(prefix).end()]) if _live(prefix, x, y, cap) else ([], [])
    for length in range(len(prefix), cap + 1):
        for prog, i in zip(level, ends):
            if prog[:2] == "11" and i + 2 > length:  # an open header, with no separator yet
                continue
            try:
                out = reference_decode(prog, x, s)
            except (ReferenceParseError, ReferenceRunError):
                continue
            if out == y:
                return ComplexityResult(y, x, s, cap, length, prog)
        if length == cap or not level:
            break
        level, ends = _grow(level, ends, x, y, cap)
        general = sum(prog.startswith("11") for prog in level)
        if general > _MAX_LIVE:
            raise ValueError(f"{general} live programs of length {length + 1}, limit {_MAX_LIVE}")
    return ComplexityResult(y, x, s, cap, None, None)


def scan_combine(results) -> ComplexityResult:
    """Merge shard results: shortest wins, lexicographic witness on ties, else the first shard."""

    results = list(results)
    if not results:
        raise ValueError("nothing to combine")
    if len({(res.target, res.condition, res.s, res.cap) for res in results}) > 1:
        raise ValueError("shards describe different searches")
    found = (res for res in results if res.value is not None)
    return min(found, key=lambda res: (res.value, res.witness), default=results[0])


# Cached because records repeat a few fields many times: the 18,437 of a
# `lab-session` pass hold 673 targets and 104 (condition, s, cap) triples.
@lru_cache(maxsize=4096)
def _bits_to_hex(bits: str) -> str:
    # int() would also take "0_1"; only "0" and "1" are bit strings.
    check_bits(bits)
    # Sentinel bit keeps leading zeros; "" encodes as "1".
    return format(int("1" + bits, 2), "x")


@lru_cache(maxsize=4096)
def _query_fields(text: str) -> tuple:
    bits, *ints = text.split("\t")  # a record's target, or its condition, s and cap
    return (bin(int(bits, 16))[3:], *map(int, ints))


_CACHE_HEADER = "kslab-cache 1"
_CACHE_HEADER_BYTES = (_CACHE_HEADER + "\n").encode("ascii")
# One record line, as put writes it: hex fields carry their sentinel bit and
# no leading zero, decimal fields are canonical, and "-" marks a NotFound
# value or witness.  Groups: target ("" for another tag), "x\ts\tcap", stored text.
_HEX = "[1-9a-f][0-9a-f]*"
_DEC = "(?:0|[1-9][0-9]*)"
_RECORD = re.compile(
    rf"^(?:{re.escape(INTERPRETER_TAG)}\t({_HEX})|[^\t\n]+\t{_HEX})"
    rf"\t({_HEX}\t{_DEC}\t{_DEC})\t((?:{_DEC}|-)\t(?:{_HEX}|-))\n",
    re.M,
)


def _record_line(result: ComplexityResult) -> str:
    y, x, s, cap, value, witness = result
    witness = "-" if witness is None else _bits_to_hex(witness)
    record = (
        f"{INTERPRETER_TAG}\t{_bits_to_hex(y)}\t{_bits_to_hex(x)}\t{s}\t{cap}"
        f"\t{'-' if value is None else value}\t{witness}\n"
    )
    # A record the load refuses makes the file unloadable; the bit fields are checked already.
    ints = type(s) is type(cap) is int and s >= 0 and cap >= 0
    ints = ints and (value is None or type(value) is int and value >= 0)
    if not ints and not _RECORD.fullmatch(record):
        raise ValueError(f"not a cache record: {record!r}")
    return record


class ComplexityCache:
    """Append-only file of ks results, keyed by interpreter tag.

    One record per line: tag, target, condition, s, cap, value, witness,
    tab-separated, bit strings hex-packed behind a sentinel bit (lowercase,
    no leading zero), s, cap and value in plain decimal, and "-" for the
    value and witness of a NotFound.  Entries are keyed by the query
    (target, condition, s, cap), and a hit builds no text: a record read
    from a file is held as its stored text, the last two fields, decoded
    only on a hit, and one put in this process as the result put.  A load
    checks every line against one pattern that accepts only what put()
    writes, so "+3", " 3", "03", "1_0" and "-1" are bad records there, and
    the error names the first bad line.  Reloading takes the last record
    for a query, so rewriting an entry is just appending.

    put() is idempotent and refuses to change the value or witness of a
    query, because a (tag, target, condition, s, cap) search has exactly
    one correct outcome.  It formats the record once and queues it: the
    cache is a context manager, and flush(), which its exit calls also
    when the block raises, appends every queued record in one O_APPEND
    write on a descriptor opened and closed for it.  So writers sharing a
    file never split each other's lines, and only the writer that creates
    the file (O_EXCL) writes the header.  A crash before the flush loses
    the records queued since the last one; a crash during the write can
    tear only the last line, which a load skips and the next flush cuts
    off.  A file holding only part of the header, or nothing, loads as
    empty, and the next flush rewrites it from the start.  A record of
    another tag loads, and counts in records_loaded, but is never returned.

    refresh() flushes and re-reads the file.  If its complete lines still
    start with the text this cache's entries hold, read or flushed, it
    parses only the lines after that text; any other file it parses whole,
    into new entries.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._entries: dict = {}  # (y, x, s, cap) -> stored text read, or ComplexityResult put
        self._pending: list = []  # record lines put since the last flush
        self._text = ""  # the lines _entries hold, flushed puts included, unflushed ones aside
        self.records_loaded = 0  # the records in _text
        self._load()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()

    def refresh(self) -> ComplexityCache:
        self.flush()
        self._load()
        return self

    def _load(self) -> None:
        try:
            # newline="\n": no translation, so lengths read are byte offsets.
            with open(self.path, "r", encoding="ascii", newline="\n") as fh:
                text = fh.read()
        except FileNotFoundError:  # as a file of no records, which the next flush creates
            text = _CACHE_HEADER + "\n"
        header, newline, body = text.partition("\n")
        torn_at = None
        if not newline and (_CACHE_HEADER + "\n").startswith(header):
            # Empty, or torn by a crash during the first flush: the next
            # flush starts the file afresh.
            torn_at = 0
        elif header != _CACHE_HEADER:
            raise ValueError(f"{self.path}: not a complexity cache (header {header.rstrip()!r})")
        end = body.rfind("\n") + 1
        if end < len(body):
            # Torn by a crash: the next flush cuts the fragment off, since a
            # newline after it would make it a bad record to every later load.
            torn_at = len(header) + 1 + end
            body = body[:end]
        if not body.startswith(self._text):  # parsed whole, into new entries
            self._entries, self._text, self.records_loaded = {}, "", 0
        tail = body[len(self._text) :]
        records = _RECORD.findall(tail)
        if len(records) != tail.count("\n"):
            # A bad record, or only blank lines, which are skipped.
            for line_no, line in enumerate(tail.split("\n")[:-1], start=2 + self._text.count("\n")):
                if line and not _RECORD.match(line + "\n"):
                    raise ValueError(f"{self.path}:{line_no}: bad cache record")
        fields = _query_fields
        self._entries.update({fields(y) + fields(rest): stored for y, rest, stored in records if y})
        self._text, self._torn_at = body, torn_at
        self.records_loaded += len(records)

    def get(self, y: str, x: str, s: int, cap: int):
        stored = self._entries.get((y, x, s, cap))
        if type(stored) is not str:  # a result put in this process, or a miss
            if stored is None:  # no query that is not a bit string is ever a key
                _bits_to_hex(y)  # checks the bits once per distinct string
                _bits_to_hex(x)
            return stored
        value, witness = stored.split("\t")
        witness = None if witness == "-" else bin(int(witness, 16))[3:]
        return ComplexityResult(y, x, s, cap, None if value == "-" else int(value), witness)

    def put(self, result: ComplexityResult) -> None:
        query = result[:4]
        known = self._entries.get(query)
        if known is None:
            self._pending.append(_record_line(result))
            self._entries[query] = result
        elif type(known) is str or known[4:] != result[4:]:  # read from a file, or put and unequal
            key, value, witness = _record_line(result)[:-1].rsplit("\t", 2)
            new = f"{value}\t{witness}"
            if type(known) is not str:  # the same query, so the same key text
                known = _record_line(known)[len(key) + 1 : -1]
            if known != new:
                raise ValueError(f"cache conflict for {key!r}: stored {known!r}, new {new!r}")

    def flush(self) -> None:
        """Append the queued records to the file in one write."""

        if not self._pending:
            return
        text, added = "".join(self._pending), len(self._pending)
        data = text.encode("ascii")
        # Dropped before the write: a retry after a failed write could land
        # after a torn fragment, and a bad line mid-file breaks every load.
        self._pending = []
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        except FileNotFoundError:  # the first flush, or the file was removed since the load
            self._torn_at = None
            try:
                fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o666)
                data = _CACHE_HEADER_BYTES + data
            except FileExistsError:  # another writer created it meanwhile
                fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            if self._torn_at is not None:
                os.ftruncate(fd, self._torn_at)
                if self._torn_at == 0:
                    data = _CACHE_HEADER_BYTES + data
                self._torn_at = None
            written = os.write(fd, data)
            while written < len(data):  # a regular file takes it whole unless the disk is full
                written += os.write(fd, data[written:])
        finally:
            os.close(fd)
        # Wherever the write landed: the next load keeps _entries only if the file starts with _text.
        self._text += text
        self.records_loaded += added


def cached_ks(
    y: str, x: str, s: int, cap: int, cache: ComplexityCache | None = None
) -> ComplexityResult:
    if cache is None:
        return ks(y, x, s, cap)
    result = cache.get(y, x, s, cap)
    if result is None:
        result = ks(y, x, s, cap)
        cache.put(result)
    return result
