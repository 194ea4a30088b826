"""The three workloads: inputs made from a seed, timed jobs, and their checks.

A workload builds its inputs in `__init__` (counted in set-up time), exposes
`jobs`, a list of argument-free callables that make one pass, and checks the
outputs of a pass afterwards with `check`, which returns one bool per job.
Every call into the package goes through a module attribute (for example
`halting.decide_backward`), so the tracer can wrap it at that name.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
import signal
from functools import partial
from pathlib import Path

from kslab import cli, halting, kolmo
from kslab.machine import parse_bits, parse_machine, serialize_machine

import oracle

# The acceptance test's seed for the criterion-1 decider sweep.
ACCEPT_SEED = 20260815

# Alternates a push and a pop on the left stack: loops forever in space 1.
SEESAW_TEXT = """
states: 2
0 _ _ -> pushL 1 1
1 1 _ -> popL 0
"""


class OpTimeout(Exception):
    """An operation ran past its own time limit."""


def _raise_timeout(signum, frame):
    raise OpTimeout()


def with_time_limit(seconds: float, fn):
    """Run fn(), raising OpTimeout if it is still running after `seconds`."""

    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def clear_in_process_caches() -> None:
    """Empty every functools cache of the package, so a pass starts cold."""

    from kslab import entropy, laws, machine

    for module in (machine, halting, kolmo, entropy, laws, cli):
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _holds(test, *args) -> bool:
    """test(*args), where an output too malformed to inspect counts as wrong."""

    try:
        return bool(test(*args))
    except (TypeError, ValueError, IndexError, KeyError, AttributeError, OSError):
        return False


def _bits(rng, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _doubled(bits: str) -> str:
    return "".join(b + b for b in bits)


class DeciderSweep:
    """Criterion 1: the three halting deciders on the acceptance test's machines.

    The machines are the first `machines` of the acceptance test's stream.
    The seed picks the bits of p and x, one pair for every machine, s and
    (|p|, |x|) with |p| <= 3, |x| <= 2, so each seed does the same mix of
    case sizes and the work barely moves between seeds.
    """

    name = "decider-sweep"

    def __init__(self, root: Path, workdir: Path, seed: int, small: bool):
        machines, s_max = (1, 3) if small else (2, 6)
        mrng = random.Random(ACCEPT_SEED)
        specs = [parse_bits(oracle.sample_machine_bits(mrng, mrng.choice((1, 2, 3)))) for _ in range(machines)]
        rng = random.Random(f"{self.name}/{seed}")
        self.cases = [
            (spec, _bits(rng, lp), _bits(rng, lx), s)
            for spec in specs
            for s in range(s_max + 1)
            for lp in range(4)
            for lx in range(3)
        ]
        self.jobs = [partial(self._decide, *case) for case in self.cases]
        self.expected = None

    @staticmethod
    def _decide(spec, p, x, s):
        b = halting.decide_backward(spec, p, x, s)
        f = halting.decide_forward(spec, p, x, s)
        c = halting.decide_counter(spec, p, x, s)
        return (
            b.terminates_within_s,
            f.terminates_within_s,
            c.terminates_within_s,
            b.probe_stats.peak_live_configurations,
        )

    def begin_cold(self) -> None:
        clear_in_process_caches()

    def inject_fault(self) -> None:
        self.check([])
        self.expected[0] = not self.expected[0]

    def check(self, outs) -> list:
        if self.expected is None:
            self.expected = [self._halts(*case) for case in self.cases]
        return [
            _holds(lambda: out[:3] == (want,) * 3 and out[3] <= 3)
            for want, out in zip(self.expected, outs)
        ]

    @staticmethod
    def _halts(spec, p, x, s):
        """Halts within s, by the oracle; None if it cannot settle the case."""

        bound = spec.state_count * (len(p) + 1) * (len(x) + 1) * (s * 2 ** (s + 1) + 1)
        outcome = oracle.simulate(spec, p, x, s, 3 * bound + 3)
        return None if outcome is None else outcome[0] == oracle.HALT


class Interpret:
    """The reference interpreter V: general-mode decodes and sharded scans.

    Decodes: for every effective workspace, state count and (|p|, |x|)
    shape there is one program of each outcome class (halts, loops, fails
    by space or by an empty pop).  The seed picks the machine and tapes by
    rejection until the benchmark's own simulation gives the slot's class.
    A looping decode runs to the configuration-count step limit, whose size
    depends on the shape alone, so the work is nearly the same for every
    seed.  Scans have fixed lengths, caps and prefix relations; the seed
    picks the bits.  Two decodes of a machine that loops in space 1, at the
    law grids' s = 512, carry a time limit of their own.
    """

    name = "interpret"
    S_EFFS = (4, 6, 8, 10)
    SHAPES = ((1, 0), (3, 2))
    # A loop that writes grows the output list up to the step limit, so its
    # memory and time depend on how often it writes: each shape has one kind
    # of loop, one that never writes or one that writes on every step.
    CLASSES = {(1, 0): ("halt", "silent-loop", "fail"), (3, 2): ("halt", "writing-loop", "fail")}
    # (cap, |y|, |x|, x is a prefix of y).  Each shard is a job of its own,
    # so no job is long enough to hide a change of host speed inside it.
    SCANS = ((16, 12, 3, True), (17, 10, 2, False))
    PREFIXES = ("0", "10", "11")
    LOOP_AT_512_LIMIT_S = 0.02
    # Draws the oracle cannot settle in this many steps are drawn again.
    SETTLE_STEPS = 2000

    def __init__(self, root: Path, workdir: Path, seed: int, small: bool):
        s_effs, scans = ((4, 6), ((10, 6, 2, True), (11, 11, 1, False))) if small else (self.S_EFFS, self.SCANS)
        rng = random.Random(f"{self.name}/{seed}")
        self.expected = []
        self.jobs = []
        for s_eff in s_effs:
            for n in (1, 2, 3):
                for lp, lx in self.SHAPES:
                    for cls in self.CLASSES[lp, lx]:
                        prog, x, s, expect = self._sample(rng, s_eff, n, lp, lx, cls)
                        self.jobs.append(partial(self._decode, prog, x, s))
                        self.expected.append(expect)
        for cap, ly, lx, is_prefix in scans:
            y = _bits(rng, ly)
            x = y[:lx] if is_prefix else self._non_prefix(rng, y, lx)
            s = rng.randrange(600)
            shards = []
            for prefix in self.PREFIXES:
                self.jobs.append(partial(self._scan_shard, shards, y, x, s, cap, prefix))
                self.expected.append(("scan", y, x, cap, prefix))
        r = serialize_machine(parse_machine(SEESAW_TEXT))
        for x in ("", "1"):
            s = 512
            outcome = oracle.simulate(parse_machine(SEESAW_TEXT), "", x, s - 2 * len(r) - kolmo.C_SIM, self.SETTLE_STEPS)
            self.jobs.append(partial(with_time_limit, self.LOOP_AT_512_LIMIT_S, partial(self._decode, _doubled(r) + "01", x, s)))
            self.expected.append(self._expect(outcome))

    @staticmethod
    def _non_prefix(rng, y: str, lx: int) -> str:
        while True:
            x = _bits(rng, lx)
            if not y.startswith(x):
                return x

    @staticmethod
    def _class(outcome) -> str:
        kind, detail = outcome
        if kind == oracle.LOOP:
            writes, length = detail
            return {0: "silent-loop", length: "writing-loop"}.get(writes, "other-loop")
        return "halt" if kind == oracle.HALT else "fail"

    @staticmethod
    def _expect(outcome):
        kind, output = outcome
        return {
            oracle.HALT: ("out", output),
            oracle.LOOP: ("err", "STEP_LIMIT"),
            oracle.SPACE: ("err", "SPACE_EXCEEDED"),
            oracle.ABNORMAL: ("err", "ABNORMAL"),
        }[kind]

    def _sample(self, rng, s_eff, n, lp, lx, cls):
        while True:
            spec = parse_bits(oracle.sample_machine_bits(rng, n))
            p, x = _bits(rng, lp), _bits(rng, lx)
            outcome = oracle.simulate(spec, p, x, s_eff, self.SETTLE_STEPS)
            if outcome is not None and self._class(outcome) == cls:
                r = serialize_machine(spec)
                return _doubled(r) + "01" + p, x, s_eff + 2 * len(r) + kolmo.C_SIM, self._expect(outcome)

    @staticmethod
    def _decode(prog, x, s):
        try:
            return ("out", kolmo.reference_decode(prog, x, s))
        except kolmo.ReferenceRunError as exc:
            return ("err", exc.verdict.name if exc.verdict is not None else "OVERHEAD")
        except kolmo.ReferenceParseError:
            return ("err", "PARSE")

    @classmethod
    def _scan_shard(cls, shards, y, x, s, cap, prefix):
        """One shard of a scan; the last shard's job also merges all three."""

        if prefix == cls.PREFIXES[0]:
            shards.clear()
        shards.append(kolmo.ks_scan(y, x, s, cap, prefix))
        result = kolmo.scan_combine(shards) if prefix == cls.PREFIXES[-1] else shards[-1]
        return (result.value, result.witness)

    def begin_cold(self) -> None:
        clear_in_process_caches()

    def inject_fault(self) -> None:
        self.expected[0] = ("out", "fault")

    def check(self, outs) -> list:
        return [_holds(self._check_one, expect, out) for expect, out in zip(self.expected, outs)]

    @staticmethod
    def _check_one(expect, out) -> bool:
        if expect[0] != "scan":
            return out == expect
        _, y, x, cap, prefix = expect
        value, witness = out
        if witness is not None:
            decoded = witness[1:] if witness[0] == "0" else x + witness[2:]
            if decoded != y:
                return False
        if prefix == Interpret.PREFIXES[-1]:
            return out == oracle.closed_ks(y, x, cap)
        return out == oracle.closed_ks_mode(y, x, cap, prefix)


class LabSession:
    """One sequence of `kslab` command-line calls against a fresh cache.

    The first pass writes the on-disk cache, the second reads it.  The
    seed picks the s grids of the two law grids that have no frozen file
    and of the `ks table` calls, and the variable labels of the Zhang-Yeung
    inequality.
    """

    name = "lab-session"
    FROZEN_GRID = "64,128,256,512"
    SHANNON_TEXT = "k=3; {1,2}:1 {2,3}:1 {2}:-1 {1,2,3}:-1"
    GAP_FILE = "gap__01-1__u8-n2-cap14__kslab-v1.txt"
    # (index into oracle.elemental(5), weight) of the k = 5 member.
    MEMBER_K5 = ((3, 2), (17, 1), (40, 3), (77, 1))

    def __init__(self, root: Path, workdir: Path, seed: int, small: bool):
        rng = random.Random(f"{self.name}/{seed}")
        self.workdir = workdir
        self.baselines = self.workdir / "baselines"
        shutil.copytree(root / "baselines", self.baselines)
        self.frozen = {p.name: p.read_bytes() for p in (root / "baselines").iterdir()}
        self.cache_dir = None
        self.cold_count = 0

        def grid():
            return ",".join(str(s) for s in sorted(rng.sample(range(600), 4)))

        self.targets_to = 5 if small else 8
        table_grid = grid().split(",")
        self.table_cap = 14
        basic_grid, swap_grid = grid(), grid()
        perm = rng.sample((1, 2, 4, 8), 4)
        self.zy = oracle.zhang_yeung(perm)
        self.gen5 = oracle.elemental(5)
        # Fixed: the simplex's pivot count, and so its time, depends on the
        # inequality far more than on anything else in the pass.
        self.member = oracle.combine(*((w, self.gen5[i]) for i, w in self.MEMBER_K5))
        law = ["law", "verify"]
        frozen = ["--s-grid", self.FROZEN_GRID, "--format", "csv", "--baseline-dir", str(self.baselines)]
        self.calls = [
            (law + ["symmetry", "--n", "2"] + frozen, ("frozen", "symmetry")),
            (law + ["basic", "--n", "1", "--i", "1", "--j", "2", "--k", "3"] + frozen, ("frozen", "basic")),
            (law + ["shannon", "--n", "1", "--inequality", self.SHANNON_TEXT] + frozen, ("frozen", "shannon")),
            (
                law + ["basic", "--n", "2", "--i", "1", "--j", "2", "--k", "3", "--s-grid", basic_grid]
                + ["--format", "csv", "--baseline-dir", str(self.baselines)],
                ("law", "basic", 2, basic_grid),
            ),
            (
                law + ["pair_swap", "--n", "3", "--s-grid", swap_grid, "--format", "csv"]
                + ["--baseline-dir", str(self.baselines)],
                ("law", "pair_swap", 3, swap_grid),
            ),
            (["law", "typical-set", "--xs", "01,1", "--u", "8", "--n", "2", "--gap-report"], ("gap",)),
            # The table is split in two calls over halves of its s grid, so
            # neither is long enough to hide a change of host speed inside it.
            *(
                (
                    ["ks", "table", "--targets-to", str(self.targets_to), "--conditions-to", "2"]
                    + ["--s-grid", half, "--cap", str(self.table_cap)],
                    ("table", half),
                )
                for half in (",".join(table_grid[:2]), ",".join(table_grid[2:]))
            ),
            (["cone", "check", oracle.format_inequality(4, self.zy)], ("zy",)),
            (["cone", "check", oracle.format_inequality(5, self.member)], ("member",)),
            (["cone", "elemental", "--k", "5"], ("elemental",)),
        ]
        self.jobs = [partial(self._call, argv, argv[0] in ("law", "ks")) for argv, _ in self.calls]
        self.uncached = None
        self.fault = False

    def _call(self, argv, cached: bool):
        if cached:
            argv = argv + ["--cache-dir", str(self.cache_dir)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()

    def begin_cold(self) -> None:
        clear_in_process_caches()
        self.cold_count += 1
        self.cache_dir = self.workdir / f"cache-{self.cold_count}"

    def inject_fault(self) -> None:
        self.fault = True

    def check(self, outs) -> list:
        if self.uncached is None:
            saved, self.cache_dir = self.cache_dir, None
            self.uncached = [self._call(argv, False) for argv, _ in self.calls]
            self.cache_dir = saved
        return [_holds(self._check_one, i, kind, outs) for i, (_, kind) in enumerate(self.calls)]

    def _check_one(self, i, kind, outs) -> bool:
        rc, text = outs[i]
        return rc == 0 and text == self.uncached[i][1] and self._content_ok(kind, text, outs)

    def _content_ok(self, kind, text, outs) -> bool:
        if kind[0] == "frozen":
            # The CLI compared the report with the copied file; the copy must
            # still hold the original bytes, and the printed constant must be
            # the frozen one.
            if any((self.baselines / name).read_bytes() != data for name, data in self.frozen.items()):
                return False
            (name,) = [n for n in self.frozen if n.startswith(f"law__{kind[1]}")]
            row = list(csv.reader(text.splitlines()))[1]
            return int(row[4]) == json.loads(self.frozen[name])["minimal_c"]
        if kind[0] == "law":
            _, law, n, grid = kind
            ref = oracle.law_reference(law, n, len(grid.split(",")), 14)
            row = list(csv.reader(text.splitlines()))[1]
            slug = {"basic": "basic-I-1-J-2-k-3", "pair_swap": "pair-swap"}[law]
            digest = hashlib.sha256(json.dumps([n, [int(s) for s in grid.split(",")], 14]).encode()).hexdigest()[:12]
            stored = json.loads((self.baselines / f"law__{slug}__{digest}__{kolmo.INTERPRETER_TAG}.json").read_text())
            return (int(row[4]), int(row[5]), int(row[6]), stored["violations_below"]) == (
                ref["minimal_c"],
                ref["points_total"],
                ref["points_vacuous"],
                ref["violations_below"],
            )
        if kind[0] == "gap":
            return text.encode("utf-8") == self.frozen[self.GAP_FILE]
        if kind[0] == "table":
            return self._table_ok(text, kind[1].split(","))
        if kind[0] == "zy":
            lines = text.splitlines()
            if lines[0] != "member: false" or not lines[1].startswith("witness: "):
                return False
            witness = oracle.parse_terms(lines[1][len("witness: ") :])
            return all(oracle.dot(g, witness) >= 0 for g in oracle.elemental(4)) and oracle.dot(self.zy, witness) < 0
        if kind[0] == "member":
            lines = text.splitlines()
            if lines[0] != "member: true":
                return False
            generators = [oracle.parse_terms(line.split("; ", 1)[1]) for line in outs[-1][1].splitlines()]
            weights = [term.split(":") for term in lines[1][len("weights:") :].split()]
            terms = [(oracle.Fraction(w), generators[int(i)]) for i, w in weights]
            return all(w > 0 for w, _ in terms) and oracle.combine(*terms) == self.member
        # elemental
        printed = [oracle.parse_terms(line.split("; ", 1)[1]) for line in text.splitlines()]
        as_set = lambda gens: {frozenset(g.items()) for g in gens}  # noqa: E731
        return len(printed) == len(self.gen5) and as_set(printed) == as_set(self.gen5)

    def _table_ok(self, text, grid) -> bool:
        lines = text.splitlines()
        expected_rows = [
            (y, x, s)
            for y in oracle.strings_up_to(self.targets_to)
            for x in oracle.strings_up_to(2)
            for s in grid
        ]
        if lines[0] != "y,x,s,cap,value,witness" or len(lines) != len(expected_rows) + 1:
            return False
        for i, ((y, x, s), line) in enumerate(zip(expected_rows, lines[1:])):
            value, witness = oracle.closed_ks(y, x, self.table_cap)
            if self.fault and i == 0:
                value += 1
            want = f"{y},{x},{s},{self.table_cap},{'NotFound' if value is None else value},{witness or ''}"
            if line != want:
                return False
        return True


WORKLOADS = {w.name: w for w in (DeciderSweep, Interpret, LabSession)}
