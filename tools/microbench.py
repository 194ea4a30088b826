"""Microbenchmarks of the machine codecs, outside the benchmark workloads.

    python3 tools/microbench.py [--checkout DIR]

Times, in the checkout DIR (default: this one), best of `REPS` repetitions
(`KS_SCAN_REPS` for `ks_scan`):

* `parse_bits` per sampled 1-3-state machine serialization (microseconds),
* `MachineSpec` validation per such machine (microseconds),
* `serialize_machine` per such machine (microseconds),
* `ks_scan("1", "", 0, 24, prefix="11")`, whose programs all have an
  open header, so it decodes none (seconds),
* a whole `ks_scan` of `1`*80 at cap 77, which finds nothing, and the
  same scan at cap 78, which the live limit refuses (seconds each;
  `ks_scan_cap77` and `ks_scan_cap78` give the outcome, `NotFound(cap)`
  or the refusal's message),
* `reference_decode` per general-mode decode program of the benchmark's
  `interpret` workload at seed 7, the 72 with no time limit of their own
  (microseconds),
* `verify_law` on the five law grids of the benchmark's `lab-session`
  pass, without a cache, as one total (milliseconds), and the
  `ks_evaluations` of those five calls, summed,
* `verify_law("chain_easy", n=6, s_grid=(0,), cap=77)` without a cache
  (milliseconds, `verify_law_searched_ms`): a grid of 16,129 pairs
  whose minimal c is 4, so that the per-point searches and the two
  re-check passes make about half of its 66,390 `ks` searches,
* `typical_set(("01", "1"), 8, 2, 14)` without a cache (milliseconds),
* an in-process `main(["cone", "elemental", "--k", "1"])` with stdout
  redirected, a command whose own work is small, so that the time is
  mostly the CLI's fixed cost per call (microseconds),
* `main` on a 7,154-row `ks table` (`--targets-to 8 --conditions-to 2`,
  two s values, `--cap 14`) without a cache, stdout redirected, per row
  (microseconds),
* loading a `ComplexityCache` file of `CACHE_RECORDS` records, per record
  (microseconds), each repetition on a file this process has not loaded,
  so that every load parses the whole file,
* `refresh()` of a cache that has loaded that file, per record
  (microseconds): with the file unchanged (`cache_reopen_us`), and after
  the cache itself put and flushed one record (`cache_reopen_grown_us`,
  the put and the flush not timed), so that neither parses a record.  On a
  checkout without `refresh()` a new `ComplexityCache` on the file is
  timed instead,
* putting `CACHE_RECORDS` records into a new `ComplexityCache` file, per
  record, the closing `flush` included (microseconds),
* a `cached_ks` hit, per record of such a file (microseconds): on the
  cache that put and flushed the records (`cache_hit_own_us`), and on a
  cache that has only read a copy of the file (`cache_hit_loaded_us`).  A
  checkout that keeps no put results decodes the stored text on both, so
  they read alike there,
* a `cached_ks` miss on a new `ComplexityCache` file, per query of those
  hits, the `ks` search and the closing `flush` included (microseconds,
  `cache_miss_us`): what a cold pass pays per query,
* `is_shannon` on Zhang-Yeung (k = 4, unpermuted), on `lab-session`'s
  k = 5 member and on `k=6; {1}:1` (milliseconds each),
* each of `decide_backward`, `decide_forward` and `decide_counter` on
  the cases of the benchmark's `decider-sweep` at seed 7, as the
  `configurations_visited` of those calls, summed, per second, and as
  microseconds per call.  No run of those machines can reach a halt, so
  `decide_backward` visits only the root there and its time per call is
  the fixed cost that configurations per second hides; and, exactly, the
  steps that `decide_counter` executes on those cases (its
  `configurations_visited` less the executed halt), which the benchmark
  gives only as rate times time: 3,529 since its per-phase bound counts
  only the stack words a table can push, 62,137 before;
* `decide_backward` on the acceptance test's grid (|p| <= 3, |x| <= 2,
  s <= 6) for the machines of its stream that halt (`HALTING_MACHINES`),
  whose searches walk a tree, in configurations per second;
* the steps that `decide_counter` executes on that grid for the first
  `ACCEPT_MACHINES` machines of the stream, criterion 1's cases, counted
  once and not timed: 2,779,833, and 10,904,418 with the bound over
  every word of both bits.

Machines come from the benchmark's own rejection sampler, seeded, so every
checkout times the same inputs.  Prints one JSON object, each float to 6
significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import shutil
import sys
import tempfile
import time
from itertools import count, islice, product
from pathlib import Path

REPS = 15
KS_SCAN_REPS = 3
# About the size of the file that `lab-session`'s warm pass reads.
CACHE_RECORDS = 18_000
SHANNON_TEXT = "k=3; {1,2}:1 {2,3}:1 {2}:-1 {1,2,3}:-1"
# Indexes, in the acceptance test's machine stream, of the machines that halt.
HALTING_MACHINES = (11, 17, 40, 42, 45)
# The acceptance test's default number of machines (KSLAB_ACCEPT_MACHINES).
ACCEPT_MACHINES = 50


def _best(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", default=str(Path(__file__).resolve().parent.parent))
    args = ap.parse_args()
    root = Path(args.checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import oracle
    from oracle import sample_machine_bits
    from workloads import ACCEPT_SEED, DeciderSweep, Interpret, LabSession
    from kslab.cli import main as cli_main
    from kslab.entropy import is_shannon, parse_inequality
    from kslab.halting import decide_backward, decide_counter, decide_forward
    from kslab.kolmo import (
        ComplexityCache, ReferenceParseError, ReferenceRunError, cached_ks, ks, ks_scan, reference_decode
    )
    from kslab.laws import strings_up_to, typical_set, verify_law
    from kslab.machine import MachineSpec, parse_bits, serialize_machine

    rng = random.Random(3)
    samples = [sample_machine_bits(rng, rng.randint(1, 3)) for _ in range(300)]
    specs = [parse_bits(bits) for bits in samples]
    per_machine = 1e6 / len(samples)
    result = {
        "checkout": str(root),
        "parse_bits_us": _best(lambda: [parse_bits(b) for b in samples], REPS) * per_machine,
        "validate_us": _best(
            lambda: [MachineSpec(s.state_count, s.instructions) for s in specs], REPS
        ) * per_machine,
        "serialize_us": _best(lambda: [serialize_machine(s) for s in specs], REPS) * per_machine,
        "ks_scan_11_cap24_s": _best(lambda: ks_scan("1", "", 0, 24, prefix="11"), KS_SCAN_REPS),
    }

    def scan_outcome(cap):
        try:
            return ks_scan("1" * 80, "", 0, cap).describe()
        except ValueError as exc:
            return str(exc)

    for cap in (77, 78):
        result[f"ks_scan_cap{cap}_s"] = _best(lambda: scan_outcome(cap), KS_SCAN_REPS)
        result[f"ks_scan_cap{cap}"] = scan_outcome(cap)
    decodes = [job.args for job in Interpret(root, None, 7, False).jobs if getattr(job.func, "__name__", "") == "_decode"]

    def decode_all():
        for prog, x, s in decodes:
            try:
                reference_decode(prog, x, s)
            except (ReferenceParseError, ReferenceRunError):
                pass

    result["reference_decode_us"] = _best(decode_all, REPS) * 1e6 / len(decodes)
    result["reference_decode_programs"] = len(decodes)
    # The `law verify` calls of a `lab-session` pass, with the s grids its
    # seed 7 draws for the two grids that have no frozen file.
    frozen = (64, 128, 256, 512)
    law_calls = [
        ("symmetry", dict(n=2, s_grid=frozen)),
        ("basic", dict(n=1, s_grid=frozen, I={1}, J={2}, k=3)),
        ("shannon", dict(n=1, s_grid=frozen, inequality=parse_inequality(SHANNON_TEXT))),
        ("basic", dict(n=2, s_grid=(175, 202, 253, 503), I={1}, J={2}, k=3)),
        ("pair_swap", dict(n=3, s_grid=(234, 258, 372, 498))),
    ]
    result["verify_law_ms"] = _best(
        lambda: [verify_law(law, cap=14, **kw) for law, kw in law_calls], REPS
    ) * 1e3
    result["ks_evaluations"] = sum(verify_law(law, cap=14, **kw).ks_evaluations for law, kw in law_calls)
    result["verify_law_searched_ms"] = _best(
        lambda: verify_law("chain_easy", n=6, s_grid=(0,), cap=77), REPS
    ) * 1e3
    result["typical_set_ms"] = _best(lambda: typical_set(("01", "1"), 8, 2, 14), REPS) * 1e3

    def quiet_main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(argv)

    result["cli_main_us"] = _best(lambda: quiet_main(["cone", "elemental", "--k", "1"]), REPS) * 1e6
    table = ["ks", "table", "--targets-to", "8", "--conditions-to", "2", "--s-grid", "0,300", "--cap", "14"]
    table_rows = len(strings_up_to(8)) * len(strings_up_to(2)) * 2
    result["ks_table_row_us"] = _best(lambda: quiet_main(table), REPS) * 1e6 / table_rows

    queries = product(strings_up_to(8), strings_up_to(2), range(0, 600, 60))
    records = [ks(y, x, s, 14) for y, x, s in islice(queries, CACHE_RECORDS)]
    with tempfile.TemporaryDirectory() as tmp:
        fresh = count()

        def put_all():
            cache = ComplexityCache(Path(tmp) / f"put-{next(fresh)}.tsv")
            for record in records:
                cache.put(record)
            cache.flush()
            return cache

        result["cache_put_us"] = _best(put_all, REPS) * 1e6 / CACHE_RECORDS
        unseen = (Path(tmp) / f"put-{i}.tsv" for i in range(REPS))
        result["cache_load_us"] = _best(lambda: ComplexityCache(next(unseen)), REPS) * 1e6 / CACHE_RECORDS
        path = Path(tmp) / "put-0.tsv"
        cache = ComplexityCache(path)
        refresh = getattr(cache, "refresh", lambda: ComplexityCache(path))
        result["cache_reopen_us"] = _best(refresh, REPS) * 1e6 / CACHE_RECORDS
        grown = []
        for record in [ks(y, x, s, 14) for y, x, s in islice(queries, REPS)]:
            with cache:
                cache.put(record)
            start = time.perf_counter()
            refreshed = refresh()
            grown.append((time.perf_counter() - start) / refreshed.records_loaded)
        result["cache_reopen_grown_us"] = min(grown) * 1e6
        asked = [(r.target, r.condition, r.s, r.cap) for r in records]
        own = put_all()
        result["cache_hit_own_us"] = _best(lambda: [cached_ks(*q, own) for q in asked], REPS) * 1e6 / CACHE_RECORDS
        foreign = Path(tmp) / "foreign.tsv"
        shutil.copyfile(Path(tmp) / "put-1.tsv", foreign)
        loaded = ComplexityCache(foreign)
        result["cache_hit_loaded_us"] = _best(lambda: [cached_ks(*q, loaded) for q in asked], REPS) * 1e6 / CACHE_RECORDS

        def miss_all():
            cache = ComplexityCache(Path(tmp) / f"miss-{next(fresh)}.tsv")
            for q in asked:
                cached_ks(*q, cache)
            cache.flush()

        result["cache_miss_us"] = _best(miss_all, REPS) * 1e6 / CACHE_RECORDS
    gen5 = oracle.elemental(5)
    member_k5 = oracle.combine(*((w, gen5[i]) for i, w in LabSession.MEMBER_K5))
    cone_checks = {
        "is_shannon_zy_k4_ms": oracle.format_inequality(4, oracle.zhang_yeung((1, 2, 4, 8))),
        "is_shannon_member_k5_ms": oracle.format_inequality(5, member_k5),
        "is_shannon_k6_ms": "k=6; {1}:1",
    }
    for name, text in cone_checks.items():
        inequality = parse_inequality(text)
        result[name] = _best(lambda: is_shannon(inequality), REPS) * 1e3
    cases = DeciderSweep(root, None, 7, False).cases
    for decide in (decide_backward, decide_forward, decide_counter):
        configs = sum(decide(*case).probe_stats.configurations_visited for case in cases)
        seconds = _best(lambda: [decide(*case) for case in cases], REPS)
        result[f"{decide.__name__}_configs_per_s"] = configs / seconds
        result[f"{decide.__name__}_us_per_call"] = seconds * 1e6 / len(cases)
    verdicts = [decide_counter(*case) for case in cases]
    result["decide_counter_steps"] = sum(
        v.probe_stats.configurations_visited - v.terminates_within_s for v in verdicts
    )
    mrng = random.Random(ACCEPT_SEED)
    stream = [parse_bits(sample_machine_bits(mrng, mrng.choice((1, 2, 3)))) for _ in range(ACCEPT_MACHINES)]
    grid = [(p, x, s) for p in strings_up_to(3) for x in strings_up_to(2) for s in range(7)]
    cases = [(stream[i], *point) for i in HALTING_MACHINES for point in grid]
    configs = sum(decide_backward(*case).probe_stats.configurations_visited for case in cases)
    seconds = _best(lambda: [decide_backward(*case) for case in cases], REPS)
    result["decide_backward_halting_configs_per_s"] = configs / seconds
    verdicts = [decide_counter(spec, *point) for spec in stream for point in grid]
    result["decide_counter_accept_steps"] = sum(
        v.probe_stats.configurations_visited - v.terminates_within_s for v in verdicts
    )
    print(json.dumps({k: float(f"{v:.6g}") if isinstance(v, float) else v for k, v in result.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
