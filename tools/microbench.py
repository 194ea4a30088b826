"""Microbenchmarks of the machine codecs, outside the benchmark workloads.

    python3 tools/microbench.py [--checkout DIR]

Times, in the checkout DIR (default: this one), best of `REPS` repetitions
(`KS_SCAN_REPS` for `ks_scan`):

* `parse_bits` per sampled 1-3-state machine serialization (microseconds),
* `MachineSpec` validation per such machine (microseconds),
* `serialize_machine` per such machine (microseconds),
* `ks_scan("1", "", 0, 24, prefix="11")`, whose time is mostly header
  parses (seconds).

Machines come from the benchmark's own rejection sampler, seeded, so every
checkout times the same inputs.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPS = 15
KS_SCAN_REPS = 3


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

    from oracle import sample_machine_bits
    from kslab.kolmo import ks_scan
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
    print(json.dumps({k: round(v, 4) if isinstance(v, float) else v for k, v in result.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
