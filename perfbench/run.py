"""Benchmark of kslab: three workloads, four end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload decider-sweep --seed 1 --seconds 30 --trace 0

Runs rounds of the workload, each in a fresh single-threaded process
(child.py), for about --seconds, and prints as its last line one
JSON object with the summed job counts and, per metric, the median over the
rounds.  --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
ones.  The full result, with every round, is also written to
perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decider-sweep", "interpret", "lab-session")
ROUND_TIMEOUT_S = 150


def per_job_median_sum(passes) -> float:
    """Time of one pass with each job at its median over all the run's passes of that kind.

    A burst of host load slows the jobs it overlaps in one pass; the median
    per job drops it, where a median of whole-pass times would keep part of
    it.  Pooling the passes of every round gives each job 3 x rounds samples.
    """

    return sum(statistics.median(times) for times in zip(*passes))


def run_round(args) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--started", repr(time.monotonic()),
    ]
    if args.small:
        cmd.append("--small")
    if args.inject_fault:
        cmd.append("--inject-fault")
    # A fixed hash seed keeps set and dict layouts, and so their cost, the same in every round.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round of {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--inject-fault", action="store_true", help="give the checker one wrong expectation")
    args = parser.parse_args()
    if not (ROOT / "src" / "kslab").is_dir() or not (ROOT / "baselines").is_dir():
        parser.exit(2, f"run.py: {ROOT} holds no kslab source tree (src/kslab, baselines)\n")
    (HERE / "_work").mkdir(exist_ok=True)

    # Another round starts only while at least half a round's time is left,
    # so a run lasts about --seconds however fast the host is at the moment.
    started = time.monotonic()
    rounds = []
    round_s = 0.0
    while not rounds or time.monotonic() - started + round_s / 2 < args.seconds:
        round_started = time.monotonic()
        rounds.append(run_round(args))
        round_s = time.monotonic() - round_started

    metrics = {}
    for name, (_, unit) in rounds[0]["metrics"].items():
        values = [r["metrics"][name][0] for r in rounds]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    if not args.trace:
        for name, kind in (("wall_s", "cold"), ("warm_wall_s", "warm")):
            passes = [times for r in rounds for times in r["job_s"][kind]]
            metrics[name] = {"value": per_job_median_sum(passes), "unit": "s"}
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
    (results / f"{stem}.json").write_text(json.dumps({"result": result, "rounds": rounds}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
