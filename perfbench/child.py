"""One round of one workload, in a fresh process: set up, time, check.

Started by run.py, never by hand.  Prints one JSON object on its last line:
the round's job counts, its metrics and (traced) its span totals.

Untraced round: REPEATS times a cold pass (empty in-process caches, empty
on-disk cache) followed by the identical pass again (warm).  Traced round:
an untraced cold pass, then a cold pass with every layer wrapped; the
difference of their wall times is the tracing overhead.  Outputs are
checked only after the timed passes, and peak RSS is read before the
checks run.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


# Cold and warm passes per round; the per-job median needs at least three.
REPEATS = 3

# Host normalisation.  The shared host's speed drifts by up to 2x within
# minutes, and within a second, far more than any bound a regression gate
# could use, and process CPU time drifts with it.  So a pass times a fixed
# pure-Python calibration loop before its first job and after every
# CAL_EVERY_S of jobs, and scales the jobs in between by CAL_REF_S / (mean
# of the two calibration times around them): seconds at the speed at which
# the loop takes CAL_REF_S.  The loop is the benchmark's own code, so a
# change to the program moves the scaled times as much as the raw ones.
CAL_EVERY_S = 0.025
CAL_REF_S = 0.002
_CAL_TABLE = {i: (i & 7, i >> 1, i * 3) for i in range(64)}
_CAL_TEXT = "0110100110010110"


def calibration_s() -> float:
    """Seconds one fixed unit of dict, tuple, int, str and list work takes now."""

    start = time.perf_counter()
    acc, total, v = [], 0, 1
    for i in range(8000):
        a, b, c = _CAL_TABLE[i & 63]
        v = (v * 2 + a) & 0xFFFF if b & 1 else v >> 1
        if _CAL_TEXT[i & 15] == "1":
            total += c
        acc.append(v)
        if len(acc) > 32:
            acc = acc[16:]
    return time.perf_counter() - start


def timed_pass(jobs):
    """Run every job once; a job that raises is a failed operation.

    Times are host-normalised; `raw_s` is the unscaled sum of the job times.
    """

    outs, seconds, failed, scaled = [], [], [], []
    perf = time.perf_counter
    cal_before = calibration_s()
    since = 0.0
    for i, job in enumerate(jobs):
        t = perf()
        try:
            outs.append(job())
            failed.append(False)
        except Exception as exc:  # the job failed; the pass goes on
            outs.append(repr(exc))
            failed.append(True)
        elapsed = perf() - t
        seconds.append(elapsed)
        since += elapsed
        if since >= CAL_EVERY_S or i == len(jobs) - 1:
            cal_after = calibration_s()
            scale = 2 * CAL_REF_S / (cal_before + cal_after)
            scaled.extend(job_s * scale for job_s in seconds[len(scaled) :])
            cal_before, since = cal_after, 0.0
    return Pass(outs, scaled, failed, sum(seconds))


class Pass(NamedTuple):
    outs: list
    job_s: list
    raised: list
    raw_s: float


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() when the parent spawned this process")
    args = parser.parse_args()

    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / "perfbench" / "_work"))
    try:
        return run_round(args, root, workdir)
    finally:
        shutil.rmtree(workdir)


def run_round(args, root: Path, workdir: Path) -> int:
    import workloads  # imports kslab

    workload = workloads.WORKLOADS[args.workload](root, workdir, args.seed, args.small)
    if args.inject_fault:
        workload.inject_fault()
    setup_s = (time.monotonic() - args.started) * CAL_REF_S / statistics.median(calibration_s() for _ in range(5))

    jobs = workload.jobs
    tracer = None
    if args.trace:
        import tracing

        workload.begin_cold()
        untraced = timed_pass(jobs)
        workload.begin_cold()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_pass(jobs)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
    else:
        colds, warms = [], []
        for _ in range(REPEATS):
            workload.begin_cold()
            colds.append(timed_pass(jobs))
            warms.append(timed_pass(jobs))
        passes = colds + warms
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, correct = 0, True
    for p in passes:
        for ok, did_raise in zip(workload.check(p.outs), p.raised):
            failed += did_raise or not ok
            correct = correct and (did_raise or ok)

    result = {"attempted": len(passes) * len(jobs), "failed": int(failed), "correct": correct}
    if tracer is None:
        result["metrics"] = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        result["job_s"] = {"cold": [p.job_s for p in colds], "warm": [p.job_s for p in warms]}
        result["raw_pass_s"] = {"cold": [p.raw_s for p in colds], "warm": [p.raw_s for p in warms]}
    else:
        result["metrics"] = tracer.metrics(untraced.job_s, traced.raw_s - untraced.raw_s)
        result["spans"] = tracer.spans()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
