"""Self-test of the benchmark, in well under a minute.

    python3 perfbench/selftest.py

For every workload at small size it checks that
  * a plain run is correct and fails no operation except the looping
    decodes at s = 512 that `interpret` keeps on purpose;
  * a run whose checker was given one wrong expectation reports a failed
    operation and correct = false, so the checks cannot pass silently;
  * a traced run prints every per-layer metric of BENCHMARK.json, with the
    decode outcomes adding up to the decode calls and at most three live
    configurations in the backward decider.
Last, run.py must refuse, with no result line, a directory that holds the
benchmark but not the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Decodes of the seesaw machine at s = 512 per round: 2 jobs in 6 passes.
KNOWN_FAILURES = {"decider-sweep": 0, "interpret": 12, "lab-session": 0}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0", "--small", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def result(*args) -> dict:
    proc = bench(*args)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        name = w["name"]
        clean = result("--workload", name)
        assert clean["correct"], (name, clean)
        assert 0 <= clean["failed"] <= KNOWN_FAILURES[name], (name, clean)
        assert set(clean["metrics"]) == end_to_end, (name, sorted(clean["metrics"]))

        faulty = result("--workload", name, "--inject-fault")
        assert not faulty["correct"] and faulty["failed"] > clean["failed"], (name, faulty)

        traced = result("--workload", name, "--trace", "1")
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        assert set(metrics) == per_layer, (name, sorted(per_layer ^ set(metrics)))
        outcomes = sum(metrics[f"kolmo.reference_decode.{o}"] for o in ("parse_fail", "run_fail", "mismatch", "match"))
        assert outcomes == metrics["kolmo.reference_decode.calls"], (name, metrics)
        assert metrics["halting.decide_backward.peak_live"] <= 3, (name, metrics)
        print(f"{name}: clean {clean['failed']}/{clean['attempted']} failed, "
              f"fault caught ({faulty['failed']} failed), {len(metrics)} per-layer metrics")

    (HERE / "_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        proc = bench("--workload", "interpret", cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
        print("a checkout without the program is refused")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
