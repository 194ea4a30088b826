"""Spans and counts recorded by wrapping the package's public functions.

`Tracer.install` replaces each traced function at the name through which it
is called (a module attribute or a class attribute) with a wrapper that
times the call and hands its arguments and result to an observer, and
`uninstall` puts the originals back.  Spans nest: a span's self time is its
duration minus the time of the spans that ran inside it.  Spans are summed
per name as they close, so memory stays flat however many calls there are.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from kslab import cli, halting, kolmo, laws

CLI_SPANS = {
    "cmd_ks_table": "cli.ks_table",
    "cmd_law_verify": "cli.law_verify",
    "cmd_law_typical_set": "cli.law_typical_set",
    "cmd_cone_check": "cli.cone_check",
    "cmd_cone_elemental": "cli.cone_elemental",
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.peak = defaultdict(int)
        self.targets: list = []  # targets of the ks_scan calls in progress
        self._stack: list = []
        self._originals: list = []

    def _wrap(self, name, fn, observe=None, enter=None, leave=None):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            child = [0.0]
            stack.append(child)
            result = exc = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:  # recorded, then re-raised
                exc = error
                raise
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child[0]
                if leave is not None:
                    leave()
                if observe is not None:
                    observe(args, result, exc)

        return wrapper

    def _patch(self, owner, attr, name, **hooks):
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **hooks))

    def install(self) -> None:
        count, peak = self.counts, self.peak

        def on_run(args, result, exc):
            if result is not None:
                count["machine.run.steps"] += result.steps
                if result.verdict.name == "STEP_LIMIT":
                    count["machine.run.step_limit_steps"] += result.steps

        def on_decode(args, result, exc):
            if self.targets:
                count["kolmo.ks_scan.programs"] += 1
            if isinstance(exc, kolmo.ReferenceParseError):
                count["kolmo.reference_decode.parse_fail"] += 1
            elif exc is not None:
                count["kolmo.reference_decode.run_fail"] += 1
            elif self.targets and result != self.targets[-1]:
                count["kolmo.reference_decode.mismatch"] += 1
            else:
                # Outside a search a decode has no target: its output is the answer.
                count["kolmo.reference_decode.match"] += 1

        def decider(key):
            def observe(args, result, exc):
                if result is not None:
                    count[f"halting.{key}.configs"] += result.probe_stats.configurations_visited
                    peak[f"halting.{key}.peak_live"] = max(
                        peak[f"halting.{key}.peak_live"], result.probe_stats.peak_live_configurations
                    )

            return observe

        def on_load(args, result, exc):
            count["kolmo.cache.load_records"] += args[0].records_loaded

        def on_get(args, result, exc):
            count["kolmo.cache.hits" if result is not None else "kolmo.cache.misses"] += 1

        def on_verify(args, result, exc):
            if result is not None:
                count["laws.verify_law.ks_calls"] += result.ks_evaluations

        self._patch(kolmo, "run", "machine.run", observe=on_run)
        self._patch(kolmo, "reference_decode", "kolmo.reference_decode", observe=on_decode)
        self._patch(
            kolmo,
            "ks_scan",
            "kolmo.ks_scan",
            enter=lambda args: self.targets.append(args[0]),
            leave=self.targets.pop,
        )
        for key in ("decide_backward", "decide_forward", "decide_counter"):
            self._patch(halting, key, f"halting.{key}", observe=decider(key))
        self._patch(kolmo, "ks", "kolmo.ks")
        for module in (kolmo, laws, cli):
            self._patch(module, "cached_ks", "kolmo.cached_ks")
        self._patch(kolmo.ComplexityCache, "_load", "kolmo.cache.load", observe=on_load)
        self._patch(kolmo.ComplexityCache, "get", "kolmo.cache.get", observe=on_get)
        self._patch(kolmo.ComplexityCache, "put", "kolmo.cache.put")
        self._patch(cli, "verify_law", "laws.verify_law", observe=on_verify)
        self._patch(cli, "typical_set", "laws.typical_set")
        self._patch(cli, "is_shannon", "entropy.is_shannon")
        self._patch(cli, "main", "cli.main")
        for attr, name in CLI_SPANS.items():
            self._patch(cli, attr, name)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def metrics(self, job_seconds, overhead_s: float) -> dict:
        """Every per-layer metric, with its unit; layers a workload never calls read 0."""

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        c, t = self.counts, self.total
        values = {
            "machine.run.calls": (self.calls["machine.run"], "count"),
            "machine.run.steps": (c["machine.run.steps"], "count"),
            "machine.run.s": (t["machine.run"], "s"),
            "machine.run.steps_per_s": (rate(c["machine.run.steps"], t["machine.run"]), "1/s"),
            "machine.run.step_limit_steps": (c["machine.run.step_limit_steps"], "count"),
            "halting.decide_backward.s": (t["halting.decide_backward"], "s"),
            "halting.decide_backward.configs": (c["halting.decide_backward.configs"], "count"),
            "halting.decide_backward.configs_per_s": (
                rate(c["halting.decide_backward.configs"], t["halting.decide_backward"]),
                "1/s",
            ),
            "halting.decide_backward.peak_live": (self.peak["halting.decide_backward.peak_live"], "count"),
            "halting.decide_forward.s": (t["halting.decide_forward"], "s"),
            "halting.decide_forward.configs_per_s": (
                rate(c["halting.decide_forward.configs"], t["halting.decide_forward"]),
                "1/s",
            ),
            "halting.decide_counter.s": (t["halting.decide_counter"], "s"),
            "halting.decide_counter.steps_per_s": (
                rate(c["halting.decide_counter.configs"], t["halting.decide_counter"]),
                "1/s",
            ),
            "kolmo.reference_decode.calls": (self.calls["kolmo.reference_decode"], "count"),
            "kolmo.reference_decode.s": (t["kolmo.reference_decode"], "s"),
        }
        for outcome in ("parse_fail", "run_fail", "mismatch", "match"):
            values[f"kolmo.reference_decode.{outcome}"] = (c[f"kolmo.reference_decode.{outcome}"], "count")
        values.update(
            {
                "kolmo.ks_scan.programs": (c["kolmo.ks_scan.programs"], "count"),
                "kolmo.ks_scan.s": (t["kolmo.ks_scan"], "s"),
                "kolmo.ks_scan.programs_per_s": (rate(c["kolmo.ks_scan.programs"], t["kolmo.ks_scan"]), "1/s"),
                "kolmo.ks.calls": (self.calls["kolmo.ks"], "count"),
                "kolmo.ks.s": (t["kolmo.ks"], "s"),
                "kolmo.cache.puts": (self.calls["kolmo.cache.put"], "count"),
                "kolmo.cache.put_s": (t["kolmo.cache.put"], "s"),
                "kolmo.cache.load_records": (c["kolmo.cache.load_records"], "count"),
                "kolmo.cache.load_s": (t["kolmo.cache.load"], "s"),
                "kolmo.cache.hits": (c["kolmo.cache.hits"], "count"),
                "kolmo.cache.misses": (c["kolmo.cache.misses"], "count"),
                "laws.verify_law.s": (t["laws.verify_law"], "s"),
                "laws.verify_law.self_s": (self.self_time["laws.verify_law"], "s"),
                "laws.verify_law.ks_calls": (c["laws.verify_law.ks_calls"], "count"),
                "laws.typical_set.s": (t["laws.typical_set"], "s"),
                "entropy.is_shannon.calls": (self.calls["entropy.is_shannon"], "count"),
                "entropy.is_shannon.s": (t["entropy.is_shannon"], "s"),
                "cli.main.calls": (self.calls["cli.main"], "count"),
                "cli.main.s": (t["cli.main"], "s"),
                "cli.self_s": (
                    self.self_time["cli.main"] + sum(self.self_time[name] for name in CLI_SPANS.values()),
                    "s",
                ),
                "cli.ks_table.s": (t["cli.ks_table"], "s"),
                "cli.law_verify.s": (t["cli.law_verify"], "s"),
                "cli.law_typical_set.s": (t["cli.law_typical_set"], "s"),
                "cli.cone_check.s": (t["cli.cone_check"], "s"),
                "job.p50_ms": (1000 * statistics.median(job_seconds), "ms"),
                "job.p90_ms": (1000 * statistics.quantiles(job_seconds, n=10)[-1], "ms"),
                "trace.overhead_s": (overhead_s, "s"),
            }
        )
        return values

    def spans(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""

        return {
            name: {"calls": self.calls[name], "s": self.total[name], "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        }
