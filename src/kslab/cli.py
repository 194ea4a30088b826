"""Command-line interface.

Subcommands map one-to-one onto library operations: complexity queries
and tables, the halting decider, law grids, staged enumeration, typical
sets and cone membership.

Exit codes: 0 success, 1 domain error (bad values, unreachable targets,
baseline mismatches), 2 usage error (argparse).  Output on stdout is
deterministic: identical inputs and cache state produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from ._masks import mask_label
from .entropy import elemental_inequalities, is_shannon, parse_inequality
from .halting import decide_backward, decide_counter, decide_forward
from .kolmo import (
    ComplexityCache,
    ComplexityResult,
    cached_ks,
    encode_pair,
    ks,
)
from .laws import (
    LAW_NAMES,
    BaselineMismatch,
    baseline_name,
    check_points,
    count_strings_up_to,
    freeze_or_check,
    gap_report,
    staged_enumeration,
    strings_up_to,
    typical_set,
    verify_law,
)
from .machine import parse_bits, parse_machine

__all__ = [
    "cmd_cone_check",
    "cmd_cone_elemental",
    "cmd_ks_table",
    "cmd_law_typical_set",
    "cmd_law_verify",
    "main",
]


def _parse_grid(text: str, flag: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"bad {flag} {text!r}, expected comma-separated integers") from None


def _open_cache(args) -> ComplexityCache | nullcontext:
    """The cache file in --cache-dir, or a context giving None without one.

    Use it in a with block: its exit writes the records put in the block,
    also when the block raises.
    """

    if not args.cache_dir:
        return nullcontext()
    path = Path(args.cache_dir) / "complexity.tsv"
    path.parent.mkdir(parents=True, exist_ok=True)
    return ComplexityCache(path)


def _load_machine(path: str):
    text = Path(path).read_text(encoding="utf-8")
    stripped = "".join(text.split())
    if stripped and set(stripped) <= {"0", "1"}:
        return parse_bits(stripped)
    return parse_machine(text)


def _print_result(result: ComplexityResult, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "target": result.target,
            "condition": result.condition,
            "s": result.s,
            "cap": result.cap,
            "value": result.value,
            "witness": result.witness,
        }
        print(json.dumps(payload, sort_keys=True))
        return
    print(f"value: {result.describe()}")
    if result.witness is not None:
        print(f"witness: {result.witness}")


def cmd_ks_compute(args) -> int:
    _print_result(ks(args.target, args.x, args.s, args.cap), args.format)
    return 0


def cmd_ks_table(args) -> int:
    s_grid = _parse_grid(args.s_grid, "--s-grid")
    if args.targets_to < 0:
        raise ValueError("--targets-to must be >= 0")
    if args.conditions_to < 0:
        raise ValueError("--conditions-to must be >= 0")
    # A table is a grid of points too, refused before any row is built.
    rows = len(s_grid) * count_strings_up_to(args.targets_to) * count_strings_up_to(args.conditions_to)
    check_points(rows, "table (targets x conditions x s values)")
    conditions = strings_up_to(args.conditions_to)
    with _open_cache(args) as cache:
        results = [
            cached_ks(y, x, s, args.cap, cache)
            for y in strings_up_to(args.targets_to)
            for x in conditions
            for s in s_grid
        ]
    if args.format == "json":
        rows = [
            {"y": r.target, "x": r.condition, "s": r.s, "cap": r.cap, "value": r.value, "witness": r.witness}
            for r in results
        ]
        print(json.dumps(rows, sort_keys=True))
        return 0
    print("y,x,s,cap,value,witness")
    for r in results:
        value_text = "NotFound" if r.value is None else str(r.value)
        print(f"{r.target},{r.condition},{r.s},{r.cap},{value_text},{r.witness or ''}")
    return 0


def cmd_ks_pair_encode(args) -> int:
    print(encode_pair(args.x, args.y))
    return 0


def cmd_halt_decide(args) -> int:
    spec = _load_machine(args.machine)
    decider = {
        "backward": decide_backward,
        "forward": decide_forward,
        "counter": decide_counter,
    }[args.method]
    verdict = decider(spec, args.p, args.x, args.s)
    print(f"terminates: {'true' if verdict.terminates_within_s else 'false'}")
    return 0


def cmd_law_verify(args) -> int:
    kwargs = dict(
        n=args.n,
        s_grid=_parse_grid(args.s_grid, "--s-grid"),
        cap=args.cap,
    )
    if args.law == "basic":
        kwargs["I"] = set(_parse_grid(args.i, "--i"))
        kwargs["J"] = set(_parse_grid(args.j, "--j"))
        kwargs["k"] = args.k
    elif args.law == "shannon":
        if args.inequality is None:
            raise ValueError("shannon law needs --inequality")
        kwargs["inequality"] = parse_inequality(args.inequality)
    with _open_cache(args) as cache:
        report = verify_law(args.law, cache=cache, **kwargs)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_json())
    if args.baseline_dir:
        status = freeze_or_check(args.baseline_dir, baseline_name("law", report), report.baseline_text())
        print(f"baseline: {status}", file=sys.stderr)
    return 0


def cmd_law_staged(args) -> int:
    ordinal = staged_enumeration(args.x, args.m, args.n, (args.x, args.target_y))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "x": args.x,
                    "y": args.target_y,
                    "threshold": ordinal.threshold,
                    "ordinal": ordinal.ordinal,
                    "stage": ordinal.s_hit,
                    "total": ordinal.total_enumerated,
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"ordinal: {ordinal.ordinal}")
    print(f"stage: {ordinal.s_hit}")
    print(f"total: {ordinal.total_enumerated}")
    return 0


def cmd_law_typical_set(args) -> int:
    xs = tuple(args.xs.split(",")) if args.xs else ("",)
    with _open_cache(args) as cache:
        ts = typical_set(xs, args.u, args.n, args.cap, cache)
    if args.gap_report:
        sys.stdout.write(gap_report(ts))
        return 0
    if args.format == "json":
        print(
            json.dumps(
                {
                    "base": list(ts.xs),
                    "u": ts.u,
                    "u_star": ts.u_star,
                    "n": ts.n,
                    "cap": ts.cap,
                    "members": [list(m) for m in ts.members],
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"base: {','.join(ts.xs)}")
    print(f"u: {ts.u}")
    print(f"u_star: {ts.u_star}")
    print(f"members: {len(ts.members)}")
    for member in ts.members:
        print(",".join(member))
    return 0


def cmd_cone_check(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8") if args.file else args.inequality
    if text is None:
        raise ValueError("provide an inequality (positional) or --file")
    decision = is_shannon(parse_inequality(text))
    if args.format == "json":
        payload = {
            "k": decision.k,
            "member": decision.member,
            "weights": {str(i): str(w) for i, w in (decision.weights or {}).items()},
            "witness": {str(m): str(v) for m, v in (decision.witness or {}).items()},
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    # Formatted whole before printing: a value too long for str() leaves stdout empty.
    if decision.member:
        weights = " ".join(f"{i}:{w}" for i, w in sorted(decision.weights.items()))
        detail = f"weights: {weights}" if weights else "weights:"
    else:
        witness = " ".join(f"{mask_label(m)}:{v}" for m, v in sorted(decision.witness.items()))
        detail = f"witness: {witness}"
    print(f"member: {'true' if decision.member else 'false'}\n{detail}")
    return 0


def cmd_cone_elemental(args) -> int:
    inequalities = elemental_inequalities(args.k)
    if args.format == "json":
        print(
            json.dumps(
                {"k": args.k, "inequalities": [ineq.format() for ineq in inequalities]},
                sort_keys=True,
            )
        )
        return 0
    for ineq in inequalities:
        print(ineq.format())
    return 0


def _add_cache_flag(parser) -> None:
    parser.add_argument("--cache-dir", help="directory for the complexity cache file")


def _add_format_flag(parser, default="text", choices=("text", "json")) -> None:
    parser.add_argument("--format", default=default, choices=choices)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Desk-scale laboratory for space-bounded complexity",
    )
    top = parser.add_subparsers(dest="group", required=True)

    ks_group = top.add_parser("ks", help="complexity queries").add_subparsers(
        dest="command", required=True
    )
    p = ks_group.add_parser("compute", help="shortest program for one target")
    p.add_argument("target")
    p.add_argument("--x", default="", help="condition string")
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--cap", type=int, default=14)
    _add_format_flag(p)
    p.set_defaults(func=cmd_ks_compute)

    p = ks_group.add_parser("table", help="grid of complexities")
    p.add_argument("--targets-to", type=int, required=True, help="max target length")
    p.add_argument("--conditions-to", type=int, default=0, help="max condition length")
    p.add_argument("--s-grid", required=True, help="comma-separated space bounds")
    p.add_argument("--cap", type=int, default=14)
    _add_format_flag(p, default="csv", choices=("csv", "json"))
    _add_cache_flag(p)
    p.set_defaults(func=cmd_ks_table)

    p = ks_group.add_parser("pair-encode", help="self-delimiting pair encoding")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_ks_pair_encode)

    halt_group = top.add_parser("halt", help="halting-in-space decisions").add_subparsers(
        dest="command", required=True
    )
    p = halt_group.add_parser("decide", help="does the machine halt within space s?")
    p.add_argument("--machine", required=True, help="machine file (text or serialized bits)")
    p.add_argument("--p", default="", help="program tape")
    p.add_argument("--x", default="", help="condition tape")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--method", default="backward", choices=("backward", "forward", "counter"))
    p.set_defaults(func=cmd_halt_decide)

    law_group = top.add_parser("law", help="law grids and devices").add_subparsers(
        dest="command", required=True
    )
    p = law_group.add_parser("verify", help="minimal constant for a law on a grid")
    p.add_argument("law", choices=LAW_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s-grid", required=True)
    p.add_argument("--cap", type=int, default=14)
    p.add_argument("--i", default="", help="I indices for basic, e.g. 1")
    p.add_argument("--j", default="", help="J indices for basic, e.g. 2")
    p.add_argument("--k", type=int, help="tuple arity for basic")
    p.add_argument("--inequality", help="inequality text for shannon")
    p.add_argument("--baseline-dir", help="freeze or check a golden baseline")
    _add_format_flag(p, default="json", choices=("json", "csv"))
    _add_cache_flag(p)
    p.set_defaults(func=cmd_law_verify)

    p = law_group.add_parser("staged", help="staged enumeration ordinal of a pair")
    p.add_argument("--x", default="")
    p.add_argument("--target-y", default="")
    p.add_argument("--m", type=int, required=True, help="complexity threshold")
    p.add_argument("--n", type=int, required=True, help="max length of enumerated strings")
    _add_format_flag(p)
    p.set_defaults(func=cmd_law_staged)

    p = law_group.add_parser("typical-set", help="profile-dominated tuples")
    p.add_argument("--xs", required=True, help="comma-separated base tuple, e.g. 01,1")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=14)
    p.add_argument("--gap-report", action="store_true", help="print the entropy gap table")
    _add_format_flag(p)
    _add_cache_flag(p)
    p.set_defaults(func=cmd_law_typical_set)

    cone_group = top.add_parser("cone", help="Shannon cone operations").add_subparsers(
        dest="command", required=True
    )
    p = cone_group.add_parser("check", help="cone membership with certificate")
    p.add_argument("inequality", nargs="?", help='e.g. "k=2; {1}:1 {2}:1 {1,2}:-1"')
    p.add_argument("--file", help="read the inequality from a file")
    _add_format_flag(p)
    p.set_defaults(func=cmd_cone_check)

    p = cone_group.add_parser("elemental", help="generators of the Shannon cone")
    p.add_argument("--k", type=int, required=True)
    _add_format_flag(p)
    p.set_defaults(func=cmd_cone_elemental)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError, BaselineMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
