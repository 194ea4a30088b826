"""Empirical verification of complexity laws on exhaustive small grids.

Each law is an inequality between space-bounded complexities with an
additive slack and a space inflation, both scaled by one nonnegative
integer constant c.  verify_law finds the smallest c that makes the law
hold at every grid point and re-checks that c-1 fails, so a report is a
reproducible measurement, not a proof.  All logarithms in instantiated
bounds are ceil(log2(v + 2)) so arguments 0 and 1 are well defined.

Also here: the staged enumeration device (pairs below a complexity
threshold appear exactly once, at the first space bound that admits
them), and typical sets (tuples whose conditional-complexity profile is
dominated by a base tuple's).

Constants produced by these grids are relative to the reference
interpreter and grid; they say nothing about asymptotics.  Reports carry
the caveat string verbatim.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass
from itertools import product
from operator import itemgetter, mul
from pathlib import Path

from ._masks import indices_of, mask_label, mask_of, nonempty_masks
from .entropy import LinearInequality, entropy_vector, is_shannon
from .kolmo import (
    INTERPRETER_TAG,
    MAX_CLOSED_FORM_SPACE,
    ComplexityCache,
    cached_ks,
    encode_pair,
    encode_subtuple,
    ks,
)
from .machine import check_bits

__all__ = [
    "LAW_NAMES",
    "check_points",
    "verify_law",
    "staged_enumeration",
    "typical_set",
    "gap_report",
    "strings_up_to",
    "count_strings_up_to",
    "freeze_or_check",
    "BaselineMismatch",
    "baseline_name",
]

# Reports quote this verbatim: the grids are too small to distinguish
# growth rates, so the measured constants are not asymptotic claims.
CAVEAT = "n ≤ 3 cannot separate O(n) from O(n²)"

# A law is a list of terms (coefficient, target indices, condition indices)
# over a point's components, () standing for ε, and a slack unit.  It holds
# at a point when sum(coefficient * KS(target | condition)) + c * unit >= 0,
# the negative terms (the left side) read at s' = s + c * (a * _clog2(s) + b)
# and the others at s.  The pair laws, over points (x, y), list their right
# side first; a unit of None is _clog2 of the first term's value.
_PAIR_LAWS = {
    # KS(y, x) at s' <= KS(x, y) + c
    "pair_swap": ([(1, (1, 2), ()), (-1, (2, 1), ())], 1),
    # KS(x, y) at s' <= KS(x) + KS(y | x) + c log KS(x)
    "chain_easy": ([(1, (1,), ()), (1, (2,), (1,)), (-1, (1, 2), ())], None),
    # KS(x) + KS(y | x) at s' <= KS(x, y) + c log KS(x, y)
    "symmetry": ([(1, (1, 2), ()), (-1, (1,), ()), (-1, (2,), (1,))], None),
}

LAW_NAMES = (*_PAIR_LAWS, "basic", "shannon")

_MAX_GRID_POINTS = 500_000

# Largest tuple arity of basic and typical sets, checked before 1 << k or
# 3**k is formed.  With n >= 1 the point limit already refuses k >= 12; at
# n = 0 every k has one point per s, so only this bound keeps k small.
_MAX_ARITY = 16

# verify_law gives up on a point that still fails at this constant.
_MAX_C = 1 << 20


def _clog2(v: int) -> int:
    """ceil(log2(v + 2)) for integer v >= 0, exactly."""

    if v < 0:
        raise ValueError("log argument must be >= 0")
    return (v + 1).bit_length()


def strings_up_to(n: int) -> list:
    """All bit strings of length <= n, shortest first, lexicographic within."""

    out = [""]
    for length in range(1, n + 1):
        out.extend("".join(t) for t in product("01", repeat=length))
    return out


def count_strings_up_to(n: int) -> int:
    """len(strings_up_to(n)) without building it; saturates past n = 64."""

    return (2 << min(max(n, 0), 64)) - 1


@dataclass(frozen=True)
class LawReport:
    """Result of one law grid: the minimal constant and its evidence.

    minimal_c is the smallest integer for which the grid shows zero
    violations; violations_below is the violation count at minimal_c - 1
    (None when minimal_c is 0).  Vacuous points had some needed
    complexity NotFound at the cap and are excluded from the search but
    reported.  baseline_payload() leaves out the ks_evaluations count, so
    stored baselines compare the measurement, not what it cost.
    """

    law: str
    n: int
    s_grid: tuple
    cap: int
    minimal_c: int
    violations_below: int | None
    points_total: int
    points_vacuous: int
    vacuous_points: tuple
    interpreter_tag: str
    caveat: str
    ks_evaluations: int

    def baseline_payload(self) -> dict:
        return {
            "law": self.law,
            "n": self.n,
            "s_grid": list(self.s_grid),
            "cap": self.cap,
            "minimal_c": self.minimal_c,
            # Always empty (minimal_c admits no violation); the frozen baselines carry the key.
            "violations": [],
            "violations_below": self.violations_below,
            "points_total": self.points_total,
            "points_vacuous": self.points_vacuous,
            "vacuous_points": [list(v) for v in self.vacuous_points],
            "interpreter_tag": self.interpreter_tag,
            "caveat": self.caveat,
        }

    def baseline_text(self) -> str:
        """Canonical bytes for freeze_or_check; every surface must use this."""

        return json.dumps(self.baseline_payload(), sort_keys=True, ensure_ascii=False, indent=2) + "\n"

    def to_json(self) -> str:
        payload = self.baseline_payload()
        payload["ks_evaluations"] = self.ks_evaluations
        return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"

    # Fixed column order; one summary row per report.
    CSV_HEADER = "law,n,cap,s_grid,minimal_c,points_total,points_vacuous,interpreter_tag"

    def to_csv(self) -> str:
        grid = " ".join(str(s) for s in self.s_grid)
        return (
            f"{self.CSV_HEADER}\n"
            f'"{self.law}",{self.n},{self.cap},"{grid}",{self.minimal_c},'
            f"{self.points_total},{self.points_vacuous},{self.interpreter_tag}\n"
        )


def check_points(total: int, what: str) -> None:
    """Refuse a grid of more than _MAX_GRID_POINTS points, before it is built.

    A total of 2^64 or more is reported as such, not as a count:
    count_strings_up_to saturates there.
    """

    if total > _MAX_GRID_POINTS:
        count = "over 2^64" if total >> 64 else total
        raise ValueError(f"{what} has {count} points, limit {_MAX_GRID_POINTS}")


def _grid_points(arity: int, n: int, s_count: int) -> list:
    """All arity-tuples of strings of length <= n, counted by check_points first.

    The tuples count even with no s, as they are built anyway; a 0-tuple
    grid builds no string, whatever n is.
    """

    check_points(count_strings_up_to(n) ** arity * max(s_count, 1), "grid")
    return list(product(strings_up_to(n) if arity else (), repeat=arity))


def _once_per_pick(indices, arity: int, build):
    """point -> build(point), built once per distinct combination of the components at indices.

    No memo when indices pick every component: every caller reads a point once.
    """

    if sorted(indices) == list(range(1, arity + 1)):
        return build
    pick = itemgetter(*(i - 1 for i in indices)) if indices else (lambda point: ())
    built: dict = {}

    def get(point):
        key = pick(point)
        try:
            return built[key]
        except KeyError:
            built[key] = value = build(point)
            return value

    return get


def _encoder(indices: tuple, arity: int):
    """point -> encode_subtuple(point, indices), each combination of picked components encoded once."""

    if not indices:
        return lambda point: ""
    if len(indices) == 1:
        return itemgetter(indices[0] - 1)  # a 1-tuple encodes as the bare string
    return _once_per_pick(indices, arity, lambda point: encode_subtuple(point, indices))


def _query_encoder(target: tuple, condition: tuple, arity: int):
    """point -> its query: the target's encoding, paired with the condition's unless that is ""."""

    target_of, condition_of = _encoder(target, arity), _encoder(condition, arity)

    def query(point) -> str | tuple:
        given = condition_of(point)
        return (target_of(point), given) if given else target_of(point)

    return _once_per_pick(sorted({*target, *condition}), arity, query)


def _profile_readers(k: int) -> list:
    """((target_mask, condition_mask), target reader, condition reader) of a k-tuple's profile.

    Target masks ascend, and each one's disjoint condition masks ascend from 0 (ε).
    """

    return [
        ((target, cond), _encoder(indices_of(target), k), _encoder(indices_of(cond), k))
        for target in nonempty_masks(k)
        for cond in range(1 << k)
        if not cond & target
    ]


def _profile(point, readers, s: int, cap: int, cache: ComplexityCache | None) -> dict:
    """{(target_mask, condition_mask): KS(target | condition) at s, or None if NotFound}."""

    return {
        key: cached_ks(target(point), cond(point), s, cap, cache).value
        for key, target, cond in readers
    }


class _Column(dict):
    """One verify_law call's values at one space bound, by query; a query not yet read is searched."""

    def __init__(self, s: int, cap: int, cache: ComplexityCache | None):
        self.s, self.cap, self.cache = s, cap, cache

    def __missing__(self, query) -> int | None:
        target, condition = (query, "") if type(query) is str else query
        value = self[query] = cached_ks(target, condition, self.s, self.cap, self.cache).value
        return value


def _least_constant(holds, lo: int, label: str) -> int:
    """Smallest c > lo with holds(c), for holds false at lo and monotone in c.

    Doubles from lo, then bisects; raises if holds(_MAX_C) is false.
    """

    hi = min(max(1, 2 * lo), _MAX_C)
    while not holds(hi):
        if hi == _MAX_C:
            raise RuntimeError(f"{label}: no constant up to 2^20 satisfies the grid")
        lo, hi = hi, min(2 * hi, _MAX_C)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def verify_law(
    law: str,
    *,
    n: int,
    s_grid,
    cap: int,
    I=None,
    J=None,
    k: int | None = None,
    inequality: LinearInequality | None = None,
    cache: ComplexityCache | None = None,
) -> LawReport:
    """Find the minimal integer constant making a law hold on a full grid.

    Points are all tuples of bit strings of length <= n (pairs for the
    pair laws, k-tuples for basic/shannon) crossed with every s in
    s_grid.  The constant enters twice: as the additive slack and in the
    inflated space bound s' on the inequality's left side, so larger c
    only helps: a point that holds at c holds at every larger c.  One
    pass at c = 0 finds the failing points; each gets its own doubling
    and binary search, and the grid's minimal c is the largest of
    theirs.  The whole grid is then re-checked at minimal c and counted
    at minimal c - 1.  Points with a NotFound complexity at c = 0 are
    vacuous: excluded from the search, reported in the result.  The
    shannon law applies only to a member of the Shannon cone, which
    is_shannon decides (and certifies) before the grid is built.

    Each term's query, its (target, condition) or the target alone when
    the condition is ε, is encoded once per point.  Values are kept in one
    column per space bound read, s or s', keyed by those queries, so each
    distinct query is searched once per call; ks_evaluations counts those
    searches.  The c = 0 pass reads every term at s, in (s, point, term)
    order, and keeps a row for each (s, point) that is not vacuous: its
    right side and slack unit, which no c changes.  The searches and the
    two re-check passes fetch the column at s' once per (s, c) and read
    only the left side from it.
    """

    s_grid = tuple(sorted(set(int(s) for s in s_grid)))
    if not s_grid or s_grid[0] < 0:
        raise ValueError("s_grid must be nonempty with s >= 0")
    if n < 0:
        raise ValueError("n must be >= 0")

    a, b = 1, n
    if law in _PAIR_LAWS:
        terms, unit = _PAIR_LAWS[law]
        k, label = 2, law
    elif law in ("basic", "shannon"):
        if law == "basic":
            if k is None:
                raise ValueError("basic law needs k")
            if not 0 <= k <= _MAX_ARITY:
                raise ValueError(f"basic law needs 0 <= k <= {_MAX_ARITY}, got {k}")
            if not set(I or ()) | set(J or ()) <= set(range(1, k + 1)):
                raise ValueError("I and J must be subsets of {1..k}")
            i_mask, j_mask = mask_of(I or ()), mask_of(J or ())
            masks = [(i_mask | j_mask, -1), (i_mask & j_mask, -1), (i_mask, 1), (j_mask, 1)]
            label = f"basic(I={mask_label(i_mask)},J={mask_label(j_mask)},k={k})"
        else:
            if inequality is None:
                raise ValueError("shannon law needs an inequality")
            if not is_shannon(inequality).member:
                raise ValueError("inequality is not in the Shannon cone; the law does not apply")
            k, masks = inequality.k, inequality.coeffs
            label = f"shannon({inequality.format()})"
            a, b = n, n * n * _clog2(n)
        terms = [(coeff, indices_of(mask), ()) for mask, coeff in masks]
        unit = _clog2(n)
    else:
        raise ValueError(f"unknown law {law!r}, expected one of {LAW_NAMES}")

    points = _grid_points(k, n, len(s_grid))
    scale = math.lcm(*(coeff.denominator for coeff, _, _ in terms))
    coeffs = [int(coeff * scale) for coeff, _, _ in terms]
    right = [max(coeff, 0) for coeff in coeffs]
    left = [max(-coeff, 0) for coeff in coeffs]
    left_coeffs = [coeff for coeff in left if coeff]
    # Each term's query at each point, encoded once: one list per term.
    queries = [list(map(_query_encoder(target, cond, k), points)) for _, target, cond in terms]
    # One column per space bound read, s or s'; its entries are the
    # distinct searches, reported as ks_evaluations.
    columns: dict = {}

    def column(s: int, c: int) -> _Column:
        sp = s + c * (a * _clog2(s) + b)
        col = columns.get(sp)
        if col is None:
            col = columns[sp] = _Column(sp, cap, cache)
        return col

    # One pass at c = 0 sorts every point into vacuous, failing or holding,
    # and keeps the row of each point that is not vacuous: its right side
    # and slack unit, which no c changes.
    vacuous: list = []
    rows: list = []  # per s: (s, right side sums, slack units, indices failing at c = 0)
    for s in s_grid:
        col = column(s, 0)
        sums, units, failing = [], [], array("q")  # most points may fail: no int object per index
        for point, *qs in zip(points, *queries):
            values = list(map(col.__getitem__, qs))
            if None in values:
                vacuous.append((s, point))
                sums.append(None)  # no row: None in both lists
                units.append(None)
                continue
            r = sum(map(mul, right, values))
            if r < sum(map(mul, left, values)):
                failing.append(len(sums))
            sums.append(r)
            units.append(scale * (_clog2(values[0]) if unit is None else unit))
        rows.append((s, sums, units, failing))
    # From here on only the left side is read, at s': the right side's
    # queries go, and so do the points, whose rows and queries are kept.
    queries = [keys for keys, coeff in zip(queries, left) if coeff]
    points_total = len(points) * len(s_grid)
    del points

    def left_side(col: _Column, qs) -> int:
        values = list(map(col.__getitem__, qs))
        if None in values:
            raise AssertionError("point turned vacuous away from c=0")
        return sum(map(mul, left_coeffs, values))

    # A point that holds at c holds at every larger c, so the grid's least
    # constant is the largest of its points' least constants.  A failing
    # point is searched only when it still fails at the largest constant
    # found so far: doubling from there, then bisecting.
    minimal_c = 0
    for s, sums, units, failing in rows:
        for i in failing:
            r, u, qs = sums[i], units[i], [keys[i] for keys in queries]

            def holds(c: int) -> bool:
                return r + c * u >= left_side(column(s, c), qs)

            if minimal_c == 0 or not holds(minimal_c):
                minimal_c = _least_constant(holds, minimal_c, label)

    # Re-check the whole grid at minimal_c (the c = 0 pass already did when
    # it is 0) and count the violations one below it.
    violations_below: int | None = None
    if minimal_c > 0:

        def violations(c: int) -> int:
            count = 0
            for s, sums, units, _ in rows:
                col = column(s, c)
                for r, u, *qs in zip(sums, units, *queries):
                    count += r is not None and r + c * u < left_side(col, qs)
            return count

        if violations(minimal_c):
            raise AssertionError("minimal c re-check produced violations")
        violations_below = violations(minimal_c - 1)
        if violations_below == 0:
            raise AssertionError("c - 1 unexpectedly satisfies the grid")

    return LawReport(
        law=label,
        n=n,
        s_grid=s_grid,
        cap=cap,
        minimal_c=minimal_c,
        violations_below=violations_below,
        points_total=points_total,
        points_vacuous=len(vacuous),
        vacuous_points=tuple(vacuous[:100]),
        interpreter_tag=INTERPRETER_TAG,
        caveat=CAVEAT,
        ks_evaluations=sum(map(len, columns.values())),
    )


@dataclass(frozen=True)
class StageOrdinal:
    """Where a pair surfaces in the staged enumeration.

    ordinal is the pair's 0-based position across all stages in order;
    s_hit is the first space bound at which it qualified.  The invariant
    ordinal < total_enumerated holds by construction.
    """

    threshold: int
    ordinal: int
    s_hit: int
    total_enumerated: int


def staged_sets(x: str, m: int, n: int, s_max: int):
    """Yield the newly qualifying y' of each stage s = 0..s_max, stage by stage.

    Stage s lists, in (length, lexicographic) order, every y' of length
    <= n with KS^s(x, y') <= m that did not already qualify at s - 1;
    each candidate's value at s is kept for the check at s + 1, so
    nothing is listed twice.  The cap of the underlying searches is m
    itself: qualifying means found at or below the threshold.  Stages
    start at s = 0 because programs can succeed without any workspace.

    The points of all stages (candidates times stages) are counted by
    _grid_points before the first stage is built.
    """

    if m < 0:
        raise ValueError("threshold must be >= 0")
    pairs = [(y, encode_pair(x, y)) for (y,) in _grid_points(1, n, s_max + 1)]
    before = [None] * len(pairs)
    for s in range(s_max + 1):
        now = [ks(pair, "", s, m).value for _, pair in pairs]
        yield [y for (y, _), v, b in zip(pairs, now, before) if v is not None and b is None]
        before = now


def staged_enumeration(x: str, m: int, n: int, target: tuple) -> StageOrdinal:
    """Run stages s = 0..MAX_CLOSED_FORM_SPACE until the target pair appears.

    Builds no stage after the target's.  No later stage can add a pair:
    the searches' cap m is at most MAX_CLOSED_FORM_CAP (ks refuses a
    larger one), and no program that short is charged more workspace.
    """

    tx, ty = target
    if tx != x:
        raise ValueError("target pair must have the enumerated x as first component")
    if len(check_bits(ty)) > n:
        raise ValueError("target second component exceeds the length bound")
    listed = 0
    for s, stage in enumerate(staged_sets(x, m, n, MAX_CLOSED_FORM_SPACE)):
        if ty in stage:
            return StageOrdinal(m, listed + stage.index(ty), s, listed + len(stage))
        listed += len(stage)
    raise ValueError(f"pair ({x!r}, {ty!r}) never reaches threshold {m}")


@dataclass(frozen=True)
class TypicalSet:
    """Tuples whose complexity profile is dominated by a base tuple's.

    members lists every tuple of strings (component lengths <= n) whose
    profile at the generous bound u_star is coordinatewise <= the base
    tuple's profile at u, with NotFound treated as infinity.  The base
    tuple is always a member because complexity never increases with
    space.  base_profile is the base tuple's profile at u, from _profile.
    """

    xs: tuple
    u: int
    u_star: int
    n: int
    cap: int
    members: tuple
    base_profile: dict


def _dominated(cand, readers, base: dict, s: int, cap: int, cache: ComplexityCache | None) -> bool:
    """cand's profile at s <= base at every entry, NotFound counting as infinity.

    Reads cand's entries one at a time, skips those where base is NotFound
    and stops at the first that exceeds base.
    """

    for key, target, cond in readers:
        bound = base[key]
        if bound is not None:
            value = cached_ks(target(cand), cond(cand), s, cap, cache).value
            if value is None or value > bound:
                return False
    return True


def typical_set(
    xs,
    u: int,
    n: int,
    cap: int,
    cache: ComplexityCache | None = None,
) -> TypicalSet:
    """All tuples profile-dominated by xs; see TypicalSet.

    The unbounded complexity a profile entry stands for is proxied by
    u_star = 4u + 1024; profiles here stabilize far below that, which
    the tests confirm by pigeonhole.  check_points counts the work before
    any query: candidates times entries, the pairs of disjoint masks with
    a nonempty target.
    """

    xs = tuple(xs)
    k = len(xs)
    if not 1 <= k <= _MAX_ARITY:
        raise ValueError(f"typical sets need 1 <= k <= {_MAX_ARITY}, got {k}")
    if any(len(comp) > n for comp in xs):
        raise ValueError("base tuple exceeds the length bound")
    for comp in xs:
        check_bits(comp)  # before any query, so a bad base writes no cache record
    check_points(count_strings_up_to(n) ** k * (3**k - 2**k), "typical set (candidates x entries)")
    u_star = 4 * u + 1024
    readers = _profile_readers(k)
    base = _profile(xs, readers, u, cap, cache)
    members = [
        cand
        for cand in product(strings_up_to(n), repeat=k)
        if _dominated(cand, readers, base, u_star, cap, cache)
    ]
    return TypicalSet(xs, u, u_star, n, cap, tuple(members), base)


def gap_report(ts: TypicalSet) -> str:
    """Entropy of the uniform distribution on the set vs the base profile.

    One row per profile coordinate (I | J): the conditional entropy
    H(X_I | X_J) of the uniform distribution over members, the base
    complexity KS(x_I | x_J), and their gap.  Output is a fixed-format
    text table, reproducible byte for byte on a given platform.
    """

    hvec = entropy_vector(ts.members)

    def h(mask: int) -> float:
        return hvec[mask] if mask else 0.0

    lines = [
        f"base={','.join(ts.xs)} u={ts.u} u*={ts.u_star} n={ts.n} cap={ts.cap} "
        f"members={len(ts.members)} tag={INTERPRETER_TAG}",
        "I\tJ\tH_bits\tKS\tgap",
    ]
    for (tmask, cmask), value in sorted(ts.base_profile.items()):
        cond_h = h(tmask | cmask) - h(cmask)
        ks_text = "NotFound" if value is None else str(value)
        gap = "" if value is None else f"{value - cond_h:+.6f}"
        lines.append(
            f"{mask_label(tmask)}\t{mask_label(cmask)}\t{cond_h:.6f}\t{ks_text}\t{gap}"
        )
    return "\n".join(lines) + "\n"


class BaselineMismatch(AssertionError):
    """Stored baseline differs from the regenerated content."""


def baseline_name(kind: str, report: LawReport) -> str:
    """File name keyed by law, grid, and interpreter tag."""

    grid_digest = hashlib.sha256(
        json.dumps([report.n, list(report.s_grid), report.cap]).encode()
    ).hexdigest()[:12]
    law_slug = "".join(ch if ch.isalnum() else "-" for ch in report.law).strip("-")
    while "--" in law_slug:
        law_slug = law_slug.replace("--", "-")
    return f"{kind}__{law_slug}__{grid_digest}__{report.interpreter_tag}.json"


def freeze_or_check(directory, name: str, content: str) -> str:
    """Golden-baseline gate: first run stores, later runs must match.

    Returns "created" or "matched"; raises BaselineMismatch otherwise.
    """

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    if not path.exists():
        path.write_text(content, encoding="utf-8")
        return "created"
    stored = path.read_text(encoding="utf-8")
    if stored != content:
        raise BaselineMismatch(f"{path} no longer matches the regenerated content")
    return "matched"
