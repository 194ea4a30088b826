"""Law grids, staged enumeration, typical sets, baselines."""

import functools
import itertools
import json
import math
import random
import time
from collections import Counter

import pytest

from conftest import find_stable_level, profile_level_vector
from kslab import laws
from kslab.entropy import LinearInequality, is_shannon, parse_inequality
from kslab.kolmo import INTERPRETER_TAG, ComplexityCache, encode_pair, encode_subtuple, ks
from kslab.laws import (
    CAVEAT,
    BaselineMismatch,
    baseline_name,
    freeze_or_check,
    gap_report,
    staged_enumeration,
    staged_sets,
    strings_up_to,
    typical_set,
    verify_law,
)
from kslab.laws import _least_constant, _profile, _profile_readers


@pytest.fixture()
def cache(tmp_path):
    with ComplexityCache(tmp_path / "cache.tsv") as cache:
        yield cache


class TestStableLevel:
    def test_first_equal_adjacent_pair_wins(self):
        assert find_stable_level([(3, 2), (2, 2), (2, 2)]) == 1
        assert find_stable_level([(5,), (5,), (4,)]) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            find_stable_level([(1, 1), (1, 2)])  # increases
        with pytest.raises(ValueError):
            find_stable_level([(3,), (2,), (1,)])  # never stabilizes
        with pytest.raises(ValueError):
            find_stable_level([(1, 1), (1,)])  # length mismatch
        with pytest.raises(ValueError):
            find_stable_level([(1,)])  # too short for any adjacent pair

    def test_pigeonhole_guarantee(self):
        # Any nonincreasing chain longer than 1 + total decrease stabilizes.
        rng = random.Random(11)
        for _ in range(200):
            width = rng.randrange(1, 5)
            vec = [rng.randrange(0, 6) for _ in range(width)]
            chain = [tuple(vec)]
            budget = sum(vec)
            for _ in range(budget + 1):
                if sum(vec) > 0 and rng.random() < 0.6:
                    pos = rng.choice([i for i in range(width) if vec[i] > 0])
                    vec[pos] -= 1
                chain.append(tuple(vec))
            idx = find_stable_level(chain)
            assert chain[idx] == chain[idx + 1]


class TestVerifyLaw:
    def test_pair_swap_report_shape(self, cache):
        report = verify_law("pair_swap", n=2, s_grid=(32, 64), cap=14, cache=cache)
        assert report.law == "pair_swap"
        assert report.minimal_c >= 0
        assert report.baseline_payload()["violations"] == []
        assert report.caveat == CAVEAT
        assert report.points_total == 49 * 2
        assert report.interpreter_tag == INTERPRETER_TAG
        if report.minimal_c > 0:
            assert report.violations_below >= 1
        else:
            assert report.violations_below is None

    def test_pair_swap_on_the_trivial_point_needs_no_constant(self, cache):
        # n=0 leaves only (ε, ε), where both sides are equal.
        report = verify_law("pair_swap", n=0, s_grid=(16,), cap=14, cache=cache)
        assert report.minimal_c == 0 and report.points_vacuous == 0

    @pytest.mark.parametrize("law", ["chain_easy", "symmetry"])
    def test_other_pair_laws_close(self, law, cache):
        report = verify_law(law, n=1, s_grid=(32, 64), cap=14, cache=cache)
        assert report.minimal_c >= 0
        assert report.points_total == 9 * 2

    def test_basic_law(self, cache):
        report = verify_law(
            "basic", n=1, s_grid=(32, 64), cap=14, I={1}, J={2}, k=2, cache=cache
        )
        assert report.law == "basic(I={1},J={2},k=2)"

    def test_shannon_law_with_certificate(self, cache):
        ineq = parse_inequality("k=2; {1}:1 {2}:1 {1,2}:-1")
        report = verify_law("shannon", n=1, s_grid=(32, 64), cap=14, inequality=ineq, cache=cache)
        assert report.law.startswith("shannon(")

    def test_runs_are_deterministic(self, cache):
        a = verify_law("symmetry", n=1, s_grid=(32,), cap=14, cache=cache)
        b = verify_law("symmetry", n=1, s_grid=(32,), cap=14, cache=cache)
        assert a.baseline_payload() == b.baseline_payload()
        assert a.to_csv() == b.to_csv()

    def test_low_cap_marks_points_vacuous_but_still_closes(self, cache):
        report = verify_law("symmetry", n=2, s_grid=(64,), cap=6, cache=cache)
        assert report.points_vacuous > 0
        assert report.points_vacuous < report.points_total
        assert all(s == 64 for s, _point in report.vacuous_points)

    def test_report_serializations(self, cache):
        report = verify_law("pair_swap", n=1, s_grid=(32,), cap=14, cache=cache)
        payload = json.loads(report.to_json())
        assert payload["law"] == "pair_swap"
        assert "runtime_seconds" not in payload
        assert "ks_evaluations" not in report.baseline_payload()
        csv_text = report.to_csv()
        assert csv_text.startswith(report.CSV_HEADER + "\n")
        assert '"pair_swap"' in csv_text
        baseline = report.baseline_text()
        assert baseline.endswith("\n") and CAVEAT in baseline
        assert json.loads(baseline) == report.baseline_payload()

    def test_argument_validation(self, cache):
        with pytest.raises(ValueError):
            verify_law("no_such_law", n=1, s_grid=(8,), cap=14, cache=cache)
        with pytest.raises(ValueError):
            verify_law("pair_swap", n=1, s_grid=(), cap=14, cache=cache)
        with pytest.raises(ValueError):
            verify_law("pair_swap", n=-1, s_grid=(8,), cap=14, cache=cache)
        with pytest.raises(ValueError):
            verify_law("basic", n=1, s_grid=(8,), cap=14, I={1}, J={2}, cache=cache)
        with pytest.raises(ValueError):
            verify_law("basic", n=1, s_grid=(8,), cap=14, I={3}, J={2}, k=2, cache=cache)

    def test_shannon_certificate_validation(self, cache):
        # verify_law decides membership itself: a non-member is refused.
        non_member = parse_inequality("k=2; {1}:1 {2}:-1")
        assert not is_shannon(non_member).member
        with pytest.raises(ValueError, match="not in the Shannon cone; the law does not apply"):
            verify_law("shannon", n=1, s_grid=(8,), cap=14, inequality=non_member, cache=cache)
        with pytest.raises(ValueError, match="needs an inequality"):
            verify_law("shannon", n=1, s_grid=(8,), cap=14, cache=cache)

    # minimal_c at n = 1..6, s = 0, cap 77, under kslab-v1.  The law claims a
    # constant for pair_swap, yet c == n: no swap program exists below 78
    # bits, so the constant measures the interpreter, not the law.
    V1_CURVES = {
        "pair_swap": [1, 2, 3, 4, 5, 6],
        "chain_easy": [1, 2, 2, 3, 4, 4],
        "symmetry": [0, 0, 0, 0, 0, 0],
    }

    @pytest.mark.parametrize("law", sorted(V1_CURVES))
    def test_pair_law_curves_under_v1(self, law):
        assert INTERPRETER_TAG == "kslab-v1"
        curve = [verify_law(law, n=n, s_grid=(0,), cap=77).minimal_c for n in range(1, 7)]
        assert curve == self.V1_CURVES[law]

    def test_the_point_limit_is_the_only_gate(self, monkeypatch):
        monkeypatch.setattr(laws, "_MAX_GRID_POINTS", 1000)
        for law in ("pair_swap", "chain_easy", "symmetry"):
            # 31^2 = 961 pairs fit the limit, 63^2 = 3969 do not.
            assert verify_law(law, n=4, s_grid=(0,), cap=77).points_total == 961
            with pytest.raises(ValueError, match="grid has 3969 points, limit 1000"):
                verify_law(law, n=5, s_grid=(0,), cap=77)

    def test_oversized_grids_are_rejected_up_front(self, cache):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            verify_law(
                "basic", n=3, s_grid=range(1, 200), cap=14, I={1}, J={2}, k=3, cache=cache
            )
        # Counted, not built: 15^6 tuples at n = 3, k = 6, and 2^(10^9 + 1) - 1
        # strings at n = 10^9; a 0-tuple grid has one point per s whatever n is.
        with pytest.raises(ValueError, match="grid has 11390625 points, limit 500000"):
            verify_law("basic", n=3, s_grid=(8,), cap=14, I={1}, J={2}, k=6)
        with pytest.raises(ValueError, match=r"grid has over 2\^64 points"):
            verify_law("basic", n=10**9, s_grid=(8,), cap=14, I={1}, k=1)
        report = verify_law("basic", n=10**12, s_grid=(8, 9), cap=14, k=0)
        assert (report.points_total, report.minimal_c) == (2, 0)
        assert time.perf_counter() - start < 1


class TestLeastConstant:
    def test_doubles_from_the_failing_constant_then_bisects(self):
        tried = []

        def holds(c):
            tried.append(c)
            return c >= 13

        assert _least_constant(holds, 3, "law") == 13
        assert tried == [6, 12, 24, 18, 15, 13]
        for least in range(1, 130):
            for lo in range(least):
                assert _least_constant(lambda c: c >= least, lo, "law") == least

    def test_gives_up_only_past_two_to_the_twenty(self):
        assert _least_constant(lambda c: c >= 1 << 20, 0, "law") == 1 << 20
        assert _least_constant(lambda c: c >= 1 << 20, 3 << 18, "law") == 1 << 20
        with pytest.raises(RuntimeError, match=r"law: no constant up to 2\^20"):
            _least_constant(lambda c: False, 0, "law")


def _clog(v: int) -> int:
    return math.ceil(math.log2(v + 2))


def sweep_oracle(law, n, s_grid, cap, I=frozenset(), J=frozenset(), k=None, inequality=None):
    """(minimal_c, violations_below, vacuous points) of a law, by full sweeps.

    Independent of verify_law: the laws are restated from their formulas,
    every value comes from ks directly, and the whole grid is swept at
    c = 0, 1, 2, ... until no point fails.
    """

    def K(target, s):
        return ks(target, "", s, cap).value

    def sub(t, indices):
        return functools.reduce(encode_pair, [t[i - 1] for i in sorted(indices)]) if indices else ""

    if law == "shannon":
        k = inequality.k
        terms = [({i for i in range(1, k + 1) if m >> (i - 1) & 1}, a) for m, a in inequality.coeffs]
    arity = 2 if k is None else k

    def sides(t, s, c):
        """(lhs, rhs) at point t, bound s and constant c; None if a value is NotFound."""

        if law == "shannon":
            s2 = s + c * n * n * _clog(n) + c * n * _clog(s)
            neg = [(-a, K(sub(t, idx), s2)) for idx, a in terms if a < 0]
            pos = [(a, K(sub(t, idx), s)) for idx, a in terms if a > 0]
            if any(v is None for _, v in neg + pos):
                return None
            return sum(a * v for a, v in neg), sum(a * v for a, v in pos) + c * _clog(n)
        s2 = s + c * _clog(s) + c * n
        if law == "basic":
            vals = [K(sub(t, I | J), s2), K(sub(t, I & J), s2), K(sub(t, I), s), K(sub(t, J), s)]
            if None in vals:
                return None
            return vals[0] + vals[1], vals[2] + vals[3] + c * _clog(n)
        x, y = t
        if law == "pair_swap":
            vals = [K(encode_pair(y, x), s2), K(encode_pair(x, y), s)]
            return None if None in vals else (vals[0], vals[1] + c)
        if law == "chain_easy":
            vals = [K(encode_pair(x, y), s2), K(x, s), ks(y, x, s, cap).value]
            return None if None in vals else (vals[0], vals[1] + vals[2] + c * _clog(vals[1]))
        vals = [K(x, s2), ks(y, x, s2, cap).value, K(encode_pair(x, y), s)]  # symmetry
        return None if None in vals else (vals[0] + vals[1], vals[2] + c * _clog(vals[2]))

    grid = [(s, t) for s in sorted(s_grid) for t in itertools.product(strings_up_to(n), repeat=arity)]
    vacuous = [(s, t) for s, t in grid if sides(t, s, 0) is None]
    live = [(s, t) for s, t in grid if (s, t) not in vacuous]
    c, failed = 0, None
    while True:
        count = sum(lhs > rhs for lhs, rhs in (sides(t, s, c) for s, t in live))
        if count == 0:
            return c, failed, vacuous
        c, failed = c + 1, count


ORACLE_CASES = [
    ("pair_swap", 2, (0, 64), 14, {}),
    ("pair_swap", 3, (5, 300), 6, {}),
    ("chain_easy", 2, (3, 100), 14, {}),
    ("chain_easy", 2, (0, 9), 6, {}),
    ("symmetry", 2, (64, 500), 14, {}),
    ("symmetry", 2, (64,), 6, {}),
    ("basic", 1, (8, 200), 14, dict(I={1}, J={2}, k=3)),
    ("basic", 2, (1, 40), 8, dict(I={1, 2}, J={2, 3}, k=3)),
    ("basic", 3, (16,), 8, dict(I={1}, J={2}, k=2)),
    ("shannon", 1, (64, 128), 14, dict(inequality="k=3; {1,2}:1 {2,3}:1 {2}:-1 {1,2,3}:-1")),
    ("shannon", 2, (0, 77), 6, dict(inequality="k=2; {1}:1 {2}:1 {1,2}:-1")),
]


# More shapes of term: I = J, an ε intersection with vacuous points, the
# 0-tuple, fractional coefficients, a conditional term at n = 3, a
# 1-tuple, whose whole point is one bare component, and coefficients with
# unequal denominators (2, 3 and 6).
EXTRA_ORACLE_CASES = [
    ("basic", 2, (2, 30), 14, dict(I={1, 2}, J={1, 2}, k=3)),
    ("basic", 2, (4, 90), 8, dict(I={1}, J={3}, k=3)),
    ("basic", 1, (0, 64), 14, dict(k=0)),
    ("shannon", 2, (0, 77), 14, dict(inequality="k=2; {1}:1/3 {2}:1/3 {1,2}:-1/3")),
    ("chain_easy", 3, (0, 50), 6, {}),
    ("basic", 3, (0, 12), 14, dict(I={1}, J=(), k=1)),
    ("shannon", 2, (3, 90), 14, dict(inequality="k=3; {1}:1/3 {2}:-1/6 {1,2}:1/6 {2,3}:1/2 {1,2,3}:-1/2")),
]

_ALL_ORACLE_CASES = ORACLE_CASES + EXTRA_ORACLE_CASES
_ORACLE_IDS = [f"{law}-n{n}-cap{cap}-{i}" for i, (law, n, _, cap, _) in enumerate(_ALL_ORACLE_CASES)]


def _oracle_kwargs(extra: dict) -> dict:
    return {
        key: parse_inequality(v) if key == "inequality" else frozenset(v) if key in ("I", "J") else v
        for key, v in extra.items()
    }


class TestVerifyLawOracle:
    @pytest.mark.parametrize(
        "law,n,s_grid,cap,extra",
        _ALL_ORACLE_CASES,
        ids=_ORACLE_IDS,
    )
    def test_report_equals_full_sweeps(self, law, n, s_grid, cap, extra):
        report = verify_law(law, n=n, s_grid=s_grid, cap=cap, **_oracle_kwargs(extra))
        minimal_c, below, vacuous = sweep_oracle(law, n, s_grid, cap, **_oracle_kwargs(extra))
        assert (report.minimal_c, report.violations_below) == (minimal_c, below)
        assert report.points_vacuous == len(vacuous)
        assert report.vacuous_points == tuple(vacuous[:100])

    @pytest.mark.parametrize("law,n,s_grid,cap,extra", _ALL_ORACLE_CASES, ids=_ORACLE_IDS)
    def test_ks_evaluations_counts_the_ks_calls(self, monkeypatch, law, n, s_grid, cap, extra):
        # One call searches each distinct (target, condition, s) query once.
        ks_query, calls = laws.cached_ks, Counter()

        def counted(y, x, s, cap, cache):
            calls[y, x, s] += 1
            return ks_query(y, x, s, cap, cache)

        monkeypatch.setattr(laws, "cached_ks", counted)
        report = verify_law(law, n=n, s_grid=s_grid, cap=cap, **_oracle_kwargs(extra))
        assert set(calls.values()) == {1}
        assert report.ks_evaluations == len(calls)

    @pytest.mark.parametrize("law,n,s_grid,cap,extra", _ALL_ORACLE_CASES, ids=_ORACLE_IDS)
    def test_the_c0_pass_reads_first_by_s_point_and_term(self, monkeypatch, law, n, s_grid, cap, extra):
        # The queries of the pass at c = 0 come first, in (s, point, term)
        # order, so a cold call writes its cache records in that order.
        kwargs = _oracle_kwargs(extra)
        if law == "shannon":
            k, masks = kwargs["inequality"].k, [mask for mask, _ in kwargs["inequality"].coeffs]
            terms = [(tuple(i for i in range(1, k + 1) if mask >> (i - 1) & 1), ()) for mask in masks]
        elif law == "basic":
            k, I, J = kwargs["k"], kwargs.get("I", frozenset()), kwargs.get("J", frozenset())
            terms = [(tuple(sorted(subset)), ()) for subset in (I | J, I & J, I, J)]
        else:
            k, terms = 2, {
                "pair_swap": [((1, 2), ()), ((2, 1), ())],
                "chain_easy": [((1,), ()), ((2,), (1,)), ((1, 2), ())],
                "symmetry": [((1, 2), ()), ((1,), ()), ((2,), (1,))],
            }[law]
        first_pass = {}
        for s in sorted(s_grid):
            for point in itertools.product(strings_up_to(n), repeat=k):
                for target, condition in terms:
                    query = (encode_subtuple(point, target), encode_subtuple(point, condition), s, cap)
                    first_pass.setdefault(query)
        ks_query, calls = laws.cached_ks, []

        def spied(y, x, s, cap, cache):
            calls.append((y, x, s, cap))
            return ks_query(y, x, s, cap, cache)

        monkeypatch.setattr(laws, "cached_ks", spied)
        verify_law(law, n=n, s_grid=s_grid, cap=cap, **kwargs)
        assert calls[: len(first_pass)] == list(first_pass)

    def test_the_cases_cover_vacuous_points_and_nonzero_constants(self):
        found = [
            sweep_oracle(law, n, s_grid, cap, **_oracle_kwargs(extra))
            for law, n, s_grid, cap, extra in ORACLE_CASES
        ]
        # Under the literal and echo programs K(<x,y>) >= K(x) + K(y|x), so
        # symmetry holds at c = 0 on every grid.
        assert all((c > 0) == (case[0] != "symmetry") for (c, _, _), case in zip(found, ORACLE_CASES))
        assert sum(bool(vacuous) for _, _, vacuous in found) == 6


class TestStagedEnumeration:
    def test_trivial_pair_is_first(self):
        out = staged_enumeration("", 3, 1, ("", ""))
        assert out.ordinal == 0
        assert out.s_hit == 0
        assert out.threshold == 3
        assert out.ordinal < out.total_enumerated

    def test_stage_zero_is_ordered_and_later_stages_add_nothing_here(self):
        stages = list(staged_sets("", 5, 2, 3))
        assert stages[0] == [y for y in strings_up_to(2) if ks(encode_pair("", y), cap=5).value is not None]
        assert all(stage == [] for stage in stages[1:])

    def test_stage_membership_matches_direct_queries(self):
        rng = random.Random(5)
        for _ in range(20):
            x = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            m = rng.randrange(3, 9)
            stages = list(staged_sets(x, m, 2, 4))
            listed = [y for stage in stages for y in stage]
            assert len(listed) == len(set(listed))
            for y in strings_up_to(2):
                direct = [
                    s for s in range(5) if ks(encode_pair(x, y), "", s, m).value is not None
                ]
                if direct:
                    assert y in stages[direct[0]]
                else:
                    assert y not in listed

    def test_enumeration_count_bound(self):
        # Distinct pairs need distinct programs of length <= m.
        for m in (3, 4, 6):
            stages = staged_sets("1", m, 2, 2)
            assert sum(len(stage) for stage in stages) <= 2 ** (m + 1) - 1

    def test_errors(self):
        with pytest.raises(ValueError):
            staged_enumeration("0", 3, 1, ("1", ""))
        with pytest.raises(ValueError):
            staged_enumeration("", 3, 1, ("", "01"))
        with pytest.raises(ValueError):
            list(staged_sets("", -1, 1, 2))
        with pytest.raises(ValueError):
            staged_enumeration("", 1, 1, ("", "1"))

    def test_ordinal_and_total_match_the_listed_stages(self):
        rng = random.Random(9)
        for _ in range(10):
            x = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
            m = rng.randrange(3, 9)
            stages = list(staged_sets(x, m, 2, 4))
            listed = [y for stage in stages for y in stage]
            for y in listed:
                out = staged_enumeration(x, m, 2, (x, y))
                assert y in stages[out.s_hit]
                assert out.ordinal == listed.index(y)
                assert out.total_enumerated == sum(len(stage) for stage in stages[: out.s_hit + 1])

    def test_stages_past_the_point_limit_are_refused(self, monkeypatch):
        monkeypatch.setattr(laws, "_MAX_GRID_POINTS", 9)
        # n = 1 has 3 candidates per stage: stages 0..2 fit the limit, stage 3 does not.
        assert len(list(staged_sets("", 1, 1, 2))) == 3
        # staged_enumeration reads stage 0 only.
        with pytest.raises(ValueError, match="never reaches threshold"):
            staged_enumeration("", 1, 1, ("", "1"))
        assert staged_enumeration("", 3, 1, ("", "")).s_hit == 0
        # n = 3 has 15 candidates: one stage is already over the limit.
        with pytest.raises(ValueError, match="grid has 15 points, limit 9"):
            list(staged_sets("", 3, 3, 0))
        # All stages' points are counted before the first stage is built.
        monkeypatch.setattr(laws, "ks", None)
        with pytest.raises(ValueError, match="grid has 12 points, limit 9"):
            list(staged_sets("", 1, 1, 3))

    def test_a_target_that_is_not_a_bit_string_is_refused_before_any_stage(self, monkeypatch):
        monkeypatch.setattr(laws, "ks", None)
        with pytest.raises(ValueError, match="must consist of '0'/'1' characters, got '2'"):
            staged_enumeration("", 3, 1, ("", "2"))


class TestTypicalSets:
    def test_known_set(self, cache):
        ts = typical_set(("01", "1"), 8, 2, 14, cache=cache)
        assert ts.u_star == 4 * 8 + 1024
        assert ("01", "1") in ts.members
        assert len(ts.members) == 21

    def test_base_is_always_a_member(self, cache):
        rng = random.Random(9)
        for _ in range(6):
            xs = tuple(
                "".join(rng.choice("01") for _ in range(rng.randrange(3)))
                for _ in range(rng.randrange(1, 3))
            )
            ts = typical_set(xs, 8, 2, 14, cache=cache)
            assert xs in ts.members

    def test_members_are_profile_dominated(self, cache):
        ts = typical_set(("0",), 8, 1, 14, cache=cache)
        base_levels = profile_level_vector(ts.base_profile, ts.cap)
        for member in ts.members:
            prof = _profile(member, _profile_readers(1), ts.u_star, ts.cap, cache)
            assert all(
                c <= b for c, b in zip(profile_level_vector(prof, ts.cap), base_levels)
            )

    def test_an_all_notfound_base_dominates_every_tuple(self, cache):
        # At cap 0 no query is found, so every base entry is skipped.
        ts = typical_set(("0",), 0, 1, 0, cache=cache)
        assert set(ts.base_profile.values()) == {None}
        assert ts.members == (("",), ("0",), ("1",))

    def test_counting_bound(self, cache):
        ts = typical_set(("01", "1"), 8, 2, 14, cache=cache)
        full_mask = (1 << len(ts.xs)) - 1
        m = ts.base_profile[(full_mask, 0)]
        assert m is not None
        assert len(ts.members) <= 2 ** (m + 1) - 1

    def test_guards(self, cache):
        with pytest.raises(ValueError, match="typical sets need 1 <= k <= 16, got 0"):
            typical_set((), 8, 2, 14, cache=cache)
        with pytest.raises(ValueError, match="base tuple exceeds the length bound"):
            typical_set(("010",), 8, 2, 14, cache=cache)
        # k = 3 and n = 3 are within the point limit.
        assert ("0", "1", "0") in typical_set(("0", "1", "0"), 8, 1, 14, cache=cache).members
        assert ("010",) in typical_set(("010",), 8, 3, 14, cache=cache).members

    def test_the_point_limit_is_the_only_gate(self, monkeypatch, cache, tmp_path):
        # Both refusals come before any query: the arity before 3**k is
        # formed, then the work, candidates x profile entries, which at
        # k = 2, n = 8 is 511^2 x (3^2 - 2^2).
        monkeypatch.setattr(laws, "cached_ks", None)
        with pytest.raises(ValueError, match="typical sets need 1 <= k <= 16, got 17"):
            typical_set(("",) * 17, 8, 0, 14, cache=cache)
        with pytest.raises(
            ValueError, match=r"typical set \(candidates x entries\) has 1305605 points, limit 500000"
        ):
            typical_set(("0", "1"), 8, 8, 14, cache=cache)
        cache.flush()
        assert not (tmp_path / "cache.tsv").exists()

    def test_gap_report_is_reproducible_text(self, cache):
        ts = typical_set(("01", "1"), 8, 2, 14, cache=cache)
        text = gap_report(ts)
        assert text == gap_report(ts)
        lines = text.splitlines()
        assert lines[0].startswith("base=01,1 u=8 u*=1056 n=2 cap=14 members=21")
        assert lines[1] == "I\tJ\tH_bits\tKS\tgap"
        assert len(lines) == 2 + len(ts.base_profile)
        first = lines[2].split("\t")
        assert first[0] == "{1}" and "." in first[2]

    def test_profiles_stabilize_along_a_space_ladder(self, cache):
        levels = [
            profile_level_vector(_profile(("01", "1"), _profile_readers(2), s, 14, cache), 14)
            for s in (1, 2, 4, 8, 16)
        ]
        idx = find_stable_level(levels)
        assert levels[idx] == levels[idx + 1]


class TestProfile:
    def test_entry_count_is_pairs_of_disjoint_masks(self):
        for k in (1, 2, 3):
            strings = ("0",) * k
            profile = _profile(strings, _profile_readers(k), 4, 14, None)
            assert len(profile) == 3**k - 2**k

    def test_entries_match_direct_queries(self):
        profile = _profile(("0", "1", "1"), _profile_readers(3), 6, 14, None)
        assert profile[(0b001, 0)] == ks("0", "", 6, 14).value
        assert profile[(0b011, 0b100)] == ks(encode_pair("0", "1"), "1", 6, 14).value
        assert profile[(0b111, 0)] == ks("0000001111011", "", 6, 14).value

    def test_condition_mask_zero_means_empty_condition(self):
        profile = _profile(("01",), _profile_readers(1), 4, 14, None)
        # Given itself, "01" is the 2-bit echo "10"; given nothing, the 3-bit literal "001".
        assert ks("01", "01", 4, 14).value == 2
        assert profile[(1, 0)] == ks("01", "", 4, 14).value == 3


class TestBaselines:
    def test_freeze_then_match_then_mismatch(self, tmp_path):
        assert freeze_or_check(tmp_path, "a.json", "payload\n") == "created"
        assert freeze_or_check(tmp_path, "a.json", "payload\n") == "matched"
        with pytest.raises(BaselineMismatch):
            freeze_or_check(tmp_path, "a.json", "drifted\n")

    def test_baseline_names_track_the_grid(self, cache):
        a = verify_law("pair_swap", n=1, s_grid=(32,), cap=14, cache=cache)
        b = verify_law("pair_swap", n=1, s_grid=(32,), cap=13, cache=cache)
        name_a, name_b = baseline_name("law", a), baseline_name("law", b)
        assert name_a != name_b
        assert name_a == baseline_name("law", a)
        assert name_a.endswith(".json") and "{" not in name_a

    def test_basic_law_names_are_fs_safe(self, cache):
        report = verify_law(
            "basic", n=1, s_grid=(32,), cap=14, I={1}, J={2}, k=2, cache=cache
        )
        name = baseline_name("law", report)
        assert "/" not in name and "{" not in name and " " not in name
