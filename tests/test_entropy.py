"""Entropy vectors of lists of draws, and the polymatroid cone."""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import dense_bland_phase1, evaluate, random_rational
from kslab import entropy
from kslab._masks import mask_of, nonempty_masks
from kslab.entropy import (
    LinearInequality,
    ShannonDecision,
    elemental_inequalities,
    entropy_vector,
    is_shannon,
    parse_inequality,
)

# Zhang-Yeung 1998 with A, B, C, D = X1..X4, as rhs - lhs >= 0:
# 2I(C;D) <= I(A;B) + I(A;CD) + 3I(C;D|A) + I(C;D|B).  Valid, not Shannon.
ZHANG_YEUNG = (
    "k=4; {1}:-1 {1,2}:-1 {3}:-2 {1,3}:3 {2,3}:1 {4}:-2 {1,4}:3 {2,4}:1"
    " {3,4}:3 {1,3,4}:-4 {2,3,4}:-1"
)
# A k = 5 member that takes many pivots: 2, 1, 3 and 1 times four elemental
# inequalities (the benchmark's fixed cone member).
MEMBER_K5 = (
    "k=5; {4}:1 {1,4}:-3 {1,2,4}:3 {1,3,4}:3 {1,2,3,4}:-3 {1,5}:1 {3,5}:1"
    " {1,3,5}:-1 {1,2,3,5}:-2 {4,5}:-1 {1,2,3,4,5}:2"
)

FAIR_COPY = [("0", "0"), ("1", "1")]


def evaluate_exact(inequality: LinearInequality, vector: dict) -> Fraction:
    return sum((c * vector.get(m, Fraction(0)) for m, c in inequality.coeffs), Fraction(0))


def combine(k: int, weighted) -> LinearInequality:
    coeffs: dict = {}
    for weight, ineq in weighted:
        for mask, c in ineq.coeffs:
            coeffs[mask] = coeffs.get(mask, Fraction(0)) + weight * c
    return LinearInequality(k, coeffs)


class TestDistributions:
    def test_random_rational_is_reproducible_and_grained(self):
        a = random_rational(3, 2, 64, seed=7)
        b = random_rational(3, 2, 64, seed=7)
        c = random_rational(3, 2, 64, seed=8)
        assert a == b
        assert a != c
        assert len(a) == 64 and all(len(o) == 3 for o in a)
        with pytest.raises(ValueError):
            random_rational(2, (2,), 8, seed=0)
        with pytest.raises(ValueError):
            random_rational(1, 2, 0, seed=0)

    def test_marginal_projects_and_sums(self):
        v = entropy_vector([("0", "x"), ("0", "y"), ("1", "x"), ("1", "x")])
        assert v[0b01] == pytest.approx(1.0)  # 1/2, 1/2
        assert v[0b10] == pytest.approx(2 - 0.75 * math.log2(3))  # 3/4, 1/4
        assert v[0b11] == pytest.approx(1.5)  # 1/4, 1/4, 1/2

    @pytest.mark.parametrize("bad", [[], [()], [("0",), ("0", "1")]])
    def test_refuses_empty_input_and_mixed_arity(self, bad):
        with pytest.raises(ValueError):
            entropy_vector(bad)

    def test_repeated_draw_adds_weight(self):
        # Three draws of "a" and one of "b": p = 3/4, 1/4.
        v = entropy_vector([("a",), ("b",), ("a",), ("a",)])
        assert v[0b1] == pytest.approx(-0.75 * math.log2(0.75) - 0.25 * math.log2(0.25))


class TestEntropyVectors:
    def test_uniform_product_of_fair_bits(self):
        v = entropy_vector([(a, b) for a in "01" for b in "01"])
        assert v[0b01] == pytest.approx(1.0)
        assert v[0b10] == pytest.approx(1.0)
        assert v[0b11] == pytest.approx(2.0)

    def test_copied_variable_adds_no_entropy(self):
        v = entropy_vector(FAIR_COPY)
        assert v[0b01] == v[0b10] == pytest.approx(1.0)
        assert v[0b11] == pytest.approx(1.0)

    def test_vector_covers_every_nonempty_mask(self):
        d = random_rational(3, 2, 32, seed=2)
        assert set(entropy_vector(d)) == set(nonempty_masks(3))

    def test_independent_variables_are_additive(self):
        left = random_rational(1, 3, 16, seed=3)
        right = random_rational(1, 2, 16, seed=4)
        v = entropy_vector([a + b for a in left for b in right])
        assert v[0b11] == pytest.approx(v[0b01] + v[0b10])

    def test_elementals_hold_on_sampled_distributions(self):
        for k in (1, 2, 3, 4):
            generators = elemental_inequalities(k)
            for seed in range(6):
                d = random_rational(k, 2, 48, seed=seed)
                v = entropy_vector(d)
                for g in generators:
                    assert evaluate(g, v) >= -1e-9


class TestInequalities:
    def test_zero_coefficients_are_dropped(self):
        ineq = LinearInequality(2, {0b01: 1, 0b10: 0})
        assert ineq.coeffs == ((0b01, Fraction(1)),)

    def test_masks_must_be_nonempty_and_in_range(self):
        with pytest.raises(ValueError):
            LinearInequality(2, {0: 1})
        with pytest.raises(ValueError):
            LinearInequality(2, {0b100: 1})
        with pytest.raises(ValueError):
            LinearInequality(0, {})

    def test_format_parse_round_trip(self):
        ineq = LinearInequality(3, {0b011: Fraction(1), 0b101: Fraction(-2, 3)})
        assert ineq.format() == "k=3; {1,2}:1 {1,3}:-2/3"
        assert parse_inequality(ineq.format()) == ineq

    @pytest.mark.parametrize(
        "bad",
        ["", "3; {1}:1", "k=2; 1:1", "k=2; {}:1", "k=2; {1}:", "k=2; {1}:1 {1}:2", "k=2; {3}:1",
         "k=2; {1}:1/0", "k=3; {1,1}:1"],
    )
    def test_parse_rejects_malformed_inequalities(self, bad):
        with pytest.raises(ValueError):
            parse_inequality(bad)


class TestElementalFamily:
    @pytest.mark.parametrize("k,count", [(1, 1), (2, 3), (3, 9), (4, 28), (5, 85)])
    def test_family_size(self, k, count):
        family = elemental_inequalities(k)
        assert len(family) == count
        assert len({g.coeffs for g in family}) == count

    def test_family_starts_with_monotonicity(self):
        family = elemental_inequalities(3)
        assert dict(family[0].coeffs) == {0b111: Fraction(1), 0b110: Fraction(-1)}
        assert dict(family[2].coeffs) == {0b111: Fraction(1), 0b011: Fraction(-1)}
        # With one variable there is nothing to condition on: H(X_1) >= 0.
        assert dict(elemental_inequalities(1)[0].coeffs) == {0b1: Fraction(1)}

    def test_conditional_mutual_information_shape(self):
        # I(X1;X2|X3) for k=3 appears with the four expected coefficients.
        target = {0b101: Fraction(1), 0b110: Fraction(1), 0b111: Fraction(-1), 0b100: Fraction(-1)}
        assert any(dict(g.coeffs) == target for g in elemental_inequalities(3))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            elemental_inequalities(0)

    def test_k_above_the_bound_is_refused_before_anything_is_built(self):
        assert len(elemental_inequalities(6)) == 246
        start = time.perf_counter()
        for k in (7, 40, 10**9):
            with pytest.raises(ValueError, match="k must be between 1 and 6"):
                elemental_inequalities(k)
            with pytest.raises(ValueError, match="k must be between 1 and 6"):
                parse_inequality(f"k={k}; {{1}}:1")
            with pytest.raises(ValueError, match="k must be between 1 and 6"):
                LinearInequality(k, {1: 1})
        with pytest.raises(ValueError, match="variable out of range"):
            parse_inequality("k=3; {1000000000}:1")
        assert time.perf_counter() - start < 1


class TestConeMembership:
    def assert_member(self, ineq: LinearInequality) -> ShannonDecision:
        decision = is_shannon(ineq)
        assert decision.member and decision.witness is None
        family = elemental_inequalities(ineq.k)
        assert all(w > 0 for w in decision.weights.values())
        rebuilt = combine(ineq.k, ((w, family[i]) for i, w in decision.weights.items()))
        assert rebuilt == ineq
        return decision

    def assert_non_member(self, ineq: LinearInequality) -> ShannonDecision:
        decision = is_shannon(ineq)
        assert not decision.member and decision.weights is None
        for g in elemental_inequalities(ineq.k):
            assert evaluate_exact(g, decision.witness) >= 0
        assert evaluate_exact(ineq, decision.witness) < 0
        return decision

    def test_every_generator_is_a_member(self):
        for k in (1, 2, 3, 4):
            for g in elemental_inequalities(k):
                self.assert_member(g)

    def test_zero_inequality_is_a_member_with_no_weights(self):
        decision = is_shannon(LinearInequality(3, {}))
        assert decision.member and decision.weights == {}

    def test_submodularity_is_a_member(self):
        ineq = parse_inequality("k=2; {1}:1 {2}:1 {1,2}:-1")
        self.assert_member(ineq)

    def test_scaled_and_mixed_combinations_are_members(self):
        ineq = parse_inequality("k=3; {1,2}:1/2 {2,3}:1/2 {2}:-1/2")
        # One half of submodularity for the pair ({1,2},{2,3}).
        self.assert_member(ineq)

    def test_random_nonnegative_combinations_are_members(self):
        import random

        rng = random.Random(20260815)
        for trial in range(200):
            k = rng.choice((1, 2, 3, 4))
            family = elemental_inequalities(k)
            weighted = []
            for g in family:
                if rng.random() < 0.4:
                    weighted.append((Fraction(rng.randrange(1, 5), rng.randrange(1, 4)), g))
            self.assert_member(combine(k, weighted))

    def test_reversed_monotonicity_is_not_a_member(self):
        self.assert_non_member(parse_inequality("k=2; {1}:1 {2}:-1"))

    def test_supermodularity_is_not_a_member(self):
        decision = self.assert_non_member(parse_inequality("k=2; {1}:-1 {2}:-1 {1,2}:1"))
        # The copied fair bit realizes the violation with a real distribution.
        v = entropy_vector(FAIR_COPY)
        assert evaluate(parse_inequality("k=2; {1}:-1 {2}:-1 {1,2}:1"), v) < 0
        assert decision.witness is not None

    def test_ingleton_is_not_a_member(self):
        text = (
            "k=4; {1,2}:-1 {1,3}:1 {1,4}:1 {2,3}:1 {2,4}:1"
            " {3,4}:-1 {1,2,3}:-1 {1,2,4}:-1 {3}:-1 {4}:-1"
        )
        self.assert_non_member(parse_inequality(text))

    def test_tiny_negative_perturbation_leaves_the_cone(self):
        ineq = LinearInequality(
            2, {0b01: 1, 0b10: 1, 0b11: Fraction(-1) - Fraction(1, 10**9)}
        )
        self.assert_non_member(ineq)

    def test_masks_helper_agrees_with_labels(self):
        assert mask_of([1, 3]) == 0b101


class TestFractionReference:
    """is_shannon against the same decision built on the Fraction reference pivots."""

    @staticmethod
    def assert_same_decision(ineq: LinearInequality, monkeypatch) -> ShannonDecision:
        sparse = is_shannon(ineq)
        with monkeypatch.context() as patched:
            patched.setattr(entropy, "_bland_phase1", dense_bland_phase1)
            dense = is_shannon(ineq)
        assert (sparse.member, sparse.weights, sparse.witness) == (
            dense.member,
            dense.weights,
            dense.witness,
        )
        return sparse

    def test_random_inequalities(self, monkeypatch):
        rng = random.Random(20261018)
        members = 0
        for trial in range(160):
            k = 2 + trial % 3
            if trial % 2:
                family = elemental_inequalities(k)
                picks = [(rng.randrange(1, 5), rng.choice(family)) for _ in range(rng.randrange(1, 5))]
                ineq = combine(k, picks)
            else:
                masks = rng.sample(list(nonempty_masks(k)), rng.randrange(2, 4))
                ineq = LinearInequality(k, {m: rng.randrange(-3, 4) for m in masks})
            members += self.assert_same_decision(ineq, monkeypatch).member
        assert 80 <= members <= 120  # every combination, and some of the random ones

    def test_random_rational_inequalities(self, monkeypatch):
        # p/q coefficients over several q in one inequality give tableau rows
        # denominators other than 1; negative ones flip their row's sign.
        rng = random.Random(20261019)
        members = unlike = flipped = 0
        for trial in range(120):
            k = 2 + trial % 3
            qs = rng.sample((2, 3, 5, 7, 9, 10), 3)
            if trial % 2:
                family = elemental_inequalities(k)
                picks = [
                    (Fraction(rng.randrange(1, 12), rng.choice(qs)), rng.choice(family))
                    for _ in range(rng.randrange(2, 6))
                ]
                ineq = combine(k, picks)
            else:
                masks = rng.sample(list(nonempty_masks(k)), rng.randrange(2, 4))
                ineq = LinearInequality(
                    k, {m: Fraction(rng.randrange(-9, 10), rng.choice(qs)) for m in masks}
                )
            unlike += len({c.denominator for _, c in ineq.coeffs}) >= 2
            flipped += any(c < 0 for _, c in ineq.coeffs)
            members += self.assert_same_decision(ineq, monkeypatch).member
        assert 60 <= members <= 90 and unlike >= 80 and flipped >= 100

    @pytest.mark.parametrize(
        "k,coeffs",
        [
            # The perturbation that leaves the cone, and the one that stays in.
            (2, {0b01: 1, 0b10: 1, 0b11: Fraction(-1) - Fraction(1, 10**9)}),
            (2, {0b01: 1, 0b10: 1, 0b11: Fraction(-1) + Fraction(1, 10**9)}),
            # Every right side negative, over unlike denominators.
            (3, {0b001: Fraction(-2, 3), 0b011: Fraction(-5, 7), 0b110: Fraction(-1, 2)}),
            (3, {0b001: Fraction(-2, 3), 0b011: Fraction(5, 7), 0b110: Fraction(-1, 2),
                 0b111: Fraction(3, 10)}),
        ],
    )
    def test_rational_edge_cases(self, monkeypatch, k, coeffs):
        self.assert_same_decision(LinearInequality(k, coeffs), monkeypatch)

    def test_zhang_yeung(self, monkeypatch):
        assert not self.assert_same_decision(parse_inequality(ZHANG_YEUNG), monkeypatch).member

    def test_zhang_yeung_over_unlike_denominators(self, monkeypatch):
        ineq = parse_inequality(ZHANG_YEUNG)
        scaled = LinearInequality(4, {m: c / (2 + m % 5) for m, c in ineq.coeffs})
        self.assert_same_decision(scaled, monkeypatch)

    def test_many_pivot_member_at_k5(self, monkeypatch):
        assert self.assert_same_decision(parse_inequality(MEMBER_K5), monkeypatch).member
