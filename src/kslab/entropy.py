"""Entropy vectors of lists of draws, and the Shannon cone.

A distribution is the empirical one of a list of equal-length tuples;
its entropies are floats.  Cone membership is decided over Fractions, so
it is exact.  Subsets of the k variables are bitmasks as in _masks.

The Shannon cone over k variables is generated by the elemental
inequalities: H(X_i | rest) >= 0 for each i, and I(X_i; X_j | X_S) >= 0
for each pair i < j and each S disjoint from {i, j}.  is_shannon decides
by exact rational linear programming whether a linear inequality over
subset entropies is a nonnegative combination of these generators, and in
either case returns a certificate that is re-verified before return:
combination weights that reproduce the inequality exactly, or a point
satisfying every generator while violating the inequality.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from ._masks import indices_of, mask_label, mask_of, nonempty_masks

__all__ = [
    "entropy_vector",
    "LinearInequality",
    "parse_inequality",
    "elemental_inequalities",
    "is_shannon",
]


def entropy_vector(outcomes) -> dict:
    """H(X_S) in bits for every nonempty mask S, of the empirical distribution.

    outcomes is a sequence of equal-length tuples of symbols, one draw
    each, so a repeated tuple adds weight.  Each mask's projections are
    counted, p = count / len(outcomes), and -p log2 p is summed in order of
    first appearance.
    """

    if not outcomes:
        raise ValueError("need at least one outcome")
    k = len(outcomes[0])
    if k < 1 or any(len(o) != k for o in outcomes):
        raise ValueError("outcomes must be nonempty tuples of one arity")
    total = len(outcomes)
    vector = {}
    for mask in nonempty_masks(k):
        picks = [i - 1 for i in indices_of(mask)]
        h = 0.0
        for count in Counter(tuple(o[i] for i in picks) for o in outcomes).values():
            p = count / total
            h -= p * math.log2(p)
        vector[mask] = h
    return vector


# Largest k for linear inequalities and the Shannon cone.  The cone has
# k + C(k,2) * 2^(k-2) generators over 2^k - 1 subsets: 246 at k = 6, 1,800
# at k = 8, 49.8 M at k = 20.  At k = 6 is_shannon on a one-term inequality
# takes about 1 s (exact simplex, CPython 3.11, 2-vCPU VM), and the tableau
# grows about 5.5-fold with each further variable.
_MAX_K = 6


def _check_k(k: int) -> None:
    if not 1 <= k <= _MAX_K:
        raise ValueError(f"k must be between 1 and {_MAX_K}, got {k}")


@dataclass(frozen=True)
class LinearInequality:
    """Assertion sum_S coeffs[S] * H(X_S) >= 0 over nonempty subset masks."""

    k: int
    coeffs: tuple

    def __init__(self, k: int, coeffs):
        _check_k(k)
        items = []
        for mask, c in sorted(dict(coeffs).items()):
            if not 0 < mask < (1 << k):
                raise ValueError(f"mask {mask} out of range for k={k}")
            c = Fraction(c)
            if c != 0:
                items.append((mask, c))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", tuple(items))

    def coeff(self, mask: int) -> Fraction:
        for m, c in self.coeffs:
            if m == mask:
                return c
        return Fraction(0)

    def format(self) -> str:
        terms = " ".join(f"{mask_label(m)}:{c}" for m, c in self.coeffs)
        return f"k={self.k}; {terms}"


# Most digits parse_inequality reads in k, a subset, or a coefficient's
# numerator or denominator.  Python converts ints of at most 4,300 digits
# to and from text, and a certificate weight, a sum of coefficients, can be
# longer than any one of them.
_MAX_DIGITS = 1000


def _digits(text: str) -> int:
    return sum(ch.isdigit() for ch in text)


def parse_inequality(text: str) -> LinearInequality:
    """Parse 'k=3; {1}:1 {2}:1 {1,2}:-1'; a coefficient is an integer, decimal or p/q."""

    head, _, tail = text.partition(";")
    head = head.strip()
    if not head.startswith("k="):
        raise ValueError(f"expected k=<count>, got {head!r}")
    if _digits(head) > _MAX_DIGITS:
        raise ValueError(f"k has over {_MAX_DIGITS} digits")
    k = int(head[2:])
    _check_k(k)
    coeffs: dict = {}
    for term in tail.split():
        subset, _, value = term.partition(":")
        if not (subset.startswith("{") and subset.endswith("}")) or not value:
            raise ValueError(f"bad term {term!r}, expected {{i,j}}:coeff")
        numerator, _, denominator = value.partition("/")
        if max(_digits(subset), _digits(numerator), _digits(denominator)) > _MAX_DIGITS:
            raise ValueError(f"bad term: a number with over {_MAX_DIGITS} digits")
        inner = subset[1:-1]
        indices = [int(i) for i in inner.split(",")] if inner else []
        if any(i > k for i in indices):
            raise ValueError(f"bad term {term!r}: variable out of range for k={k}")
        mask = mask_of(indices)
        if mask == 0:
            raise ValueError(f"bad term {term!r}: subset must be nonempty")
        if mask in coeffs:
            raise ValueError(f"duplicate subset {subset}")
        if "e" in value.lower():
            # Fraction would form 10**exponent, past the int digit limit.
            raise ValueError(f"bad term {term!r}: write the coefficient as p/q or a decimal")
        try:
            coeffs[mask] = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"bad term {term!r}: zero denominator") from None
    return LinearInequality(k, coeffs)


def elemental_inequalities(k: int) -> tuple:
    """Generators of the Shannon cone, in a fixed order.

    First H(X_i | all others) >= 0 for i ascending, then
    I(X_i; X_j | X_S) >= 0 for i < j ascending and S ascending by mask.
    Their count is k + C(k,2) * 2^(k-2): 1, 3, 9, 28, 85, 246 for k = 1..6;
    k above _MAX_K is refused before any is built.
    """

    _check_k(k)
    full = (1 << k) - 1
    out = []
    for i in range(1, k + 1):
        rest = full & ~(1 << (i - 1))
        coeffs = {full: Fraction(1)}
        if rest:
            coeffs[rest] = Fraction(-1)
        out.append(LinearInequality(k, coeffs))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            free = full & ~(bi | bj)
            sub = 0
            while True:
                coeffs = {
                    sub | bi: Fraction(1),
                    sub | bj: Fraction(1),
                    sub | bi | bj: Fraction(-1),
                }
                if sub:
                    coeffs[sub] = Fraction(-1)
                out.append(LinearInequality(k, coeffs))
                if sub == free:
                    break
                sub = (sub - free) & free
    return tuple(out)


@dataclass(frozen=True)
class ShannonDecision:
    """Outcome of a cone-membership test, with a verified certificate.

    member=True:  weights maps generator index (into
                  elemental_inequalities(k)) to a positive Fraction, and
                  the weighted generator sum equals the inequality.
    member=False: witness maps subset mask to a Fraction; the witness
                  point has g(witness) >= 0 for every generator but
                  inequality(witness) < 0.
    """

    k: int
    member: bool
    weights: dict | None
    witness: dict | None


def _bland_phase1(columns, rhs):
    """Minimal phase-1 simplex: find v >= 0 with columns @ v = rhs.

    columns is a list of length-m Fraction vectors.  Returns
    (solution dict col_index -> Fraction) on feasibility, else
    (None, y) with a Farkas vector y: y.rhs > 0 and y.col <= 0 for all
    columns.  Bland's rule makes cycling impossible, and everything is
    exact, so this terminates with a correct answer.
    """

    m = len(rhs)
    n = len(columns)
    signs = [1] * m
    rhs = list(rhs)
    cols = [list(c) for c in columns]
    for i in range(m):
        if rhs[i] < 0:
            signs[i] = -1
            rhs[i] = -rhs[i]
            for col in cols:
                col[i] = -col[i]
    # Tableau rows: [real columns | artificial identity | rhs].
    width = n + m + 1
    rows = []
    for i in range(m):
        row = [cols[j][i] for j in range(n)]
        row += [Fraction(1) if t == i else Fraction(0) for t in range(m)]
        row.append(rhs[i])
        rows.append(row)
    basis = [n + i for i in range(m)]
    # Reduced costs for phase-1 objective (sum of artificials).
    red = [Fraction(0)] * width
    for j in range(width):
        red[j] = (Fraction(1) if n <= j < n + m else Fraction(0)) - sum(
            rows[i][j] for i in range(m)
        )
    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][width - 1] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded, no unbounded ray exists")
        # Only the pivot row's nonzero columns change anywhere; the rest of
        # each row is left as it is (a - f * 0 == a, exactly).
        prow = rows[leave]
        pivot = prow[enter]
        nz = [j for j in range(width) if prow[j]]
        for j in nz:
            prow[j] /= pivot
        for row in rows + [red]:
            f = row[enter]
            if f and row is not prow:
                for j in nz:
                    row[j] -= f * prow[j]
        basis[leave] = enter
    objective = sum(rows[i][width - 1] for i in range(m) if basis[i] >= n)
    if objective == 0:
        solution: dict = {}
        for i in range(m):
            if basis[i] < n and rows[i][width - 1] != 0:
                solution[basis[i]] = rows[i][width - 1]
        return solution, None
    # Infeasible: duals off the artificial columns give the Farkas vector.
    y = [(Fraction(1) - red[n + i]) * signs[i] for i in range(m)]
    return None, y


def is_shannon(inequality: LinearInequality) -> ShannonDecision:
    """Decide membership of the inequality in the Shannon cone.

    Both branches re-verify their certificate with exact arithmetic
    before returning, so a wrong answer cannot escape silently.  k is at
    most _MAX_K = 6, where a one-term inequality takes about 1 s.
    """

    k = inequality.k
    generators = elemental_inequalities(k)
    masks = list(nonempty_masks(k))
    columns = [[g.coeff(m) for m in masks] for g in generators]
    target = [inequality.coeff(m) for m in masks]
    solution, farkas = _bland_phase1(columns, target)
    if solution is not None:
        for row_idx, mask in enumerate(masks):
            total = sum(columns[j][row_idx] * w for j, w in solution.items())
            if total != target[row_idx]:
                raise AssertionError(f"weights fail to reproduce coefficient of {mask}")
        return ShannonDecision(k, True, dict(sorted(solution.items())), None)
    witness = {m: -farkas[idx] for idx, m in enumerate(masks)}
    for g in generators:
        if sum(g.coeff(m) * witness[m] for m in masks) < 0:
            raise AssertionError("witness violates a generator")
    if sum(inequality.coeff(m) * witness[m] for m in masks) >= 0:
        raise AssertionError("witness does not violate the inequality")
    return ShannonDecision(k, False, None, witness)
