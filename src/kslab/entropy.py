"""Entropy vectors of lists of draws, and the Shannon cone.

A distribution is the empirical one of a list of equal-length tuples;
its entropies are floats.  Cone membership is decided exactly, by a
simplex on rows of ints over one denominator each, with Fraction
certificates.  Subsets of the k variables are bitmasks as in _masks.

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
from functools import lru_cache
from itertools import compress

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
# takes about 15 ms (best of 15; exact simplex on integer rows, CPython
# 3.11.7, 2-vCPU VM), and the tableau grows about 5.5-fold with each
# further variable.
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
        if len(set(indices)) < len(indices):
            raise ValueError(f"bad term {term!r}: a variable is repeated")
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


# One tuple per k, built once: every is_shannon call reads the generators,
# and building the 85 at k = 5 was a fifth of a call.  An invalid k raises,
# and lru_cache stores no result for a call that raised.
@lru_cache(maxsize=_MAX_K)
def elemental_inequalities(k: int) -> tuple:
    """Generators of the Shannon cone, in a fixed order.

    First H(X_i | all others) >= 0 for i ascending, then
    I(X_i; X_j | X_S) >= 0 for i < j ascending and S ascending by mask.
    Their count is k + C(k,2) * 2^(k-2): 1, 3, 9, 28, 85, 246 for k = 1..6;
    k above _MAX_K is refused before any is built.  The tuple and its
    frozen inequalities are shared by every caller.
    """

    _check_k(k)
    full = (1 << k) - 1
    out = []
    for i in range(1, k + 1):
        rest = full & ~(1 << (i - 1))
        coeffs = {full: 1}
        if rest:
            coeffs[rest] = -1
        out.append(LinearInequality(k, coeffs))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            free = full & ~(bi | bj)
            sub = 0
            while True:
                coeffs = {
                    sub | bi: 1,
                    sub | bj: 1,
                    sub | bi | bj: -1,
                }
                if sub:
                    coeffs[sub] = -1
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


def _reduce(row: list, den: int) -> int:
    """Divide row, in place, and den by their gcd; return the new den."""

    if den > 1:
        g = math.gcd(den, *row)
        if g > 1:
            row[:] = [v // g for v in row]
            den //= g
    return den


def _bland_phase1(columns, rhs):
    """Minimal phase-1 simplex: find v >= 0 with columns @ v = rhs.

    columns is a list of length-m vectors of rationals (ints or
    Fractions), and rhs one more such vector.  Returns
    (solution dict col_index -> Fraction) on feasibility, else
    (None, y) with a Farkas vector y: y.rhs > 0 and y.col <= 0 for all
    columns.  Bland's rule makes cycling impossible, and everything is
    exact, so this terminates with a correct answer.

    Each tableau row, and the reduced-cost row, is a list of ints over one
    positive denominator, kept in lowest terms, so a pivot costs int
    products instead of Fraction ones.  Signs and ratios of entries are
    read off the ints, so every pivot is the one a Fraction tableau makes.
    """

    m = len(rhs)
    n = len(columns)
    width = n + m + 1
    signs = [1] * m
    rows = []
    dens = []
    # Tableau rows: [real columns | artificial identity | rhs], each the
    # rational row, sign-flipped to a nonnegative rhs, times the lcm of its
    # entries' denominators.  That leaves the ints and the lcm coprime.
    for i, values in enumerate(zip(*columns, rhs)):
        denominators = [v.denominator for v in values]
        den = math.lcm(*denominators)
        signs[i] = sign = -1 if values[-1] < 0 else 1
        scale = sign * den
        row = [v.numerator * (scale // d) for v, d in zip(values, denominators)]
        row[n:n] = [0] * m
        row[n + i] = den
        rows.append(row)
        dens.append(den)
    basis = [n + i for i in range(m)]
    # Reduced costs for the phase-1 objective (sum of artificials): minus
    # each column's sum, over the lcm of the row denominators, and 1 - 1 in
    # the artificial columns.
    red_den = math.lcm(*dens)
    scaled = [[v * (red_den // den) for v in row] for row, den in zip(rows, dens)]
    red = [-sum(column) for column in zip(*scaled)]
    red[n : n + m] = [0] * m
    rows.append(red)
    dens.append(_reduce(red, red_den))
    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), None)
        if enter is None:
            break
        # Ratio rhs_i / a_ie: a row's denominator cancels, and the ints
        # compare by cross-multiplying (both a_ie are positive).
        leave = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = rows[i][-1] * rows[leave][enter]
                rhs_best = rows[leave][-1] * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded, no unbounded ray exists")
        # Dividing the pivot row by its pivot entry keeps its ints and makes
        # that entry its denominator.
        prow = rows[leave]
        pden = dens[leave] = _reduce(prow, prow[enter])
        nz = list(compress(range(width), prow))
        # Row i becomes (row * pden - a * prow) / (den * pden) for its entry
        # a in the entering column, with a common factor of a and pden taken
        # out first: when none is left over in pden, only the pivot row's
        # nonzero columns change.
        for i, row in enumerate(rows):
            a = row[enter]
            if not a or row is prow:
                continue
            g = math.gcd(a, pden)
            a //= g
            scale = pden // g
            if scale > 1:
                row[:] = [v * scale for v in row]
            for j in nz:
                row[j] -= a * prow[j]
            dens[i] = _reduce(row, dens[i] * scale)
        basis[leave] = enter
    # The phase-1 objective is the sum of the nonnegative rhs entries of
    # rows with an artificial basis column.
    if not any(rows[i][-1] for i in range(m) if basis[i] >= n):
        solution: dict = {}
        for i in range(m):
            if basis[i] < n and rows[i][-1] != 0:
                solution[basis[i]] = Fraction(rows[i][-1], dens[i])
        return solution, None
    # Infeasible: duals off the artificial columns give the Farkas vector.
    red_den = dens[m]
    y = [Fraction(red_den - red[n + i], red_den) * signs[i] for i in range(m)]
    return None, y


def _row_vector(inequality: LinearInequality) -> list:
    """Coefficients as a list, entry mask - 1 for masks 1 .. 2^k - 1; absent ones are int 0."""

    out = [0] * ((1 << inequality.k) - 1)
    for mask, c in inequality.coeffs:
        out[mask - 1] = c
    return out


def is_shannon(inequality: LinearInequality) -> ShannonDecision:
    """Decide membership of the inequality in the Shannon cone.

    Both branches re-verify their certificate with exact arithmetic
    before returning, so a wrong answer cannot escape silently.  k is at
    most _MAX_K = 6, where a one-term inequality takes about 15 ms.
    """

    k = inequality.k
    generators = elemental_inequalities(k)
    columns = [_row_vector(g) for g in generators]
    target = _row_vector(inequality)
    solution, farkas = _bland_phase1(columns, target)
    if solution is not None:
        totals = [0] * len(target)
        for j, w in solution.items():
            for mask, c in generators[j].coeffs:
                totals[mask - 1] += c * w
        for mask, (total, want) in enumerate(zip(totals, target), 1):
            if total != want:
                raise AssertionError(f"weights fail to reproduce coefficient of {mask}")
        return ShannonDecision(k, True, dict(sorted(solution.items())), None)
    witness = {mask: -y for mask, y in enumerate(farkas, 1)}
    for g in generators:
        if sum(c * witness[m] for m, c in g.coeffs) < 0:
            raise AssertionError("witness violates a generator")
    if sum(c * witness[m] for m, c in inequality.coeffs) >= 0:
        raise AssertionError("witness does not violate the inequality")
    return ShannonDecision(k, False, None, witness)
