"""Acceptance checks: decider equivalence, complexity laws, cone soundness.

Each test prints a one-line summary so a full run documents the measured
values next to the asserted bounds.

Criterion scale knob: KSLAB_ACCEPT_MACHINES sets the sampled-machine
budget for the decider-equivalence sweep (default 50, which keeps the
default suite within a few minutes on one core; raise it for a full
validation run).
"""

import itertools
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    copy_p_spec,
    echo_x_spec,
    evaluate,
    find_stable_level,
    random_rational,
    sample_machine_bits,
)
from kslab.entropy import (
    LinearInequality,
    elemental_inequalities,
    entropy_vector,
    is_shannon,
    parse_inequality,
)
from kslab.halting import decide_backward, decide_counter, decide_forward
from kslab.kolmo import (
    C_SIM,
    ComplexityCache,
    encode_pair,
    ks,
    reference_decode,
)
from kslab.laws import (
    baseline_name,
    freeze_or_check,
    gap_report,
    staged_sets,
    strings_up_to,
    typical_set,
    verify_law,
)
from kslab.machine import parse_bits, serialize_machine

BASELINE_DIR = Path(__file__).resolve().parents[1] / "baselines"
LAW_GRID = (64, 128, 256, 512)
CAP = 14


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    with ComplexityCache(tmp_path_factory.mktemp("acceptance") / "complexity.tsv") as cache:
        yield cache


def check_frozen(name: str, content: str) -> str:
    """freeze_or_check against a file that must already be in baselines/."""

    assert (BASELINE_DIR / name).is_file(), f"baselines/{name} is missing"
    return freeze_or_check(BASELINE_DIR, name, content)


def freeze_report(report) -> str:
    return check_frozen(baseline_name("law", report), report.baseline_text())


@pytest.fixture(scope="module")
def decider_sweep():
    budget = int(os.environ.get("KSLAB_ACCEPT_MACHINES", "50"))
    rng = random.Random(20260815)
    ps = ["".join(t) for L in range(4) for t in itertools.product("01", repeat=L)]
    xs = ["".join(t) for L in range(3) for t in itertools.product("01", repeat=L)]
    ss = range(7)
    cases = 0
    disagreements = 0
    peak_live = 0
    # Cases whose backward search visited only the root: no run of the
    # machine can execute an instruction that leads to it.
    root_only = 0
    started = time.perf_counter()
    for _ in range(budget):
        spec = parse_bits(sample_machine_bits(rng, rng.choice((1, 2, 3))))
        for p in ps:
            for x in xs:
                for s in ss:
                    b = decide_backward(spec, p, x, s)
                    f = decide_forward(spec, p, x, s)
                    c = decide_counter(spec, p, x, s)
                    cases += 1
                    peak_live = max(peak_live, b.probe_stats.peak_live_configurations)
                    root_only += b.probe_stats.configurations_visited == 1
                    if not (
                        b.terminates_within_s
                        == f.terminates_within_s
                        == c.terminates_within_s
                    ):
                        disagreements += 1
    elapsed = time.perf_counter() - started
    return {
        "machines": budget,
        "cases": cases,
        "disagreements": disagreements,
        "peak_live": peak_live,
        "root_only": root_only,
        "elapsed": elapsed,
    }


def test_criterion_01_decider_equivalence(decider_sweep):
    d = decider_sweep
    rate = d["elapsed"] / d["machines"] if d["machines"] else 0.0
    print(
        f"criterion 1: {d['machines']} machines x {d['cases'] // max(d['machines'], 1)} "
        f"cases, {d['disagreements']} disagreements, {d['root_only']} backward searches "
        f"ended at the root, {rate:.2f} s/machine"
    )
    assert d["machines"] >= 1 and d["cases"] == d["machines"] * 735
    assert d["disagreements"] == 0


def test_criterion_02_backward_decider_frugality(decider_sweep):
    print(f"criterion 2: peak live configurations = {decider_sweep['peak_live']}")
    assert decider_sweep["peak_live"] <= 3


def test_criterion_03_monotone_in_space(cache):
    from kslab.kolmo import cached_ks

    violations = 0
    checked = 0
    for y in strings_up_to(4):
        for x in ("", y):
            previous = None
            for s in (32, 64, 128, 256, 512):
                value = cached_ks(y, x, s, CAP, cache).value
                assert value is not None
                if previous is not None and value > previous:
                    violations += 1
                previous = value
                checked += 1
    print(f"criterion 3: {checked} values, {violations} monotonicity violations")
    assert violations == 0


def test_criterion_04_interpreter_upper_bound():
    r_echo = serialize_machine(echo_x_spec())
    r_copy = serialize_machine(copy_p_spec())
    assert len(r_echo) == len(r_copy) == 329
    threshold = 2 * len(r_echo) + C_SIM
    worst_slack = None
    for x in strings_up_to(4):
        bound = 2 * len(r_echo) + 2 + len(x)
        value = ks(x, "", threshold, CAP).value
        assert value is not None and value <= bound
        slack = bound - value
        worst_slack = slack if worst_slack is None else min(worst_slack, slack)
        # The bound is realized by an actual program: a machine that
        # copies its program tape, followed by x itself.
        program = "".join(bit + bit for bit in r_copy) + "01" + x
        assert len(program) == bound
        assert reference_decode(program, "", threshold) == x
    print(f"criterion 4: bound holds for |x| <= 4 at s >= {threshold}, min slack {worst_slack}")


def test_criterion_05_symmetry_baseline(cache):
    report = verify_law("symmetry", n=2, s_grid=LAW_GRID, cap=CAP, cache=cache)
    status = freeze_report(report)
    print(
        f"criterion 5: symmetry minimal_c={report.minimal_c}, "
        f"vacuous {report.points_vacuous / report.points_total:.2%}, baseline {status}"
    )
    assert report.minimal_c >= 0
    assert report.points_vacuous < 0.05 * report.points_total
    assert status == "matched"


def test_criterion_06_basic_inequality_baseline(cache):
    report = verify_law(
        "basic", n=1, s_grid=LAW_GRID, cap=CAP, I={1}, J={2}, k=3, cache=cache
    )
    status = freeze_report(report)
    print(f"criterion 6: basic minimal_c={report.minimal_c}, baseline {status}")
    assert report.minimal_c >= 0
    assert status == "matched"


def test_criterion_07_shannon_machinery(cache):
    rng = random.Random(7)
    family = elemental_inequalities(3)
    for trial in range(20):
        picked = [g for g in family if rng.random() < 0.4] or [family[trial % len(family)]]
        coeffs: dict = {}
        for g in picked:
            w = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
            for mask, c in g.coeffs:
                coeffs[mask] = coeffs.get(mask, Fraction(0)) + w * c
        ineq = LinearInequality(3, coeffs)
        decision = is_shannon(ineq)
        assert decision.member
        rebuilt: dict = {}
        for idx, weight in decision.weights.items():
            assert weight > 0
            for mask, c in family[idx].coeffs:
                rebuilt[mask] = rebuilt.get(mask, Fraction(0)) + weight * c
        assert {m: c for m, c in rebuilt.items() if c != 0} == dict(ineq.coeffs)

    submodularity = parse_inequality("k=3; {1,2}:1 {2,3}:1 {2}:-1 {1,2,3}:-1")
    certificate = is_shannon(submodularity)
    assert certificate.member
    report = verify_law(
        "shannon", n=1, s_grid=LAW_GRID, cap=CAP,
        inequality=submodularity, cache=cache,
    )
    status = freeze_report(report)
    print(f"criterion 7: 20 member certificates ok, shannon minimal_c={report.minimal_c}, baseline {status}")
    assert report.minimal_c >= 0
    assert status == "matched"


def test_criterion_08_cone_counts_and_soundness():
    counts = {k: len(elemental_inequalities(k)) for k in (2, 3, 4)}
    assert counts == {2: 3, 3: 9, 4: 28}

    worst = 0.0
    for k in (1, 2, 3, 4):
        family = elemental_inequalities(k)
        for seed in range(1000):
            dist = random_rational(k, 2, 64, seed=seed)
            vector = entropy_vector(dist)
            for g in family:
                value = evaluate(g, vector)
                worst = min(worst, value)
                assert value >= -1e-9

    supermodularity = parse_inequality("k=2; {1,2}:1 {1}:-1 {2}:-1")
    decision = is_shannon(supermodularity)
    assert not decision.member
    witness = decision.witness
    for g in elemental_inequalities(2):
        assert sum(c * witness.get(m, Fraction(0)) for m, c in g.coeffs) >= 0
    assert sum(c * witness.get(m, Fraction(0)) for m, c in supermodularity.coeffs) < 0
    copied_bit = [("0", "0"), ("1", "1")]
    violation = evaluate(supermodularity, entropy_vector(copied_bit))
    print(
        f"criterion 8: counts {counts}, 4000 sampled distributions, worst elemental "
        f"{worst:.2e}, supermodularity witness ok, distribution violation {violation:.3f}"
    )
    assert violation < 0


def test_criterion_10_pigeonhole_and_staged_enumeration():
    rng = random.Random(10)
    for _ in range(10_000):
        width = rng.randrange(1, 5)
        vec = [rng.randrange(0, 6) for _ in range(width)]
        chain = [tuple(vec)]
        for _ in range(sum(vec) + 1):
            if sum(vec) > 0 and rng.random() < 0.6:
                pos = rng.choice([i for i in range(width) if vec[i] > 0])
                vec[pos] -= 1
            chain.append(tuple(vec))
        idx = find_stable_level(chain)
        assert chain[idx] == chain[idx + 1]

    s_max = 4
    for case in range(50):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(3)))
        m = rng.randrange(3, 11)
        stages = staged_sets(x, m, 2, s_max)
        cumulative = {y for stage in stages for y in stage}
        direct = {
            y for y in strings_up_to(2) if ks(encode_pair(x, y), "", s_max, m).value is not None
        }
        assert cumulative == direct
    print("criterion 10: 10000 stabilizations, 50 staged-vs-direct enumerations agree")


def test_criterion_11_typical_sets(cache):
    bases = list(itertools.product(strings_up_to(2), repeat=2))
    assert len(bases) == 49
    largest = 0
    for base in bases:
        ts = typical_set(base, 8, 2, CAP, cache=cache)
        assert base in ts.members
        m = ts.base_profile[(0b11, 0)]
        assert m is not None
        assert len(ts.members) <= 2 ** (m + 1) - 1
        largest = max(largest, len(ts.members))

    ts = typical_set(("01", "1"), 8, 2, CAP, cache=cache)
    report_text = gap_report(ts)
    assert report_text == gap_report(ts)
    status = check_frozen("gap__01-1__u8-n2-cap14__kslab-v1.txt", report_text)
    print(
        f"criterion 11: 49 bases ok, largest set {largest}, gap report baseline {status}"
    )
    assert status == "matched"
