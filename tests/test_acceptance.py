"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (test names identify the
criteria; add ``-s`` to see the printed summaries).  Tolerances are exact
(integer arithmetic) except the wall-clock budgets, asserted as stated.
"""

import hashlib
import itertools
import json
import random
import time

from gen_support import (
    positive_reduct_alpha,
    random_lev_polynomial,
    random_nonlinear_polynomial,
)
from rado_forge.check import replay_certificate
from rado_forge.classify import (
    classify,
    nonlinear_shape,
    rado_condition,
    to_lev_form,
)
from rado_forge.cli import main
from rado_forge.corpus import run_corpus
from rado_forge.poly import parse
from rado_forge.search import (
    BAD_COLORING,
    FORCED,
    enumerate_constraints,
    find_bad_coloring,
    rado_number,
)
from rado_forge.solutions import brute_force_solutions
from rado_forge.witness import (
    nlp_lift_formal_check,
    reduct_lift,
    reduct_lift_formal_check,
    witness_via_nlp,
)

WORKED = "x11*y1^2*y2^2 + x21*x22*z1*y2^2 - 2*x31*x32*z2*y1 + x41*x42"

GOLDEN = {
    "x1+x2-y1*y2": ("PR", "Thm3.5"),
    "2*x1+3*x2*y1*y2-5*x3*y1+x4*y2*y3": ("PR", "Thm3.5"),
    "x1*y1+x2*y1*y2-x3": ("PR", "Thm3.5"),
    "t1*t2*x^2+t3*t4*y^2-t5*t6*z^2": ("PR", "Thm4.2"),
    "x11*y1^2*y2^2+x21*x22*z1*y2^2-2*x31*x32*z2*y1+x41*x42": ("PR", "Thm4.2"),
    "x*y+x*z-y*z": ("UNKNOWN", "-"),
    "x+y-z^2": ("UNKNOWN", "-"),
    "x+y-3*z": ("NOT_PR", "LinearNecessity"),
    "x-y": ("PR", "RadoLinear"),
    "2*x^2-3*y^2": ("NOT_PR", "HomogeneousNecessity"),
}


def test_criterion_1_corpus_golden():
    started = time.perf_counter()
    results = {r.fixture.text: r for r in run_corpus()}
    for text, (status, theorem) in GOLDEN.items():
        r = results[text]
        assert (r.status, r.theorem) == (status, theorem), text
    # pinned details beyond status/theorem
    assert results["x-y"].injective == "no"
    worked = classify(parse(WORKED))
    assert worked.certificate.payload["multiplicities"] == [1, 2, 2, 2]
    square = classify(parse("x+y-z^2"))
    assert square.status == "UNKNOWN"
    assert any("exclusive degree-1" in line for line in square.trace)
    assert any("not partition regular" in note for note in square.notes)
    unknown_note = classify(parse("x*y+x*z-y*z"))
    assert any("partition regular" in note for note in unknown_note.notes)
    assert all(r.match for r in results.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"corpus run took {elapsed:.3f}s"
    print(f"criterion 1 PASS: corpus golden ({len(results)} fixtures, {elapsed:.3f}s)")


def test_criterion_2_identity_property_suite():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for i in range(1000):
        p = random_lev_polynomial(rng)
        form = to_lev_form(p)
        alpha = positive_reduct_alpha(form.coefficients)
        y_values = tuple(rng.randint(1, 1000) for _ in form.product_vars)
        w = reduct_lift(form, alpha, y_values)
        assert w.value == 0
        assert p.evaluate(w.assignment) == 0
        if i % 4 == 0:  # symbolic identity with formal y-values
            assert reduct_lift_formal_check(form, alpha)
    for _ in range(200):
        p = random_nonlinear_polynomial(rng)
        w = witness_via_nlp(p)
        assert w.value == 0
        assert p.evaluate(w.assignment) == 0
    # symbolic zero-polynomial checks on the worked example
    worked = parse(WORKED)
    shape, failures = nonlinear_shape(worked)
    assert not failures
    alpha_beta = {
        "x11": 2, "x21": 1, "x22": 1, "z1": 2,
        "x31": 1, "x32": 3, "z2": 1, "x41": 1, "x42": 2,
    }
    assert nlp_lift_formal_check(worked, shape, alpha_beta)
    form = to_lev_form(parse("x1*y1 + x2*y1*y2 - x3"))
    assert reduct_lift_formal_check(form, (1, 2, 3))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"identity suite took {elapsed:.1f}s"
    print(f"criterion 2 PASS: 1000 reduct + 200 nlp exact zeros ({elapsed:.1f}s)")


def test_criterion_3_nlp_trace_laws():
    rng = random.Random(31415)
    checked = 0
    for _ in range(200):
        p = random_nonlinear_polynomial(rng)
        shape, failures = nonlinear_shape(p)
        assert not failures
        w = witness_via_nlp(p)
        # the degree data recomputed from the monomials: the nonlinear
        # variables, each monomial's level l_i and multiplicity m_i
        degrees = {v: max(m.degree_of(v) for m in p.monomials) for v in p.variables}
        nonlinear = [v for v in p.variables if degrees[v] >= 2]
        for i, m in enumerate(p.monomials):
            level = max([degrees[v] - m.degree_of(v) for v in nonlinear], default=0)
            m_i = max(1, level)
            assert len(shape.chosen[i]) == m_i
            gammas = [w.trace["gamma"][f"{i + 1},{j}"] for j in range(1, m_i + 1)]
            product = 1
            for g in gammas:
                product *= g
            assert product == w.trace["eta_i"][i]  # prod_j gamma_{i,j} = eta_i
            sets = [set(w.trace["I"][f"{i + 1},{j}"]) for j in range(1, m_i + 1)]
            for a, b in zip(sets, sets[1:]):  # nested I_{i,1} >= I_{i,2} >= ...
                assert b <= a
            for s, v in enumerate(nonlinear, start=1):
                exponent = degrees[v] - m.degree_of(v)  # g_s exponent in eta_i
                assert exponent == sum(1 for members in sets if s in members)
                assert exponent <= level
        checked += 1
    print(f"criterion 3 PASS: trace laws on {checked} randomized instances")


def test_criterion_4_schur_thresholds():
    started = time.perf_counter()
    schur = parse("x + y - z")

    assert rado_number(schur, 2, 10) == 5  # backtracking

    def oracle_bad_exists(n, injective):
        sets = {
            tuple(sorted(set(c)))
            for c in enumerate_constraints(schur, n, injective)
        }
        return any(
            all(len({colors[v - 1] for v in s}) > 1 for s in sets)
            for colors in itertools.product(range(2), repeat=n)
        )

    for n in range(1, 6):  # full 2^N enumeration confirms the threshold
        assert oracle_bad_exists(n, False) == (n < 5)

    injective_threshold = rado_number(schur, 2, 12, injective=True)
    assert injective_threshold == 9  # published weak Schur number WS(2) = 8
    for n in (8, 9):
        assert oracle_bad_exists(n, True) == (n < 9)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"threshold computation took {elapsed:.1f}s"
    print(
        f"criterion 4 PASS: Schur threshold 5, injective threshold 9 ({elapsed:.1f}s)"
    )


def test_criterion_5_oracle_equivalence():
    rng = random.Random(5)

    # zero-sum subset dynamic program vs exhaustive enumeration, k <= 12
    def oracle_rado(coeffs):
        for size in range(1, len(coeffs) + 1):
            for combo in itertools.combinations(range(1, len(coeffs) + 1), size):
                if sum(coeffs[i - 1] for i in combo) == 0:
                    return combo
        return None

    for _ in range(300):
        k = rng.randint(1, 12)
        coeffs = tuple(rng.choice([c for c in range(-9, 10) if c != 0]) for _ in range(k))
        assert rado_condition(coeffs) == oracle_rado(coeffs)

    # backtracking vs full coloring enumeration, N <= 12, r = 2
    for text in ("x + y - z", "x1 + x2 - y1*y2"):
        p = parse(text)
        for n in range(1, 13):
            sets = {
                tuple(sorted(set(c))) for c in enumerate_constraints(p, n)
            }
            oracle_bad = any(
                all(len({colors[v - 1] for v in s}) > 1 for s in sets)
                for colors in itertools.product(range(2), repeat=n)
            )
            outcome = find_bad_coloring(p, 2, n)
            assert outcome.kind == (BAD_COLORING if oracle_bad else FORCED)

    # isolation-rewrite enumerator vs full grid, |V(P)| <= 4, N <= 15
    def grid(p, n, injective):
        out = []
        for tup in itertools.product(range(1, n + 1), repeat=len(p.variables)):
            if injective and len(set(tup)) != len(tup):
                continue
            if p.evaluate(dict(zip(p.variables, tup))) == 0:
                out.append(tup)
        return out

    for text in ("x + y - z", "x + y - z^2", "x1 + x2 - y1*y2", "x*y + x*z - y*z"):
        p = parse(text)
        assert len(p.variables) <= 4
        for injective in (False, True):
            got = [
                tuple(w.assignment[v] for v in p.variables)
                for w in brute_force_solutions(p, 15, injective=injective)
            ]
            assert got == grid(p, 15, injective)
    print("criterion 5 PASS: DP/backtracking/enumerator all match their oracles")


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_criterion_6_determinism(capsys):
    # classify: identical JSON for every reordering of the input terms
    fixtures = {
        "x1*y1*y2 + 4*x2*y1*y2*y3 - 3*x3*y3 - 2*x4*y1 + x5": [
            "x5 - 2*x4*y1 + 4*x2*y1*y2*y3 + x1*y1*y2 - 3*x3*y3",
            "-3*x3*y3 + 4*x2*y1*y2*y3 + x1*y1*y2 + x5 - 2*x4*y1",
        ],
        "t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2": [
            "-t5*t6*z^2 + t3*t4*y^2 + t1*t2*x^2",
        ],
        "2*x^2 - 3*y^2": ["-3*y^2 + 2*x^2"],
    }
    for base, reorderings in fixtures.items():
        p = parse(base)
        # "input" necessarily differs between spellings; hash the rest
        reference = _sha(classify(p).to_json("", str(p)))
        for text in reorderings:
            q = parse(text)
            assert _sha(classify(q).to_json("", str(q))) == reference

    # search: identical JSON across repeated runs (wall time excluded)
    for text, n in (("x + y - z", 4), ("x + y - z", 5), ("x1 + x2 - y1*y2", 7)):
        hashes = set()
        for _ in range(3):
            argv = ["search", text, "--colors", "2", "--N", str(n), "--json"]
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            for timing in ("ms", "enumerate_ms", "search_ms"):
                payload["stats"].pop(timing)
            hashes.add(_sha(payload))
        assert len(hashes) == 1, (text, n)
    print("criterion 6 PASS: identical outputs across runs and reorderings")


def test_criterion_7_certificate_replay():
    results = run_corpus()
    for r in results:
        p = parse(r.fixture.text)
        assert replay_certificate(p, classify(p)), r.fixture.text

    rng = random.Random(7)
    replayed = 0
    for _ in range(500):
        p = random_nonlinear_polynomial(rng)
        v = classify(p)
        assert v.status == "PR" and v.certificate.theorem == "Thm4.2", str(p)
        assert replay_certificate(p, v), str(p)
        replayed += 1
    print(
        f"criterion 7 PASS: {len(results)} corpus + {replayed} random certificates replay"
    )
