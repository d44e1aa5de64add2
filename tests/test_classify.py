"""Classifier tests: frozen verdicts, oracle equivalences, certificate replay."""

import importlib
import itertools
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen_support import polynomials, random_nonlinear_polynomial
from rado_forge.check import NOT_PR, PR, UNKNOWN, replay_certificate
from rado_forge.classify import (
    Certificate,
    NoConstantTermError,
    NotLinearError,
    NotLevError,
    NotTwoMonomialsError,
    Verdict,
    classify,
    classify_affine,
    classify_k2,
    classify_lev,
    classify_linear,
    classify_multiplicative,
    classify_nonlinear,
    exclusive_variables,
    rado_condition,
)
from rado_forge.poly import Polynomial, negate_all_variables, parse, parse_with_constant
from rado_forge.search import find_bad_coloring


def _oracle_subset(values, target):
    """Exhaustive subset enumeration in (size, lex) order."""
    k = len(values)
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(1, k + 1), size):
            if sum(values[i - 1] for i in combo) == target:
                return combo
    return None


def _oracle_rado(coeffs):
    return _oracle_subset(coeffs, 0)


def _oracle_equal_sums(a, b):
    """First I1 in (size, lex) order whose sum some subset of b reaches, with
    that subset's (size, lex)-first I2."""
    for size in range(1, len(a) + 1):
        for combo in itertools.combinations(range(1, len(a) + 1), size):
            total = sum(a[i - 1] for i in combo)
            i2 = _oracle_subset(b, total)
            if i2 is not None:
                return combo, i2, total
    return None


# -- rado_condition ----------------------------------------------------------


def test_rado_condition_examples():
    assert rado_condition((2, 3, -5)) == (1, 2, 3)
    assert rado_condition((1, 1, -3)) is None
    assert rado_condition((1, -1)) == (1, 2)
    assert rado_condition((1, 1, -1)) == (1, 3)


def test_rado_condition_validation():
    with pytest.raises(ValueError):
        rado_condition(())
    with pytest.raises(ValueError):
        rado_condition((1, 0, -1))


@given(
    st.lists(
        st.integers(-9, 9).filter(lambda c: c != 0), min_size=1, max_size=12
    )
)
@settings(max_examples=300)
def test_rado_condition_matches_exhaustive_oracle(coeffs):
    assert rado_condition(tuple(coeffs)) == _oracle_rado(coeffs)


def test_rado_condition_exhaustive_small():
    for k in range(1, 4):
        for coeffs in itertools.product([c for c in range(-3, 4) if c != 0], repeat=k):
            assert rado_condition(coeffs) == _oracle_rado(coeffs)


@given(
    st.lists(st.integers(-9, 9).filter(lambda c: c != 0), min_size=1, max_size=10),
    st.integers(-40, 40).filter(lambda t: t != 0),
)
@settings(max_examples=300)
def test_minimal_subset_matches_exhaustive_oracle_for_nonzero_targets(values, target):
    classify_mod = importlib.import_module("rado_forge.classify")
    assert classify_mod._minimal_subset(tuple(values), target) == _oracle_subset(
        values, target
    )


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
)
@settings(max_examples=300)
def test_equal_sum_subsets_matches_exhaustive_oracle(a, b):
    classify_mod = importlib.import_module("rado_forge.classify")
    assert classify_mod._equal_sum_subsets(tuple(a), tuple(b)) == _oracle_equal_sums(a, b)


def test_equal_sum_subsets_builds_one_table_per_side(monkeypatch):
    classify_mod = importlib.import_module("rado_forge.classify")
    build = classify_mod._SubsetTable
    builds = []

    def counted(values, dense):
        builds.append((values, dense))
        return build(values, dense)

    monkeypatch.setattr(classify_mod, "_SubsetTable", counted)
    # 20 exceeds the right side's total 6 and is dropped; a's bitset rows meet
    # b's sums at one element, 6, and each side's table is built once
    assert classify_mod._equal_sum_subsets((1, 20, 6), (4, 2)) == ((3,), (1, 2), 6)
    assert builds == [((1, 6), True), ((4, 2), True)]

    # 2^10 subsets of the left exponents, none of whose sums the right reaches
    left = [2**i for i in range(10)]
    right = [2 ** (10 + j) for j in range(10)]
    text = "*".join(f"x{i}^{e}" for i, e in enumerate(left)) + " - " + "*".join(
        f"y{j}^{e}" for j, e in enumerate(right)
    )
    builds.clear()
    p = parse(text)
    v = classify(p)
    assert builds == []  # every right exponent exceeds 1023: no pair, no table
    assert (v.status, v.injective) == (NOT_PR, "no")
    assert v.certificate == Certificate(
        "MultiplicativeRado",
        {
            "left": p.monomials[0].monic_text(),
            "right": p.monomials[1].monic_text(),
            "left_exponents": left,
            "right_exponents": right,
        },
    )
    assert replay_certificate(p, v)


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
    st.lists(st.integers(1, 12), min_size=1, max_size=6),
)
@settings(max_examples=300)
def test_equal_sum_subsets_with_sparse_tables_matches_exhaustive_oracle(a, b):
    # the same answers when every table keeps its rows as sets, whose b grows
    # only until a's row meets it
    classify_mod = importlib.import_module("rado_forge.classify")
    limit = classify_mod._BITSET_LIMIT
    classify_mod._BITSET_LIMIT = 1
    try:
        assert classify_mod._equal_sum_subsets(tuple(a), tuple(b)) == _oracle_equal_sums(a, b)
    finally:
        classify_mod._BITSET_LIMIT = limit


def test_equal_sum_subsets_grows_b_only_until_a_sum_is_met(monkeypatch):
    classify_mod = importlib.import_module("rado_forge.classify")
    build = classify_mod._SubsetTable
    tables = []

    def kept(values, dense):
        tables.append(build(values, dense))
        return tables[-1]

    monkeypatch.setattr(classify_mod, "_SubsetTable", kept)
    # 2^40 exceeds b's total and is dropped; a's one sum 2^16 is b's first
    # exponent, so b's sparse table grows its first count and no other.  An
    # earlier exponent of a that b's first count misses is asked of b, which
    # stays at one count when the exponent is below b's least exponent
    b = tuple(2**i for i in range(16, 33))
    for a, i1 in [((2**16, 2**40), (1,)), ((3, 2**16, 2**32), (2,))]:
        tables.clear()
        assert classify_mod._equal_sum_subsets(a, b) == (i1, (1,), 65536)
        left, right = tables
        assert not right.dense and right.values == b
        assert [len(rows) for rows in right.exact] == [2] * len(b) + [2]
    # b grows only to the counts whose least sum is at most 2^20 + 5,
    # which no sum of b is: the least sum of 5 exponents is above it
    b = (2**16 + 1,) + tuple(2**i for i in range(17, 33))
    tables.clear()
    assert classify_mod._equal_sum_subsets((2**20 + 5, 2**16 + 1, 2**32), b) == ((2,), (1,), 2**16 + 1)
    left, right = tables
    assert [len(rows) for rows in right.exact] == [5] * (len(b) + 1)
    # a sum that b's first count misses but a later one reaches picks lower:
    # 3 = 1 + 2 beats the 1 that b's first count already meets
    tables.clear()
    monkeypatch.setattr(classify_mod, "_BITSET_LIMIT", 1)
    assert classify_mod._equal_sum_subsets((3, 1), (1, 2)) == ((1,), (1, 2), 3)


@pytest.mark.parametrize(
    "left, right, status",
    [
        ([2] * 24, 3, NOT_PR),  # 2^24 subsets of even sum; z^3 reaches 3 only
        ([2] * 24, 70_001, NOT_PR),  # the right side's table in dicts
        ([2 ** (16 + i) for i in range(24)], 2**16, PR),  # 2^24 left sums past the bitsets, I1 = [1]
        ([2] * 24, 48, PR),  # I1 is all 24 exponents, each smaller subset missing 48
        # every exponent is at most the other side's total; the walk past the
        # bitsets stops at I1 = [1] against a right table of two exponents
        ([2 ** (16 + i) for i in range(24)], (2**16, 2**39), PR),
    ],
)
def test_monomial_difference_answers_without_walking_every_subset(left, right, status):
    rhs = {"z": right} if isinstance(right, int) else dict(zip("zw", right))
    p = Polynomial.from_terms(
        [(1, {f"a{i:02d}": e for i, e in enumerate(left)}), (-1, rhs)]
    )
    started = time.perf_counter()
    v = classify(p)
    assert time.perf_counter() - started < 1.0
    assert (v.status, v.certificate.theorem) == (status, "MultiplicativeRado")
    assert replay_certificate(p, v)


def test_monomial_difference_past_the_bitset_walks_to_no_equal_sums():
    # w's 70,003 exceeds the left total 70,000 and is dropped, while both
    # left exponents stay; they total 70,000 >= 2^16, so both tables hold
    # sets of sums, and a's grows to its last count without meeting z^3's
    p = parse("x^40000*y^30000 - z^3*w^70003")
    v = classify(p)
    assert (v.status, v.certificate.theorem) == (NOT_PR, "MultiplicativeRado")
    assert v.trace[-1] == "multiplicative: no nonempty exponent subsets with equal sums"
    assert replay_certificate(p, v)


@given(
    st.lists(st.integers(-9, 9).filter(lambda c: c != 0), min_size=1, max_size=10),
    st.integers(-30, 30),
)
@settings(max_examples=300)
def test_zero_sum_is_the_same_on_both_sides_of_the_bitset_width(values, target):
    # scaling every value and the target by c keeps J; c pushes sum(|c * v|)
    # to 2^16 or more, so the scaled table holds sets where the other holds
    # bitsets, and either kind of row gives the same J on the same values
    classify_mod = importlib.import_module("rado_forge.classify")
    limit, table = classify_mod._BITSET_LIMIT, classify_mod._SubsetTable
    scale = limit // sum(map(abs, values)) + 1
    scaled = tuple(scale * v for v in values)
    assert sum(map(abs, values)) < limit <= sum(map(abs, scaled))
    j = classify_mod._minimal_subset(tuple(values), target)
    assert table(tuple(values), False).pick(target) == j
    assert classify_mod._minimal_subset(scaled, scale * target) == j
    assert j == _oracle_subset(values, target)
    assert rado_condition(scaled) == rado_condition(values) == _oracle_rado(values)


def _linear(coeffs):
    return Polynomial.from_terms((c, {f"x{i:02d}": 1}) for i, c in enumerate(coeffs))


@given(
    st.lists(st.integers(-9, 9).filter(lambda c: c != 0), min_size=1, max_size=10),
    st.sampled_from([1, 7, 20_000]),
)
@settings(max_examples=300, deadline=None)
def test_replay_linear_necessity_matches_exhaustive_oracle(coeffs, scale):
    p = _linear([scale * c for c in coeffs])
    v = Verdict(NOT_PR, "no", Certificate(
        "LinearNecessity", {"coefficients": list(p.coefficients)}))
    assert replay_certificate(p, v) == (_oracle_rado(p.coefficients) is None)


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=5),
    st.lists(st.integers(1, 12), min_size=1, max_size=5),
    st.sampled_from([1, 3, 20_000]),
)
@settings(max_examples=300, deadline=None)
def test_replay_multiplicative_not_pr_matches_exhaustive_oracle(a, b, scale):
    a, b = [scale * e for e in a], [scale * e for e in b]
    p = Polynomial.from_terms(
        [(1, {f"x{i}": e for i, e in enumerate(a)}), (-1, {f"y{j}": e for j, e in enumerate(b)})]
    )
    left, right = (m.monic_text() for m in p.monomials)
    v = Verdict(NOT_PR, "no", Certificate("MultiplicativeRado", {
        "left": left, "right": right, "left_exponents": a, "right_exponents": b}))
    assert replay_certificate(p, v) == (_oracle_equal_sums(a, b) is None)


def test_one_signed_coefficients_need_no_subset_sums(monkeypatch):
    classify_mod = importlib.import_module("rado_forge.classify")
    check_mod = importlib.import_module("rado_forge.check")

    def refuse(*args):
        raise AssertionError("a one-signed list needs no subset sums")

    monkeypatch.setattr(classify_mod, "_SubsetTable", refuse)
    for name in ("_subset_sums", "_sum_bits"):  # replay's, in check
        monkeypatch.setattr(check_mod, name, refuse)
    powers = [2**i for i in range(40)]  # 2^40 distinct subset sums
    assert rado_condition(powers) is None
    assert rado_condition([-c for c in powers]) is None
    linear = _linear(powers)
    homogeneous = Polynomial.from_terms(
        (-c, {f"x{i:02d}": 1, f"y{i:02d}": 1}) for i, c in enumerate(powers)
    )
    for p, theorem in ((linear, "LinearNecessity"), (homogeneous, "HomogeneousNecessity")):
        v = classify(p)
        assert (v.status, v.certificate.theorem) == (NOT_PR, theorem)
        assert replay_certificate(p, v)
    affine = classify_affine(linear, 2 * sum(powers))
    assert (affine.status, affine.certificate.payload["case"]) == (NOT_PR, "necessity")
    assert replay_certificate(linear, affine)


def test_zero_sum_tables_stay_small_below_the_bitset_width():
    # 1, 2, ..., 2^14 and a last coefficient of the other sign: every subset
    # sum is distinct, so a dict per suffix holds up to 2^16 entries (7.8 MB
    # at its peak); the bitsets of sum(|c|) < 2^16 bits stay near 1 MB
    powers = [2**i for i in range(15)]
    for last in (-(2**15), -(2**15 - 1)):  # no zero sum, then one of all 16
        p = _linear(powers + [last])
        tracemalloc.start()
        try:
            v = classify(p)
            assert replay_certificate(p, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.status == (NOT_PR if last == -(2**15) else PR)
        assert peak < 2_000_000


def test_zero_sum_past_the_bitsets_grows_only_to_the_size_of_j():
    # 22 coefficients of 70,000 to 900,000 and both signs, with a planted
    # pair: up to 2^22 distinct subset sums, but J has two elements, so the
    # table's sets grow two counts and hold a few hundred sums
    rng = random.Random(22)
    coeffs = [rng.choice((1, -1)) * rng.randrange(70_000, 900_000) for _ in range(21)]
    coeffs.append(-coeffs[11])
    j = _oracle_rado(coeffs)
    assert len(j) == 2
    started = time.perf_counter()
    assert rado_condition(coeffs) == j
    assert time.perf_counter() - started < 1.0
    p = _linear(coeffs)
    started = time.perf_counter()
    v = classify(p)
    assert time.perf_counter() - started < 1.0
    assert (v.status, v.certificate.payload["J"]) == (PR, list(j))
    assert replay_certificate(p, v)


def test_replay_splits_zero_sums_by_sign():
    # nine positive and nine negative coefficients past the bitset width,
    # with 2^18 distinct subset sums in all: split by sign, replay holds
    # 2^9 + 2^9 sums (6.6 MB at its peak for all 2^18 of them)
    positive = [2**17 + 2**i for i in range(9)]
    negative = [-(2**23 + 3 * 2**i) for i in range(9)]
    p = _linear(positive + negative)
    v = Verdict(NOT_PR, "no", Certificate("LinearNecessity", {"coefficients": list(p.coefficients)}))
    tracemalloc.start()
    try:
        assert replay_certificate(p, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # one negative coefficient more cancels the largest positive one
    p = _linear(positive + negative + [-(2**17 + 2**8)])
    v = Verdict(NOT_PR, "no", Certificate("LinearNecessity", {"coefficients": list(p.coefficients)}))
    assert not replay_certificate(p, v)


# -- classify_linear ----------------------------------------------------------


def test_classify_linear_examples():
    v = classify_linear(parse("x + y - z"))
    assert (v.status, v.injective) == (PR, "yes")
    assert v.certificate.payload["J"] == [1, 3]

    v = classify_linear(parse("x - y"))
    assert (v.status, v.injective) == (PR, "no")

    v = classify_linear(parse("x + y - 3*z"))
    assert v.status == NOT_PR
    assert v.certificate.theorem == "LinearNecessity"


def test_classify_linear_scaled_difference_not_injective():
    v = classify_linear(parse("2*x - 2*y"))
    assert (v.status, v.injective) == (PR, "no")


def test_classify_linear_rejects_nonlinear():
    with pytest.raises(NotLinearError):
        classify_linear(parse("x*y - z"))
    # and so does the affine rule, whatever the constant
    for constant in (-2, 1):
        with pytest.raises(NotLinearError, match=r"^x\*y - z is not linear$"):
            classify_affine(parse("x*y - z"), constant)


# -- classify_affine ----------------------------------------------------------


def test_classify_affine_examples():
    p, c = parse_with_constant("x + y - z + 1")
    v = classify_affine(p, c)
    assert v.status == PR
    assert parse("x + y - z").evaluate({"x": -1, "y": -1, "z": -1}) + 1 == 0

    p, c = parse_with_constant("x + y + 1")
    assert classify_affine(p, c).status == NOT_PR

    p, c = parse_with_constant("2*x - y - 3")
    v = classify_affine(p, c)
    assert v.status == PR
    assert v.certificate.payload["diagonal"] == 3


def test_classify_affine_requires_constant():
    with pytest.raises(NoConstantTermError):
        classify_affine(parse("x + y"), 0)


def test_classify_affine_necessity_replays_without_the_classifier(monkeypatch):
    p = parse("x + y - 3*z")
    v = classify_affine(p, -2)
    assert v.status == NOT_PR and v.certificate.payload["case"] == "necessity"
    # replay recomputes the zero-sum condition itself, so a classifier that
    # reports a wrong subset cannot change its answer
    classify_mod = importlib.import_module("rado_forge.classify")
    monkeypatch.setattr(classify_mod, "rado_condition", lambda coeffs: (1, 2))
    assert replay_certificate(p, v)


def test_classify_affine_no_monochromatic_solutions_when_not_pr():
    # x + y + 1 = 0 has no solutions over the positive integers at all
    assert all(a + b + 1 != 0 for a in range(1, 21) for b in range(1, 21))


# -- classify_multiplicative ----------------------------------------------------


def test_classify_multiplicative_examples():
    v = classify_multiplicative(parse("x1*x2 - y1*y2"))
    assert (v.status, v.injective) == (PR, "yes")
    assert (v.certificate.payload["I1"], v.certificate.payload["I2"]) == ([1], [1])

    v = classify_multiplicative(parse("x^2 - y^3"))
    assert v.status == NOT_PR

    v = classify_multiplicative(parse("x^2*y - z^2"))
    assert v.status == PR
    assert v.certificate.payload["common_sum"] == 2


def _assert_unknown(verdict, *trace):
    assert verdict.status == UNKNOWN
    assert verdict.injective == "unknown"
    assert verdict.certificate is None
    assert verdict.trace == trace


def test_classify_multiplicative_shape_gate():
    mismatch = "multiplicative: shape mismatch"
    _assert_unknown(classify_multiplicative(parse("x + y - z")), mismatch)  # three monomials
    _assert_unknown(classify_multiplicative(parse("3*x - 2*y")), mismatch)  # coefficients
    _assert_unknown(classify_multiplicative(parse("x^2*y - x*z")), mismatch)  # shared support


def test_classify_multiplicative_two_variable_equal_exponents():
    v = classify_multiplicative(parse("x^2 - y^2"))
    assert (v.status, v.injective) == (PR, "no")


# -- exclusive variables ----------------------------------------------------------


def test_exclusive_variables_examples():
    # canonical monomial order of x*y*z + y*t - w is: t*y, w, x*y*z
    ex = exclusive_variables(parse("x*y*z + y*t - w"))
    assert ex.exclusives == (("t",), ("w",), ("x", "z"))

    assert exclusive_variables(parse("x*y + y*z - x*z")) is None

    ex = exclusive_variables(parse("x - y"))
    assert ex.exclusives == (("x",), ("y",))


def test_exclusive_variables_are_really_exclusive():
    for text in ["x*y*z + y*t - w", "x1*y1 + x2*y1*y2 - x3", "x - y"]:
        p = parse(text)
        ex = exclusive_variables(p)
        for i, group in enumerate(ex.exclusives):
            for v in group:
                for j, m in enumerate(p.monomials):
                    if j == i:
                        assert m.degree_of(v) >= 1
                    else:
                        assert m.degree_of(v) == 0
        for i, group in enumerate(ex.degree_one):
            for v in group:
                assert p.monomials[i].degree_of(v) == 1


# -- classify_lev ----------------------------------------------------------


def test_classify_lev_examples():
    v = classify_lev(parse("x1*y1*y2 + 4*x2*y1*y2*y3 - 3*x3*y3 - 2*x4*y1 + x5"))
    assert (v.status, v.injective) == (PR, "yes")
    assert v.certificate.theorem == "Thm3.5"

    v = classify_lev(parse("x1 + x2 - y1*y2"))
    assert v.status == PR

    _assert_unknown(
        classify_lev(parse("x*y + y*z - x*z")),
        "lev: some monomial has no exclusive variable",
    )


def test_classify_lev_needs_three_monomials():
    # Thm 3.5 needs three monomials; classify_k2 decides two, the monomial
    # difference x*y - z among them, and classify_lev does not delegate
    for text in ("x*y - z", "2*x*y - 2*z*w"):
        _assert_unknown(classify_lev(parse(text)), "lev: fewer than three monomials")
    assert classify_k2(parse("x*y - z")).certificate.theorem == "MultiplicativeRado"
    # the earlier checks keep their order: no exclusive variable, then no zero sum
    _assert_unknown(classify_lev(parse("x*y - x")), "lev: some monomial has no exclusive variable")
    _assert_unknown(classify_lev(parse("x*y - 2*z")), "lev: coefficients admit no zero-sum subset")


def test_classify_lev_rejects_non_lev():
    with pytest.raises(NotLevError):
        classify_lev(parse("x^2 - y"))


# -- classify_nonlinear ----------------------------------------------------------


def test_classify_nonlinear_examples():
    v = classify_nonlinear(parse("t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2"))
    assert (v.status, v.injective) == (PR, "yes")
    assert v.certificate.payload["multiplicities"] == [2, 2, 2]

    v = classify_nonlinear(
        parse("x11*y1^2*y2^2 + x21*x22*z1*y2^2 - 2*x31*x32*z2*y1 + x41*x42")
    )
    assert v.status == PR
    assert v.certificate.payload["multiplicities"] == [1, 2, 2, 2]

    _assert_unknown(
        classify_nonlinear(parse("x + y - z^2")),
        "nonlinear: monomial 1 (x) needs 2 exclusive degree-1 variable(s), found 1",
        "nonlinear: monomial 2 (y) needs 2 exclusive degree-1 variable(s), found 1",
        "nonlinear: monomial 3 (z^2) needs 1 exclusive degree-1 variable(s), found 0",
    )


# -- classify_k2 ----------------------------------------------------------

K2_NOT_APPLICABLE = (
    "k2: decomposition not applicable (coefficients not (c,-c) or one monomial "
    "divides the other)"
)


def test_classify_k2_examples():
    v = classify_k2(parse("x^2*y - x*y*z"))
    assert (v.status, v.injective) == (PR, "no")
    assert v.certificate.payload["gcd"] == "x*y"
    assert v.certificate.payload["case"] == "variable_difference"

    v = classify_k2(parse("x*y - z*w"))
    assert (v.status, v.injective) == (PR, "yes")

    _assert_unknown(classify_k2(parse("3*x - 2*y")), K2_NOT_APPLICABLE)
    assert classify_linear(parse("3*x - 2*y")).status == NOT_PR


def test_classify_k2_divisible_monomials_not_applicable():
    _assert_unknown(classify_k2(parse("x^2*y - x*y")), K2_NOT_APPLICABLE)


def test_classify_k2_requires_two_monomials():
    with pytest.raises(NotTwoMonomialsError):
        classify_k2(parse("x + y - z"))


def test_classify_k2_scaled_coefficients():
    p = parse("2*x*y - 2*z")
    v = classify_k2(p)
    assert v.status == PR
    assert v.certificate.theorem == "K2Analysis"
    assert replay_certificate(p, v)

    q = parse("7*a^2 - 7*b")  # scaled, trivial gcd: still needs the wrapper
    w = classify_k2(q)
    assert w.status == NOT_PR
    assert w.certificate.theorem == "K2Analysis"
    assert replay_certificate(q, w)


# -- dispatcher ----------------------------------------------------------


def test_classify_dispatcher_examples():
    v = classify(parse("x*y + x*z - y*z"))
    assert (v.status, v.injective) == (UNKNOWN, "unknown")
    assert any("partition regular" in note for note in v.notes)

    v = classify(parse("x^2 + y^2 - z^2"))
    assert v.status == UNKNOWN

    v = classify(parse("2*x^2 - 3*y^2"))
    assert v.status == NOT_PR
    assert v.certificate.theorem == "HomogeneousNecessity"


LINEAR_SKIPPED = "linear: not applicable (nonlinear monomial present)"
K2_SKIPPED = "k2/multiplicative: not applicable (monomial count != 2)"
LEV_SKIPPED = "lev: not linear in each variable"
HOMOGENEOUS = (
    "homogeneous necessity: zero-sum condition fails, which is necessary for "
    "homogeneous partition regular polynomials"
)

# Full traces, one case per failure line a rule or the dispatcher can write.
TRACE_CASES = [
    ("x*y", "N", [
        LINEAR_SKIPPED,
        K2_SKIPPED,
        "lev: coefficients admit no zero-sum subset",
        HOMOGENEOUS,
    ]),
    ("x*y - x", "N", [
        LINEAR_SKIPPED,
        K2_NOT_APPLICABLE,
        "multiplicative: shape mismatch",
        "lev: some monomial has no exclusive variable",
    ]),
    ("3*x*y - 2*z", "N", [
        LINEAR_SKIPPED,
        K2_NOT_APPLICABLE,
        "multiplicative: shape mismatch",
        "lev: coefficients admit no zero-sum subset",
    ]),
    ("2*x^2 - 3*y^2", "N", [
        LINEAR_SKIPPED,
        K2_NOT_APPLICABLE,
        "multiplicative: shape mismatch",
        LEV_SKIPPED,
        "nonlinear: fewer than three monomials",
        HOMOGENEOUS,
    ]),
    ("x*y + x*z - y*z", "N", [
        LINEAR_SKIPPED,
        K2_SKIPPED,
        "lev: some monomial has no exclusive variable",
    ]),
    ("x1*y1 + x2*y2 + x3", "N", [
        LINEAR_SKIPPED,
        K2_SKIPPED,
        "lev: coefficients admit no zero-sum subset",
    ]),
    ("x + y - z^2", "N", [
        LINEAR_SKIPPED,
        K2_SKIPPED,
        LEV_SKIPPED,
        "nonlinear: monomial 1 (x) needs 2 exclusive degree-1 variable(s), found 1",
        "nonlinear: monomial 2 (y) needs 2 exclusive degree-1 variable(s), found 1",
        "nonlinear: monomial 3 (z^2) needs 1 exclusive degree-1 variable(s), found 0",
    ]),
    ("-6*a*c^3*y2 - 5*x^2 - 5*x", "N", [
        LINEAR_SKIPPED,
        K2_SKIPPED,
        LEV_SKIPPED,
        "nonlinear: coefficients admit no zero-sum subset",
    ]),
    ("-2*a*b^3*x + 6*b^3*x + 3*b^2 - 3*b - 4*c^2*z_1", "N", [
        LINEAR_SKIPPED,
        K2_SKIPPED,
        LEV_SKIPPED,
        "nonlinear: monomial 2 (b^3*x) has no exclusive variable",
        "nonlinear: monomial 3 (b^2) has no exclusive variable",
        "nonlinear: monomial 4 (b) has no exclusive variable",
    ]),
    ("x^2 + y^2 - z^2", "N", [
        LINEAR_SKIPPED,
        K2_SKIPPED,
        LEV_SKIPPED,
        "nonlinear: monomial 1 (x^2) needs 2 exclusive degree-1 variable(s), found 0",
        "nonlinear: monomial 2 (y^2) needs 2 exclusive degree-1 variable(s), found 0",
        "nonlinear: monomial 3 (z^2) needs 2 exclusive degree-1 variable(s), found 0",
    ]),
    ("x^2 + y^2 + z^2", "Z", [
        LINEAR_SKIPPED,
        K2_SKIPPED,
        LEV_SKIPPED,
        "nonlinear: coefficients admit no zero-sum subset",
        HOMOGENEOUS,
        "ring Z: sign-flipped form x^2 + y^2 + z^2 is not certified PR either",
    ]),
]


@pytest.mark.parametrize("text,ring,trace", TRACE_CASES)
def test_classify_trace_contract(text, ring, trace):
    assert list(classify(parse(text), ring).trace) == trace


def test_classify_runs_each_shape_check_once(monkeypatch):
    # the package's ``classify`` attribute is the function, not the module
    classify_mod = importlib.import_module("rado_forge.classify")

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("exclusive_variables", "nonlinear_shape", "rado_condition"):
        monkeypatch.setattr(classify_mod, name, counted(name, getattr(classify_mod, name)))
    # the rules may read the kept profile more than once; it is derived once
    poly_mod = importlib.import_module("rado_forge.poly")
    monkeypatch.setattr(
        poly_mod, "_degree_profile", counted("_degree_profile", poly_mod._degree_profile)
    )
    texts = [text for text, _ring, _trace in TRACE_CASES] + [
        "x1*y1*y2 + 4*x2*y1*y2*y3 - 3*x3*y3 - 2*x4*y1 + x5",
        "t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2",
        "x^2*y - x*y*z",
        "x + y - z",
        "3*x*y - 2*z",
        "2*x^2 - 3*y^2",
        "2*x*y - 2*z*w",
    ]
    # the rules are counted by code object, so a call through a reference
    # bound before the test runs is counted too
    rules = {
        getattr(classify_mod, name).__code__: name
        for name in ("classify_linear", "classify_affine", "classify_multiplicative",
                     "classify_k2", "classify_lev", "classify_nonlinear")
    }
    k2 = classify_mod.classify_k2.__code__
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in rules:
            runs.append((rules[frame.f_code], frame.f_back.f_code is k2))

    for text in texts:
        calls.clear()
        p = parse(text)
        runs.clear()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            classify(p)
        finally:
            sys.setprofile(previous)
        assert calls.get("exclusive_variables", 0) <= 1, text
        assert calls.get("nonlinear_shape", 0) <= 1, text
        assert calls.get("_degree_profile", 0) <= 1, text
        assert calls.get("rado_condition", 0) <= 2, text
        names = [name for name, _under_k2 in runs]
        assert names and len(names) == len(set(names)), (text, names)
        assert all(under_k2 for name, under_k2 in runs if name == "classify_multiplicative"), text


def test_classify_square_fixture_never_pr_with_failure_trace():
    v = classify(parse("x + y - z^2"))
    assert v.status == UNKNOWN
    assert any("exclusive degree-1" in line for line in v.trace)
    assert any("not partition regular" in note for note in v.notes)


def test_classify_single_monomial():
    v = classify(parse("x*y"))
    assert v.status == NOT_PR
    assert v.certificate.theorem == "HomogeneousNecessity"


def test_classify_all_positive_coefficients_note():
    v = classify(parse("x1*y1 + x2*y2 + x3"))
    assert v.status == UNKNOWN
    assert any("no solutions over the positive integers" in n for n in v.notes)


def test_classify_order_independent():
    base = parse("x1*y1*y2 + 4*x2*y1*y2*y3 - 3*x3*y3 - 2*x4*y1 + x5")
    reordered = [
        "x5 - 2*x4*y1 + 4*x2*y1*y2*y3 + x1*y1*y2 - 3*x3*y3",
        "-3*x3*y3 + x5 + x1*y1*y2 - 2*x4*y1 + 4*x2*y1*y2*y3",
    ]
    expected = classify(base)
    for text in reordered:
        p = parse(text)
        assert p == base
        v = classify(p)
        assert v.to_json("", str(p)) == expected.to_json("", str(base))


def test_classify_ring_z():
    v = classify(parse("x1*y1 + x2*y2 + x3"), ring="Z")
    assert (v.status, v.injective) == (PR, "yes")
    assert v.certificate.payload["sign_map"] == {
        "x1": -1, "x2": -1, "x3": -1, "y1": -1, "y2": -1
    }

    # N-regular polynomials stay regular over Z
    v = classify(parse("x + y - z"), ring="Z")
    assert v.status == PR

    v = classify(parse("x^2 + y^2 + z^2"), ring="Z")
    assert v.status == UNKNOWN

    for ring in ("Q", "n", ""):
        with pytest.raises(ValueError, match=f"^ring must be 'N' or 'Z', got {ring!r}$"):
            classify(parse("x + y - z"), ring=ring)


def test_negate_all_variables():
    assert negate_all_variables(parse("x1*y1 + x2*y2 + x3")) == parse(
        "x1*y1 + x2*y2 - x3"
    )
    assert negate_all_variables(parse("x^2 - y^2")) == parse("x^2 - y^2")


# -- consistency with search ----------------------------------------------------


def test_search_never_contradicts_pr_verdicts():
    # search outcomes are finite statements; a PR polynomial may show bad
    # colorings at small N (proves nothing) or Forced (consistent), and the
    # search module has no NOT_PR-shaped outcome at all.
    from rado_forge.search import BAD_COLORING, FORCED, INCONCLUSIVE

    for text, n in [("x + y - z", 4), ("x + y - z", 5), ("x1 + x2 - y1*y2", 6)]:
        p = parse(text)
        assert classify(p).status == PR
        outcome = find_bad_coloring(p, 2, n)
        assert outcome.kind in (BAD_COLORING, FORCED, INCONCLUSIVE)


def test_multiplicative_not_pr_matches_injective_search_evidence():
    # x^2 - y^3: apart from the all-ones fixed point (excluded by injective
    # mode) solutions are sparse, and a separating 2-coloring exists at
    # every desk-scale N.
    p = parse("x^2 - y^3")
    assert classify(p).status == NOT_PR
    for n in range(2, 13):
        outcome = find_bad_coloring(p, 2, n, injective=True)
        assert outcome.kind == "bad_coloring"


# -- certificate replay ----------------------------------------------------------


def test_replay_corpus_certificates():
    from rado_forge.corpus import load_fixtures

    for fixture in load_fixtures():
        p = parse(fixture.text)
        v = classify(p)
        assert replay_certificate(p, v), fixture.text


def test_replay_rejects_tampered_payloads():
    p = parse("x + y - z")
    v = classify(p)

    bad = Verdict(v.status, v.injective, Certificate("RadoLinear", {"J": [1, 2], "coefficients": [1, 1, -1]}))
    assert not replay_certificate(p, bad)

    q = parse("t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2")
    w = classify(q)
    payload = dict(w.certificate.payload, exclusive_choice=[["t1", "x"], ["t3", "t4"], ["t5", "t6"]])
    assert not replay_certificate(q, Verdict(PR, "yes", Certificate("Thm4.2", payload)))


def _thm35_with_shared_designation():
    p = parse("x1*y1 + x2*y1*y2 - x3")
    v = classify(p)
    assert v.certificate.theorem == "Thm3.5" and replay_certificate(p, v)
    payload = v.certificate.payload
    # designate y1, which monomials 1 and 2 share, with F kept consistent
    linear = ["y1"] + payload["linear_vars"][1:]
    products = [payload["linear_vars"][0]] + [y for y in payload["product_vars"] if y != "y1"]
    f_sets = [
        [j + 1 for j, y in enumerate(products) if m.degree_of(y) >= 1]
        for m in p.monomials
    ]
    return p, Verdict(v.status, v.injective, Certificate("Thm3.5", dict(
        payload, linear_vars=linear, product_vars=products, F=f_sets
    )))


def _k2_reduced_without_inner():
    p = parse("2*x*y - 2*z*w")
    v = classify(p)
    assert v.certificate.payload["case"] == "reduced" and replay_certificate(p, v)
    payload = {k: val for k, val in v.certificate.payload.items() if k != "inner"}
    return p, Verdict(v.status, v.injective, Certificate("K2Analysis", payload))


@pytest.mark.parametrize(
    "claim",
    [
        lambda: (parse("x + y - z"), Verdict(NOT_PR, "no", Certificate(
            "LinearNecessity", {"coefficients": [1, 1, -1]}))),
        lambda: (parse("x^2 + y^2 - z^2"), Verdict(NOT_PR, "no", Certificate(
            "HomogeneousNecessity", {"coefficients": [1, 1, -1], "degree": 2}))),
        lambda: (parse("x*y - z*w"), Verdict(NOT_PR, "no", Certificate(
            "MultiplicativeRado", {
                "left": "x*y", "right": "w*z",
                "left_exponents": [1, 1], "right_exponents": [1, 1],
            }))),
        _thm35_with_shared_designation,
        _k2_reduced_without_inner,
    ],
    ids=[
        "linear-necessity-with-zero-sum",
        "homogeneous-necessity-with-zero-sum",
        "multiplicative-not-pr-with-equal-sums",
        "thm35-shared-designated",
        "k2-reduced-without-inner",
    ],
)
def test_replay_rejects_false_claims(claim):
    p, verdict = claim()
    assert not replay_certificate(p, verdict)


def _thm35_without(key):
    p = parse("x1*y1 + x2*y1*y2 - x3")
    payload = dict(classify(p).certificate.payload)
    del payload[key]
    return p, Verdict(PR, "yes", Certificate("Thm3.5", payload))


@pytest.mark.parametrize(
    "claim",
    [
        lambda: (parse("x + y - z"), Verdict(PR, "yes", Certificate("RadoLinear", {}))),
        lambda: _thm35_without("F"),
        lambda: (
            parse("x + y - z"),
            Verdict(PR, "yes", Certificate("RadoLinear", {"coefficients": [1, 1, -1], "J": "12"})),
        ),
        lambda: (parse("x + y - z"), Verdict(PR, "yes", Certificate("NoSuchTheorem", {}))),
        lambda: (parse("x + y - z"), Verdict(PR, "yes", {"theorem": "RadoLinear"})),
    ],
    ids=["radolinear-empty", "thm35-without-F", "radolinear-J-string", "unknown-tag",
         "certificate-not-a-record"],
)
def test_replay_malformed_payload_is_false(claim):
    p, verdict = claim()
    assert replay_certificate(p, verdict) is False


def test_replay_linear_necessity_is_not_exponential():
    # 40 coefficients, all 1 mod 41 and of both signs: a subset of size
    # 1..40 sums to its size mod 41, so none sums to zero, and an exhaustive
    # replay would walk 2^40 subsets
    coeffs = [1 + 41 * m for m in range(-20, 21) if m]
    p = Polynomial.from_terms((c, {f"x{i:02d}": 1}) for i, c in enumerate(coeffs))
    v = Verdict(NOT_PR, "no", Certificate(
        "LinearNecessity", {"coefficients": list(p.coefficients)}))
    started = time.perf_counter()
    assert replay_certificate(p, v)
    assert time.perf_counter() - started < 1.0


def test_replay_random_nonlinear_instances():
    rng = random.Random(20260810)
    for _ in range(60):
        p = random_nonlinear_polynomial(rng)
        v = classify(p)
        assert v.status == PR
        assert v.certificate.theorem == "Thm4.2"
        assert replay_certificate(p, v)


@given(polynomials())
@settings(max_examples=300, deadline=None)
def test_classify_total_and_replayable(p):
    # the dispatcher must return a verdict for any canonical polynomial, and
    # whatever certificate it emits must survive independent replay
    v = classify(p)
    assert v.status in (PR, NOT_PR, UNKNOWN)
    assert replay_certificate(p, v)
    assert v.to_json("", str(p))["status"] == v.status


def _generated_linear_forms(seed, monkeypatch):
    """The texts of the generated linear forms of the benchmark's certify
    workload for ``seed``, every spelling of every pass."""
    import importlib.util
    import random as random_module
    from pathlib import Path

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # workloads imports oracles
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    passes = workloads.certify_inputs(random_module.Random(seed))
    return [task.text for tasks in passes for task in tasks if not task.lift]


def test_a_linear_form_is_parsed_classified_and_replayed_without_a_monomial(monkeypatch):
    # its monomials are made once, in parse, and classify and replay build
    # no polynomial of their own
    from rado_forge import poly

    texts = _generated_linear_forms(23, monkeypatch) + _generated_linear_forms(101, monkeypatch)
    assert len(texts) == 2 * 8 * 18
    texts += ["x-y", "x+y-3*z"]
    built = []
    table = poly._table

    def counted_table(monomials, *facts):
        built.append(len(monomials))
        return table(monomials, *facts)

    monkeypatch.setattr(poly, "_table", counted_table)
    verdicts = []
    for text in texts:
        built.clear()
        p = parse(text)
        assert built == [len(p.monomials)], text
        v = classify(p)
        assert replay_certificate(p, v)
        assert built == [len(p.monomials)], text
        verdicts.append((v.status, v.injective, v.certificate.theorem))
    assert verdicts[-2:] == [(PR, "no", "RadoLinear"), (NOT_PR, "no", "LinearNecessity")]
    assert {status for status, _, _ in verdicts} == {PR, NOT_PR}
    # the counter sees a polynomial built outside parse
    q = parse("x - y")
    built.clear()
    poly.Polynomial(q.monomials)
    assert built == [2]
