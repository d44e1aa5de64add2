"""Parser, canonical form, and structural-quantity tests."""

import copy
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rado_forge.poly import (
    ConstantTermError,
    EmptyPolynomialError,
    MissingVariableError,
    Monomial,
    Polynomial,
    PolySyntaxError,
    monomial_gcd,
    parse,
    parse_with_constant,
)

HEADLINE = "2*x1 + 3*x2*y1*y2 - 5*x3*y1 + x4*y2*y3"
WORKED = "x11*y1^2*y2^2 + x21*x22*z1*y2^2 - 2*x31*x32*z2*y1 + x41*x42"


# -- parsing -----------------------------------------------------------------


def test_parse_headline_polynomial():
    p = parse(HEADLINE)
    assert len(p.monomials) == 4
    assert p.coefficients == (2, 3, -5, 1)


def test_parse_cancellation():
    p = parse("x - x + y - z")
    assert p.coefficients == (1, -1)
    assert p.variables == ("y", "z")


def test_parse_square():
    p = parse("x + y - z^2")
    assert len(p.monomials) == 3
    assert p.degree_of("z") == 2


def test_parse_combines_like_terms():
    assert parse("x*y + 2*y*x") == parse("3*x*y")
    assert parse("x*x*y") == parse("x^2*y")


def test_parse_leading_sign_and_whitespace():
    assert parse("-x+y") == parse(" - x + y ")
    assert parse("+x") == parse("x")


def test_parse_implicit_coefficient_product():
    assert parse("2x") == parse("2*x")


def test_parse_exponent_zero_becomes_constant():
    with pytest.raises(ConstantTermError):
        parse("x^0 + y")


def test_parse_syntax_error_position():
    with pytest.raises(PolySyntaxError) as err:
        parse("x + * y")
    assert err.value.position == 4
    with pytest.raises(PolySyntaxError):
        parse("x ^ y")
    with pytest.raises(PolySyntaxError):
        parse("x + + y")
    with pytest.raises(PolySyntaxError):
        parse("")


# Every raise site of the parser, with the exact position, expected and found
# values; the CLI prints the position as a caret, so these are its contract.
SYNTAX_ERRORS = [
    # a character no token starts with; it is reported before any grammar error
    ("x # y", 2, "integer, variable or operator", "'#'"),
    ("x + y   $", 8, "integer, variable or operator", "'$'"),
    ("x + y \t @", 8, "integer, variable or operator", "'@'"),
    ("é", 0, "integer, variable or operator", "'é'"),
    ("_x", 0, "integer, variable or operator", "'_'"),
    ("x + _y", 4, "integer, variable or operator", "'_'"),
    ("(x)", 0, "integer, variable or operator", "'('"),
    ("x + * y #", 8, "integer, variable or operator", "'#'"),
    # empty and blank input
    ("", 0, "polynomial", "end of input"),
    ("   ", 3, "polynomial", "end of input"),
    ("\t\n", 2, "polynomial", "end of input"),
    # a sign with no term
    ("-", 1, "term", "end of input"),
    ("x +", 3, "term", "end of input"),
    ("x - ", 4, "term", "end of input"),
    ("x +\n", 4, "term", "end of input"),
    ("+ * x", 2, "term", "'*'"),
    ("x + * y", 4, "term", "'*'"),
    ("x + + y", 4, "term", "'+'"),
    # '*' with no variable, including a dangling '2*'
    ("2*", 2, "variable", "end of input"),
    ("2 * ", 4, "variable", "end of input"),
    ("3*4", 2, "variable", "'4'"),
    ("x*", 2, "variable", "end of input"),
    ("x * + y", 4, "variable", "'+'"),
    ("x * * y", 4, "variable", "'*'"),
    ("x**2", 2, "variable", "'*'"),
    ("x - y * 2", 8, "variable", "'2'"),
    # '^' with no integer
    ("x^", 2, "exponent integer", "end of input"),
    ("x^ ", 3, "exponent integer", "end of input"),
    ("x ^ y", 4, "exponent integer", "'y'"),
    ("x^-2", 2, "exponent integer", "'-'"),
    # two terms with no operator between them
    ("x y", 2, "'+' or '-'", "'y'"),
    ("x 2", 2, "'+' or '-'", "'2'"),
    ("2 3", 2, "'+' or '-'", "'3'"),
    ("x^2 y", 4, "'+' or '-'", "'y'"),
    ("2x y", 3, "'+' or '-'", "'y'"),
    ("x + 2 x y", 8, "'+' or '-'", "'y'"),
    ("2^3", 1, "'+' or '-'", "'^'"),
    ("x + 3 ^ 2", 6, "'+' or '-'", "'^'"),
    ("x ^ 2 ^ 3", 6, "'+' or '-'", "'^'"),
]


@pytest.mark.parametrize("text, position, expected, found", SYNTAX_ERRORS)
def test_parse_syntax_error_contract(text, position, expected, found):
    for entry in (parse, parse_with_constant):
        with pytest.raises(PolySyntaxError) as err:
            entry(text)
        assert (err.value.position, err.value.expected, err.value.found) == (
            position,
            expected,
            found,
        )
        assert str(err.value) == f"at position {position}: expected {expected}, found {found}"


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("2x", "2*x"),
        ("+x", "x"),
        ("x ^ 2", "x^2"),
        ("x\t+\ny", "x + y"),
        (" \tx*x - y\n", "x^2 - y"),
        ("x*x", "x^2"),
        ("٣x", "3*x"),  # \d reads any Unicode decimal digit
        ("x^٣ + 2y", "x^3 + 2*y"),
        ("007*x", "7*x"),
        ("-x^1*y^2*x", "-x^2*y^2"),
    ],
)
def test_parse_accepted_spellings(text, canonical):
    assert str(parse(text)) == canonical


def test_parse_constant_term_rejected():
    with pytest.raises(ConstantTermError):
        parse("x + y + 1")
    with pytest.raises(ConstantTermError):
        parse("3")


def test_parse_full_cancellation():
    with pytest.raises(EmptyPolynomialError):
        parse("x - x")
    with pytest.raises(EmptyPolynomialError):
        parse_with_constant("x - x + 1 - 1")


def test_parse_with_constant_splits():
    p, c = parse_with_constant("x + y + 1")
    assert str(p) == "x + y" and c == 1
    p, c = parse_with_constant("2*x - y - 3")
    assert p.coefficients == (2, -1) and c == -3


# -- printing ----------------------------------------------------------------


def test_print_canonical_order():
    assert str(parse("y+x")) == "x + y"
    assert str(parse("x*x*y")) == "x^2*y"


def test_print_headline_round_trips_verbatim():
    assert str(parse(HEADLINE)) == HEADLINE


def test_print_negative_leading_term():
    assert str(parse("-2*x + y")) == "-2*x + y"
    assert parse(str(parse("-2*x + y"))) == parse("-2*x + y")


# -- degree profile ------------------------------------------------------------


def test_degree_profile_worked_example():
    prof = parse(WORKED).degree_profile()
    assert prof.nonlinear == ("y1", "y2")
    assert prof.levels == (0, 2, 2, 2)
    assert prof.multiplicities == (1, 2, 2, 2)


def test_degree_profile_linear():
    prof = parse("x + y - z").degree_profile()
    assert prof.nonlinear == ()
    assert prof.levels == (0, 0, 0)
    assert prof.multiplicities == (1, 1, 1)
    assert prof.partial_degree == 1


def test_degree_profile_square():
    prof = parse("x + y - z^2").degree_profile()
    assert prof.nonlinear == ("z",)
    assert prof.levels == (2, 2, 0)


# -- evaluation ----------------------------------------------------------------


def test_evaluate_examples():
    assert parse("x + y - z").evaluate({"x": 1, "y": 1, "z": 2}) == 0
    assert parse("x1+x2-y1*y2").evaluate({"x1": 10, "x2": 20, "y1": 3, "y2": 10}) == 0
    worked_witness = {
        "x11": 2, "x21": 2, "x22": 2, "x31": 6, "x32": 9, "x41": 6, "x42": 12,
        "z1": 2, "z2": 1, "y1": 2, "y2": 3,
    }
    assert parse(WORKED).evaluate(worked_witness) == 0


def test_evaluate_missing_variable():
    with pytest.raises(MissingVariableError):
        parse("x + y - z").evaluate({"x": 1, "y": 1})
    # the missing variables in name order, an extra key beside them
    with pytest.raises(MissingVariableError) as err:
        parse("x*y^2 - z + 3*w").evaluate({"y": 1, "extra": 1})
    assert err.value.missing == ("w", "x", "z")


def test_evaluate_ignores_extra_keys():
    assert parse("x - y").evaluate({"x": 4, "y": 4, "unused": 9}) == 0


# -- monomial gcd ----------------------------------------------------------------


def _monomial(text):
    return parse(text).monomials[0]


def test_monomial_gcd_examples():
    assert monomial_gcd(_monomial("x*y^2"), _monomial("y*z")).monic_text() == "y"
    assert monomial_gcd(_monomial("x"), _monomial("y")).exponents == ()
    assert str(Monomial(3, ())) == "3"  # a bare constant prints as its coefficient
    assert monomial_gcd(_monomial("x^2*y"), _monomial("x*y")).monic_text() == "x*y"


# -- predicates ----------------------------------------------------------------


def test_predicates():
    p = parse("t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2")
    assert p.is_homogeneous and not p.is_lev and not p.is_linear
    assert p.monomials[0].degree == 4
    q = parse("x + y - z")
    assert q.is_linear and q.is_lev and q.is_homogeneous
    r = parse("x1*y1 + x2*y1*y2 - x3")
    assert r.is_lev and not r.is_homogeneous and not r.is_linear


# -- property tests ----------------------------------------------------------------

from gen_support import polynomials  # noqa: E402  (shared strategy)


@given(polynomials())
@settings(max_examples=200)
def test_round_trip(p):
    assert parse(str(p)) == p


@given(polynomials())
@settings(max_examples=100)
def test_canonicalization_idempotent(p):
    rebuilt = Polynomial.from_terms((m.coefficient, m.exponent_map()) for m in p.monomials)
    assert rebuilt == p
    assert str(rebuilt) == str(p)


@given(polynomials(), st.integers(1, 7))
@settings(max_examples=100)
def test_homogeneous_scaling(p, t):
    if not p.is_homogeneous:
        return
    rng = random.Random(hash((str(p), t)) & 0xFFFF)
    v = {var: rng.randint(1, 50) for var in p.variables}
    scaled = {var: t * val for var, val in v.items()}
    d = p.monomials[0].degree
    assert p.evaluate(scaled) == t**d * p.evaluate(v)


@given(polynomials())
@settings(max_examples=100)
def test_evaluate_matches_independent_recomputation(p):
    rng = random.Random(hash(str(p)) & 0xFFFF)
    v = {var: rng.randint(-20, 20) for var in p.variables}
    expected = 0
    for m in p.monomials:
        term = m.coefficient
        for var, e in m.exponents:
            for _ in range(e):
                term = term * v[var]
        expected += term
    assert p.evaluate(v) == expected


@given(polynomials(), st.data())
@settings(max_examples=200)
def test_evaluate_many_matches_evaluate_row_by_row(p, data):
    # the variables in any order with an unused name among them, and any
    # number of rows, none and one included
    order = data.draw(st.permutations(p.variables + ("unused",)))
    row = st.tuples(*[st.integers(1, 50)] * len(order))
    rows = data.draw(st.lists(row, max_size=6))
    assert p.evaluate_many(order, rows) == [p.evaluate(dict(zip(order, r))) for r in rows]


@given(polynomials(), st.data())
@settings(max_examples=100)
def test_evaluate_many_missing_variable(p, data):
    dropped = data.draw(st.sampled_from(p.variables))
    order = [v for v in p.variables if v != dropped]
    with pytest.raises(MissingVariableError) as many:
        p.evaluate_many(order, [(1,) * len(order)])
    with pytest.raises(MissingVariableError) as one:
        p.evaluate(dict.fromkeys(order, 1))
    assert many.value.missing == one.value.missing == (dropped,)
    with pytest.raises(MissingVariableError):
        p.evaluate_many(order, [])


def test_evaluate_many_examples():
    p = parse("3*x^3*y - 7*y^2 - z")  # exponents above 1, negative coefficients
    assert p.evaluate_many(("z", "y", "x"), []) == []
    assert p.evaluate_many(("z", "y", "x"), [(1, 2, 3)]) == [3 * 27 * 2 - 7 * 4 - 1]
    assert p.evaluate_many(("x", "y", "z"), [(1, 1, 1), (2, 1, 17)]) == [-5, 0]
    big = 10**30
    assert p.evaluate_many(("x", "y", "z"), [(big, 1, 1)]) == [3 * big**3 - 8]
    assert parse("x").evaluate_many(("x",), [(4,), (5,)]) == [4, 5]


@given(polynomials(), polynomials())
@settings(max_examples=100)
def test_gcd_divides_both(p, q):
    m1, m2 = p.monomials[0], q.monomials[0]
    g = monomial_gcd(m1, m2)
    for v, e in g.exponents:
        assert e <= m1.degree_of(v)
        assert e <= m2.degree_of(v)


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(0, (("x", 1),))
    with pytest.raises(ValueError):
        Monomial(1, (("x", 0),))
    with pytest.raises(ValueError):
        Monomial(1, (("y", 1), ("x", 1)))
    # a name that is not a variable name, in a record and in a term
    with pytest.raises(ValueError, match="^invalid variable name: '2x'$"):
        Monomial(1, [("2x", 1)])
    with pytest.raises(ValueError, match="^invalid variable name: 'x y'$"):
        Polynomial.from_terms([(1, {"x y": 1})])
    # any iterable of pairs is kept as a tuple of tuples: hashable, and equal
    # to the monomial given a tuple
    built = Monomial(1, (("x", 1),))
    for given in ([("x", 1)], iter([("x", 1)]), [["x", 1]], (["x", 1],)):
        m = Monomial(1, given)
        assert m == built and hash(m) == hash(built)
        assert type(m.exponents) is tuple and type(m.exponents[0]) is tuple
    with pytest.raises(ValueError):
        Monomial(1, iter([("y", 1), ("x", 1)]))


def test_polynomial_constructor_contract():
    x = (("x", 1),)
    assert Polynomial([Monomial(2, x), Monomial(3, x)]) == parse("5*x")
    with pytest.raises(EmptyPolynomialError) as empty:
        Polynomial([Monomial(2, x), Monomial(-2, x)])
    assert str(empty.value) == str(EmptyPolynomialError())
    with pytest.raises(EmptyPolynomialError):
        Polynomial([])
    with pytest.raises(ConstantTermError) as constant:
        Polynomial([Monomial(2, x), Monomial(7, ())])
    assert constant.value.constant == 7
    assert str(constant.value) == str(ConstantTermError(7))
    with pytest.raises(ConstantTermError):
        Polynomial([Monomial(7, ())])
    # a constant that cancels among repeated terms is no constant
    assert Polynomial([Monomial(7, ()), Monomial(2, x), Monomial(-7, ())]) == parse("2*x")
    repeated = Polynomial.from_terms(
        [(1, {"x": 1, "y": 2}), (-1, {"z": 1}), (4, {"y": 2, "x": 1}), (0, {"w": 1})]
    )
    assert repeated == parse("5*x*y^2 - z")
    assert repeated.variables == ("x", "y", "z")
    # exponents given as lists, outer or inner, build the canonical monomials
    reference = parse("x - 2*x*y^3")
    for pair in (list, tuple):
        for seq in (list, tuple):
            given = [Monomial(1, seq([pair(("x", 1))])), Monomial(-2, seq([pair(("x", 1)), pair(("y", 3))]))]
            for order in (given, given[::-1]):
                q = Polynomial(order)
                assert q == reference and hash(q) == hash(reference)
                assert _fields(q.monomials) == _fields(reference.monomials)
    # only Monomial records: a plain pair, one that a Monomial would refuse,
    # and a str are each named in the error
    for item in [(1, (("y", 1),)), (1, (("y", 0),)), "y"]:
        for given in ([item], [Monomial(1, x), item]):
            with pytest.raises(TypeError, match=re.escape(repr(item))):
                Polynomial(given)


@given(polynomials(), st.data())
@settings(max_examples=100, deadline=None)
def test_polynomial_does_not_depend_on_monomial_order(p, data):
    shuffled = data.draw(st.permutations(p.monomials))
    q = Polynomial(shuffled)
    assert q == p and q.monomials == p.monomials and q.variables == p.variables
    # splitting each coefficient into two like terms combines back
    halves = [
        Monomial(c, m.exponents)
        for m in shuffled
        for c in (m.coefficient + 1, -1)
        if c != 0
    ]
    assert Polynomial(halves) == p


def test_polynomial_immutable():
    p = parse("x + y")
    with pytest.raises(AttributeError):
        p.monomials = ()


@pytest.mark.parametrize("text", ["x + y - z", HEADLINE, WORKED, "x^3 - 2*y^2*z"])
def test_polynomial_copy_and_pickle_round_trip(text):
    p = parse(text)
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p
        assert q.variables == p.variables
        assert str(q) == str(p)
    with pytest.raises(AttributeError):
        p.monomials = ()


@given(polynomials())
@settings(max_examples=100, deadline=None)
def test_variables_computed_once(p):
    assert p.variables is p.variables
    assert p.variables == tuple(sorted({v for m in p.monomials for v, _ in m.exponents}))
    with pytest.raises(AttributeError):
        p.variables = ()
    # equality and the hash still depend on the monomials alone
    q = Polynomial(p.monomials)
    assert q == p and hash(q) == hash(p)


# -- construction reads each structural quantity once ---------------------------


def _respell(p, draw):
    """A spelling of p with renamed variables, shuffled terms and factors,
    repeated factors, spare whitespace and an explicit leading sign."""
    names = draw(st.permutations(
        ["a", "b", "c", "x", "y2", "z_1", "w9", "Q", "t", "u7", "v_", "k", "m1n", "p", "r", "s"]
    ))
    rename = dict(zip(p.variables, names))
    pieces = []
    for m in draw(st.permutations(p.monomials)):
        factors = []
        for v, e in m.exponents:
            split = draw(st.integers(0, e - 1))  # v^e as v^split * v^(e - split)
            parts = [split, e - split] if split else [e]
            factors += [rename[v] if d == 1 else f"{rename[v]}^{d}" for d in parts]
        factors = draw(st.permutations(factors))
        space = draw(st.sampled_from(["", " ", "\t"]))
        if abs(m.coefficient) != 1 or draw(st.booleans()):
            times = draw(st.sampled_from(["*", f"{space}*{space}", " ", ""]))
            factors = [f"{abs(m.coefficient)}{times}{factors[0]}"] + factors[1:]
        sign = "-" if m.coefficient < 0 else "+"
        pieces.append(f"{sign}{space}{f'{space}*{space}'.join(factors)}")
    return " ".join(pieces), rename


def _fixture_polynomials():
    from rado_forge.corpus import load_fixtures

    return [parse(f.text) for f in load_fixtures()]


@given(st.one_of(polynomials(), st.sampled_from(_fixture_polynomials())), st.data())
@settings(max_examples=150, deadline=None)
def test_parse_builds_valid_monomials_and_exact_structure(p, data):
    text, rename = _respell(p, data.draw)
    q = parse(text)
    assert q == Polynomial.from_terms(
        (m.coefficient, {rename[v]: e for v, e in m.exponents}) for m in p.monomials
    )
    for r in (p, q, parse(str(p))):
        for m in r.monomials:
            again = Monomial(m.coefficient, m.exponents)  # re-validated
            assert again == m
            assert m.variables == tuple(v for v, _ in m.exponents)
            assert m.degree == sum(e for _, e in m.exponents)
            for v in r.variables + ("unused",):
                assert m.degree_of(v) == dict(m.exponents).get(v, 0)
        # descending lexicographic order of the exponent vectors over the sorted names
        vectors = [[dict(m.exponents).get(v, 0) for v in r.variables] for m in r.monomials]
        assert vectors == sorted(vectors, reverse=True)
        totals = [sum(e for _, e in m.exponents) for m in r.monomials]
        exponents = [e for m in r.monomials for _, e in m.exponents]
        assert r.is_linear == all(t == 1 for t in totals)
        assert r.is_lev == all(e == 1 for e in exponents)
        assert r.is_homogeneous == (len(set(totals)) == 1)
        assert r.is_one_signed == (len({m.coefficient > 0 for m in r.monomials}) == 1)
        degrees = {
            v: max(dict(m.exponents).get(v, 0) for m in r.monomials) for v in r.variables
        }
        for v in r.variables + ("unused",):
            assert r.degree_of(v) == degrees.get(v, 0)
        nonlinear = tuple(v for v in r.variables if degrees[v] >= 2)
        levels = tuple(
            max([degrees[v] - m.degree_of(v) for v in nonlinear] or [0]) for m in r.monomials
        )
        prof = r.degree_profile()
        assert prof is r.degree_profile()  # built once
        assert prof.partial_degree == max(degrees.values())
        assert prof.nonlinear == nonlinear
        assert prof.levels == levels
        assert prof.multiplicities == tuple(max(1, l) for l in levels)


# -- every entry point builds the same polynomial ------------------------------


def _canonical(terms):
    """The canonical monomials of (coefficient, {variable: exponent}) terms,
    built one by one through ``Monomial`` and ordered by their exponent
    vectors, without the builder that the entry points share."""
    sums = {}
    for c, exps in terms:
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        sums[key] = sums.get(key, 0) + c
    kept = {key: c for key, c in sums.items() if c}
    names = sorted({v for key in kept for v, _ in key})
    vector = lambda key: [dict(key).get(v, 0) for v in names]  # noqa: E731
    return [Monomial(kept[key], key) for key in sorted(kept, key=vector, reverse=True)]


def _entry_points(terms, text, order):
    """The polynomial of ``terms`` from each construction entry point:
    ``text`` spells the terms, and ``order`` permutes their canonical
    monomials for the constructor, which also gets each term split in two."""
    canonical = _canonical(terms)
    split = [
        Monomial(part, tuple(sorted((v, e) for v, e in exps.items() if e)))
        for c, exps in terms
        for part in (c + 1, -1)
        if part
    ]
    with_constant, constant = parse_with_constant(f"{text} + 3")
    assert constant == 3
    return {
        "parse": parse(text),
        "parse_with_constant": with_constant,
        "shuffled": Polynomial([canonical[i] for i in order]),
        "split": Polynomial(split),
        "from_terms": Polynomial.from_terms(terms),
    }


def _reference_text(monomials):
    """``str`` of a polynomial, spelled from its monomials one by one."""
    parts = [str(monomials[0])]
    for m in monomials[1:]:
        c = abs(m.coefficient)
        term = m.monic_text() if c == 1 else f"{c}*{m.monic_text()}"
        parts.append(f" - {term}" if m.coefficient < 0 else f" + {term}")
    return "".join(parts)


def _reference_value(monomials, values):
    total = 0
    for m in monomials:
        term = m.coefficient
        for v, e in m.exponents:
            term *= values[v] ** e
        total += term
    return total


def _fields(monomials):
    """Every public field of each monomial, its type and what it derives."""
    return [
        (type(m), tuple(m), m.coefficient, m.exponents, m.variables, m.degree, m.exponent_map())
        for m in monomials
    ]


def _identity(q, names, rows):
    """What ``hash``, ``str``, ``repr``, ``evaluate`` and ``evaluate_many``
    read of q."""
    return (
        hash(q),
        str(q),
        repr(q),
        q.evaluate(dict(zip(names, rows[0]))),
        q.evaluate_many(names, rows),
    )


def _assert_built_alike(terms, text, order):
    expected = _canonical(terms)
    names = tuple(sorted({v for m in expected for v in m.variables}))
    degrees = {v: max(m.degree_of(v) for m in expected) for v in names}
    totals = {m.degree for m in expected}
    signs = {m.coefficient > 0 for m in expected}
    reference = Polynomial(expected)
    assert _fields(reference.monomials) == _fields(expected)
    rows = [[2 + i + 3 * j for j in range(len(names))] for i in range(3)]
    identity = (
        hash(tuple(expected)),
        _reference_text(expected),
        f"Polynomial({_reference_text(expected)!r})",
        _reference_value(expected, dict(zip(names, rows[0]))),
        [_reference_value(expected, dict(zip(names, row))) for row in rows],
    )
    # each entry point twice, so that two builds of one entry point agree
    firsts = _entry_points(terms, text, order)
    for entry, q in _entry_points(terms, text, order).items():
        first = firsts[entry]
        assert first == reference and reference == first and first == q, entry
        assert _identity(first, names, rows) == _identity(q, names, rows) == identity, entry
        assert pickle.dumps(first) == pickle.dumps(q), entry
        assert _fields(pickle.loads(pickle.dumps(q)).monomials) == _fields(expected), entry
        assert _fields(first.monomials) == _fields(expected), entry
        assert _fields(q.monomials) == _fields(expected), entry
        for m in q.monomials:
            assert list(m.exponent_map()) == list(m.variables), entry  # in name order
        assert q.variables == names, entry
        assert q.coefficients == tuple(m.coefficient for m in expected), entry
        assert q._degrees == degrees, entry
        assert (q.is_linear, q.is_lev, q.is_homogeneous, q.is_one_signed) == (
            totals == {1}, set(degrees.values()) == {1}, len(totals) == 1, len(signs) == 1
        ), entry


def _spell(terms, draw):
    """Text for ``terms`` in their order: each power split at random into two
    factors, zero powers kept as written, the factors shuffled."""
    pieces = []
    for c, exps in terms:
        factors = []
        for v, e in exps.items():
            split = draw(st.integers(0, e - 1)) if e else 0
            factors += [f"{v}^{split}", f"{v}^{e - split}"] if split else [f"{v}^{e}"]
        factors = draw(st.permutations(factors))
        pieces.append(f"{'-' if c < 0 else '+'} {abs(c)}*{'*'.join(factors)}")
    return " ".join(pieces)


@given(st.one_of(polynomials(), st.sampled_from(_fixture_polynomials())), st.data())
@settings(max_examples=150, deadline=None)
def test_every_entry_point_builds_the_same_polynomial(p, data):
    # each coefficient split into two like terms, the terms shuffled, each
    # term's powers in reverse name order and sometimes with a zero power
    terms = []
    for m in p.monomials:
        for part in (m.coefficient - 1, 1):
            exps = dict(reversed(m.exponents))
            if data.draw(st.booleans()):  # a zero power of a name the term lacks
                exps.setdefault(data.draw(st.sampled_from(["a", "x", "q9"])), 0)
            terms.append((part, exps))
    terms = [term for term in data.draw(st.permutations(terms)) if term[0]]
    order = data.draw(st.permutations(range(len(p.monomials))))
    _assert_built_alike(terms, _spell(terms, data.draw), order)
    assert _fields(p.monomials) == _fields(_canonical(terms))


@pytest.mark.parametrize("text", ["x + y - z", "y*x - z", "x^0*y - 2*z + y*x*w", HEADLINE, WORKED])
def test_the_view_is_built_once_and_reads_like_the_table(text, monkeypatch):
    # the monomials are made once, by the builder, and read as a plain field
    from rado_forge import poly

    builds = []
    build = poly._table

    def counted(monomials, *facts):
        builds.append(list(monomials))
        return build(monomials, *facts)

    monkeypatch.setattr(poly, "_table", counted)
    p = parse(text)
    assert builds == [list(p.monomials)]
    assert p.monomials is p.monomials and builds == [list(p.monomials)]
    for m in p.monomials:
        assert type(m) is Monomial and tuple(m) == (m.coefficient, m.exponents)
    assert p.coefficients == tuple(c for c, _ in p.monomials)
    assert not hasattr(p, "__dict__") and not hasattr(p.monomials[0], "__dict__")


def test_copying_a_polynomial_keeps_its_monomials():
    for text in ("x + y - z", "y*x - z", HEADLINE, WORKED, "x^3 - 2*y^2*z"):
        p = parse(text)
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and _fields(q.monomials) == _fields(p.monomials)
            assert q.variables == p.variables and q.coefficients == p.coefficients
        # monomials out of order or repeated are summed and sorted
        for given in (p.monomials[::-1], p.monomials + p.monomials[:1]):
            if given == p.monomials:
                continue
            r = Polynomial(given)
            assert _fields(r.monomials) == _fields(_canonical(
                [(m.coefficient, dict(m.exponents)) for m in given]))


@pytest.mark.parametrize(
    "text, terms",
    [
        ("x*x*y", [(1, {"x": 2, "y": 1})]),  # a repeated factor
        ("x^0*y - 2*z", [(1, {"x": 0, "y": 1}), (-2, {"z": 1})]),  # a zero exponent
        ("x - x + y - 2*z + z", [(1, {"x": 1}), (-1, {"x": 1}), (1, {"y": 1}), (-2, {"z": 1}), (1, {"z": 1})]),
        # one name a prefix of another
        ("w + w4 - w4*w + 2*w^2*w4", [(1, {"w": 1}), (1, {"w4": 1}), (-1, {"w4": 1, "w": 1}), (2, {"w": 2, "w4": 1})]),
        ("w4^2 - w^2 + w*w4", [(1, {"w4": 2}), (-1, {"w": 2}), (1, {"w": 1, "w4": 1})]),
    ],
)
def test_every_entry_point_builds_the_same_polynomial_examples(text, terms):
    count = len(_canonical(terms))
    for order in (range(count), reversed(range(count))):
        _assert_built_alike(terms, text, list(order))


_TOKENS = ["x", "y", "x1", "ab_2", "Z", "2", "10", "0", "٣", "+", "-", "*", "^",
           " ", "\t", "_", "é", "#", "3x", "x2y"]


def _outcome(read, text):
    try:
        return read(text)
    except PolySyntaxError as err:
        return err.position, err.expected, err.found


@given(st.lists(st.sampled_from(_TOKENS), max_size=14).map("".join))
@settings(max_examples=400, deadline=None)
def test_term_split_agrees_with_the_descent(text):
    # the split by signs reads every text the descent reads, to the same
    # terms, and leaves every other text to the descent's error
    from rado_forge import poly

    assert _outcome(poly._parse_terms, text) == _outcome(poly._descend, text)


@pytest.mark.parametrize(
    "text", ["x*" * 50_000 + "?", "x+" * 50_000 + "?", " " * 100_000 + "?", "1" * 100_000 + "x?"]
)
def test_long_malformed_text_fails_in_linear_time(text):
    started = time.perf_counter()
    with pytest.raises(PolySyntaxError):
        parse(text)
    assert time.perf_counter() - started < 2.0
