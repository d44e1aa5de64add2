"""The package's records: equality and hashing, immutability, ``repr``
text, copies and pickles.  Every record but ``Polynomial`` is a
``namedtuple``; each keeps the ``repr`` that callers of the earlier dataclass
records saw, and the strings below are that text."""

import copy
import pickle

import pytest

from rado_forge.classify import (
    PR,
    UNKNOWN,
    Certificate,
    NonlinearShape,
    Verdict,
    classify,
    exclusive_variables,
    nonlinear_shape,
    replay_certificate,
    to_lev_form,
)
from rado_forge.corpus import load_fixtures
from rado_forge.poly import DegreeProfile, Monomial, Polynomial, parse
from rado_forge.search import Coloring, SearchOutcome, SearchStats
from rado_forge.solutions import Witness, brute_force_solutions
from rado_forge.witness import build_witness

LEV = "x1*y1 + x2*y1*y2 - x3"
THM42 = "t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2"


def _outcome():
    stats = SearchStats(nodes=8, constraints=4, depth_max=4)
    return SearchOutcome("bad_coloring", Coloring((0, 1, 1, 0)), stats)


def _witness():
    return Witness({"x1": 22, "x2": 3}, 0, "ReductLift", {"eta": 77, "eta_i": [22, 3]})


# -- equality and hashing ----------------------------------------------------------------


def test_monomial_equality_and_hash():
    built = Monomial(2, (("x", 1), ("y", 3)))
    parsed = parse("2*x*y^3").monomials[0]  # built past validation
    assert built == parsed
    assert hash(built) == hash(parsed) == hash((2, (("x", 1), ("y", 3))))
    assert built != Monomial(3, built.exponents)
    assert built != Monomial(2, (("x", 1),))
    assert built == (2, built.exponents)  # a record equals its pair
    assert (built.variables, built.degree, built.degree_of("y")) == (("x", "y"), 4, 3)


def test_polynomial_equality_and_hash():
    p, q = parse("x + y - z"), parse("y - z + x")
    assert p == q and hash(p) == hash(q) == hash(p.monomials)
    assert p != parse("x + y - 2*z")


def test_verdict_equality_and_hash():
    v = Verdict(UNKNOWN, "unknown")
    assert v == Verdict(UNKNOWN, "unknown", None, (), ())
    assert hash(v) == hash((UNKNOWN, "unknown", None, (), ()))
    assert v != Verdict(UNKNOWN, "unknown", None, ("a",))
    assert v.with_trace(["a"]) == Verdict(UNKNOWN, "unknown", None, ("a",))
    assert v.with_notes(["n"]).with_notes(["m"]).notes == ("n", "m")
    assert v.with_trace([]) is v and v.with_notes([]) is v


def test_a_record_holding_a_dict_is_unhashable():
    cert = classify(parse("x + y - z")).certificate
    assert cert == Certificate(cert.theorem, dict(cert.payload))
    assert cert != Certificate("Thm3.5", dict(cert.payload))
    for record in (
        cert,
        Verdict(PR, "yes", cert),
        _witness(),
    ):
        with pytest.raises(TypeError):
            hash(record)


def test_the_search_records_hash_and_are_their_tuples():
    stats = SearchStats(nodes=8, constraints=4, depth_max=4)
    assert stats == (8, 4, 0.0, 4, 0.0, 0, 0.0) and hash(stats) == hash(tuple(stats))
    assert stats != SearchStats(nodes=8, constraints=4, depth_max=5)
    outcome = _outcome()
    assert outcome == ("bad_coloring", ((0, 1, 1, 0),), tuple(stats))
    assert hash(outcome) == hash(("bad_coloring", ((0, 1, 1, 0),), tuple(stats)))
    witness = _witness()
    assignment, value, provenance, trace = witness
    assert witness == (assignment, value, provenance, trace) == tuple(witness)
    for record in (stats, outcome, witness):
        assert not hasattr(record, "__dict__")
    assert SearchStats.__slots__ == Witness.__slots__ == ()


def test_the_degree_records_hold_no_dict_and_hash():
    # the degrees themselves are read off the polynomial and its monomials
    assert DegreeProfile._fields == ("partial_degree", "nonlinear", "levels", "multiplicities")
    assert NonlinearShape._fields == ("chosen",)
    profile, shape = parse(THM42).degree_profile(), nonlinear_shape(parse(THM42))[0]
    assert profile == (2, ("x", "y", "z"), (2, 2, 2), (2, 2, 2))
    assert hash(profile) == hash(tuple(profile))
    assert shape == ((("t1", "t2"), ("t3", "t4"), ("t5", "t6")),)
    assert hash(shape) == hash(tuple(shape))


# -- immutability ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, name",
    [
        pytest.param(lambda: Monomial(1, (("x", 1),)), "coefficient", id="Monomial"),
        pytest.param(lambda: Monomial(1, (("x", 1),)), "degree", id="Monomial-derived"),
        pytest.param(lambda: parse(LEV), "monomials", id="Polynomial"),
        pytest.param(lambda: parse(LEV).degree_profile(), "levels", id="DegreeProfile"),
        pytest.param(lambda: classify(parse(LEV)), "status", id="Verdict"),
        pytest.param(lambda: classify(parse(LEV)).certificate, "payload", id="Certificate"),
        pytest.param(lambda: exclusive_variables(parse(LEV)), "exclusives", id="ExclusiveAssignment"),
        pytest.param(lambda: to_lev_form(parse(LEV)), "f_sets", id="LevForm"),
        pytest.param(lambda: nonlinear_shape(parse(THM42))[0], "chosen", id="NonlinearShape"),
        pytest.param(lambda: Coloring((0, 1)), "colors", id="Coloring"),
        pytest.param(lambda: _outcome().stats, "nodes", id="SearchStats"),
        pytest.param(_outcome, "kind", id="SearchOutcome"),
        pytest.param(_witness, "trace", id="Witness"),
        pytest.param(lambda: load_fixtures()[0], "status", id="Fixture"),
    ],
)
def test_assignment_raises_attribute_error(make, name):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, name, None)


def test_witnesses_built_without_a_trace_do_not_share_a_dict():
    first, second = (Witness({"x": 1}, 0, "BruteForce") for _ in range(2))
    assert first.trace == second.trace == {}
    assert first.trace is not second.trace
    first.trace["eta"] = 1
    assert second.trace == {}
    found = brute_force_solutions(parse("x + y - z"), 3)
    assert found[0].trace is not found[1].trace


# -- repr --------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, text",
    [
        (
            lambda: parse(LEV).monomials[0],
            "Monomial(coefficient=1, exponents=(('x1', 1), ('y1', 1)))",
        ),
        (lambda: parse(LEV), "Polynomial('x1*y1 + x2*y1*y2 - x3')"),
        (
            lambda: Verdict(UNKNOWN, "unknown"),
            "Verdict(status='UNKNOWN', injective='unknown', certificate=None, trace=(), notes=())",
        ),
        (
            lambda: classify(parse(LEV)).certificate,
            "Certificate(theorem='Thm3.5', payload={'coefficients': [1, 1, -1], 'J': [1, 3],"
            " 'linear_vars': ['x1', 'x2', 'x3'], 'product_vars': ['y1', 'y2'],"
            " 'F': [[1], [1, 2], []]})",
        ),
        (
            lambda: to_lev_form(parse(LEV)),
            "LevForm(polynomial=Polynomial('x1*y1 + x2*y1*y2 - x3'), coefficients=(1, 1, -1),"
            " linear_vars=('x1', 'x2', 'x3'), product_vars=('y1', 'y2'),"
            " f_sets=((1,), (1, 2), ()))",
        ),
        (
            lambda: nonlinear_shape(parse(THM42))[0],
            "NonlinearShape(chosen=(('t1', 't2'), ('t3', 't4'), ('t5', 't6')))",
        ),
        (
            _outcome,
            "SearchOutcome(kind='bad_coloring', coloring=Coloring(colors=(0, 1, 1, 0)),"
            " stats=SearchStats(nodes=8, constraints=4, ms=0.0, depth_max=4, enumerate_ms=0.0,"
            " prunes=0, search_ms=0.0))",
        ),
        (
            _witness,
            "Witness(assignment={'x1': 22, 'x2': 3}, value=0, provenance='ReductLift',"
            " trace={'eta': 77, 'eta_i': [22, 3]})",
        ),
        (
            lambda: load_fixtures()[0],
            "Fixture(text='x+y-z', status='PR', theorem='RadoLinear', injective='yes',"
            " reference=\"Schur's equation; zero-sum subset {1,3}\")",
        ),
    ],
    ids=[
        "Monomial", "Polynomial", "Verdict", "Certificate", "LevForm", "NonlinearShape",
        "SearchOutcome", "Witness", "Fixture",
    ],
)
def test_repr_text(make, text):
    assert repr(make()) == text


# -- copies and pickles ------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse(LEV),
        lambda: parse("2*x*y^3 - z").monomials[0],
        lambda: classify(parse(LEV)),
        _witness,
        lambda: Coloring((0, 1, 1, 0)),
        _outcome,
    ],
    ids=["Polynomial", "Monomial", "Verdict", "Witness", "Coloring", "SearchOutcome"],
)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trip(make, round_trip):
    record = make()
    again = round_trip(record)
    assert type(again) is type(record)
    assert again == record
    assert repr(again) == repr(record)
    if isinstance(record, Monomial):  # the derived fields come along
        assert (again.variables, again.degree, again.degree_of("x")) == (("x", "y"), 4, 1)


# -- the facts a polynomial keeps -----------------------------------------------------------

FACTS = ("_profile", "_groups", "_zero_sum", "_lev", "_shape", "_ones")


def _with_facts(text):
    """The polynomial of ``text`` after classify, replay and a lift filled its facts."""
    p = parse(text)
    verdict = classify(p)
    assert replay_certificate(p, verdict)
    build_witness(p)
    return p


@pytest.mark.parametrize("text", [LEV, THM42])
def test_kept_facts_change_no_identity_copy_or_pickle(text):
    fresh, filled = parse(text), _with_facts(text)
    assert [name for name in FACTS if getattr(filled, name, None) is not None]
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
    assert pickle.dumps(filled) == pickle.dumps(fresh)
    # copies and pickles rebuild from the monomials alone, facts unfilled
    assert filled.__reduce__() == (Polynomial, (filled.monomials,))
    for round_trip in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        again = round_trip(filled)
        assert type(again) is Polynomial and again is not filled
        assert again == fresh and hash(again) == hash(fresh) and repr(again) == repr(fresh)
        assert [getattr(again, name, None) for name in FACTS] == [None] * len(FACTS)
        assert classify(again) == classify(fresh)
