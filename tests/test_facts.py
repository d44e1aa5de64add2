"""The structural facts a polynomial keeps: the exclusive groups, the zero-sum
J, the l.e.v. designation, the nonlinear shape and the all-ones
substitution.  ``classify`` and the witness lifts fill them and read them;
nothing kept refers back to the polynomial, so a certify task leaves no
cyclic garbage; and certificate replay reads none of them, so its answer
does not depend on what the classifier kept."""

import ast
import gc
import importlib
from pathlib import Path

import pytest

from rado_forge.classify import ExclusiveAssignment, classify, replay_certificate
from rado_forge.corpus import load_fixtures
from rado_forge.poly import parse
from rado_forge.witness import HypothesisFailure, build_witness

SRC = Path(__file__).resolve().parents[1] / "src" / "rado_forge"

FACTS = ("_groups", "_zero_sum", "_lev", "_shape", "_ones")
# the functions that read or fill a kept fact
READERS = {
    "_exclusive_groups", "exclusive_variables", "_zero_sum", "rado_condition",
    "to_lev_form", "nonlinear_shape", "_find_shape", "_ones_substitution",
}
LIFT = {"RadoLinear": "reduct", "Thm3.5": "reduct", "Thm4.2": "nlp"}
EXTRA = ["x1*y1 + x2*y1*y2 - x3", "x1*y1*z^2 + x2*y2*z^2 - x3*y3*z^2", "x + y + z"]


def _texts():
    return list(dict.fromkeys([f.text for f in load_fixtures()] + EXTRA))


def _filled(text):
    """The polynomial of ``text`` with every fact its rules and lifts ask for kept."""
    p = parse(text)
    classify(p)
    classify(p, "Z")
    try:
        build_witness(p, "auto", n_bound=6)
    except HypothesisFailure:  # no witness in range; the facts are still kept
        pass
    return p


def test_the_lifts_fill_every_fact():
    kept = {name for text in _texts() for name in FACTS
            if getattr(_filled(text), name, None) is not None}
    assert kept == set(FACTS)


def test_a_certify_task_leaves_no_cyclic_garbage():
    lifted = [f for f in load_fixtures() if f.theorem in LIFT]
    assert {f.theorem for f in lifted} == set(LIFT)
    gc.collect()
    gc.disable()
    try:
        for fixture in lifted:
            p = parse(fixture.text)
            verdict = classify(p)
            assert replay_certificate(p, verdict)
            [w] = build_witness(p, LIFT[fixture.theorem])
            assert p.evaluate(w.assignment) == 0
            assert getattr(p, "_zero_sum") and getattr(p, "_groups")
        del p, verdict, w
        assert gc.collect() == 0
    finally:
        gc.enable()


def _doctored(text):
    """A fresh polynomial of ``text`` whose fields hold wrong facts."""
    p = parse(text)
    wrong = {
        "_groups": ExclusiveAssignment(((),) * len(p.monomials), ((),) * len(p.monomials)),
        "_zero_sum": (1,),
        "_lev": ((), (), ()),
        "_shape": (None, ("doctored",)),
        "_ones": parse("x"),
    }
    for name, fact in wrong.items():
        p._keep(name, fact)
    return p


def test_replay_answers_alike_on_fresh_filled_and_doctored_polynomials():
    texts = _texts()
    verdicts = [classify(parse(text), ring) for text in texts for ring in ("N", "Z")]
    trues = 0
    for text in texts:
        fresh, filled, doctored = parse(text), _filled(text), _doctored(text)
        for verdict in verdicts:
            answer = replay_certificate(fresh, verdict)
            assert replay_certificate(filled, verdict) is answer, (text, verdict)
            assert replay_certificate(doctored, verdict) is answer, (text, verdict)
            trues += answer
    assert trues >= len(verdicts)  # each verdict replays on its own polynomial


def _called_names(function: ast.FunctionDef) -> set[str]:
    """The names a function calls, reads as attributes or names as strings."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _functions(name: str) -> dict[str, ast.FunctionDef]:
    """The module-level functions of ``src/rado_forge/<name>``, by name."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_replay_reads_no_kept_fact():
    assert READERS - {"_ones_substitution"} <= set(_functions("classify.py"))
    # every function of check.py, and of poly.py whose helpers it shares
    # with the classifier, that replay reaches from its entry point
    defined = {**_functions("poly.py"), **_functions("check.py")}
    reached, todo = set(), ["replay_certificate"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(n for n in _called_names(defined[name]) if n in defined)
    assert {"_replay", "_replay_over_n", "_exclusive_degree_one", "_multiplicative_sides",
            "_is_two_variable_difference", "negate_all_variables"} <= reached
    for name in reached:
        used = _called_names(defined[name])
        assert not used & READERS, (name, used & READERS)
        assert not used & set(FACTS), (name, used & set(FACTS))


@pytest.mark.parametrize("text", ["x1*y1 + x2*y1*y2 - x3", "x11*y1^2*y2^2 + x21*x22*z1*y2^2 - 2*x31*x32*z2*y1 + x41*x42"])
def test_a_second_lift_reads_what_the_first_kept(text, monkeypatch):
    classify_mod = importlib.import_module("rado_forge.classify")
    p = parse(text)
    classify(p)
    [first] = build_witness(p)

    def refuse(*args, **kwargs):
        raise AssertionError("a kept fact was derived again")

    for name in ("rado_condition", "_find_shape"):
        monkeypatch.setattr(classify_mod, name, refuse)
    monkeypatch.setattr(classify_mod.ExclusiveAssignment, "__new__", refuse)
    [again] = build_witness(p)
    assert again == first
