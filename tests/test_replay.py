"""Certificate replay: a pinned answer table, forged claims, ring Z, tampered
fields, independence from the classifier, and ``python -O``.

``tests/replay_table.json`` pins ``replay_certificate``'s answer for every
(polynomial, ring, payload mutation, claim) row that ``_rows`` builds; it
stores the row count and the rows that replay True.  Re-record it with
``PYTHONPATH=src python tests/test_replay.py --record`` after a deliberate
change, and name the rows that changed.
"""

import copy
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rado_forge.classify import (
    NOT_PR,
    PR,
    UNKNOWN,
    Certificate,
    Verdict,
    classify,
    classify_affine,
    negate_all_variables,
    replay_certificate,
)
from rado_forge.corpus import load_fixtures
from rado_forge.poly import parse, parse_with_constant

TABLE = Path(__file__).with_name("replay_table.json")

# (text, ring): every theorem, every RadoAffine case (a nonzero constant
# routes the text to classify_affine), K2's one inner level, no certificate,
# and ring Z with and without the sign flip
FORMS = [
    ("x + y - z", "N"),  # RadoLinear
    ("x - y", "N"),  # RadoLinear, not injective
    ("x + y - 3*z", "N"),  # LinearNecessity
    ("x + y - z - 1", "N"),  # RadoAffine positive_diagonal
    ("x + y - z + 1", "N"),  # RadoAffine integer_diagonal_with_zero_sum
    ("x + y + 1", "N"),  # RadoAffine no_diagonal_root
    ("x + y - 3*z - 2", "N"),  # RadoAffine necessity
    ("x*y - z*w", "N"),  # MultiplicativeRado PR, injective
    ("x^2 - y^2", "N"),  # MultiplicativeRado PR, not injective
    ("x^2 - y^3", "N"),  # MultiplicativeRado NOT_PR
    ("x1*y1 + x2*y1*y2 - x3", "N"),  # Thm3.5
    ("t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2", "N"),  # Thm4.2
    ("x^2*y - x*y*z", "N"),  # K2Analysis variable_difference
    ("2*x*y - 2*z*w", "N"),  # K2Analysis reduced, inner PR
    ("7*a^2 - 7*b", "N"),  # K2Analysis reduced, inner NOT_PR
    ("2*x^2 - 3*y^2", "N"),  # HomogeneousNecessity
    ("x*y + x*z - y*z", "N"),  # UNKNOWN, no certificate
    ("x + y - z", "Z"),  # PR over N carries over
    ("x + y + z", "Z"),  # UNKNOWN over Z
    ("x1*y1 + x2*y2 + x3", "Z"),  # sign flip, Thm3.5
    ("a^2*c^4*x^3 + w^2", "Z"),  # sign flip, MultiplicativeRado
    ("2*a^4*y + 2*b^4*x^3*z", "Z"),  # sign flip, K2Analysis
    ("w1^3*x3_1 + 4*w1^2*x1_1 + w1*x2_1*x2_2", "Z"),  # sign flip, Thm4.2
]

CLAIMS = [("PR", "yes"), ("PR", "no"), ("NOT_PR", "no"), ("UNKNOWN", "unknown")]


def genuine(text, ring):
    p, constant = parse_with_constant(text)
    return p, classify_affine(p, constant) if constant else classify(p, ring)


def _mutate(value, how):
    if how == "retype":
        return [value] if isinstance(value, str) else str(value)
    if isinstance(value, int):
        return value + (1 if how == "shift" else 10)
    if isinstance(value, str):
        return value + ("1" if how == "shift" else " + t")
    if isinstance(value, dict):
        items = list(value.items())
        if how == "shift":
            return dict(items[1:] + [(items[0][0], 1)])
        return dict(items + [("zz", -1)])
    if how == "extend":
        return value + (value[-1:] or [1])
    return [_mutate(value[0], how)] + value[1:] if value else [1]


def _mutations(payload, prefix=""):
    """(label, payload) for each field deleted, retyped, shifted by one and
    extended; K2's inner payload is mutated the same way."""
    for key in sorted(payload):
        for how in ("del", "retype", "shift", "extend"):
            new = copy.deepcopy(payload)
            if how == "del":
                del new[key]
            else:
                new[key] = _mutate(new[key], how)
            yield f"{prefix}{how}:{key}", new
    if isinstance(payload.get("inner"), dict):
        for label, inner in _mutations(payload["inner"]["payload"], "inner."):
            yield label, dict(payload, inner=dict(payload["inner"], payload=inner))


def _rows():
    """(key, polynomial, verdict): each form's genuine verdict under its own
    claim and each forged one, and each mutated payload under its own claim."""
    for text, ring in FORMS:
        p, v = genuine(text, ring)
        own = (v.status, v.injective)
        for claim in [own] + [c for c in CLAIMS if c != own]:
            label = "genuine" if claim == own else "/".join(claim)
            yield f"{text} | {ring} | genuine | {label}", p, Verdict(*claim, v.certificate)
        if v.certificate:
            for label, payload in _mutations(v.certificate.payload):
                cert = Certificate(v.certificate.theorem, payload)
                yield f"{text} | {ring} | {label} | genuine", p, Verdict(*own, cert)


def _answers():
    return {key: replay_certificate(p, v) for key, p, v in _rows()}


def test_replay_answers_match_the_pinned_table():
    table = json.loads(TABLE.read_text())
    answers = _answers()
    assert len(answers) == table["rows"]
    assert sorted(k for k, ok in answers.items() if ok) == table["true"]


# -- the claim -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, ring, forged",
    [
        ("x + y - z", "N", (PR, "no")),
        ("x - y", "N", (PR, "yes")),
        ("x + y - 3*z", "N", (PR, "yes")),
        ("2*x^2 - 3*y^2", "N", (PR, "no")),
        ("x + y + 1", "N", (PR, "unknown")),
        ("x + y - 3*z - 2", "N", (UNKNOWN, "unknown")),
        ("x + y - z - 1", "N", (PR, "yes")),
        ("x + y - z + 1", "N", (NOT_PR, "no")),
        ("x^2 - y^3", "N", (NOT_PR, "yes")),
        ("x*y - z*w", "N", (PR, "no")),
        ("x^2 - y^2", "N", (PR, "yes")),
        ("x1*y1 + x2*y1*y2 - x3", "N", (NOT_PR, "no")),
        ("t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2", "N", (PR, "no")),
        ("x^2*y - x*y*z", "N", (PR, "yes")),
        ("2*x*y - 2*z*w", "N", (PR, "no")),
        ("7*a^2 - 7*b", "N", (NOT_PR, "yes")),
        ("x*y + x*z - y*z", "N", (UNKNOWN, "yes")),
        ("x1*y1 + x2*y2 + x3", "Z", (NOT_PR, "no")),
    ],
    ids=[
        "RadoLinear",
        "RadoLinear-difference",
        "LinearNecessity",
        "HomogeneousNecessity",
        "RadoAffine-no_diagonal_root",
        "RadoAffine-necessity",
        "RadoAffine-positive_diagonal",
        "RadoAffine-integer_diagonal_with_zero_sum",
        "MultiplicativeRado-NOT_PR",
        "MultiplicativeRado-PR",
        "MultiplicativeRado-PR-two-variables",
        "Thm3.5",
        "Thm4.2",
        "K2Analysis-variable_difference",
        "K2Analysis-reduced",
        "K2Analysis-reduced-NOT_PR",
        "no-certificate",
        "ring-Z-sign-flip",
    ],
)
def test_replay_binds_the_verdicts_claim(text, ring, forged):
    p, v = genuine(text, ring)
    assert (v.status, v.injective) != forged
    assert replay_certificate(p, v)
    assert not replay_certificate(p, Verdict(*forged, v.certificate))


# -- ring Z ------------------------------------------------------------------------

PAPER_EXAMPLES = ["x1 + x2 - y1*y2", "x1*y1 + x2*y1*y2 - x3"]


def test_every_fixture_and_paper_example_replays_in_ring_z():
    forms = [parse(f.text) for f in load_fixtures()]
    forms += [parse(text) for text in PAPER_EXAMPLES]
    forms += [negate_all_variables(parse(text)) for text in PAPER_EXAMPLES]
    flips = 0
    for p in forms:
        v = classify(p, "Z")
        assert replay_certificate(p, v), str(p)
        flips += v.certificate is not None and "flipped" in v.certificate.payload
    # x1*y1 + x2*y2 + x3 and -x1 - x2 - y1*y2; the other negated example is
    # PR over the positive integers as it stands
    assert flips == 2


def test_sign_flip_fields_are_checked():
    p = parse("x1*y1 + x2*y2 + x3")
    v = classify(p, "Z")
    payload = v.certificate.payload
    tampered = [
        dict(payload, sign_map=dict(payload["sign_map"], x1=1)),
        dict(payload, flipped="x1*y1 + x2*y2 + x3"),
        {k: val for k, val in payload.items() if k != "sign_map"},
        dict(payload, sign_map={v: -1.0 for v in payload["sign_map"]}),
    ]
    for bad in tampered:
        assert not replay_certificate(p, Verdict(PR, "yes", Certificate("Thm3.5", bad)))
    # the flip carries regularity only: P(-x) being PR over N says nothing else
    q = parse("x + y + 3*z")  # P(-x) = -x - y - 3*z has no zero-sum subset
    necessity = classify(negate_all_variables(q)).certificate
    flipped = dict(necessity.payload, sign_map={v: -1 for v in q.variables},
                   flipped=str(negate_all_variables(q)))
    cert = Certificate("LinearNecessity", flipped)
    assert not replay_certificate(q, Verdict(NOT_PR, "no", cert))


# -- determined fields ---------------------------------------------------------------


def _tampered(text, constant, /, **fields):
    """The genuine verdict with some payload fields replaced; a callable
    field maps the genuine value to the tampered one."""
    p = parse(text)
    v = classify_affine(p, constant) if constant else classify(p)
    assert replay_certificate(p, v)
    payload = dict(v.certificate.payload)
    payload.update({k: f(payload[k]) if callable(f) else f for k, f in fields.items()})
    cert = Certificate(v.certificate.theorem, payload)
    return p, Verdict(v.status, v.injective, cert)


@pytest.mark.parametrize(
    "claim",
    [
        lambda: _tampered("x + y - 3*z", -3, diagonal=-10),
        lambda: _tampered("w^2*x1 + w^2*x2*z - w*x3*x4*z", 0, passive_vars=["z"]),
        lambda: _tampered("2*x*y - 2*z*w", 0, q1="w*z", q2="x*y"),
        # the genuine reduced form is -w*z + x*y; this spelling parses equal
        lambda: _tampered("2*x*y - 2*z*w", 0, reduced="-z*w + x*y"),
        lambda: _tampered("x^2*y - x*y*z", 0, q1="z"),
        lambda: _tampered("x1*y1 + x2*y1*y2 - x3", 0, F=lambda f: f + [[1]]),
        lambda: _tampered(
            "t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2", 0, exclusive_choice=lambda c: c + c[:1]
        ),
        # True == 1 and 1.0 == 1: a bool or a float does not pass for an int
        lambda: _tampered("x + y - z", 0, J=[True, 3]),
        lambda: _tampered("x + y - z", 0, coefficients=[1.0, 1, -1]),
        lambda: _tampered("x + y - z", 0, coefficients=[True, True, -1]),
        lambda: _tampered("x + y - z", -1, constant=-1.0),
        lambda: _tampered("x + y - z", -1, diagonal=1.0),
        lambda: _tampered("2*x^2 - 3*y^2", 0, degree=2.0),
        lambda: _tampered("x*y - z*w", 0, common_sum=float),
        lambda: _tampered("x1*y1 + x2*y1*y2 - x3", 0, F=lambda f: [[True] + g[1:] if g else g for g in f]),
        # nor a str for a list of one-letter names
        lambda: _tampered("a*b*x^2 + c*d*y^2 - e*f*z^2", 0, exclusive_choice=lambda c: ["".join(g) for g in c]),
        # x*y divides x^2*y, so the gcd leaves no second variable to differ:
        # the payload of x^2*y - x*y*z, which does, is no K2 decomposition here
        lambda: (parse("x^2*y - x*y"), classify(parse("x^2*y - x*y*z"))),
    ],
    ids=[
        "diagonal", "passive_vars", "q1-q2-swapped", "reduced-not-canonical", "q1", "F-overlong",
        "exclusive_choice-overlong",
        "J-bool", "coefficients-float", "coefficients-bool", "constant-float", "diagonal-float",
        "degree-float", "common_sum-float", "F-bool", "exclusive_choice-strings",
        "K2Analysis-one-monomial-divides-the-other",
    ],
)
def test_replay_checks_every_determined_field(claim):
    p, verdict = claim()
    assert not replay_certificate(p, verdict)


def _k2_nested(layers):
    """The genuine K2Analysis verdict on 2*x*y - 2*z*w with its certificate
    wrapped ``layers`` times in a K2Analysis of the same decomposition."""
    p = parse("2*x*y - 2*z*w")
    v = classify(p)
    cert = v.certificate
    for _ in range(layers):
        cert = Certificate("K2Analysis", dict(v.certificate.payload, inner=cert.to_json()))
    return p, Verdict(v.status, v.injective, cert)


@pytest.mark.parametrize("layers", [0, 1, 5, 3000])
def test_replay_checks_exactly_one_k2_level(layers):
    # the genuine certificate replays; a K2Analysis nested in itself does not,
    # at any depth, so no answer depends on the recursion limit
    p, v = _k2_nested(layers)
    assert replay_certificate(p, v) is (layers == 0)


def test_replay_given_the_constant_checks_the_affine_payload():
    # the payload's constant -3 with diagonal 3 speaks about x + y - z - 3
    p = parse("x + y - z")
    v = classify_affine(p, -1)
    payload = dict(v.certificate.payload, constant=-3, diagonal=3)
    doctored = Verdict(v.status, v.injective, Certificate("RadoAffine", payload))
    assert replay_certificate(p, doctored)  # without the constant it is taken on trust
    assert not replay_certificate(p, doctored, -1)
    assert replay_certificate(p, doctored, -3)


@pytest.mark.parametrize(
    "text", [text for text, ring in FORMS if ring == "N" and parse_with_constant(text)[1]]
)
def test_genuine_affine_certificates_replay_with_their_constant(text):
    p, constant = parse_with_constant(text)
    v = classify_affine(p, constant)
    assert v.certificate.theorem == "RadoAffine"
    assert replay_certificate(p, v, constant)
    assert not replay_certificate(p, v, constant + 1)
    assert not replay_certificate(p, v, 0)


def test_other_certificates_replay_only_with_the_constant_zero():
    p = parse("x + y - z")
    v = classify(p)
    assert replay_certificate(p, v, 0)
    assert not replay_certificate(p, v, -1)


# -- independence and python -O -------------------------------------------------------


def test_replay_runs_no_classifier_rule(monkeypatch):
    verdicts = [genuine(text, ring) for text, ring in FORMS]
    verdicts += [(parse(f.text), classify(parse(f.text), ring))
                 for f in load_fixtures() for ring in ("N", "Z")]
    classify_mod = importlib.import_module("rado_forge.classify")

    def refuse(*args, **kwargs):
        raise AssertionError("replay ran the classifier")

    # every function and class defined in classify is refused: replay and
    # its helpers are defined in check, the shape tests it shares with the
    # rules in poly
    refused = [
        name for name, value in vars(classify_mod).items()
        if (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == classify_mod.__name__
    ]
    assert {"classify", "rado_condition", "_SubsetTable", "_equal_sum_subsets"} <= set(refused)
    for name in refused:
        monkeypatch.setattr(classify_mod, name, refuse)
    for p, v in verdicts:
        assert replay_certificate(p, v), str(p)


def test_replay_rejects_forgeries_under_python_o():
    script = """
from rado_forge.classify import Certificate, Verdict, classify, replay_certificate
from rado_forge.poly import parse
p = parse("x1*y1 + x2*y1*y2 - x3")
v = classify(p)
forged = Verdict("NOT_PR", "no", v.certificate)
payload = dict(v.certificate.payload, F=v.certificate.payload["F"] + [[1]])
tampered = Verdict(v.status, v.injective, Certificate("Thm3.5", payload))
print(replay_certificate(p, v), replay_certificate(p, forged), replay_certificate(p, tampered))
"""
    import rado_forge

    src = str(Path(rado_forge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "False"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_replay.py --record")
    answers = _answers()
    table = {"rows": len(answers), "true": sorted(k for k, ok in answers.items() if ok)}
    TABLE.write_text(json.dumps(table, indent=0) + "\n")
    print(f"{len(answers)} rows, {len(table['true'])} replay True")
