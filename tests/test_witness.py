"""Witness construction tests: lifting identities, oracle enumeration."""

import importlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gen_support import (
    positive_reduct_alpha,
    random_lev_polynomial,
    random_nonlinear_polynomial,
)
from rado_forge import poly, solutions, witness
from rado_forge.check import replay_certificate
from rado_forge.classify import (
    NoExclusiveSetError,
    NonlinearShape,
    classify,
    nonlinear_shape,
    to_lev_form,
)
from rado_forge.corpus import load_fixtures
from rado_forge.poly import Polynomial, parse
from rado_forge.solutions import SearchSpaceTooLargeError, brute_force_solutions
from rado_forge.witness import (
    GValuesNotDistinctError,
    HypothesisFailure,
    NotAPTildeSolutionError,
    NotAReductSolutionError,
    build_witness,
    nlp_lift,
    nlp_lift_formal_check,
    primes_above,
    reduct_lift,
    reduct_lift_formal_check,
    witness_via_nlp,
    witness_via_reduct,
)

WORKED = "x11*y1^2*y2^2 + x21*x22*z1*y2^2 - 2*x31*x32*z2*y1 + x41*x42"


# -- to_lev_form ----------------------------------------------------------


def test_to_lev_form_hindman_shape():
    form = to_lev_form(parse("x1 + x2 - y1*y2"))
    assert form.coefficients == (1, 1, -1)
    assert form.linear_vars == ("x1", "x2", "y1")
    assert form.product_vars == ("y2",)
    assert form.f_sets == ((), (), (1,))


def test_to_lev_form_headline():
    form = to_lev_form(parse("x1*y1 + x2*y1*y2 - x3"))
    assert form.coefficients == (1, 1, -1)
    assert form.linear_vars == ("x1", "x2", "x3")
    assert form.product_vars == ("y1", "y2")
    assert form.f_sets == ((1,), (1, 2), ())


def test_to_lev_form_linear():
    form = to_lev_form(parse("2*a + 3*b - 5*c"))
    assert form.product_vars == ()
    assert form.f_sets == ((), (), ())


def test_to_lev_form_requires_exclusives():
    with pytest.raises(NoExclusiveSetError):
        to_lev_form(parse("x*y + y*z - x*z"))


# -- reduct_lift ----------------------------------------------------------


def test_reduct_lift_hindman_numbers():
    form = to_lev_form(parse("x1 + x2 - y1*y2"))
    w = reduct_lift(form, (1, 2, 3), (10,))
    assert w.assignment == {"x1": 10, "x2": 20, "y1": 3, "y2": 10}
    assert w.value == 0
    assert w.provenance == "ReductLift"
    # 10 + 20 - 3*10 == 0
    assert 10 + 20 - 3 * 10 == 0


def test_reduct_lift_linear_identity_assignment():
    form = to_lev_form(parse("2*a + 3*b - 5*c"))
    w = reduct_lift(form, (1, 1, 1), ())
    assert w.assignment == {"a": 1, "b": 1, "c": 1}


def test_reduct_lift_headline_alpha_search():
    form = to_lev_form(parse("2*x1+3*x2*y1*y2-5*x3*y1+x4*y2*y3"))
    assert 2 * 5 + 3 * 1 - 5 * 2 + 1 * 2 != 0  # (5,1,2,2) is not a solution
    assert 2 * 1 + 3 * 4 - 5 * 3 + 1 * 1 == 0  # (1,4,3,1) is
    w = reduct_lift(form, (1, 4, 3, 1), (2, 3, 5))
    assert w.value == 0
    assert parse("2*x1+3*x2*y1*y2-5*x3*y1+x4*y2*y3").evaluate(w.assignment) == 0


def test_reduct_lift_rejects_non_solutions():
    form = to_lev_form(parse("2*x1+3*x2*y1*y2-5*x3*y1+x4*y2*y3"))
    with pytest.raises(NotAReductSolutionError):
        reduct_lift(form, (5, 1, 2, 2), (2, 3, 5))
    with pytest.raises(NotAReductSolutionError):
        reduct_lift(form, (1, 1, 1, 0), (2, 3, 5))


@pytest.mark.parametrize(
    "alpha, y_values, error, message",
    [
        ((1, 4, 3), (2, 3, 5), NotAReductSolutionError, "need 4 alpha values, got 3"),
        ((1, 4, 3, 1, 1), (2, 3, 5), NotAReductSolutionError, "need 4 alpha values, got 5"),
        ((1, 4, 3, 1), (2, 3), ValueError, "need 3 y values, got 2"),
        ((1, 4, 3, 1), (2, 3, 5, 7), ValueError, "need 3 y values, got 4"),
        ((1, 4, 3, 1), (2, 0, 5), ValueError, "y values must be positive"),
        ((1, 4, 3, 1), (-2, 3, 5), ValueError, "y values must be positive"),
    ],
)
def test_reduct_lift_checks_its_arguments(alpha, y_values, error, message):
    # (1, 4, 3, 1) solves the reduct; the counts and the y values are checked too
    form = to_lev_form(parse("2*x1+3*x2*y1*y2-5*x3*y1+x4*y2*y3"))
    with pytest.raises(error, match=f"^{message}$"):
        reduct_lift(form, alpha, y_values)


def test_reduct_lift_formal_identity():
    form = to_lev_form(parse("x1*y1 + x2*y1*y2 - x3"))
    assert reduct_lift_formal_check(form, (1, 2, 3))
    # the identity holds for arbitrary alpha, solution or not
    assert reduct_lift_formal_check(form, (7, -4, 11))
    # and fails once one F_i no longer matches its monomial
    assert form.f_sets[0] == (1,)
    broken = form._replace(f_sets=((1, 2),) + form.f_sets[1:])
    assert not reduct_lift_formal_check(broken, (1, 2, 3))


# -- nlp_lift ----------------------------------------------------------


def _worked_shape():
    shape, failures = nonlinear_shape(parse(WORKED))
    assert not failures
    return shape


WORKED_ALPHA = {
    "x11": 2, "x21": 1, "x22": 1, "z1": 2,
    "x31": 1, "x32": 3, "z2": 1, "x41": 1, "x42": 2,
}


def test_nlp_lift_worked_example():
    p = parse(WORKED)
    w = nlp_lift(p, _worked_shape(), WORKED_ALPHA, (2, 3))
    assert w.trace["eta"] == 36
    assert w.trace["gamma"] == {
        "1,1": 1, "2,1": 2, "2,2": 2, "3,1": 6, "3,2": 3, "4,1": 6, "4,2": 6,
    }
    assert w.trace["eta_i"] == [1, 4, 18, 36]
    assert w.assignment == {
        "x11": 2, "x21": 2, "x22": 2, "x31": 6, "x32": 9, "x41": 6, "x42": 12,
        "z1": 2, "z2": 1, "y1": 2, "y2": 3,
    }
    assert w.value == 0
    # the four monomial values are 72 + 72 - 216 + 72
    assert 72 + 72 - 216 + 72 == 0


def test_nlp_lift_lev_degenerates_to_identity():
    p = parse("x1 + x2 - y1*y2")
    shape, failures = nonlinear_shape(p)
    assert not failures
    solution = {"x1": 10, "x2": 20, "y1": 3, "y2": 10}
    w = nlp_lift(p, shape, solution, ())
    assert w.assignment == solution
    assert w.trace["eta"] == 1


def test_nlp_lift_errors():
    p = parse(WORKED)
    shape = _worked_shape()
    with pytest.raises(NotAPTildeSolutionError):
        nlp_lift(p, shape, dict(WORKED_ALPHA, x11=3), (2, 3))
    with pytest.raises(NotAPTildeSolutionError):
        nlp_lift(p, shape, {"x11": 2}, (2, 3))
    with pytest.raises(GValuesNotDistinctError):
        nlp_lift(p, shape, WORKED_ALPHA, (2, 2))
    with pytest.raises(ValueError):
        nlp_lift(p, shape, WORKED_ALPHA, (2,))
    with pytest.raises(ValueError):
        nlp_lift(p, shape, WORKED_ALPHA, (1, 2))


def test_nlp_lift_checks_survive_python_O():
    # the worked shape with the chosen groups of monomials 3 and 4 swapped
    # does not fit the polynomial; with its identity checks stripped the
    # lift returned a witness of value -252.  The shape check refuses it
    # first; with that check bypassed, the identity checks still refuse it
    script = f"""
import sys
from rado_forge import witness
from rado_forge.classify import nonlinear_shape
from rado_forge.poly import Polynomial, parse
p = parse({WORKED!r})
shape, _ = nonlinear_shape(p)
chosen = list(shape.chosen)
chosen[2], chosen[3] = chosen[3], chosen[2]
if sys.argv[1] == "bypass":
    witness._check_shape = lambda p, shape: None
w = witness.nlp_lift(p, shape._replace(chosen=tuple(chosen)), {WORKED_ALPHA!r}, (2, 3))
print("witness value", w.value)
"""
    import rado_forge

    src = str(Path(rado_forge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for mode, error in [
        ("check", "ValueError: chosen group 3 ['x41', 'x42'] is not 2 distinct exclusive degree-1"),
        ("bypass", "AssertionError: nlp lift does not evaluate to eta * residue = 0"),
    ]:
        done = subprocess.run(
            [sys.executable, "-O", "-c", script, mode],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0, mode
        assert "witness value" not in done.stdout, mode
        assert error in done.stderr, mode


def test_nlp_lift_formal_identity_worked_example():
    p = parse(WORKED)
    assert nlp_lift_formal_check(p, _worked_shape(), WORKED_ALPHA)
    # arbitrary (non-solving) values still satisfy the algebraic identity
    assert nlp_lift_formal_check(
        p, _worked_shape(), dict(WORKED_ALPHA, x11=9, z2=5)
    )
    # monomials 3 and 4 take gamma products 18 and 36: swapping their chosen
    # groups leaves the missing weight unrestored.  The shape check refuses
    # such a shape; past it, the identity itself fails
    shape = _worked_shape()
    first, second, third, fourth = shape.chosen
    swapped = shape._replace(chosen=(first, second, fourth, third))
    with pytest.raises(ValueError, match=r"^chosen group 3 \['x41', 'x42'\] is not 2 distinct"):
        nlp_lift_formal_check(p, swapped, WORKED_ALPHA)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witness, "_check_shape", lambda p, shape: None)
        assert not nlp_lift_formal_check(p, swapped, WORKED_ALPHA)


def test_nlp_lift_checks_the_shape_first():
    # each hand-built shape is refused with a ValueError naming its first
    # mismatch, by the lift and by the formal check alike
    p = parse("x1*y^2 + x2*y - x3")  # no shape fits: monomial 3 owns x3 only, and needs two
    worked = _worked_shape()
    first, second, third, fourth = worked.chosen
    w = parse(WORKED)
    cases = [
        (p, NonlinearShape((("x1",),)),
         "shape has 1 chosen groups for the 3 monomials of x1*y^2 + x2*y - x3"),
        (p, NonlinearShape((("x1",), ("x2",), ("x3",))),
         "chosen group 3 ['x3'] is not 2 distinct exclusive degree-1 variable(s) of monomial 3 (x3)"),
        (w, worked._replace(chosen=(first, second, third)),
         f"shape has 3 chosen groups for the 4 monomials of {w}"),
        (w, worked._replace(chosen=(first, second, third, fourth[:1])),
         "chosen group 4 ['x41'] is not 2 distinct exclusive degree-1 variable(s) of monomial 4 (x41*x42)"),
        (w, worked._replace(chosen=(first, second, third, ("x41", "x41"))),
         "chosen group 4 ['x41', 'x41'] is not 2 distinct"),
        (w, worked._replace(chosen=(("y1",), second, third, fourth)),  # y1 is in two monomials
         "chosen group 1 ['y1'] is not 1 distinct"),
    ]
    for q, shape, message in cases:
        alpha = WORKED_ALPHA if q is w else {"x1": 1, "x2": 1, "x3": 2}
        g = (2, 3) if q is w else (2,)  # one value per nonlinear variable
        for lift in (
            lambda: nlp_lift(q, shape, alpha, g),
            lambda: nlp_lift_formal_check(q, shape, alpha),
        ):
            with pytest.raises(ValueError) as error:
                lift()
            assert str(error.value).startswith(message), (shape, str(error.value))


def test_a_hand_built_shape_that_fits_still_lifts():
    # monomial 2 owns three exclusive degree-1 variables and needs two:
    # x21 and z1 serve as well as the x21 and x22 that nonlinear_shape picks
    p = parse(WORKED)
    hand_built = NonlinearShape((("x11",), ("z1", "x21"), ("x32", "x31"), ("x41", "x42")))
    assert hand_built != _worked_shape()
    w = nlp_lift(p, hand_built, WORKED_ALPHA, (2, 3))
    assert w.value == 0 == p.evaluate(w.assignment)
    assert w.assignment["z1"] == WORKED_ALPHA["z1"] * w.trace["gamma"]["2,1"]
    assert nlp_lift_formal_check(p, hand_built, WORKED_ALPHA)


# -- brute force ----------------------------------------------------------


def test_brute_force_examples():
    p = parse("x + y - z")
    ws = brute_force_solutions(p, 3, injective=True)
    assert [tuple(w.assignment[v] for v in p.variables) for w in ws] == [
        (1, 2, 3), (2, 1, 3),
    ]

    p = parse("x1 + x2 - y1*y2")
    tuples = {
        tuple(w.assignment[v] for v in p.variables)
        for w in brute_force_solutions(p, 6, injective=True)
    }
    assert (1, 5, 2, 3) in tuples

    p = parse("x + y - z^2")
    tuples = [
        tuple(w.assignment[v] for v in p.variables)
        for w in brute_force_solutions(p, 3)
    ]
    assert (1, 3, 2) in tuples


def test_brute_force_single_variable():
    assert brute_force_solutions(parse("2*x - x^2"), 5) != []
    ws = brute_force_solutions(parse("2*x - x^2"), 5)
    assert [w.assignment for w in ws] == [{"x": 2}]


def test_brute_force_limit_and_order():
    p = parse("x + y - z")
    ws = brute_force_solutions(p, 10, limit=3)
    tuples = [tuple(w.assignment[v] for v in p.variables) for w in ws]
    assert tuples == sorted(tuples)
    assert len(ws) == 3


def test_brute_force_limit_below_one_is_rejected():
    # a limit of 0 used to return one solution: the count was checked only
    # after a solution was kept
    p = parse("x + y - z")
    for limit in (0, -1):
        with pytest.raises(ValueError, match="^limit must be >= 1$"):
            brute_force_solutions(p, 10, limit=limit)
        with pytest.raises(ValueError, match="^limit must be >= 1$"):
            build_witness(p, "brute", limit=limit)
    assert len(brute_force_solutions(p, 10, limit=1)) == 1


@pytest.mark.parametrize("method", ["auto", "reduct", "nlp", "brute"])
def test_build_witness_checks_its_arguments_for_every_method(method):
    # the lifts used to accept a limit or bound below 1 that brute force refused
    p = parse("x + y - z")  # the reduct lift applies, the nonlinear lift does not
    for limit in (0, -5):
        with pytest.raises(ValueError, match="^limit must be >= 1$"):
            build_witness(p, method, limit=limit)
    for n_bound in (0, -5):
        with pytest.raises(ValueError, match="^bound must be >= 1$"):
            build_witness(p, method, n_bound=n_bound)
    with pytest.raises(ValueError, match="^bound must be >= 1$"):
        build_witness(p, method, n_bound=0, limit=0)


def test_build_witness_rejects_an_unknown_method():
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        build_witness(parse("x + y - z"), method="bogus")


def test_brute_force_root_beyond_float_range():
    # 50**200 is far above the largest float; the isolated root stays exact
    ws = brute_force_solutions(parse("x^200-y^200"), 50)
    assert [(w.assignment["x"], w.assignment["y"]) for w in ws] == [
        (n, n) for n in range(1, 51)
    ]
    # z is solved for, and its candidates are fifth roots of up to 140,000 bits
    ws = brute_force_solutions(parse("x^70001 - y^3*z^5"), 4)
    assert [w.assignment for w in ws] == [{"x": 1, "y": 1, "z": 1}]


def _floor_root(value, e):
    """Reference: the largest r with r**e <= value, by bisection."""
    low, high = 0, 1 << (value.bit_length() // e + 1)
    while low < high:
        mid = (low + high + 1) // 2
        if mid**e <= value:
            low = mid
        else:
            high = mid - 1
    return low


def test_integer_root_matches_bisection():
    rng = random.Random(20)
    for e in range(2, 10):
        values = [rng.randrange(1, 1 << rng.randrange(1, 400)) for _ in range(300)]
        values += [r**e + d for r in (2, 3, rng.randrange(2, 10**30)) for d in (-1, 0, 1)]
        for value in values:
            r = _floor_root(value, e)
            assert r**e <= value < (r + 1) ** e
            assert solutions._integer_root(value, e) == (r if r**e == value else None)
    assert solutions._integer_root(0, 3) is None
    assert solutions._integer_root(-8, 3) is None
    assert solutions._integer_root(12345, 1) == 12345


def test_integer_root_of_huge_fifth_powers():
    # 80,000-bit fifth powers and their neighbours, each in well under a
    # second: O(log bits) Newton steps, not one step per bit of the root
    rng = random.Random(5)
    started = time.perf_counter()
    for _ in range(2):
        root = rng.getrandbits(16_000) | 1 << 15_999
        value = root**5
        assert value.bit_length() > 79_990
        assert solutions._integer_root(value, 5) == root
        assert solutions._integer_root(value - 1, 5) is None
        assert solutions._integer_root(value + 1, 5) is None
    assert time.perf_counter() - started < 5.0


def test_solve_step():
    assert solutions._solve(2, -54, 3, 10) == 3
    assert solutions._solve(-2, 54, 3, 10) == 3
    assert solutions._solve(2, -53, 3, 10) is None  # no exact division
    assert solutions._solve(2, -50, 3, 10) is None  # 25 is no cube
    assert solutions._solve(2, 54, 3, 10) is None  # no positive root
    assert solutions._solve(0, 5, 3, 10) is None
    assert solutions._solve(0, 0, 3, 10) == 0  # every v solves
    # 2^90 has 91 bits, more than the cube of a 30-bit bound can have
    assert solutions._solve(1, -(2**90), 3, 2**30 - 1) is None
    assert solutions._solve(1, -(2**90), 3, 2**30) == 2**30


def test_brute_force_budget(monkeypatch):
    monkeypatch.setattr(solutions, "DEFAULT_ENUM_BUDGET", 10)
    with pytest.raises(SearchSpaceTooLargeError):
        brute_force_solutions(parse("x + y - z"), 1000)


def _grid_solutions(p, n, injective=False):
    variables = p.variables
    out = []
    for tup in itertools.product(range(1, n + 1), repeat=len(variables)):
        if injective and len(set(tup)) != len(tup):
            continue
        if p.evaluate(dict(zip(variables, tup))) == 0:
            out.append(tup)
    return out


@pytest.mark.parametrize(
    "text",
    [
        "x + y - z",            # isolation on z, exponent 1
        "x + y - z^2",          # isolation on z, exponent 2
        "x1 + x2 - y1*y2",      # isolation on y2
        "x*y + x*z - y*z",      # isolation on z with cancelling coefficient
        "x + y^2 - y",          # no isolation: y occurs with exponents 2 and 1
        "2*x - x^2",            # single variable
    ],
)
def test_brute_force_matches_grid(text):
    p = parse(text)
    for injective in (False, True):
        got = [
            tuple(w.assignment[v] for v in p.variables)
            for w in brute_force_solutions(p, 9, injective=injective)
        ]
        assert got == _grid_solutions(p, 9, injective)


# -- default generators ----------------------------------------------------------


def test_lex_reduct_solution():
    assert witness._lex_reduct_solution((1, 1, -1), 20, 100) == ((2, 3, 5), 3)
    assert witness._lex_reduct_solution((1, -1), 20, 100)[0] is None
    alpha, _ = witness._lex_reduct_solution((2, 3, -5, 1), 20, 100)
    assert alpha is not None and len(set(alpha)) == 4
    assert sum(c * a for c, a in zip((2, 3, -5, 1), alpha)) == 0
    # the budget cuts the search short
    assert witness._lex_reduct_solution((1, 1, -1), 20, 2) == (None, 2)


def test_default_reduct_lift_answers_a_long_form():
    # the lexicographic searches run out of nodes, and the construction answers
    p = parse("3*a+5*b+7*c+11*d+13*e+17*f+19*g-23*h-29*i-31*j-37*k-41*l-43*m")
    started = time.perf_counter()
    [w] = build_witness(p)
    assert time.perf_counter() - started < 1.0
    assert (w.provenance, w.injective, p.evaluate(w.assignment)) == ("ReductLift", True, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50).filter(bool), min_size=3, max_size=24))
@example([-4, -3, 4])  # the least s leaves two entries equal: one more step of s
def test_constructed_alpha_is_distinct_zero_sum(coeffs):
    assume(min(coeffs) < 0 < max(coeffs))
    alpha = witness._constructed_alpha(coeffs)
    assert len(set(alpha)) == len(coeffs) and min(alpha) >= 2
    assert sum(c * a for c, a in zip(coeffs, alpha)) == 0


def test_lex_reduct_solution_not_recursion_bound():
    # one search level per coefficient, deeper than the default recursion limit
    expected = tuple(range(2, 1102)) + (sum(range(2, 1102)),)
    alpha, nodes = witness._lex_reduct_solution([1] * 1100 + [-1], 10**6, 2000)
    assert (alpha, nodes) == (expected, 1101)


def test_lex_reduct_solution_is_lexicographic_minimum():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 4)
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 5) for _ in range(k)]
        bound = rng.randint(2, 8)
        expected = next(
            (
                t
                for t in itertools.permutations(range(2, bound + 1), k)
                if sum(c * v for c, v in zip(coeffs, t)) == 0
            ),
            None,
        )
        assert witness._lex_reduct_solution(coeffs, bound, 10**6)[0] == expected


def test_primes_above():
    assert primes_above(10, 3) == (11, 13, 17)
    assert primes_above(1, 2) == (2, 3)


def test_primes_above_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    below = [n for n in range(10**5) if trial(n)]
    assert primes_above(0, len(below)) == tuple(below)
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, then primes
    for n in (3_215_031_751, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461):
        assert not witness._is_prime(n)
    assert witness._is_prime(2**61 - 1)
    assert primes_above(10**18, 2) == (10**18 + 3, 10**18 + 9)
    # past the Miller-Rabin witness bound: strong probable primes, no trial division
    assert witness._is_prime(2**89 - 1) and witness._is_prime(2**127 - 1)
    assert not witness._is_prime((2**61 - 1) * (2**89 - 1))


def _strong_probable_prime(n, bases):
    """Miller-Rabin of odd n > 2 to every base in ``bases``."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@pytest.mark.parametrize("bound", sorted(set(witness._BASE_BOUNDS[:-1])))
def test_fewer_bases_answer_as_all_thirteen(bound):
    # each bound is a strong pseudoprime to the bases below it in the table,
    # which is why it needs one more; around it, the bases _is_prime picks
    # answer as all 13 do
    t = witness._BASE_BOUNDS.index(bound) + 1
    assert _strong_probable_prime(bound, witness._SMALL_PRIMES[:t])
    assert not witness._is_prime(bound)
    for n in range(bound - 1000, bound + 1000):
        expected = n > 1 and (
            n in witness._SMALL_PRIMES
            or math.gcd(n, math.prod(witness._SMALL_PRIMES)) == 1
            and _strong_probable_prime(n, witness._SMALL_PRIMES)
        )
        assert witness._is_prime(n) == expected, n


def _primes_one_by_one(lower, count):
    """The first ``count`` primes above ``lower``, testing each integer."""
    found, n = [], lower + 1
    while len(found) < count:
        if witness._is_prime(n):
            found.append(n)
        n += 1
    return tuple(found)


@pytest.mark.parametrize(
    "lower, count",
    [
        (0, 60),
        (1, 3),
        (89, 4),
        (10**9 - 100, 6),
        (10**18, 5),
        (witness._WITNESS_BOUND - 500, 8),  # windows below and above the bound
        (witness._WITNESS_BOUND * 1_000_003, 3),
        (2**witness._SIEVE_BITS - 1, 3),  # the first sieved start
        (2**400 + 1, 2),
    ],
)
def test_sieved_primes_above_match_testing_each_candidate(lower, count):
    assert primes_above(lower, count) == _primes_one_by_one(lower, count)


def test_default_lift_of_a_long_product_form_answers():
    # the primes above the constructed values (about 10^13) take Miller-Rabin
    # steps, not trial division
    rng = random.Random(1)
    coeffs = [rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(40)]
    p = Polynomial.from_terms([(c, {f"x{i}": 1, f"y{i}": 1}) for i, c in enumerate(coeffs)])
    started = time.perf_counter()
    [found] = build_witness(p)
    assert time.perf_counter() - started < 1.0
    assert p.evaluate(found.assignment) == 0 and found.injective


def test_each_lift_decides_the_zero_sum_condition_once(monkeypatch):
    # J is computed in one place, ``classify._zero_sum``, whose zero-sum table
    # is built by ``_minimal_subset``; the rules and the lifts read the J it
    # keeps with the polynomial
    classify_mod = importlib.import_module("rado_forge.classify")
    built = []
    build = classify_mod._minimal_subset

    def counted(values, target):
        built.append(values)
        return build(values, target)

    monkeypatch.setattr(classify_mod, "_minimal_subset", counted)
    methods = {"RadoLinear": "reduct", "Thm3.5": "reduct", "Thm4.2": "nlp"}
    lifted = [f for f in load_fixtures() if f.theorem in methods]
    assert {f.theorem for f in lifted} == set(methods)
    for fixture in lifted:
        built.clear()
        p = parse(fixture.text)
        assert classify(p).certificate.theorem == fixture.theorem
        [w] = build_witness(p, methods[fixture.theorem])
        assert len(built) == 1, fixture.text
        assert w.value == 0
        built.clear()
        [alone] = build_witness(parse(fixture.text), methods[fixture.theorem])
        assert len(built) == 1, fixture.text
        assert alone == w


def test_each_polynomial_builds_its_degree_profile_once(monkeypatch):
    built = []
    build = poly._degree_profile

    def counted(p):
        built.append(p)
        return build(p)

    monkeypatch.setattr(poly, "_degree_profile", counted)
    fixtures = [f for f in load_fixtures() if f.theorem == "Thm4.2"]
    assert fixtures
    for fixture in fixtures:
        built.clear()
        p = parse(fixture.text)
        verdict = classify(p)
        assert replay_certificate(p, verdict)
        [w] = build_witness(p, "nlp")
        assert w.value == 0
        assert [q for q in built if q is p] == [p], fixture.text
        assert len({id(q) for q in built}) == len(built), fixture.text


def _sum_of_products(k, extra):
    """x1*y1*extra + ... + x(k-1)*y(k-1)*extra - xk*yk*extra."""
    return Polynomial.from_terms(
        [(-1 if i == k else 1, {f"x{i}": 1, f"y{i}": 1, **extra}) for i in range(1, k + 1)]
    )


@pytest.mark.parametrize(
    "k, extra", [(12, {"z": 2}), (16, {"z": 2}), (70, {})], ids=["thm4.2-k12", "thm4.2-k16", "thm3.5-k70"]
)
def test_long_certified_forms_get_a_witness(k, extra):
    # the primes above the lifted values pass 82 bits, beyond the Miller-Rabin
    # witness bound, where trial division did not finish
    p = _sum_of_products(k, extra)
    assert classify(p).certificate.theorem == ("Thm4.2" if extra else "Thm3.5")
    started = time.perf_counter()
    [w] = build_witness(p)
    assert time.perf_counter() - started < 2.0
    assert p.evaluate(w.assignment) == 0 and w.injective


def test_witness_via_reduct_default_injective():
    for text in [
        "x1 + x2 - y1*y2",
        "x1*y1 + x2*y1*y2 - x3",
        "2*x1+3*x2*y1*y2-5*x3*y1+x4*y2*y3",
        "x1*x2 + 4*x2*x3 - 2*x4 + x2*x5",
    ]:
        p = parse(text)
        w = witness_via_reduct(p)
        assert p.evaluate(w.assignment) == 0
        assert w.injective


def test_witness_via_nlp_default_injective():
    for text in [
        "t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2",
        WORKED,
    ]:
        p = parse(text)
        w = witness_via_nlp(p)
        assert p.evaluate(w.assignment) == 0
        assert w.injective


def test_witness_hypothesis_failures():
    with pytest.raises(HypothesisFailure):
        witness_via_reduct(parse("x*y + y*z - x*z"))
    with pytest.raises(HypothesisFailure):
        witness_via_reduct(parse("x^2 - y"))
    with pytest.raises(HypothesisFailure):
        witness_via_nlp(parse("x + y - z^2"))
    with pytest.raises(HypothesisFailure):
        witness_via_nlp(parse("x^2 - y^3"))


def test_build_witness_auto():
    (w,) = build_witness(parse("x1 + x2 - y1*y2"))
    assert w.provenance == "ReductLift"
    (w,) = build_witness(parse("t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2"))
    assert w.provenance == "NlpLift"
    (w,) = build_witness(parse("x*y + x*z - y*z"))
    assert w.provenance == "BruteForce"
    with pytest.raises(HypothesisFailure):
        build_witness(parse("x + y + z"), n_bound=10)


# -- randomized identity suites (small; the acceptance suite runs the full sizes)


def test_reduct_lift_random_instances():
    rng = random.Random(101)
    for _ in range(60):
        p = random_lev_polynomial(rng)
        form = to_lev_form(p)
        alpha = positive_reduct_alpha(form.coefficients)
        y_values = tuple(rng.randint(1, 1000) for _ in form.product_vars)
        w = reduct_lift(form, alpha, y_values)
        assert w.value == 0
        assert p.evaluate(w.assignment) == 0
        assert reduct_lift_formal_check(form, alpha)


def test_nlp_lift_random_instances():
    rng = random.Random(202)
    for _ in range(30):
        p = random_nonlinear_polynomial(rng)
        shape, failures = nonlinear_shape(p)
        assert not failures
        w = witness_via_nlp(p)
        assert w.value == 0
        assert p.evaluate(w.assignment) == 0
        assert w.injective
