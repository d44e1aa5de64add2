"""Coloring search tests: Schur fixtures, oracle equivalence, determinism."""

import argparse
import collections
import importlib
import importlib.util
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rado_forge import check, search, solutions, witness
from rado_forge.cli import main
from rado_forge.poly import EmptyPolynomialError, Polynomial, parse
from rado_forge.search import (
    BAD_COLORING,
    FORCED,
    INCONCLUSIVE,
    Coloring,
    enumerate_constraints,
    find_bad_coloring,
    monochromatic_solution,
    rado_number,
)
from rado_forge.solutions import SearchSpaceTooLargeError, brute_force_solutions
from rado_forge.witness import build_witness

SCHUR = parse("x + y - z")


# -- constraints ----------------------------------------------------------


def test_enumerate_constraints_examples():
    values = set(enumerate_constraints(SCHUR, 4))
    assert values == {(1, 1, 2), (1, 2, 3), (2, 1, 3), (1, 3, 4), (3, 1, 4), (2, 2, 4)}

    assert enumerate_constraints(SCHUR, 2, injective=True) == []

    p = parse("x1 + x2 - y1*y2")
    values = set(enumerate_constraints(p, 6, injective=True))
    assert (1, 5, 2, 3) in values


def test_constraints_lexicographic_and_verified():
    constraints = enumerate_constraints(SCHUR, 6)
    assert constraints == sorted(constraints)
    for c in constraints:
        assert SCHUR.evaluate(dict(zip(SCHUR.variables, c))) == 0


def _value_sets(layer, value):
    """The distinct value sets of the layer of ``value``, each without
    ``value`` itself: what the search files when it reads the layer."""
    return {frozenset(t) - {value} for t in layer}


def _oracle_layers(p, n, injective):
    """The oracle's solutions in [1..n], grouped by their largest value."""
    layers = [[] for _ in range(n)]
    for t in enumerate_constraints(p, n, injective):
        layers[max(t) - 1].append(t)
    return layers


@pytest.mark.parametrize(
    "text",
    [
        "x + y - z",  # roots above N wait for their own layer
        "x1 + x2 + x3 - x4",
        "x1 + x2 - y1*y2",  # roots at or below N join layer N; the lead varies
        "x*z - y*z + x - y",  # x = y: every z solves
        "x^2 + y^2 - z^2",  # the solved variable has exponent 2
        "x*z^2 + z - y",  # y bounds the walk, though z is not isolable
        "a*c + b*c - c^2",  # no variable is isolable: the grid is walked, a and b as one block
        "x1 + x2 + x3 - y1*y2",  # x3 stands alone and is solved for; y1, y2 are walked first
        "x + y - 2*z",  # z bounds the walk: prefixes stop once 2z would pass N
        "z - x - 3*y",  # a positive lead
        "x^2 + y^2 - 2*z^2",
        "x^2 - x",  # one variable
        "x*y + 2*z",  # one-signed: no positive solutions, and no walk
    ],
)
def test_layered_enumeration_matches_oracle(text):
    # the search's layers hold one tuple per orbit, variables block by block,
    # so a layer is compared with the oracle's by the value sets it files
    p = parse(text)
    for injective in (False, True):
        for n in range(1, 11):
            _, layered = solutions.solution_layers(p, n, injective)
            oracle = _oracle_layers(p, n, injective)
            assert [_value_sets(layer, v) for v, layer in enumerate(layered, 1)] == [
                _value_sets(layer, v) for v, layer in enumerate(oracle, 1)], (n, injective)
        # the layers and the oracle share the solutions primitives; the full grid shares none
        grid = [
            t
            for t in itertools.product(range(1, 11), repeat=len(p.variables))
            if p.evaluate(dict(zip(p.variables, t))) == 0
            and (not injective or len(set(t)) == len(t))
        ]
        assert enumerate_constraints(p, 10, injective) == grid, injective


_LAYER_FORMS = [  # those of test_layered_enumeration_matches_oracle, then
    "x + y - z", "x1 + x2 + x3 - x4", "x1 + x2 - y1*y2", "x*z - y*z + x - y", "x^2 + y^2 - z^2",
    "x*z^2 + z - y", "a*c + b*c - c^2", "x1 + x2 + x3 - y1*y2", "x + y - 2*z", "z - x - 3*y",
    "x^2 + y^2 - 2*z^2", "x^2 - x", "x*y + 2*z",
    # lone coefficients other than 1, whose walks check both sums; a negated
    # lead; a step that moves the product term x*y; and terms of both signs
    # beside the lone variable solved for, so that linear steps check a
    # second sum that falls as they rise
    "x + y - 3*z", "2*x + 3*y - 5*z", "5*z - x - 2*y", "x*y + y - 2*z", "3*d - a - 2*e + 2*b^2",
    # blocks whose steps move several non-linear terms, and steps that move
    # linear and non-linear terms at once
    "x1*y + x2*y + x3*y - z", "x1 + x2 + x3*y^2 - 2*z", "x1*y + x2*y - z^2 + w",
]


@pytest.mark.parametrize("text", _LAYER_FORMS)
def test_layers_hold_the_oracle_representatives_in_order(text):
    # each layer, tuples and order, is the oracle's solutions with that
    # largest value, rearranged into the layers' variable order, kept when
    # nondecreasing inside each block of interchangeable variables, sorted
    p = parse(text)
    _, blocks = solutions._layout(p)
    for injective in (False, True):
        for n in range(1, 11):
            variables, layered = solutions.solution_layers(p, n, injective)
            index = [p.variables.index(v) for v in variables]
            expected = [[] for _ in range(n)]
            for t in enumerate_constraints(p, n, injective):
                if all(t[i] <= t[j] for block in blocks for i, j in zip(block, block[1:])):
                    expected[max(t) - 1].append(tuple(t[i] for i in index))
            assert list(layered) == [sorted(layer) for layer in expected], (n, injective)


def test_a_wide_form_does_not_meet_the_recursion_limit():
    # the walk sets 300 free positions per leaf; with the recursion limit a
    # few dozen frames above this test's own depth, the search and its
    # layers are those at the default limit
    p = parse(" + ".join(f"x{i}" for i in range(1, 301)) + " - 300*y")

    def run():
        outcome = find_bad_coloring(p, 2, 2)
        _, layers = solutions.solution_layers(p, 2, False)
        return outcome.kind, outcome.coloring, outcome.stats.nodes, list(layers)

    expected = run()
    assert expected[0] == FORCED and expected[3] == [[(1,) * 301], [(2,) * 301]]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        assert run() == expected
    finally:
        sys.setrecursionlimit(limit)


def test_each_walk_step_is_built_once_per_form(monkeypatch):
    # y bounds the walk and no two x's are interchangeable: 40 blocks of one.
    # The form's terms are indexed once, and a step depends only on its
    # position and where its fill stops, so the groups share it: at most two
    # splits per position and sum, not one per block and position (40 * 39 =
    # 1,560 for the first sum alone)
    indexed, built = [], []
    term_index = solutions._term_index

    def counted(terms, width):
        split = term_index(terms, width)
        indexed.append(width)

        def counted_split(fill, top, read):
            built.append((id(read), fill, top))
            return split(fill, top, read)

        return counted_split

    monkeypatch.setattr(solutions, "_term_index", counted)
    p = parse(" + ".join(f"{i}*x{i}" for i in range(1, 41)) + " - y")
    assert list(solutions.solution_layers(p, 1, False)[1]) == [[]]
    per_position = collections.Counter((read, fill.start) for read, fill, _ in built)
    assert len(indexed) == 1 and built and len(set(built)) == len(built)
    assert max(per_position.values()) <= 2
    # a block's steps cost what they move, not the block's width squared:
    # Hindman's x1 + ... + x2400 - y1*y2 (seconds when each step scanned
    # every term and kept the second sum's others)
    monkeypatch.undo()
    hindman = parse(" + ".join(f"x{i}" for i in range(1, 2401)) + " - y1*y2")
    started = time.perf_counter()
    assert find_bad_coloring(hindman, 2, 2).kind == BAD_COLORING
    assert time.perf_counter() - started < 1.0


def test_a_wide_form_over_the_budget_raises_promptly():
    # 400 blocks of one hold 2^400 candidates at N = 2; the layout tests
    # each pair on the two monomials that hold it, and each step is built once
    p = parse(" + ".join(f"{i}*x{i}" for i in range(1, 401)) + " - y")
    started = time.perf_counter()
    with pytest.raises(SearchSpaceTooLargeError):
        find_bad_coloring(p, 2, 2)
    assert time.perf_counter() - started < 2.0


def _split_reference(terms, fill, top):
    """``solutions._term_index``'s split by one loop over every term's factors:
    the slope and ``at_top`` of the linear terms it moves, and the others."""
    slope = at_top = 0
    moving = []
    for c, exps in terms:
        if len(exps) == 1 and exps[0][1] == 1:
            slope += c * (exps[0][0] == top or exps[0][0] in fill)
            at_top += c * (exps[0][0] == top)
        elif any(i == top or i in fill for i, _ in exps):
            moving.append((c, exps))
    return slope, at_top, moving


@pytest.mark.parametrize("fill", [range(0), range(1, 2), range(0, 3), range(2, 5)])
@pytest.mark.parametrize("top", [0, 2, 4, 7])
def test_a_step_splits_its_terms_as_one_loop_over_the_factors_does(fill, top):
    # one-factor terms, linear and not, beside terms of two and three factors,
    # on a walk's t: the least completion in slots 0..9, the greatest in
    # 10..19.  A step moves its fill and top's slot in the greatest; the
    # second sum's step is the same split at the mirrored slots
    least = [(1, [(0, 1)]), (3, [(2, 1)]), (-2, [(4, 1)]), (5, [(3, 2)]), (-1, [(7, 1)]),
             (2, [(1, 1), (5, 1)]), (-4, [(2, 1), (6, 2)]), (1, [(5, 1), (6, 1), (8, 3)])]
    terms = least + [(-c, [(i + 10, e) for i, e in exps]) for c, exps in least]
    terms += [(1, [(2, 1), (12, 1)]), (-3, [(top, 1), (10 + top, 2)])]
    for k in range(len(terms) + 1):
        for chosen in (terms[:k], terms[k:], terms[::-1][:k]):
            split = solutions._term_index(chosen, 20)
            for moved, at in ((fill, 10 + top), (range(10 + fill.start, 10 + fill.stop), top)):
                assert split(moved, at, chosen) == _split_reference(chosen, moved, at)


def _candidates_raise(n, sizes):
    """The message of ``_check_candidates(n, sizes)``, or None when it passes."""
    try:
        solutions._check_candidates(n, sizes)
    except SearchSpaceTooLargeError as error:
        return str(error)
    return None


@pytest.mark.parametrize(
    "text,injective",
    [
        ("x1 + x2 + x3 - x4", False),  # a block of three interchangeable variables
        ("x1 + x2 - y1*y2", True),  # a lone variable solved for, not bounding
        ("x + 2*y - z", False),  # a bounding variable solved for
        ("a*c + b*c - c^2", False),  # the grid walked
        ("x + 2*y + z", False),  # one-signed: empty layers, no walk
    ],
)
def test_the_budget_raises_at_the_first_layer_over_it(text, injective, monkeypatch):
    # the layers find the first layer over the budget once, when the first
    # layer is read; reading one layer at a time must raise exactly where a
    # check at every layer would, with the same text, after the same layers
    p = parse(text)
    max_n = 12
    sizes = [len(b) for b in solutions._layout(p)[1]]
    unlimited = list(solutions.solution_layers(p, max_n, injective)[1])
    counts = [math.prod(math.comb(n + s - 1, s) for s in sizes) for n in range(1, max_n + 1)]
    for count in (counts[5], counts[9]):
        for budget in (count - 1, count, count + 1):
            monkeypatch.setattr(solutions, "DEFAULT_ENUM_BUDGET", budget)
            wall = next((n for n in range(1, max_n + 1) if _candidates_raise(n, sizes)), None)
            _, layers = solutions.solution_layers(p, max_n, injective)
            for n in range(1, (wall or max_n + 1)):
                assert next(layers) == unlimited[n - 1], (budget, n)
            if wall is None:
                assert next(layers, "end") == "end"
                continue
            with pytest.raises(SearchSpaceTooLargeError) as error:
                next(layers)
            assert str(error.value) == _candidates_raise(wall, sizes), budget


@pytest.mark.parametrize("text", ["x + y - z", "x*z^2 + z - y", "x^2 - x"])
def test_enumeration_budget_message_matches_oracle(text, monkeypatch):
    # the oracle and the search's layers raise in the same words; the layers
    # are read to the end, since every search of x^2 - x is Forced at 1
    monkeypatch.setattr(solutions, "DEFAULT_ENUM_BUDGET", 30)
    p = parse(text)
    with pytest.raises(SearchSpaceTooLargeError) as oracle:
        brute_force_solutions(p, 40)
    with pytest.raises(SearchSpaceTooLargeError) as layered:
        list(solutions.solution_layers(p, 40, False)[1])
    for error in (oracle, layered):
        assert re.fullmatch(r"\d+ candidate tuples exceed the budget of 30", str(error.value))


@pytest.mark.parametrize("text", ["x + 2*y - z", "x + 2*y + z"])
def test_one_budget_bounds_every_enumerator(text, monkeypatch):
    # x + 2*y - z has no interchangeable pair, so [1..6] counts 6^2 = 36
    # candidates in the oracle, in build_witness and at the search's layer 6;
    # the one-signed x + 2*y + z answers empty, but only within the budget
    monkeypatch.setattr(solutions, "DEFAULT_ENUM_BUDGET", 30)
    p = parse(text)
    for enumerate_ in (
        lambda: brute_force_solutions(p, 6),
        lambda: build_witness(p, "brute", 6),
        lambda: find_bad_coloring(p, 2, 6),
    ):
        with pytest.raises(SearchSpaceTooLargeError, match="^36 candidate tuples exceed the budget of 30$"):
            enumerate_()


def test_one_oracle_and_one_budget_binding():
    # a tracer that wraps witness.brute_force_solutions installs the wrapper
    # at search.brute_force_solutions too; and a copy of the budget in
    # witness would bound nothing when assigned
    assert witness.brute_force_solutions is search.brute_force_solutions
    assert search.brute_force_solutions is solutions.brute_force_solutions
    assert not hasattr(witness, "DEFAULT_ENUM_BUDGET")
    assert not hasattr(search, "DEFAULT_ENUM_BUDGET")


def test_one_signed_search_reads_empty_layers_without_a_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-signed form has no positive solutions to walk for")

    monkeypatch.setattr(solutions, "_walker", refuse)
    outcome = find_bad_coloring(parse("x + y + z"), 2, 1500)
    assert (outcome.kind, outcome.coloring.colors) == (BAD_COLORING, (0,) * 1500)
    assert (outcome.stats.nodes, outcome.stats.constraints) == (1500, 0)


@pytest.mark.parametrize("text", ["x + y - z", "x1 + x2 - y1*y2"])
def test_checks_do_not_run_the_search_enumerator(text, monkeypatch):
    # enumerate_constraints and monochromatic_solution answer from the
    # oracle, so a check made through them is independent of the layers
    p = parse(text)
    oracle = [
        tuple(w.assignment[v] for v in p.variables) for w in brute_force_solutions(p, 6)
    ]

    def broken(*args):
        raise AssertionError("the search's enumerator ran")

    monkeypatch.setattr(search, "solution_layers", broken)
    assert enumerate_constraints(p, 6) == oracle
    for colors in itertools.product(range(2), repeat=6):
        coloring = Coloring(colors)
        first = next((t for t in oracle if len({colors[v - 1] for v in t}) == 1), None)
        assert monochromatic_solution(p, coloring) == first, colors


# -- find_bad_coloring ----------------------------------------------------------


def test_schur_bad_coloring_at_4():
    outcome = find_bad_coloring(SCHUR, 2, 4)
    assert outcome.kind == BAD_COLORING
    assert outcome.coloring.colors == (0, 1, 1, 0)
    assert outcome.coloring.classes() == [[1, 4], [2, 3]]


def test_schur_forced_at_5():
    outcome = find_bad_coloring(SCHUR, 2, 5)
    assert outcome.kind == FORCED


def test_three_color_schur_number():
    # classical value: 3-colorings of [1..13] can avoid monochromatic
    # x + y = z, colorings of [1..14] cannot
    assert find_bad_coloring(SCHUR, 3, 13).kind == BAD_COLORING
    assert find_bad_coloring(SCHUR, 3, 14).kind == FORCED
    assert rado_number(SCHUR, 3, 14) == 14


def test_single_color():
    # one color: forced exactly when a solution exists in [1..N]
    forced = find_bad_coloring(SCHUR, 1, 2)  # (1,1,2)
    assert forced.kind == FORCED
    # 2 is refused by {1, 2}, which names 1, the value just below: no jump
    assert (forced.stats.nodes, forced.stats.jumps) == (2, 0)
    assert find_bad_coloring(SCHUR, 1, 1).kind == BAD_COLORING


def test_budget_exhaustion_is_inconclusive():
    outcome = find_bad_coloring(SCHUR, 2, 9, injective=True, budget=5)
    assert outcome.kind == INCONCLUSIVE


def test_bad_coloring_has_no_monochromatic_solution():
    for n in (3, 4):
        outcome = find_bad_coloring(SCHUR, 2, n)
        assert outcome.kind == BAD_COLORING
        assert monochromatic_solution(SCHUR, outcome.coloring) is None


def test_invalid_bad_coloring_is_rejected(monkeypatch):
    # a kernel that returned a coloring with a monochromatic solution must
    # not get past the re-verification, alone or inside a scan
    def all_zero(layers, r, n, budget):
        return [0] * n, list(layers), False, 0, 0, 0, 0.0

    monkeypatch.setattr(search, "_first_bad_coloring", all_zero)
    for run in (find_bad_coloring, rado_number):
        with pytest.raises(AssertionError, match="search produced an invalid bad coloring"):
            run(SCHUR, 2, 4)


def test_reverification_reaches_the_last_value(monkeypatch):
    # (1, 4, 5) is the only monochromatic solution under this coloring, and
    # its largest value is the last one colored
    def last_value_bad(layers, r, n, budget):
        return [0, 1, 1, 0, 0], list(layers), False, 0, 0, 0, 0.0

    monkeypatch.setattr(search, "_first_bad_coloring", last_value_bad)
    for run in (find_bad_coloring, rado_number):
        with pytest.raises(AssertionError, match="search produced an invalid bad coloring"):
            run(SCHUR, 2, 5)


def _wrong_divmod(a, b):
    """``divmod``, but with the quotient 3 for 2: planted in ``solutions``,
    the solve step of a lone linear variable answers 3 for the root 2."""
    root, remainder = divmod(a, b)
    return (3 if root == 2 else root), remainder


def _refuses_the_plant(text, planted, monkeypatch):
    monkeypatch.setattr(solutions, "divmod", _wrong_divmod, raising=False)
    p = parse(text)
    for run in (find_bad_coloring, rado_number):
        with pytest.raises(
            AssertionError,
            match=re.escape(f"enumerator produced a non-solution: {planted}"),
        ):
            run(p, 2, 5)


def test_a_layer_holding_a_non_solution_is_refused(monkeypatch):
    # a solve step that answers 3 for the root 2 of x + y = z puts the
    # non-solution (1, 1, 3) into layer 3: the layers' re-verification must
    # refuse it, alone or inside a scan
    _refuses_the_plant("x + y - z", "{'x': 1, 'y': 1, 'z': 3}", monkeypatch)


def test_a_wrong_root_of_a_non_unit_lone_coefficient_is_refused(monkeypatch):
    # the lone 3*z divides the rest: answering 3 for the root 2 of
    # x + y = 3z plants (3, 3, 3), the first planted tuple in read order
    _refuses_the_plant("x + y - 3*z", "{'x': 3, 'y': 3, 'z': 3}", monkeypatch)


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    """Runs ``script`` under ``python -O``, importing this package."""
    import rado_forge

    src = str(Path(rado_forge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("run", ["find_bad_coloring", "rado_number"])
def test_a_non_solution_is_refused_under_python_O(run):
    script = f"""
from rado_forge import search, solutions
from rado_forge.poly import parse

def wrong(a, b):
    root, remainder = divmod(a, b)
    return (3 if root == 2 else root), remainder

solutions.divmod = wrong  # the lone linear solve answers 3 for the root 2
print("outcome", search.{run}(parse("x + y - z"), 2, 5))
"""
    done = _run_optimized(script)
    assert done.returncode != 0
    assert "outcome" not in done.stdout
    assert "AssertionError: enumerator produced a non-solution: {'x': 1, 'y': 1, 'z': 3}" in done.stderr


def _planted(p, n, injective):
    """The search's layers of p, with the non-solution (2, 2, 5) after the
    solutions of layer 5: every 2-coloring of x + y = z dies at 5, so that
    is the last layer its search reads."""
    variables, layers = solutions.solution_layers(p, n, injective)
    return variables, (
        layer + [(2, 2, 5)] if value == 5 else layer for value, layer in enumerate(layers, 1))


@pytest.mark.parametrize("run", [find_bad_coloring, rado_number])
def test_a_non_solution_in_the_last_layer_read_is_refused(run, monkeypatch):
    monkeypatch.setattr(search, "solution_layers", _planted)
    with pytest.raises(
        AssertionError,
        match=re.escape("enumerator produced a non-solution: {'x': 2, 'y': 2, 'z': 5}"),
    ):
        run(SCHUR, 2, 5)


@pytest.mark.parametrize("run", ["find_bad_coloring", "rado_number"])
def test_a_non_solution_in_the_last_layer_read_is_refused_under_python_O(run):
    script = "from rado_forge import search, solutions\n" + inspect.getsource(_planted) + f"""
from rado_forge.poly import parse
search.solution_layers = _planted
print("outcome", search.{run}(parse("x + y - z"), 2, 5))
"""
    done = _run_optimized(script)
    assert done.returncode != 0
    assert "outcome" not in done.stdout
    assert "AssertionError: enumerator produced a non-solution: {'x': 2, 'y': 2, 'z': 5}" in done.stderr


@pytest.mark.parametrize("run", ["find_bad_coloring", "rado_number"])
def test_an_invalid_bad_coloring_is_refused_under_python_O(run):
    script = f"""
from rado_forge import search
from rado_forge.poly import parse

def last_value_bad(layers, r, n, budget):
    return [0, 1, 1, 0, 0], list(layers), False, 0, 0, 0, 0.0

search._first_bad_coloring = last_value_bad
print("outcome", search.{run}(parse("x + y - z"), 2, 5))
"""
    done = _run_optimized(script)
    assert done.returncode != 0
    assert "outcome" not in done.stdout
    assert "AssertionError: search produced an invalid bad coloring" in done.stderr


def test_colors_beyond_the_bound_cost_nothing():
    # a canonical coloring of [1..4] uses at most four colors, so ten
    # million colors allocate no more than four do
    tracemalloc.start()
    try:
        outcome = find_bad_coloring(SCHUR, 10**7, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.coloring.colors == (0, 1, 0, 2)
    assert peak < 1_000_000


def test_forced_monotone_spot_check():
    assert find_bad_coloring(SCHUR, 2, 5).kind == FORCED
    assert find_bad_coloring(SCHUR, 2, 6).kind == FORCED


# -- monochromatic_solution ----------------------------------------------------------


def test_color_of_reads_only_values_of_the_coloring():
    coloring = Coloring((0, 1, 1))
    assert [coloring.color_of(v) for v in (1, 2, 3)] == [0, 1, 1]
    for value in (0, -1, -3, 4):  # below 1, an index would read the colors from the end
        with pytest.raises(IndexError):
            coloring.color_of(value)


def test_monochromatic_solution_examples():
    assert monochromatic_solution(SCHUR, Coloring((0, 0, 0))) == (1, 1, 2)
    assert monochromatic_solution(SCHUR, Coloring((0, 1, 1, 0))) is None
    # no solutions at all in [1..1]
    assert monochromatic_solution(SCHUR, Coloring((0,))) is None
    # nor in the empty interval
    assert monochromatic_solution(SCHUR, Coloring(())) is None
    with pytest.raises(ValueError, match="bound must be >= 1"):
        enumerate_constraints(SCHUR, 0)


def _first_monochromatic_per_tuple(rows, coloring):
    """The per-tuple reference: the first row whose values share one color."""
    for t in rows:
        first = coloring.color_of(t[0])
        if all(coloring.color_of(v) == first for v in t[1:]):
            return t
    return None


@pytest.mark.parametrize("text", ["x + y - z", "x1 + x2 + x3 - x4"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_column_check_finds_the_first_monochromatic_tuple(text, data):
    p = parse(text)
    n = data.draw(st.integers(1, 12), label="n")
    colors = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label="colors"))
    coloring = Coloring(colors)
    rows = enumerate_constraints(p, n)
    first = _first_monochromatic_per_tuple(rows, coloring)
    assert check._first_monochromatic(rows, (None, *colors)) == first
    # first lexicographic: the oracle's rows are in lexicographic order
    monochromatic = [t for t in rows if len({coloring.color_of(v) for v in t}) == 1]
    assert first == min(monochromatic, default=None)
    assert monochromatic_solution(p, coloring) == first
    for layer in solutions.solution_layers(p, n, False)[1]:
        found = check._first_monochromatic(layer, (None, *colors))
        assert found == _first_monochromatic_per_tuple(layer, coloring)


def test_column_check_of_one_column():
    # a one-variable row is monochromatic by itself
    assert check._first_monochromatic([(2,), (1,)], (None, 0, 1)) == (2,)
    assert check._first_monochromatic([], (None, 0, 1)) is None


# -- rado_number ----------------------------------------------------------


def test_schur_threshold():
    assert rado_number(SCHUR, 2, 10) == 5


def test_weak_schur_threshold():
    assert rado_number(SCHUR, 2, 12, injective=True) == 9


def test_bound_below_one_is_rejected():
    for bound in (0, -3):
        for run in (find_bad_coloring, rado_number):
            with pytest.raises(ValueError, match="^bound must be >= 1$"):
                run(SCHUR, 2, bound)


def test_fewer_than_one_color_is_rejected():
    for r in (0, -2):
        for run in (find_bad_coloring, rado_number):
            with pytest.raises(ValueError, match="^need at least one color$"):
                run(SCHUR, r, 5)


def test_negative_budget_is_rejected():
    # a budget of 0 spends no node and is Inconclusive; below 0 is no budget
    for run in (find_bad_coloring, rado_number):
        with pytest.raises(ValueError, match="^budget must be >= 0$"):
            run(SCHUR, 2, 5, budget=-3)
    outcome = find_bad_coloring(SCHUR, 2, 5, budget=0)
    assert (outcome.kind, outcome.coloring, outcome.stats.nodes) == (INCONCLUSIVE, None, 0)
    assert rado_number(SCHUR, 2, 5, budget=0) is None


def test_not_pr_polynomial_has_no_threshold():
    assert rado_number(parse("x + y - 3*z"), 2, 8) is None


def test_rado_number_nondecreasing_in_colors():
    two = rado_number(SCHUR, 2, 8)
    three = rado_number(SCHUR, 3, 8)
    assert two == 5
    assert three is None or three >= two


def test_injective_threshold_at_least_plain():
    plain = rado_number(SCHUR, 2, 12)
    injective = rado_number(SCHUR, 2, 12, injective=True)
    assert plain is not None and injective is not None
    assert injective >= plain


def test_hindman_shape_thresholds():
    p = parse("x1 + x2 - y1*y2")
    # 2+2 = 2*2 is a single-value solution, so N = 2 forces immediately
    assert rado_number(p, 2, 6) == 2
    # injective mode: no forced N up to 12 (recorded oracle outcome)
    assert rado_number(p, 2, 12, injective=True) is None


def test_threshold_scan_enumerates_each_solution_once(monkeypatch):
    # x1 + x2 + x3 = x4 has C(11, 3) = 165 solutions in [1..11], and 41 with
    # x1 <= x2 <= x3, one per orbit of the interchangeable x1, x2, x3; a scan
    # that re-enumerated [1..N] for each N would re-verify more rows
    rows = []
    evaluate_many = Polynomial.evaluate_many

    def counted(self, order, layer):
        rows.extend(layer)
        return evaluate_many(self, order, layer)

    monkeypatch.setattr(Polynomial, "evaluate_many", counted)
    assert rado_number(parse("x1 + x2 + x3 - x4"), 2, 12) == 11
    assert len(rows) == 41


@pytest.mark.parametrize(
    "text,r,n,injective,budget",
    [
        ("x^2 + y^2 - z^2", 2, 60, False, None),  # most layers are empty
        ("x + y - z", 2, 12, True, None),  # the injective filter empties layer 2
        ("x + y - z", 3, 13, False, None),  # a bad coloring: no layer above it
        ("x + y - z", 3, 20, False, 100),  # Inconclusive
    ],
)
def test_every_tuple_read_is_re_verified_once(text, r, n, injective, budget, monkeypatch):
    # one evaluate_many call per search, over exactly the tuples of the
    # layers it read, in read order: those up to the deepest coloring and the
    # layer above it
    p = parse(text)
    calls, reads = [], []
    evaluate_many = Polynomial.evaluate_many

    def counted(self, order, rows):
        calls.append(list(rows))
        return evaluate_many(self, order, rows)

    kernel = search._first_bad_coloring

    def recorded(layers, r, n, budget):
        result = kernel(layers, r, n, budget)
        reads.append(result[1])
        return result

    monkeypatch.setattr(Polynomial, "evaluate_many", counted)
    monkeypatch.setattr(search, "_first_bad_coloring", recorded)
    kwargs = {} if budget is None else {"budget": budget}
    outcome = find_bad_coloring(p, r, n, injective, **kwargs)
    (read,) = reads
    assert len(read) == min(outcome.stats.depth_max + 1, n)
    assert read == list(itertools.islice(solutions.solution_layers(p, n, injective)[1], len(read)))
    assert calls == [[t for layer in read for t in layer]]
    assert 0 < len(calls[0]) == outcome.stats.constraints
    calls.clear()
    rado_number(p, r, n, injective, **kwargs)
    assert calls == [[t for layer in reads[1] for t in layer]] and reads[1] == read


@pytest.mark.parametrize("text,r,n", [("x + y + z", 2, 50), ("x^2 + y^2 - z^2", 2, 4)])
def test_no_tuple_read_is_no_re_verification(text, r, n, monkeypatch):
    # a one-signed form, and the first four layers of x^2 + y^2 = z^2, hold
    # no solution: the search reads no tuple and calls no evaluate_many
    calls = []
    evaluate_many = Polynomial.evaluate_many

    def counted(self, order, rows):
        calls.append(rows)
        return evaluate_many(self, order, rows)

    monkeypatch.setattr(Polynomial, "evaluate_many", counted)
    outcome = find_bad_coloring(parse(text), r, n)
    assert (outcome.kind, outcome.stats.constraints) == (BAD_COLORING, 0)
    assert rado_number(parse(text), r, n) is None
    assert calls == []


@pytest.mark.parametrize(
    "text,injective,max_n",
    [
        ("x + y - z", False, 8),
        ("x + y - z", True, 12),
        ("x + 2*y - z", False, 12),
        ("x + y - 3*z", False, 8),  # not PR: no threshold
    ],
)
def test_threshold_is_first_standalone_forced(text, injective, max_n):
    # at every budget the scan answers N exactly when the per-N searches
    # would: Forced at N with every earlier N conclusive; an Inconclusive N
    # ends the scan
    p = parse(text)
    for budget in (1, 5, 50, 1000, None):
        kwargs = {} if budget is None else {"budget": budget}
        standalone = None
        for n in range(1, max_n + 1):
            kind = find_bad_coloring(p, 2, n, injective, **kwargs).kind
            if kind != BAD_COLORING:
                standalone = n if kind == FORCED else None
                break
        if budget is None:  # not vacuous: the PR rows have a threshold
            assert (standalone is None) == (text == "x + y - 3*z")
        assert rado_number(p, 2, max_n, injective, **kwargs) == standalone, budget


def test_threshold_scan_is_one_search(monkeypatch):
    calls = []
    kernel = search._first_bad_coloring

    def recorded(layers, r, n, budget):
        result = kernel(layers, r, n, budget)
        calls.append(result[3])
        return result

    monkeypatch.setattr(search, "_first_bad_coloring", recorded)
    assert rado_number(SCHUR, 3, 20) == 14
    assert len(calls) == 1
    forced = find_bad_coloring(SCHUR, 3, 14)
    assert forced.kind == FORCED
    assert calls[0] == forced.stats.nodes == 357


def test_threshold_is_one_find_bad_coloring_call(monkeypatch):
    calls = []

    def recorded(*args):
        calls.append(args)
        return find_bad_coloring(*args)

    monkeypatch.setattr(search, "find_bad_coloring", recorded)
    assert rado_number(SCHUR, 3, 20) == 14
    assert calls == [(SCHUR, 3, 20, False, search.DEFAULT_NODE_BUDGET)]


def _benchmark_tracing():
    """perfbench/tracing.py, and the library by module as perfbench/run.py
    loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = ("poly", "classify", "witness", "search", "cli")
    lib = argparse.Namespace(
        **{name: importlib.import_module(f"rado_forge.{name}") for name in modules}
    )
    return tracing, lib


def test_benchmark_tracer_wraps_every_site():
    # the benchmark's tracer refuses a name it cannot find, so every function
    # it traces must stay resolvable at each module attribute it names
    tracing, lib = _benchmark_tracing()
    sites = [site for sites in tracing.LAYERS.values() for site in sites]
    assert len(sites) == 17
    originals = {(module, attr): getattr(getattr(lib, module), attr) for module, attr in sites}
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        for sites_of_layer in tracing.LAYERS.values():
            original = originals[sites_of_layer[0]]
            for module, attr in sites_of_layer:
                wrapped = getattr(getattr(lib, module), attr)
                assert wrapped is not original, (module, attr)
                assert wrapped.__wrapped__ is original, (module, attr)
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(getattr(lib, module), attr) is original, (module, attr)


def test_benchmark_tracer_sees_the_kernel_inside_a_scan():
    # perfbench/tracing.py wraps library functions at the module attributes
    # it names; a scan must reach the kernel through one of them
    tracing, lib = _benchmark_tracing()
    originals = {
        (module, attr): getattr(getattr(lib, module), attr)
        for sites in tracing.LAYERS.values() for module, attr in sites
    }
    tracer = tracing.Tracer()
    tracer.begin_task("scan")
    tracer.install(lib)
    try:
        assert search.rado_number(SCHUR, 3, 20) == 14
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    scan, kernel = names.index("search.scan"), names.index("search.kernel")
    assert tracer.spans[kernel][3] == scan
    assert tracer.spans[kernel][5][:2] == [FORCED, 357]
    for (module, attr), original in originals.items():
        assert getattr(getattr(lib, module), attr) is original, (module, attr)


def test_benchmark_tracer_sees_parse_and_the_kernel_inside_a_threshold_command(capsys):
    # the threshold-scan workload runs the command line in process: the
    # cli.main span must hold the parse and the one kernel call, which
    # cmd_search reaches through cli's module attributes, so that the trace
    # keeps attributing their time whichever parser reads the argv
    tracing, lib = _benchmark_tracing()
    originals = {
        (module, attr): getattr(getattr(lib, module), attr)
        for sites in tracing.LAYERS.values() for module, attr in sites
    }
    tracer = tracing.Tracer()
    tracer.begin_task("threshold")
    tracer.install(lib)
    try:
        code = lib.cli.main(
            ["search", "--colors", "2", "--threshold", "12", "--json", "--", "x1+x2+x3-x4"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 11
    (main, *rest) = tracer.spans
    assert main[0] == "cli.main" and main[3] == -1
    assert [(span[0], span[3]) for span in rest] == [("poly.parse", 0), ("search.kernel", 0)]
    assert rest[1][5][:2] == [FORCED, 34]
    for (module, attr), original in originals.items():
        assert getattr(getattr(lib, module), attr) is original, (module, attr)


def test_search_reads_layers_only_as_it_reaches_them():
    # every 2-coloring of x + y = z dies by value 5: layers 1..5 hold the
    # 10 solutions, of which the 6 with x <= y are read, whatever the bound
    outcome = find_bad_coloring(SCHUR, 2, 300)
    assert outcome.kind == FORCED
    assert outcome.stats.constraints == 6
    # (1, 1, 1) kills the only color of value 1
    outcome = find_bad_coloring(parse("x*z - y*z + x - y"), 2, 300)
    assert outcome.kind == FORCED
    assert outcome.stats.nodes == 1
    assert outcome.stats.constraints == 1


# -- interchangeable variables ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x + y - z", [{"x", "y"}]),
        ("x + 2*y - z", []),
        ("x^2 + y^2 - z^2", [{"x", "y"}]),
        ("x*z - y*z + x - y", [{"x", "y"}]),  # the swap maps p to -p
        ("x1 + x2 - y1*y2", [{"y1", "y2"}]),  # x2 stands alone and is solved for
        ("x1*y1 + x2*y1*y2 - x3", [{"x2", "y2"}]),  # x3 bounds the walk and is solved for
    ],
)
def test_interchangeable_blocks(text, expected):
    p = parse(text)
    solved, blocks = solutions._layout(p)
    assert [{p.variables[i] for i in b} for b in blocks if len(b) > 1] == expected
    # a partition of every position except the one solved for, largest block first
    positions = sorted(i for b in blocks for i in b)
    assert positions == [i for i in range(len(p.variables)) if i != solved]
    assert [len(b) for b in blocks] == sorted((len(b) for b in blocks), reverse=True)


_NAMES = ("a", "b", "c", "d")


def _renamed(terms, renaming):
    return [(c, {renaming.get(v, v): e for v, e in exps.items()}) for c, exps in terms]


@st.composite
def _search_polynomials(draw):
    """Polynomials in up to 4 variables; most are made symmetric or
    antisymmetric under a permutation group, so that blocks appear."""
    names = _NAMES[: draw(st.integers(1, 4))]
    terms = [
        (
            draw(st.integers(-3, 3).filter(bool)),
            {v: draw(st.integers(1, 2)) for v in draw(
                st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))},
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    shape = draw(st.sampled_from(["plain", "pair", "antipair", "triple"]))
    if shape in ("pair", "antipair") and len(names) >= 2:
        u, v = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        sign = 1 if shape == "pair" else -1
        terms += [(sign * c, exps) for c, exps in _renamed(terms, {u: v, v: u})]
    elif shape == "triple" and len(names) >= 3:
        group = draw(st.lists(st.sampled_from(names), min_size=3, max_size=3, unique=True))
        terms = [
            term
            for perm in itertools.permutations(group)
            for term in _renamed(terms, dict(zip(group, perm)))
        ]
    try:
        return Polynomial.from_terms(terms)
    except EmptyPolynomialError:  # an antisymmetric sum of symmetric terms
        assume(False)


@settings(max_examples=60, deadline=None)
@given(_search_polynomials(), st.booleans(), st.integers(1, 12))
@example(parse("a + 2*b + c - d"), False, 12)  # blocks (a, c), (b): not consecutive
@example(parse("2*a + b + c - d"), True, 12)  # the larger block comes later by name
@example(parse("a*c + b*c - c^2"), False, 12)  # no isolation split: the grid is reduced
def test_reduced_layers_match_singleton_layers(p, injective, n):
    _, reduced = solutions.solution_layers(p, n, injective)
    full = _oracle_layers(p, n, injective)
    for value, (few, every) in enumerate(zip(reduced, full, strict=True), start=1):
        assert _value_sets(few, value) == _value_sets(every, value), value
        assert len(few) <= len(every)
    layout = solutions._layout

    def singletons(p):  # the layout with each block split into blocks of one
        solved, blocks = layout(p)
        return solved, [(i,) for block in blocks for i in block]

    for r in (1, 2, 3):
        for budget in (1, 7, 100, None):
            kwargs = {} if budget is None else {"budget": budget}
            fast = find_bad_coloring(p, r, n, injective, **kwargs)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solutions, "_layout", singletons)
                slow = find_bad_coloring(p, r, n, injective, **kwargs)
            assert (fast.kind, fast.coloring) == (slow.kind, slow.coloring), (r, budget)
            assert (fast.stats.nodes, fast.stats.depth_max) == (
                slow.stats.nodes, slow.stats.depth_max), (r, budget)
            assert fast.stats.constraints <= slow.stats.constraints


def _spellings(text):
    """p under every renaming of its variables among themselves, and negated."""
    p = parse(text)
    terms = [(m.coefficient, dict(m.exponents)) for m in p.monomials]
    for names in itertools.permutations(p.variables):
        renamed = _renamed(terms, dict(zip(p.variables, names)))
        for sign in (1, -1):
            yield Polynomial.from_terms([(sign * c, exps) for c, exps in renamed])


def _untimed(outcome):
    stats = {k: v for k, v in outcome.stats.to_json().items() if not k.endswith("ms")}
    return outcome.kind, outcome.coloring, stats


@pytest.mark.parametrize(
    "text,r,n",
    [
        ("x1 + x2 + x3 + x4 - x5", 2, 19),  # Forced at the threshold: the whole tree
        ("x1 + x2 + x3 - x4", 2, 11),
        ("x + y - z", 3, 14),
        ("x + 4*y - z", 2, 29),
        ("x1*y1 + x2*y1*y2 - x3", 2, 21),
    ],
)
def test_outcome_does_not_depend_on_spelling(text, r, n):
    # the variable solved for is chosen by the form's shape, not by its name
    expected = _untimed(find_bad_coloring(parse(text), r, n))
    assert expected[0] == FORCED
    for p in _spellings(text):
        assert _untimed(find_bad_coloring(p, r, n)) == expected, p


def test_injective_outcome_does_not_depend_on_spelling():
    # a lone linear variable is solved for on whichever side of the product
    # its name sorts, and the product's block is walked first
    spellings = ["x1 + x2 + x3 - y1*y2", "y1 + y2 + y3 - x1*x2", "x1*x2 - y1 - y2 - y3"]
    outcomes = [_untimed(find_bad_coloring(parse(t), 2, 19, injective=True)) for t in spellings]
    assert outcomes[0][0] == FORCED
    assert outcomes == outcomes[:1] * 3


@pytest.mark.parametrize(
    "text", ["x1 + x2^2 - y1*y2*y3", "x2 + x1^2 - y1*y2*y3", "x^2 + y - z*w", "y^2 + x - z*w"]
)
def test_lone_tie_solves_the_least_exponent(text):
    # both lone variables stand on the side of more than one monomial, so
    # neither bounds the walk; the linear one is solved for, whatever its name
    p = parse(text)
    solved = p.variables[solutions._layout(p)[0]]
    assert p.degree_of(solved) == 1
    assert any(m.exponents == ((solved, 1),) for m in p.monomials)


def test_respelled_form_reads_no_more_candidates(monkeypatch):
    # solving x5 + x2 + x3 + x4 = x1 for x5, the last name, would count
    # C(n + 2, 3) * n prefixes (505,981 > 500,000 at layer 41); x1 bounds the
    # walk and leaves C(n + 3, 4), as x1 + x2 + x3 + x4 = x5 does
    monkeypatch.setattr(solutions, "DEFAULT_ENUM_BUDGET", 500_000)
    respelled = find_bad_coloring(parse("x5 + x2 + x3 + x4 - x1"), 3, 95, budget=100)
    assert respelled.kind == INCONCLUSIVE
    assert respelled.stats.depth_max == 44
    usual = find_bad_coloring(parse("x1 + x2 + x3 + x4 - x5"), 3, 95, budget=100)
    assert _untimed(respelled) == _untimed(usual)


@st.composite
def _bounded_polynomials(draw):
    """c*v^e against 1-3 terms of the other sign in the other variables; v
    takes any name, and some forms are symmetric under a swap."""
    names = _NAMES[: draw(st.integers(2, 4))]
    v = draw(st.sampled_from(names))
    others = [u for u in names if u != v]
    terms = [
        (
            -draw(st.integers(1, 3)),
            {u: draw(st.integers(1, 2)) for u in draw(
                st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True))},
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    if len(others) >= 2 and draw(st.booleans()):
        u, w = draw(st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True))
        terms += _renamed(terms, {u: w, w: u})
    lead = (draw(st.integers(1, 3)), {v: draw(st.integers(1, 2))})
    sign = draw(st.sampled_from((1, -1)))
    return Polynomial.from_terms([(sign * c, exps) for c, exps in [lead, *terms]])


@settings(max_examples=60, deadline=None)
@given(_bounded_polynomials(), st.booleans(), st.integers(1, 14))
@example(parse("x + y - 2*z"), False, 14)
@example(parse("x^2 + y^2 - z^2"), False, 14)
@example(parse("3*x + y - z"), True, 14)
@example(parse("x1*y1 + x2*y1*y2 - x3"), False, 14)
def test_bounded_layers_match_unbounded_layers(p, injective, n):
    # the walk cut on both sides keeps every solution: each layer is a plain
    # filter of [1..n]^k, in the layers' variable order (blocks, then the
    # bounding variable solved for) and nondecreasing inside each block
    solved, blocks = solutions._layout(p)
    # it bounds the walk: it stands alone in one monomial, the only one of its sign
    (lead,) = [m for m in p.monomials if p.variables[solved] in m.variables]
    assert lead.variables == (p.variables[solved],)
    assert [m for m in p.monomials if (m.coefficient > 0) == (lead.coefficient > 0)] == [lead]
    variables = [p.variables[i] for block in blocks for i in block] + [p.variables[solved]]
    ends = list(itertools.accumulate(map(len, blocks)))
    rising = [j for j in range(len(variables) - 1) if j + 1 not in ends]  # t[j] <= t[j + 1]
    expected = [[] for _ in range(n)]
    for t in itertools.product(range(1, n + 1), repeat=len(variables)):
        if any(t[j] > t[j + 1] for j in rising) or (injective and len(set(t)) < len(t)):
            continue
        if p.evaluate(dict(zip(variables, t))) == 0:
            expected[max(t) - 1].append(t)
    assert list(solutions.solution_layers(p, n, injective)[1]) == expected


def test_candidate_wall_counts_representatives():
    # 48^4 = 5,308,416 prefixes of x1 + x2 + x3 + x4 = x5 exceed the budget at
    # N = 48; C(63, 4) = 595,665 nondecreasing ones cover [1..60]
    outcome = find_bad_coloring(parse("x1 + x2 + x3 + x4 - x5"), 3, 60)
    assert outcome.kind == BAD_COLORING
    assert outcome.stats.nodes == 132
    assert 0 < outcome.stats.enumerate_ms <= outcome.stats.ms
    for members in outcome.coloring.classes():
        inside = set(members)
        for quad in itertools.combinations_with_replacement(members, 4):
            assert sum(quad) not in inside, quad


def test_oversized_bound_raises_only_at_the_layer_reached(capsys, monkeypatch):
    # every 2-coloring dies at 5, so [1..10000] costs five layers
    outcome = find_bad_coloring(SCHUR, 2, 10_000)
    assert outcome.kind == FORCED
    assert outcome.stats.constraints == 6
    assert main(["search", "x+y-z", "--colors", "2", "--N", "10000", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == FORCED
    assert payload["stats"]["constraints"] == 6
    # the layer reached still meets the candidate budget: x + 2y = z has no
    # interchangeable pair and its search reaches 10, so with a budget of 30
    # it raises at layer 6 (6^2 = 36 prefixes); x + y = z counts C(6, 2) = 21
    # nondecreasing prefixes at its last layer, 5
    monkeypatch.setattr(solutions, "DEFAULT_ENUM_BUDGET", 30)
    assert find_bad_coloring(SCHUR, 2, 10_000).kind == FORCED
    with pytest.raises(SearchSpaceTooLargeError, match="^36 candidate tuples exceed the budget of 30$"):
        find_bad_coloring(parse("x + 2*y - z"), 2, 10_000)


# -- full-enumeration oracle ----------------------------------------------------------


def _oracle_bad_coloring(p, r, n, injective=False):
    """Check all r^n colorings; first bad one in lexicographic order."""
    sets = {
        tuple(sorted(set(c)))
        for c in enumerate_constraints(p, n, injective)
    }
    for colors in itertools.product(range(r), repeat=n):
        if all(len({colors[v - 1] for v in s}) > 1 for s in sets):
            return colors
    return None


@settings(max_examples=80, deadline=None)
@given(_search_polynomials(), st.integers(1, 3), st.integers(1, 9), st.booleans())
@example(SCHUR, 2, 9, False)  # the depth reached is 4, not less
@example(SCHUR, 3, 9, True)
@example(parse("x + y - 2*z"), 2, 9, True)  # dead colorings set bits that must clear
@example(parse("a + b + c - 2*d"), 3, 8, False)
def test_kernel_returns_the_lexicographically_first_bad_coloring(p, r, n, injective):
    # relabelling a bad coloring by first appearance gives a canonical one
    # that is no larger, so the first canonical bad coloring the search
    # reaches is the first bad coloring in product order, for every length
    depth = 0  # the largest L <= n with a bad coloring of [1..L]
    for length in range(1, n + 1):
        first = _oracle_bad_coloring(p, r, length, injective)
        if first is None:
            break
        depth = length
        assert find_bad_coloring(p, r, length, injective).coloring.colors == first, length
    outcome = find_bad_coloring(p, r, n, injective)
    assert outcome.stats.depth_max == depth
    assert outcome.kind == (BAD_COLORING if depth == n else FORCED)


def _reference_search(p, r, n, injective, budget, backjump=True):
    """The kernel's contract, recomputed independently: one color per node, and
    at every node the blocked colors of each read value are worked out again
    from the read value sets, those of the oracle.  Layer v + 1 is read when
    depth v is first reached.  A prune is a tried color after which a read
    value that still had a color has none left.

    With ``backjump``, a visit that ran out of colors without coloring its
    value, under a limit that excluded no color, backs up to the highest
    value its reasons name, or ends the search Forced when they name none.
    A blocked (value, color) is named by the value set that closes it whose
    other members are lowest: the value set's highest other member.  A
    refused color names its block at the value; a pruned color names, for
    each value it left dead, the value set it closed there, less the value
    colored, and the blocks of that value in the other colors."""
    sets = {}  # w -> the value sets whose largest value is w
    for t in enumerate_constraints(p, n, injective):
        sets.setdefault(max(t), set()).add(frozenset(t))

    def closing(colors, w, c):  # the other members of the value sets that c closes at w
        return [s - {w} for s in sets.get(w, ())
                if all(x <= len(colors) and colors[x - 1] == c for x in s - {w})]

    def blocked(colors, w):  # the colors that close a value set at w
        return {c for c in range(r) if closing(colors, w, c)}

    def dead(colors, read):  # the read values with no color left
        return {w for w in range(1, read + 1) if len(blocked(colors, w)) == r}

    def named(colors, w, c, colored=0):  # the highest value the lowest closing set names
        return min(max(s - {colored}, default=0) for s in closing(colors, w, c))

    def target(colors, read):  # the highest value the reasons of a leaf name, 0 for none
        value, names = len(colors) + 1, [0]
        for c in range(r):
            if c in blocked(colors, value):
                names.append(named(colors, value, c))
                continue
            for w in dead(colors + [c], read) - dead(colors, read):
                names.append(named(colors + [c], w, c, value))
                names += [named(colors, w, o) for o in range(r) if o != c]
        return max(names)

    colors, tries, deepest, nodes, prunes, jumps = [], [0], [], 0, 0, 0
    leaf = True  # the visit has colored no value yet
    while True:
        c, read = tries[-1], min(len(deepest) + 1, n)
        limit = min(r, max(colors, default=-1) + 2)
        if c >= limit:  # no color left: back up
            if backjump and leaf and limit == min(r, n):
                value = target(colors, read)
                if value < len(colors):
                    jumps += 1
                    del colors[value:], tries[value + 1:]
            if not colors:
                return FORCED, None, nodes, prunes, len(deepest), jumps
            colors.pop()
            tries.pop()
            leaf = False
            continue
        if nodes == budget:
            return INCONCLUSIVE, None, nodes, prunes, len(deepest), jumps
        nodes += 1
        tries[-1] = c + 1
        if c in blocked(colors, len(colors) + 1):
            continue
        if dead(colors + [c], read) - dead(colors, read):
            prunes += 1
            continue
        colors.append(c)
        tries.append(0)
        leaf = True
        if len(colors) > len(deepest):
            deepest = colors[:]
            if len(colors) == n:
                return BAD_COLORING, Coloring(tuple(colors)), nodes, prunes, n, jumps


@settings(max_examples=150, deadline=None)
@given(_search_polynomials(), st.integers(1, 4), st.integers(1, 10), st.booleans(),
       st.none() | st.integers(1, 300))
@example(SCHUR, 3, 10, False, None)
@example(SCHUR, 2, 9, True, None)  # weak Schur: 7 prunes, each against one other color
@example(SCHUR, 4, 10, True, 57)  # cut inside a run of refused colors
@example(parse("x + y - 2*z"), 3, 9, False, None)  # one-member value sets
@example(parse("a + b + c - d"), 3, 10, False, None)  # value sets of four values
@example(SCHUR, 1, 6, False, None)  # one color: its other colors are the sentinel alone
@example(SCHUR, 5, 12, True, 200)  # five colors: two other colors inline, two in the loop
# five colors: the loop over the last two other colors stops once and prunes once
@example(parse("x + 3*y - 4*z"), 5, 60, True, None)
@example(parse("a + b + c - 2*d"), 3, 10, False, None)  # leaves that prune through several groups
# a dead value closed by two value sets: {a, d} alone names nothing, and the
# lower of two sets is the one named
@example(parse("a + b + 2*c - 3*d"), 3, 8, False, None)
@example(parse("3*a + b + 2*c - 3*d"), 3, 9, False, None)
@example(parse("2*x + 2*y - 5*z"), 2, 10, False, None)  # {x, z} alone closes a dead value
@example(parse("x1*y1 + x2*y1*y2 - x3"), 2, 14, False, None)  # a jump past 8 values
@example(parse("a^2 - 3*a"), 2, 5, False, None)  # {3} alone: no reason, Forced at once
def test_kernel_matches_a_recomputing_reference(p, r, n, injective, budget):
    outcome = find_bad_coloring(p, r, n, injective, **({} if budget is None else {"budget": budget}))
    stats = outcome.stats
    assert (outcome.kind, outcome.coloring, stats.nodes, stats.prunes, stats.depth_max,
            stats.jumps) == _reference_search(p, r, n, injective, budget)


@settings(max_examples=150, deadline=None)
@given(_search_polynomials(), st.integers(1, 4), st.integers(1, 10), st.booleans(),
       st.none() | st.integers(1, 300))
@example(SCHUR, 4, 10, False, 20)  # capped: the jumps reach deeper in the same nodes
@example(parse("x1*y1 + x2*y1*y2 - x3"), 2, 14, False, None)
@example(parse("a^2 - 3*a"), 2, 5, False, None)
def test_backjumping_keeps_the_plain_outcome_in_fewer_nodes(p, r, n, injective, budget):
    # a jump skips only colorings that leave a value no color, so a decided
    # search ends as the plain one does, and a capped one gets at least as far
    outcome = find_bad_coloring(p, r, n, injective, **({} if budget is None else {"budget": budget}))
    kind, coloring, nodes, _, depth_max, jumps = _reference_search(
        p, r, n, injective, budget, backjump=False)
    assert jumps == 0
    stats = outcome.stats
    assert stats.nodes <= nodes
    if kind == INCONCLUSIVE:
        assert stats.depth_max >= depth_max
    else:
        assert (outcome.kind, outcome.coloring, stats.depth_max) == (kind, coloring, depth_max)


@pytest.mark.parametrize("n", range(1, 13))
def test_backtracking_matches_full_enumeration_schur(n):
    outcome = find_bad_coloring(SCHUR, 2, n)
    oracle = _oracle_bad_coloring(SCHUR, 2, n)
    if oracle is None:
        assert outcome.kind == FORCED
    else:
        assert outcome.kind == BAD_COLORING


@pytest.mark.parametrize(
    "text,n", [("x1 + x2 - y1*y2", 8), ("x + y - z^2", 10), ("x - y", 3)]
)
def test_backtracking_matches_full_enumeration_other(text, n):
    p = parse(text)
    for injective in (False, True):
        outcome = find_bad_coloring(p, 2, n, injective=injective)
        oracle = _oracle_bad_coloring(p, 2, n, injective)
        assert (outcome.kind == FORCED) == (oracle is None)


# -- kernel contract ----------------------------------------------------------


BUDGET_CASES = [
    (SCHUR, 3, 14, False),  # Forced after 357 nodes
    (SCHUR, 2, 9, True),  # weak Schur: Forced at 9
    (parse("x1 + x2 - y1*y2"), 2, 20, True),  # Forced at 18
    (parse("x1 + x2 - y1*y2"), 2, 8, False),
    (parse("x + y - z"), 3, 3, False),  # a bad coloring
    (parse("x - y"), 2, 4, False),
]


def _summary(outcome):
    stats = outcome.stats
    return (outcome.kind, outcome.coloring,
            stats.nodes, stats.prunes, stats.depth_max, stats.constraints)


def _assert_exact_cap(p, r, n, injective, budgets=None):
    # below the F nodes of an unlimited search a budget b stops Inconclusive
    # at exactly b nodes, even where the cut lands inside a run of refused
    # colors; from F on the outcome is the unlimited one
    unlimited = find_bad_coloring(p, r, n, injective)
    assert unlimited.kind != INCONCLUSIVE
    for budget in budgets or range(1, unlimited.stats.nodes + 3):  # default: every budget
        outcome = find_bad_coloring(p, r, n, injective, budget=budget)
        if budget < unlimited.stats.nodes:
            assert outcome.kind == INCONCLUSIVE, budget
            assert outcome.coloring is None
            assert outcome.stats.nodes == budget
        else:
            assert _summary(outcome) == _summary(unlimited), budget


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 10, 20, 50])
def test_nodes_never_exceed_budget(budget):
    for p, r, n, injective in BUDGET_CASES:
        _assert_exact_cap(p, r, n, injective, [budget])


@pytest.mark.parametrize("case", BUDGET_CASES[:3], ids=["schur-3-14", "weak-schur-2", "hindman"])
def test_every_budget_is_an_exact_cap(case):
    _assert_exact_cap(*case)


def test_benchmark_capped_schur_node_count():
    # the capped task of the bad-coloring benchmark workload
    outcome = find_bad_coloring(SCHUR, 4, 44, budget=250_000)
    assert outcome.kind == INCONCLUSIVE
    stats = outcome.stats
    assert (stats.nodes, stats.prunes, stats.depth_max) == (250_000, 40_102, 43)


def test_first_bad_coloring_in_branch_order_node_count():
    outcome = find_bad_coloring(parse("x1 + x2 + x3 - x4"), 3, 30)
    assert outcome.kind == BAD_COLORING
    assert outcome.coloring.colors == (
        0, 0, 1, 1, 1, 1, 0, 0, 2, 2, 2, 2, 0, 0, 2,
        2, 2, 2, 0, 0, 2, 2, 2, 2, 0, 0, 1, 1, 1, 1,
    )
    assert outcome.stats.nodes == 106  # 977 without jumps


def test_four_color_schur_node_count():
    # the coloring of the search without forward checking, after 132,983
    # nodes, and without jumps, after 11,559
    outcome = find_bad_coloring(SCHUR, 4, 40)
    assert outcome.kind == BAD_COLORING
    assert outcome.coloring.colors == (
        0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 2, 3, 2, 3, 1, 2, 3, 1, 2, 0,
        3, 0, 3, 0, 2, 1, 3, 2, 1, 3, 2, 3, 2, 1, 0, 3, 0, 1, 0, 2,
    )
    assert (outcome.stats.nodes, outcome.stats.prunes, outcome.stats.jumps) == (4417, 664, 219)


def test_four_color_schur_number_inside_the_default_budget():
    # S(4) = 44: the search without forward checking needs 25,266,598 nodes,
    # and without jumps 2,565,894
    outcome = find_bad_coloring(SCHUR, 4, 44)
    assert outcome.kind == BAD_COLORING
    assert monochromatic_solution(SCHUR, outcome.coloring) is None
    assert outcome.stats.nodes == 1_663_066 < search.DEFAULT_NODE_BUDGET


def test_weak_schur_three_colors_node_count():
    # the kernel-bound task of the threshold-scan benchmark workload
    outcome = find_bad_coloring(SCHUR, 3, 25, injective=True)
    assert outcome.kind == FORCED
    stats = outcome.stats
    assert (stats.nodes, stats.prunes, stats.depth_max) == (18_383, 4_112, 23)


def test_mostly_ungrouped_form_node_count():
    # x + 4y = z files most of its value sets as groups of one
    outcome = find_bad_coloring(parse("x + 4*y - z"), 2, 30)
    assert outcome.kind == FORCED
    assert (outcome.stats.nodes, outcome.stats.prunes) == (153, 22)


# (form, r, N, injective, budget) -> (kind, nodes, prunes, depth_max), one
# row or more for each way a value set is filed: two-value sets that share
# no offset (x + y = 3z), sets of four and five values that share their
# lower members and offset, one-member sets (x + y = 2z, and x = y of the
# last form), and nonlinear forms; Schur, weak Schur, capped S(4) and
# x + 4y = z are pinned by the tests above
KERNEL_COUNTS = [
    (("x + y - 3*z", 3, 40, False, None), (BAD_COLORING, 143, 2, 40)),
    (("x1 + x2 + x3 - x4", 3, 30, False, None), (BAD_COLORING, 106, 0, 30)),
    (("x1 + x2 + x3 - x4", 3, 43, False, None), (FORCED, 32271, 7354, 42)),
    (("x1 + x2 + x3 + x4 - x5", 2, 19, False, None), (FORCED, 77, 9, 18)),
    (("x1 + x2 + x3 + x4 - x5", 3, 60, False, None), (BAD_COLORING, 132, 0, 60)),
    (("x1 + x2 + x3 + x4 - x5", 3, 95, False, 20_000), (INCONCLUSIVE, 20000, 4091, 78)),
    (("x + y - 2*z", 2, 9, False, None), (FORCED, 1, 0, 0)),
    (("x + y - 2*z", 2, 9, True, None), (FORCED, 45, 8, 8)),
    (("x + y - 2*z", 3, 27, True, 20_000), (INCONCLUSIVE, 20000, 3428, 26)),
    (("x1*y1 + x2*y1*y2 - x3", 2, 21, False, None), (FORCED, 120, 16, 20)),
    (("x1*y1 + x2*y1*y2 - x3", 2, 25, True, None), (BAD_COLORING, 41, 0, 25)),
    (("x*z - y*z + x - y", 2, 12, False, None), (FORCED, 1, 0, 0)),
    # five colors: a prune reads two other colors inline and two in the loop
    (("x + y - z", 5, 45, False, None), (BAD_COLORING, 259, 14, 45)),
    # two capped searches whose values mostly have no group or several, so
    # that their steps take the kernel's loop over groups
    (("x1 + x2 + x3 + x4 - x5", 3, 95, False, 100_000), (INCONCLUSIVE, 100000, 16337, 78)),
    (("x^2 + y^2 - z^2", 2, 300, False, 100_000), (INCONCLUSIVE, 100000, 5473, 299)),
]


@pytest.mark.parametrize("case,expected", KERNEL_COUNTS, ids=[
    "{} r={} N={}{}{}".format(text, r, n, " injective" * injective, f" budget={budget}" * bool(budget))
    for (text, r, n, injective, budget), _ in KERNEL_COUNTS])
def test_kernel_counts_are_pinned(case, expected):
    text, r, n, injective, budget = case
    outcome = find_bad_coloring(
        parse(text), r, n, injective, budget=budget or search.DEFAULT_NODE_BUDGET)
    stats = outcome.stats
    assert (outcome.kind, stats.nodes, stats.prunes, stats.depth_max) == expected


# The 13 searches of the threshold-scan and bad-coloring benchmark workloads,
# as the benchmark runs them: a threshold task searches [1..threshold + 1]
# under the default budget.  (form, r, N, injective, budget) -> (kind, nodes,
# prunes, depth_max, constraints, coloring), the coloring as its digits, None
# unless the kind is BAD_COLORING
BENCHMARK_SEARCHES = {
    "threshold-scan": [
        (("x + y - z", 2, 6, False, None), (FORCED, 11, 0, 4, 6, None)),
        (("x + y - z", 3, 15, False, None), (FORCED, 357, 70, 13, 49, None)),
        (("x + y - z", 2, 10, True, None), (FORCED, 37, 7, 8, 16, None)),
        # the kernel-bound task of the threshold-scan workload
        (("x + y - z", 3, 25, True, None), (FORCED, 18383, 4112, 23, 132, None)),
        (("x1 + x2 + x3 - x4", 2, 12, False, None), (FORCED, 34, 3, 10, 41, None)),
        (("x1 + x2 + x3 + x4 - x5", 2, 20, False, None), (FORCED, 77, 9, 18, 295, None)),
        (("x + 2*y - z", 2, 12, False, None), (FORCED, 34, 3, 10, 25, None)),
        (("x + 3*y - z", 2, 20, False, None), (FORCED, 79, 10, 18, 51, None)),
        # x + 4y = z files most of its value sets as groups of one
        (("x + 4*y - z", 2, 30, False, None), (FORCED, 153, 22, 28, 91, None)),
    ],
    "bad-coloring": [
        (("x + y - z", 4, 40, False, None),
         (BAD_COLORING, 4417, 664, 40, 400, "0102010301232312312030302132132321030102")),
        (("x1 + x2 + x3 - x4", 3, 30, False, None),
         (BAD_COLORING, 106, 0, 30, 785, "001111002222002222002222001111")),
        # weak Schur: a bad coloring of [1..23]
        (("x + y - z", 3, 23, True, None), (BAD_COLORING, 735, 146, 23, 121, "00101110220222202212101")),
        # the capped task of the bad-coloring workload
        (("x + y - z", 4, 44, False, 250_000), (INCONCLUSIVE, 250000, 40102, 43, 484, None)),
    ],
}
# the kernel nodes of one traced pass of each workload (search.kernel.nodes)
BENCHMARK_NODES = {"threshold-scan": 19_165, "bad-coloring": 255_258}


@pytest.mark.parametrize(
    "workload,case,expected",
    [(workload, case, expected)
     for workload, rows in BENCHMARK_SEARCHES.items() for case, expected in rows],
    ids=["{} {} r={} N={}{}".format(workload, text, r, n, " injective" * injective)
         for workload, rows in BENCHMARK_SEARCHES.items()
         for (text, r, n, injective, _), _ in rows])
def test_benchmark_searches_are_pinned(workload, case, expected):
    rows = BENCHMARK_SEARCHES[workload]
    assert sum(nodes for _, (_, nodes, *_) in rows) == BENCHMARK_NODES[workload]
    text, r, n, injective, budget = case
    outcome = find_bad_coloring(
        parse(text), r, n, injective, budget=budget or search.DEFAULT_NODE_BUDGET)
    stats = outcome.stats
    coloring = "".join(map(str, outcome.coloring.colors)) if outcome.coloring else None
    assert (outcome.kind, stats.nodes, stats.prunes, stats.depth_max, stats.constraints,
            coloring) == expected


def test_huge_exponent_does_not_stall_the_bounded_walk():
    # only x = 1 can give a root at most 3; x = 2 would be a 10^8-bit power
    started = time.perf_counter()
    huge = find_bad_coloring(parse("x^100000000 + y - z"), 2, 3)
    assert time.perf_counter() - started < 1.0
    small = find_bad_coloring(parse("x^2 + y - z"), 2, 3)
    assert (huge.kind, huge.coloring, huge.stats.nodes) == (
        small.kind, small.coloring, small.stats.nodes)
    assert huge.kind == BAD_COLORING


def test_a_huge_exponent_on_the_variable_solved_for_does_not_stall():
    # z = 1 is the only root that x + y in [2..12] can have: neither the
    # walk's floor 6^(10^7) nor a Newton step from 2^(10^7 - 1) is computed
    started = time.perf_counter()
    huge = find_bad_coloring(parse("x + y - z^10000000"), 2, 6)
    assert time.perf_counter() - started < 1.0
    small = find_bad_coloring(parse("x + y - z^40"), 2, 6)
    assert (huge.kind, huge.coloring, huge.stats.nodes) == (
        small.kind, small.coloring, small.stats.nodes)


def test_a_huge_exponent_with_a_small_root_does_not_stall():
    # every target of w^200000 = x*y^300000 + z has 300,000 bits or more and
    # a root below 7: it is read from the target's leading bits and screened
    # modulo a prime, not reached by Newton steps that each divide by a
    # 200,000th power
    started = time.perf_counter()
    huge = find_bad_coloring(parse("x*y^300000 + z - w^200000"), 2, 6)
    assert time.perf_counter() - started < 1.0
    small = find_bad_coloring(parse("x*y^30 + z - w^20"), 2, 6)
    assert (huge.kind, huge.coloring, huge.stats.nodes) == (
        small.kind, small.coloring, small.stats.nodes)
    assert huge.kind == BAD_COLORING


def _bisected_root(value, e):
    """The e-th root of a positive integer by bisection, or None."""
    low, high = 1, 1 << value.bit_length() // e + 1  # the root is below high
    while low < high:
        mid = (low + high) // 2
        if mid**e < value:
            low = mid + 1
        else:
            high = mid
    return low if low**e == value else None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**30), st.integers(2, 300), st.integers(-2, 2))
@example(1_482_910, 2, 0)  # the largest square root read from the leading bits
@example(1_482_911, 2, 0)  # the least one that Newton steps find
@example(2_092_312, 300, 0)  # the same two at e = 300
@example(2_092_313, 300, 0)
@example(2_092_312, 300, 1)
@example(2_092_312, 300, -1)
@example(2**48 - 1_000, 2, 0)  # a root whose float estimate is off by one or more
def test_integer_root_matches_bisection(root, e, offset):
    value = root**e + offset
    assume(value >= 1)
    assert solutions._integer_root(value, e) == _bisected_root(value, e)


def test_huge_exponent_does_not_stall_the_second_sum():
    # w's step moves w*y^(10^7) in the second sum, which reads y at its
    # greatest completion: the sum's fixed part is read with the powers that
    # decide it skipped, not as the whole sum raised in full
    started = time.perf_counter()
    huge = find_bad_coloring(parse("z + x - w*y^10000000"), 2, 5)
    assert time.perf_counter() - started < 1.0
    small = find_bad_coloring(parse("z + x - w*y^40"), 2, 5)
    assert (huge.kind, huge.coloring, huge.stats.nodes) == (
        small.kind, small.coloring, small.stats.nodes)


def test_the_oracle_raises_each_power_once_per_value():
    # x^70001 for each of the 24 values of x, not for each of the 576 (x, y)
    # prefixes, which takes seconds
    started = time.perf_counter()
    found = brute_force_solutions(parse("x^70001 - y^3*z^5"), 24)
    assert time.perf_counter() - started < 1.0
    assert [w.assignment for w in found] == [{"x": 1, "y": 1, "z": 1}]


def test_huge_exponent_does_not_stall_the_oracle():
    # with x >= 2 the root z of z^5 = x^70001 / y^3 lies far above 12, and
    # its bit length alone rules it out
    started = time.perf_counter()
    found = brute_force_solutions(parse("x^70001 - y^3*z^5"), 12)
    assert time.perf_counter() - started < 1.0
    assert [w.assignment for w in found] == [{"x": 1, "y": 1, "z": 1}]


def test_injective_schur_node_count():
    outcome = find_bad_coloring(SCHUR, 3, 23, injective=True)
    assert outcome.kind == BAD_COLORING
    assert outcome.stats.nodes == 735


def test_stats_fields(capsys):
    outcome = find_bad_coloring(SCHUR, 2, 5)
    assert outcome.stats.constraints == 6  # one of (1, 2, 3) and (2, 1, 3), ...
    assert outcome.stats.nodes > 0
    assert 0 <= outcome.stats.enumerate_ms <= outcome.stats.ms
    assert outcome.stats.depth_max == 4  # the threshold minus one
    assert find_bad_coloring(SCHUR, 2, 4).stats.depth_max == 4
    payload = outcome.to_json("x + y - z", 2, 5, False)
    assert payload["outcome"] == "forced"
    assert payload["coloring"] is None
    assert payload["schema"] == 1
    assert payload["stats"]["depth_max"] == 4
    assert isinstance(payload["stats"]["enumerate_ms"], int)
    # no 2-coloring of [1..5] dies ahead of its value; 70 of the 357 nodes
    # of three colors at 14 are colorings that left a later value no color,
    # and 21 leaves jumped past at least one value
    assert outcome.stats.prunes == payload["stats"]["prunes"] == 0
    assert outcome.stats.jumps == payload["stats"]["jumps"] == 0
    assert find_bad_coloring(SCHUR, 3, 14).stats.prunes == 70
    assert main(["search", "x+y-z", "--colors", "3", "--N", "14"]) == 0
    assert re.search(r" prunes=70 search_ms=\d+ jumps=21$", capsys.readouterr().out.splitlines()[-1])
    # the kernel's share of ms: reading layers excluded
    assert isinstance(payload["stats"]["search_ms"], int)
    assert 0 <= outcome.stats.search_ms <= outcome.stats.ms - outcome.stats.enumerate_ms
