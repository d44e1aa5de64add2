"""Output checks that do not trust the code under test.

Nothing here imports ``rado_forge``.  Polynomials are handled as plain term
lists ``[(coefficient, {variable: exponent}), ...]`` read by a small reader of
the corpus grammar, so a defect in the package's parser, classifier, witness
lifts or search cannot hide itself by also breaking the check.
"""

from __future__ import annotations

import itertools
import re

Terms = list[tuple[int, dict[str, int]]]

_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")

# Least N at which every r-colouring of [1..N] has a monochromatic solution.
# One row per threshold-scan task: (polynomial, colours, injective, threshold,
# citation).  Thresholds are one more than the largest N that still has a bad
# colouring.
THRESHOLDS = [
    ("x+y-z", 2, False, 5,
     "Schur number S(2)=4; Schur 1916"),
    ("x+y-z", 3, False, 14,
     "Schur number S(3)=13; Schur 1916, Baumert 1965"),
    ("x+y-z", 2, True, 9,
     "weak Schur number WS(2)=8; Eliahou, Marin, Revuelta & Sanz 2012"),
    ("x+y-z", 3, True, 24,
     "weak Schur number WS(3)=23; Eliahou, Marin, Revuelta & Sanz 2012"),
    ("x1+x2+x3-x4", 2, False, 11,
     "m^2-m-1 with m=4; Beutelspacher & Brestovansky 1982"),
    ("x1+x2+x3+x4-x5", 2, False, 19,
     "m^2-m-1 with m=5; Beutelspacher & Brestovansky 1982"),
    ("x+2*y-z", 2, False, 11,
     "a^2+3a+1 with a=2; Guo & Sun 2008"),
    ("x+3*y-z", 2, False, 19,
     "a^2+3a+1 with a=3; Guo & Sun 2008"),
    ("x+4*y-z", 2, False, 29,
     "a^2+3a+1 with a=4; Guo & Sun 2008"),
]


def read_terms(text: str) -> Terms:
    """Terms of a polynomial written as ``[c*]v[^e]*...`` joined by + and -."""
    terms: Terms = []
    for sign, body in _TERM.findall(text):
        coeff = -1 if sign == "-" else 1
        exps: dict[str, int] = {}
        for factor in body.split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, power = factor.partition("^")
            exps[name.strip()] = exps.get(name.strip(), 0) + int(power or 1)
        terms.append((coeff, exps))
    return terms


def variables(terms: Terms) -> set[str]:
    return {v for _, exps in terms for v in exps}


def evaluate(terms: Terms, assignment: dict[str, int]) -> int:
    total = 0
    for coeff, exps in terms:
        item = coeff
        for v, e in exps.items():
            item *= assignment[v] ** e
        total += item
    return total


def witness_ok(terms: Terms, assignment: dict[str, int]) -> bool:
    """A positive-integer assignment to exactly the polynomial's variables
    that makes it vanish."""
    return (
        set(assignment) == variables(terms)
        and all(isinstance(x, int) and x >= 1 for x in assignment.values())
        and evaluate(terms, assignment) == 0
    )


def _nonempty_sums(values: list[int]) -> set[int]:
    sums: set[int] = set()
    for x in values:
        sums |= {s + x for s in sums}
        sums.add(x)
    return sums


def has_zero_sum_subset(coeffs: list[int]) -> bool:
    """Meet in the middle: some nonempty subset of ``coeffs`` sums to 0."""
    half = len(coeffs) // 2
    left = _nonempty_sums(coeffs[:half])
    right = _nonempty_sums(coeffs[half:])
    return 0 in left or 0 in right or any(-s in right for s in left)


def monochromatic(
    terms: Terms, colors: list[int], injective: bool
) -> tuple[int, ...] | None:
    """A solution inside [1..len(colors)] whose values share one colour, for a
    linear polynomial with some coefficient +-1 (that variable is solved for,
    the others range over the colour class)."""
    if any(len(exps) != 1 or set(exps.values()) != {1} for _, exps in terms):
        raise ValueError("the colouring check handles linear polynomials only")
    coeff = {v: c for c, exps in terms for v in exps}
    last = next((v for v in sorted(coeff) if abs(coeff[v]) == 1), None)
    if last is None:
        raise ValueError("the colouring check needs a coefficient +-1")
    free = [v for v in sorted(coeff) if v != last]
    n = len(colors)
    classes: dict[int, list[int]] = {}
    for value, color in enumerate(colors, start=1):
        classes.setdefault(color, []).append(value)
    for members in classes.values():
        inside = set(members)
        for tup in itertools.product(members, repeat=len(free)):
            rest = sum(coeff[v] * x for v, x in zip(free, tup))
            x_last = -rest * coeff[last]
            if not (1 <= x_last <= n and x_last in inside):
                continue
            solution = tup + (x_last,)
            if injective and len(set(solution)) != len(solution):
                continue
            return solution
    return None


def bad_coloring_ok(
    terms: Terms, colors: list[int], r: int, n: int, injective: bool
) -> bool:
    """``colors`` colours [1..n] with at most r colours and has no
    monochromatic solution."""
    return (
        len(colors) == n
        and all(isinstance(c, int) and 0 <= c < r for c in colors)
        and monochromatic(terms, colors, injective) is None
    )


# Instances with a known bad colouring, so Forced is a wrong answer:
# (polynomial, colours, N, injective, citation).
BAD_COLORING_EXISTS = [
    ("x+y-z", 4, 40, False, "S(4)=44 >= 40; Baumert 1965"),
    ("x1+x2+x3-x4", 3, 30, False,
     "3-colour Rado number m^3-m^2-m-1=43 with m=4; Boza, Marin, Revuelta & Sanz 2019"),
    ("x+y-z", 3, 23, True, "WS(3)=23; Eliahou, Marin, Revuelta & Sanz 2012"),
    ("x+y-z", 4, 44, False, "S(4)=44; Baumert 1965"),
]
