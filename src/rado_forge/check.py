"""Re-checks of finished claims, kept apart from the code that makes them.

Every claim rado-forge makes is checked again here, by code that shares
nothing with the code that made it: a small checker beside the solver, as
DRAT proofs are checked apart from the SAT solver that writes them.  This
module imports only ``poly`` and the standard library, so no check can run
the classifier, an enumerator or the search kernel whose claim it checks;
``tests/test_source.py`` refuses any other import.

* ``replay_certificate`` re-validates a classifier verdict from the
  polynomial and the verdict alone.  A K2Analysis certificate nests the
  multiplicative certificate of Q1 - Q2, and replay checks that one level
  and no other nesting.
* ``_verify_solutions`` re-evaluates the solution tuples an enumerator hands
  out, in one ``evaluate_many`` call: the search's, over every tuple it
  read, and the oracle ``brute_force_solutions``'s, over every solution it
  returns.
* ``_first_monochromatic`` re-checks a coloring against solution tuples:
  the search refuses a bad coloring in which it finds one, and
  ``search.monochromatic_solution`` returns it.

The status strings "PR", "NOT_PR" and "UNKNOWN" are defined here, and the
classifier writes its verdicts with them.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional, Sequence

from .poly import Polynomial, _is_two_variable_difference, _multiplicative_sides, monomial_gcd
from .poly import negate_all_variables

__all__ = ["PR", "NOT_PR", "UNKNOWN", "replay_certificate"]

PR = "PR"
NOT_PR = "NOT_PR"
UNKNOWN = "UNKNOWN"

# Subset sums of values whose magnitudes total less than this are kept as
# bitsets, one int per row; at or above it as sets.  A bitset row costs
# sum(|c|) bits however few sums it holds, so this is a fixed cost rule, not
# a setting.  The classifier's zero-sum tables follow it; certificate replay
# splits its sums by sign and applies the same rule to each side's total.
_BITSET_LIMIT = 1 << 16


def _verify_solutions(p: Polynomial, variables: Sequence[str], rows: list[tuple[int, ...]]) -> None:
    """Re-verify rows of the values of ``variables`` exactly, in one
    ``evaluate_many`` call (none for no rows): the first row in order at
    which p is not 0 raises ``AssertionError``."""
    if not rows:
        return
    bad = next(itertools.compress(rows, p.evaluate_many(variables, rows)), None)
    if bad is not None:
        raise AssertionError(f"enumerator produced a non-solution: {dict(zip(variables, bad))}")


def _first_monochromatic(
    rows: list[tuple[int, ...]], by_value: Sequence[Optional[int]]
) -> Optional[tuple[int, ...]]:
    """The first of ``rows`` whose values all share one color, where
    ``by_value[v]`` is the color of v.  One pass over the rows, each read
    until a value leaves the color of its first."""
    for row in rows:
        color = by_value[row[0]]
        for v in row:
            if by_value[v] != color:
                break
        else:
            return row
    return None


# -- certificate replay --------------------------------------------------------

_INT = frozenset([int])  # the one type of a claimed index


def _index_sum(values: list[int], indices: list[int]) -> int:
    """The sum of ``values`` at ``indices``, which must be a nonempty list of
    distinct 1-based positions, each an int and not a bool; any other index
    set raises ValueError."""
    n, total = len(values), 0
    if type(indices) is list:
        for i in indices:
            if type(i) is not int or not 0 < i <= n:
                break
            total += values[i - 1]
        else:
            if 0 < len(indices) == len(set(indices)):
                return total
    raise ValueError(f"{indices!r} is not a nonempty set of distinct indices in 1..{n}")


def _subset_sums(values: list[int]) -> set[int]:
    """The set of nonempty subset sums of positive values, grown one value at
    a time.  It holds at most 2^k sums and at most sum(values).  Replay uses
    it when a side's total is at least _BITSET_LIMIT, and ``_sum_bits``
    below it."""
    sums: set[int] = set()
    for c in values:
        sums |= {s + c for s in sums}
        sums.add(c)
    return sums


def _sum_bits(values: Iterable[int]) -> int:
    """The nonempty subset sums of positive values as one int: bit s is set
    when some nonempty subset sums to s."""
    bits = 1  # the empty sum, dropped at the end
    for c in values:
        bits |= bits << c
    return bits ^ 1


def _zero_sum_free(values: list[int]) -> bool:
    """No nonempty subset of ``values`` sums to 0: none is 0, and no nonempty
    subsets of the positive values and of the negative values' magnitudes
    have equal sums.  The sides cost 2^|P| + 2^|N| sums, not 2^k."""
    positive, negative = [], []
    for c in values:
        if c > 0:
            positive.append(c)
        else:
            negative.append(-c)
    return 0 not in values and _no_equal_sums(positive, negative)


def _no_equal_sums(a: list[int], b: list[int]) -> bool:
    """No nonempty subsets of ``a`` and ``b`` (all positive) have equal sums;
    an empty side has no nonempty subset, so it answers at once."""
    if not a or not b:
        return True
    if max(sum(a), sum(b)) < _BITSET_LIMIT:
        return not _sum_bits(a) & _sum_bits(b)
    return _subset_sums(a).isdisjoint(_subset_sums(b))


def _exclusive_degree_one(p: Polynomial) -> dict[str, int]:
    """Each variable that has degree 1 in some monomial i and occurs in no
    other, mapped to i: replay's own pass over p, apart from the groups
    ``classify`` keeps with p."""
    owner: dict[str, int] = {}
    seen: set[str] = set()
    for i, m in enumerate(p.monomials):
        for v, e in m.exponents:
            if v in seen:
                owner.pop(v, None)
            else:
                seen.add(v)
                if e == 1:
                    owner[v] = i
    return owner


def _fields_are(claim: dict[str, Any], **derived: Any) -> bool:
    """Each named field of the claim equals the value replay derived from p
    and has its type, and a list's items or a dict's values are ints or
    strs: ``True == 1`` and ``1.0 == 1``, but neither passes for an int."""
    for key, value in derived.items():
        stated = claim[key]
        if stated != value:
            return False
        kind = type(value)
        if kind is str:
            continue
        if type(stated) is not kind:
            return False
        for item in stated.values() if kind is dict else stated if kind is list else ():
            if type(item) is not int and type(item) is not str:
                return False
    return True


def replay_certificate(p: Polynomial, verdict: Any, constant: Optional[int] = None) -> bool:
    """Re-validate a verdict from the polynomial and the verdict alone, without
    running the classifier.  The claim is the payload plus the verdict's
    status and injective.  Its fields that p determines are compared with the
    values derived from p, then the theorem's obligations are checked.  A
    ring-Z certificate (``sign_map``, ``flipped``) must claim PR and replays
    against P(-x).  No certificate replays only as (UNKNOWN, "unknown"); a
    missing key or a wrong-typed value does not replay, nor does a verdict
    or certificate that is not a record with the fields it reads.

    p carries no constant term.  Given the ``constant`` of the polynomial the
    verdict is about, a RadoAffine certificate replays only if its payload
    states that constant, and any other certificate only if it is 0; with
    None, a RadoAffine payload's constant is taken on trust."""
    try:
        return _replay(p, verdict, constant)
    except (AttributeError, LookupError, TypeError, ValueError):
        return False


def _replay(p: Polynomial, verdict: Any, constant: Optional[int]) -> bool:
    cert = verdict.certificate
    if cert is None:
        return (verdict.status, verdict.injective) == (UNKNOWN, "unknown")
    if constant is not None:
        stated = cert.payload["constant"] if cert.theorem == "RadoAffine" else 0
        if stated != constant:
            return False
    claim = dict(cert.payload, status=verdict.status, injective=verdict.injective)
    if "sign_map" in claim or "flipped" in claim:
        # P(-x) is PR over the positive integers, so negated solutions solve P
        flipped = negate_all_variables(p)
        sign_map = {v: -1 for v in p.variables}
        if not _fields_are(claim, status=PR, sign_map=sign_map, flipped=str(flipped)):
            return False
        p = flipped
    return _replay_over_n(p, cert.theorem, claim)


# The verdict each RadoAffine case states: (status, injective).
_AFFINE_CLAIMS = {
    "no_diagonal_root": (NOT_PR, "no"),
    "positive_diagonal": (PR, "unknown"),
    "integer_diagonal_with_zero_sum": (PR, "unknown"),
    "necessity": (NOT_PR, "no"),
}


def _replay_over_n(p: Polynomial, tag: str, claim: dict[str, Any]) -> bool:
    """Replay one claim about p over the positive integers: the determined
    fields first, then the proof obligations."""
    coeffs = list(p.coefficients)
    if tag == "RadoLinear":
        injective = "no" if _is_two_variable_difference(p) else "yes"
        return (
            p.is_linear
            and _fields_are(claim, status=PR, injective=injective, coefficients=coeffs)
            and _index_sum(coeffs, claim["J"]) == 0
        )
    if tag == "LinearNecessity":
        return (
            p.is_linear
            and _fields_are(claim, status=NOT_PR, injective="no", coefficients=coeffs)
            and _zero_sum_free(coeffs)
        )
    if tag == "HomogeneousNecessity":
        degree = p.monomials[0].degree
        return (
            p.is_homogeneous
            and _fields_are(
                claim, status=NOT_PR, injective="no", coefficients=coeffs, degree=degree
            )
            and _zero_sum_free(coeffs)
        )
    if tag == "RadoAffine":
        # p carries no constant: replay_certificate compares it when given one
        constant, s, case = claim["constant"], sum(coeffs), claim["case"]
        if type(constant) is not int:
            return False
        t = -constant // s if s != 0 and -constant % s == 0 else None  # the diagonal root
        status, injective = _AFFINE_CLAIMS[case]
        fields = {"status": status, "injective": injective, "coefficients": coeffs}
        if not (p.is_linear and constant != 0 and _fields_are(claim, **fields)):
            return False
        if case == "no_diagonal_root":
            return t is None
        if t is None or not _fields_are(claim, diagonal=t):
            return False
        if case == "positive_diagonal":
            return t >= 1
        if case == "necessity":
            return t < 1 and _zero_sum_free(coeffs)
        return _index_sum(coeffs, claim["J"]) == 0
    if tag == "MultiplicativeRado":
        sides = _multiplicative_sides(p)
        if sides is None:
            return False
        (left, a), (right, b) = ((m.monic_text(), [e for _, e in m.exponents]) for m in sides)
        fields = {"left": left, "right": right, "left_exponents": a, "right_exponents": b}
        if claim["status"] == NOT_PR:
            return _fields_are(claim, injective="no", **fields) and _no_equal_sums(a, b)
        injective = "yes" if len(a) + len(b) >= 3 else "no"
        total = _index_sum(a, claim["I1"])
        return (
            _fields_are(claim, status=PR, injective=injective, common_sum=total, **fields)
            and _index_sum(b, claim["I2"]) == total
        )
    if tag == "Thm3.5":
        if not p.is_lev or len(p.monomials) < 3:
            return False
        designated, products = claim["linear_vars"], claim["product_vars"]
        owner = _exclusive_degree_one(p)
        held = [m.exponent_map() for m in p.monomials]  # each monomial's variables, as keys
        f_sets = [[j + 1 for j, y in enumerate(products) if y in vs] for vs in held]
        return (
            _fields_are(claim, status=PR, injective="yes", coefficients=coeffs)
            and _index_sum(coeffs, claim["J"]) == 0
            and len(designated) == len(p.monomials)
            and set(designated) | set(products) == set(p.variables)
            and not set(designated) & set(products)
            and list(map(owner.get, designated)) == list(range(len(designated)))
            and [sorted(f) for f in claim["F"]] == f_sets
            and _INT.issuperset(map(type, itertools.chain.from_iterable(claim["F"])))
        )
    if tag == "Thm4.2":
        prof, choice = p.degree_profile(), claim["exclusive_choice"]
        active = set(prof.nonlinear).union(*choice)
        owner = _exclusive_degree_one(p)
        return (
            len(p.monomials) >= 3
            and _fields_are(
                claim, status=PR, injective="yes", coefficients=coeffs, levels=list(prof.levels),
                multiplicities=list(prof.multiplicities), nonlinear_vars=list(prof.nonlinear),
                passive_vars=[v for v in p.variables if v not in active],
            )
            and _index_sum(coeffs, claim["J"]) == 0
            and len(choice) == len(p.monomials)
            and all(
                type(group) is list
                and len(group) == need == len(set(group))
                and set(map(owner.get, group)) == {i}
                for i, (group, need) in enumerate(zip(choice, prof.multiplicities))
            )
        )
    if tag == "K2Analysis":
        if len(p.monomials) != 2 or p.coefficients[0] != -p.coefficients[1]:
            return False
        pos, neg = sorted(p.monomials, key=lambda m: -m.coefficient)
        d = monomial_gcd(pos, neg)
        q1, q2 = (
            {v: e - d.degree_of(v) for v, e in m.exponents if e > d.degree_of(v)}
            for m in (pos, neg)
        )
        if not q1 or not q2:
            return False
        reduced = Polynomial.from_terms([(1, q1), (-1, q2)])
        by_sign = {m.coefficient: m.monic_text() for m in reduced.monomials}
        fields = {"gcd": d.monic_text(), "q1": by_sign[1], "q2": by_sign[-1]}
        if not _fields_are(claim, reduced=str(reduced), **fields):
            return False
        if claim["case"] == "variable_difference":
            return _fields_are(claim, status=PR, injective="no") and reduced.is_linear
        # the reduced form's multiplicative certificate states the verdict
        # about p; it is replayed as that theorem, one level and no deeper
        inner = claim["inner"]
        if claim["case"] != "reduced" or inner["theorem"] != "MultiplicativeRado":
            return False
        given = dict(inner["payload"], status=claim["status"], injective=claim["injective"])
        return _replay_over_n(reduced, "MultiplicativeRado", given)
    return False
