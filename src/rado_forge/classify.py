"""Decision procedures for partition regularity, with replayable certificates.

Each ``classify_*`` function checks the hypotheses of one sufficient (or
necessary-and-sufficient) condition.  When they hold it returns a Verdict
whose certificate carries the witnessing combinatorial data: the zero-sum
index set J, the exclusive-variable designations, the F_i product sets, the
(D, Q1, Q2) two-monomial decomposition, or the exponent subset pair (I1, I2).
When they fail it returns UNKNOWN, and its trace names the hypotheses that
failed.  The top-level ``classify`` dispatcher runs each rule at most once,
exact equivalences before pure sufficiency conditions: it returns the first
conclusive verdict and otherwise collects each rule's failure trace, then
tries homogeneous necessity.  A two-monomial form belongs to the K2
analysis, which runs the multiplicative rule on its coprime difference;
the l.e.v. and nonlinear rules need three or more monomials.

Status strings: "PR", "NOT_PR", "UNKNOWN".  Injective: "yes"/"no"/"unknown".
All index sets in payloads are 1-based (matching the usual statement of the
theorems).  ``replay_certificate``, named here too, lives in ``check``, which
imports nothing from this module: it re-checks a verdict from the polynomial
and the verdict's claim alone, ring Z included.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Any, Callable, Optional

from .check import _BITSET_LIMIT, NOT_PR, PR, UNKNOWN, replay_certificate
from .poly import Polynomial, _is_two_variable_difference, _multiplicative_sides, monomial_gcd
from .poly import negate_all_variables, parse  # noqa: F401 - perfbench/tracing.py wraps classify.parse

__all__ = [
    "PR",
    "NOT_PR",
    "UNKNOWN",
    "NotLinearError",
    "NoConstantTermError",
    "NotLevError",
    "NotTwoMonomialsError",
    "NoExclusiveSetError",
    "Certificate",
    "Verdict",
    "ExclusiveAssignment",
    "LevForm",
    "NonlinearShape",
    "rado_condition",
    "classify_linear",
    "classify_affine",
    "classify_multiplicative",
    "exclusive_variables",
    "to_lev_form",
    "nonlinear_shape",
    "classify_lev",
    "classify_nonlinear",
    "classify_k2",
    "classify",
    "replay_certificate",
]

class NotLinearError(ValueError):
    pass


class NoConstantTermError(ValueError):
    pass


class NotLevError(ValueError):
    pass


class NotTwoMonomialsError(ValueError):
    pass


class NoExclusiveSetError(ValueError):
    pass


class Certificate(namedtuple("Certificate", ["theorem", "payload"])):
    """Theorem tag plus the combinatorial payload that makes it re-checkable."""

    __slots__ = ()  # theorem: str, payload: dict[str, Any]

    def to_json(self) -> dict[str, Any]:
        return {"theorem": self.theorem, "payload": self.payload}


class Verdict(namedtuple("Verdict", ["status", "injective", "certificate", "trace", "notes"],
                         defaults=(None, (), ()))):
    """Verdict(status, injective, certificate, trace, notes)"""

    # status: str, injective: str, certificate: Optional[Certificate],
    # trace: tuple[str, ...], notes: tuple[str, ...]
    __slots__ = ()

    def with_trace(self, lines: list[str]) -> "Verdict":
        return self._replace(trace=tuple(lines) + self.trace) if lines else self

    def with_notes(self, notes: list[str]) -> "Verdict":
        return self._replace(notes=self.notes + tuple(notes)) if notes else self

    def to_json(self, input_text: str, canonical: str, ring: str = "N") -> dict[str, Any]:
        return {
            "schema": 1,
            "input": input_text,
            "canonical": canonical,
            "ring": ring,
            "status": self.status,
            "injective": self.injective,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "trace": list(self.trace),
            "notes": list(self.notes),
        }


class ExclusiveAssignment(namedtuple("ExclusiveAssignment", ["exclusives", "degree_one"])):
    """Per-monomial exclusive variables (canonical monomial order).

    ``exclusives[i]`` lists every variable whose support is exactly monomial
    i; ``degree_one[i]`` is the sub-list of those with degree exactly 1.
    A full assignment exists only if every list is non-empty.
    """

    __slots__ = ()  # exclusives, degree_one: tuple[tuple[str, ...], ...]


class LevForm(namedtuple("LevForm", ["polynomial", "coefficients", "linear_vars", "product_vars",
                                     "f_sets"])):
    """An l.e.v. polynomial rewritten as sum_i a_i * x_i * prod_{j in F_i} y_j.

    ``linear_vars[i]`` is the designated exclusive variable of canonical
    monomial i; ``product_vars`` are all remaining variables in name order;
    ``f_sets[i]`` holds the 1-based product indices dividing monomial i.
    """

    # polynomial: Polynomial, coefficients: tuple[int, ...], linear_vars and
    # product_vars: tuple[str, ...], f_sets: tuple[tuple[int, ...], ...]
    __slots__ = ()


class NonlinearShape(namedtuple("NonlinearShape", ["chosen"])):
    """The choice that lifts solutions through nonlinear monomials:
    ``chosen[i]`` holds m_i of monomial i's exclusive degree-1 variables.
    The degree data, m_i among it, is the polynomial's ``degree_profile``."""

    __slots__ = ()  # chosen: tuple[tuple[str, ...], ...]


def _unknown(*failures: str) -> Verdict:
    """A rule's answer when its hypotheses fail: UNKNOWN, tracing why."""
    return Verdict(UNKNOWN, "unknown", None, failures)


# -- zero-sum subsets --------------------------------------------------------


class _SubsetTable:
    """Subset sums by count: ``exact[i][j]`` holds the sums of exactly j
    elements of ``values[i:]``.  ``grow`` adds the next count to every
    suffix, and counts are added only as far as a question needs.

    A dense row is an int with bit s + offset set for each sum s, where
    offset is the total magnitude of the negative values, so no sum has a
    negative bit index; a sparse row is a set of sums, never changed once
    made.  ``grow``, ``first`` and ``pick`` serve both kinds, and ``sums``
    lists the sums of a dense row.  A dense table also keeps ``reach``,
    every nonempty subset sum, so a question no subset answers costs one
    pass; a sparse table could hold 2^k sums there, so it keeps
    ``floor[j]``, the least sum of j or more values, and ``pick`` grows it
    only to counts that can still reach the target.
    """

    def __init__(self, values: tuple[int, ...], dense: bool):
        self.values, self.dense = values, dense
        self.offset = offset = -sum(c for c in values if c < 0) if dense else 0
        if dense:
            reach = 0
            for v in reversed(values):
                reach |= (reach << v if v > 0 else reach >> -v) | 1 << (v + offset)
            self.reach = reach
        else:
            least = list(itertools.accumulate(sorted(values)))  # least[j - 1]: of j values
            self.floor = [0] + [min(least[j:]) for j in range(len(values))]
        empty_sum = 1 << offset if dense else {0}
        self.exact = [[empty_sum] for _ in range(len(values) + 1)]

    def grow(self) -> Any:
        """Add the next count j to every suffix's rows; returns ``exact[0][j]``."""
        values, exact = self.values, self.exact
        k, j = len(values), len(exact[0])
        # row is exact[i + 1][j] as i falls; each row is a new object, so a
        # set row already filed is never changed
        if self.dense:
            row = 0
            exact[k].append(row)
            for i in range(k - 1, -1, -1):
                v, fewer = values[i], exact[i + 1][j - 1]
                row |= fewer << v if v > 0 else fewer >> -v
                exact[i].append(row)
        else:
            row = set()
            exact[k].append(row)
            for i in range(k - 1, -1, -1):
                v = values[i]
                row = {s + v for s in exact[i + 1][j - 1]} | row
                exact[i].append(row)
        return row

    def sums(self, row: int) -> list[int]:
        """The sums in a dense row, in increasing order."""
        digits = bin(row)[:1:-1]  # digits[i] is bit i
        return [i - self.offset for i, d in enumerate(digits) if d == "1"]

    def first(self, meets: Callable[[Any], Any]) -> Optional[int]:
        """The least count j >= 1 whose row ``exact[0][j]`` meets the test,
        growing the table to that count; None when no count's row does."""
        if self.dense and not meets(self.reach):
            return None
        row = self.exact[0]
        for j in range(1, len(self.values) + 1):
            if meets(row[j] if j < len(row) else self.grow()):
                return j
        return None

    def pick(self, target: int) -> Optional[tuple[int, ...]]:
        """The (size, lex)-minimal nonempty subset (1-based indices) summing
        to ``target``; None if no subset does.  Each row test is inline: a
        sum s is in a dense row when bit s + offset, which exists only for s
        >= -offset, is set."""
        values, exact, dense, offset = self.values, self.exact, self.dense, self.offset
        index = target + offset
        if dense and (index < 0 or not self.reach >> index & 1):
            return None
        # the fewest elements of a subset summing to target
        whole = exact[0]  # the rows of all of values
        for need in range(1, len(values) + 1):
            if need < len(whole):
                row = whole[need]
            elif not dense and target < self.floor[need]:
                return None  # no count from need on reaches target
            else:
                row = self.grow()
            if (row >> index & 1) if dense else target in row:
                break
        else:
            return None
        chosen: list[int] = []
        remaining = target
        i = 0
        while need > 0:
            # taking index i stays optimal iff the rest is completable by exactly
            # need - 1 elements after it; no completion is shorter, since the
            # chosen part plus a shorter one would beat the minimum
            rest = remaining - values[i]
            row = exact[i + 1][need - 1]
            if (rest + offset >= 0 and row >> (rest + offset) & 1) if dense else rest in row:
                chosen.append(i + 1)
                remaining = rest
                need -= 1
            i += 1
        return tuple(chosen)


def _minimal_subset(values: tuple[int, ...], target: int) -> Optional[tuple[int, ...]]:
    """Smallest nonempty subset (by size, then lexicographic on 1-based
    indices) summing to ``target``; None if no such subset exists."""
    return _SubsetTable(values, sum(map(abs, values)) < _BITSET_LIMIT).pick(target)


def rado_condition(coeffs: list[int] | tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Zero-sum condition on a coefficient list.

    Returns the smallest nonempty index subset J (1-based; ordered by size,
    then lexicographically) with sum(coeffs[j] for j in J) == 0, or None.
    Coefficients of one sign answer None at once: no nonempty subset of them
    sums to 0.  Otherwise a ``_SubsetTable`` of the suffixes coeffs[i:]
    grows count by count until 0 is a sum of row 0, which gives |J|; J is
    rebuilt greedily, taking index i whenever the rest of the target is a
    sum of exactly one element fewer after it.  Below sum(|c_i|) =
    _BITSET_LIMIT (2^16) the rows are bitsets, and a list whose subsets miss
    0 costs one pass; at or above it they are sets, which a J of few
    elements keeps small, and a list with no zero sum and distinct subset
    sums grows to all 2^k of them, with no budget.  Exhaustive subset
    enumeration is the test oracle.
    """
    values = tuple(coeffs)
    if not values:
        raise ValueError("coefficient list must be non-empty")
    if 0 in values:
        raise ValueError("coefficients must be nonzero")
    if min(values) > 0 or max(values) < 0:
        return None
    return _minimal_subset(values, 0)


def _zero_sum(p: Polynomial) -> tuple[int, ...]:
    """``rado_condition`` of p's coefficients, kept with p: J, or () when no
    nonempty subset sums to zero.  Every rule and lift reads J here, so the
    table is built once per polynomial."""
    j = p._zero_sum
    if j is None:
        j = p._keep("_zero_sum", rado_condition(p.coefficients) or ())
    return j


# -- linear and affine (Rado) ------------------------------------------------


def classify_linear(p: Polynomial) -> Verdict:
    """Exact classification of linear polynomials via the zero-sum subset
    condition; PR linear polynomials are injectively PR except c*(x-y)."""
    if not p.is_linear:
        raise NotLinearError(f"{p} is not linear")
    coeffs = p.coefficients
    j = _zero_sum(p)
    if not j:
        return Verdict(
            NOT_PR,
            "no",
            Certificate("LinearNecessity", {"coefficients": list(coeffs)}),
            (f"linear: no nonempty subset of {list(coeffs)} sums to zero",),
        )
    injective = "no" if _is_two_variable_difference(p) else "yes"
    cert = Certificate(
        "RadoLinear", {"J": list(j), "coefficients": list(coeffs)}
    )
    trace = (f"linear: subset J={list(j)} of coefficients sums to zero",)
    if injective == "no":
        trace += ("linear: two-variable difference forces x = y, no injective solutions",)
    return Verdict(PR, injective, cert, trace)


def classify_affine(p: Polynomial, constant: int) -> Verdict:
    """Linear polynomial plus nonzero constant: PR iff the diagonal has a
    positive root, or an integer root together with the zero-sum condition."""
    if constant == 0:
        raise NoConstantTermError("constant term is zero; use classify_linear")
    if not p.is_linear:
        raise NotLinearError(f"{p} is not linear")
    coeffs = p.coefficients
    coeff_sum = sum(coeffs)
    payload: dict[str, Any] = {"coefficients": list(coeffs), "constant": constant}
    if coeff_sum == 0 or (-constant) % coeff_sum != 0:
        return Verdict(
            NOT_PR,
            "no",
            Certificate("RadoAffine", dict(payload, case="no_diagonal_root")),
            (f"affine: ({coeff_sum})*t = {-constant} has no integer solution",),
        )
    t = -constant // coeff_sum
    if t >= 1:
        cert = Certificate(
            "RadoAffine", dict(payload, case="positive_diagonal", diagonal=t)
        )
        return Verdict(
            PR, "unknown", cert, (f"affine: P({t},...,{t}) = 0 with {t} >= 1",)
        )
    j = _zero_sum(p)
    if t != 0 and j:
        cert = Certificate(
            "RadoAffine",
            dict(payload, case="integer_diagonal_with_zero_sum", diagonal=t, J=list(j)),
        )
        return Verdict(
            PR,
            "unknown",
            cert,
            (f"affine: P({t},...,{t}) = 0 and subset J={list(j)} sums to zero",),
        )
    reason = (
        f"affine: diagonal root t={t} is not positive and "
        + ("t = 0 is no root" if t == 0 else "the zero-sum condition fails")
    )
    return Verdict(
        NOT_PR,
        "no",
        Certificate("RadoAffine", dict(payload, case="necessity", diagonal=t)),
        (reason,),
    )


# -- multiplicative (difference of coprime monomials) ------------------------


# The trace line of a form outside the rule's shape; the dispatcher writes it
# for a two-monomial form that K2 does not decide, without running the rule.
_SHAPE_MISMATCH = "multiplicative: shape mismatch"


def classify_multiplicative(p: Polynomial) -> Verdict:
    """Exact classification of monomial differences: PR iff some nonempty
    exponent subsets of the two sides have equal sums."""
    sides = _multiplicative_sides(p)
    if sides is None:
        return _unknown(_SHAPE_MISMATCH)
    left, right = sides
    a = tuple(e for _, e in left.exponents)
    b = tuple(e for _, e in right.exponents)
    payload: dict[str, Any] = {
        "left": left.monic_text(),
        "right": right.monic_text(),
        "left_exponents": list(a),
        "right_exponents": list(b),
    }
    match = _equal_sum_subsets(a, b)
    if match is None:
        return Verdict(
            NOT_PR,
            "no",
            Certificate("MultiplicativeRado", payload),
            ("multiplicative: no nonempty exponent subsets with equal sums",),
            (
                "the all-ones assignment solves every monomial difference; the "
                "multiplicative equivalence concerns solutions apart from that "
                "fixed point (equivalently, colorings of the integers >= 2)",
            ),
        )
    i1, i2, total = match
    if len(a) + len(b) >= 3:
        injective = "yes"
        inj_trace = "multiplicative: at least three variables, injective solutions lift"
    else:
        injective = "no"
        inj_trace = "multiplicative: two variables with equal exponents force x = y"
    cert = Certificate(
        "MultiplicativeRado", dict(payload, I1=list(i1), I2=list(i2), common_sum=total)
    )
    return Verdict(
        PR,
        injective,
        cert,
        (f"multiplicative: I1={list(i1)}, I2={list(i2)} both sum to {total}", inj_trace),
    )


def _equal_sum_subsets(
    a: tuple[int, ...], b: tuple[int, ...]
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """First (by |I1|, then I1 lex) pair of nonempty index subsets with equal
    sums, and that sum; the matching I2 is itself (size, lex)-minimal for
    it.  An exponent above the other side's total is in no pair, so each
    side drops those first.  Both sides get a ``_SubsetTable`` with rows of
    one kind: bitsets when the larger total is below _BITSET_LIMIT, sets
    otherwise.  a's table grows one count at a time until a row meets b's
    sums, and I1 is the least ``pick`` of a over the sums met there, none of
    which fewer elements reach.

    A dense table takes b's sums from its ``reach``, so when no sums are
    equal it stops after one pass.  A sparse b grows one count at a time,
    only until a's row meets a sum of the counts grown so far or b is
    exhausted, since growing it to every count can hold 2^k sums.  a's first
    row is the only one that can meet b before b is exhausted, and there a
    value met at no count grown so far may still be b's sum at a later one,
    so I1 is the first of a's values that b's ``pick`` finds, which grows b
    only to counts whose least sum is at most that value."""
    kept_a = [i for i, e in enumerate(a, start=1) if e <= sum(b)]
    kept_b = [j for j, e in enumerate(b, start=1) if e <= sum(a)]
    a, b = tuple(a[i - 1] for i in kept_a), tuple(b[j - 1] for j in kept_b)
    if not a or not b:
        return None
    dense = max(sum(a), sum(b)) < _BITSET_LIMIT
    left, right = _SubsetTable(a, dense), _SubsetTable(b, dense)
    if dense:
        reach = right.reach
        count = left.first(lambda row: row & reach)
        if count is None:
            return None
        i1 = min(left.pick(s) for s in left.sums(left.exact[0][count] & reach))
    else:
        grown: set[int] = set()  # b's sums of the counts grown so far
        b_rows = right.exact[0]

        def meets(row: set[int]) -> bool:
            while grown.isdisjoint(row) and len(b_rows) <= len(b):
                grown.update(right.grow())
            return not grown.isdisjoint(row)

        count = left.first(meets)
        if count is None:
            return None
        if count == 1:
            i1 = next((i,) for i, s in enumerate(a, start=1) if right.pick(s) is not None)
        else:  # a's first row missed b, so b is exhausted and grown holds all its sums
            i1 = min(left.pick(s) for s in left.exact[0][count] & grown)
    total = sum(a[i - 1] for i in i1)
    i2 = right.pick(total)
    return tuple(kept_a[i - 1] for i in i1), tuple(kept_b[j - 1] for j in i2), total


# -- exclusive variables and l.e.v. shapes -----------------------------------


def _exclusive_groups(p: Polynomial) -> ExclusiveAssignment:
    """The per-monomial exclusive lists of ``exclusive_variables``, some of
    which may be empty; kept with p."""
    groups = p._groups
    if groups is not None:
        return groups
    monomials_with: dict[str, int] = {}  # variable -> how many monomials hold it
    for _, exponents in p.monomials:
        for v, _ in exponents:
            monomials_with[v] = monomials_with.get(v, 0) + 1
    exclusives = tuple(
        tuple([v for v, _ in exponents if monomials_with[v] == 1]) for _, exponents in p.monomials
    )
    degree_one = tuple(
        tuple([v for v, e in exponents if e == 1 and monomials_with[v] == 1])
        for _, exponents in p.monomials
    )
    return p._keep("_groups", ExclusiveAssignment(exclusives, degree_one))


def exclusive_variables(p: Polynomial) -> Optional[ExclusiveAssignment]:
    """Variables occurring in exactly one monomial, grouped per monomial.

    Returns None unless every monomial owns at least one exclusive variable.
    ``degree_one`` narrows each group to the degree-1 exclusives needed by
    the nonlinear lifting condition.
    """
    excl = _exclusive_groups(p)
    return excl if all(excl.exclusives) else None


def to_lev_form(p: Polynomial) -> LevForm:
    """Designate the lexicographically smallest exclusive variable of each
    monomial as its linear variable; everything else becomes the ordered
    product-variable list, with F_i the 1-based product indices dividing
    monomial i.  The designation is kept with p; the record is not, as it
    holds p."""
    if not p.is_lev:
        raise NotLevError(f"{p} is not linear in each variable")
    lev = p._lev
    if lev is None:
        exclusives = exclusive_variables(p)
        if exclusives is None:
            raise NoExclusiveSetError(f"{p}: some monomial has no exclusive variable")
        designated = tuple(min(own) for own in exclusives.exclusives)
        linear = set(designated)
        products = tuple(v for v in p.variables if v not in linear)
        index = {v: j + 1 for j, v in enumerate(products)}
        # a monomial's variables are in name order, as the products are
        f_sets = tuple(tuple([index[v] for v in m.variables if v in index]) for m in p.monomials)
        lev = p._keep("_lev", (designated, products, f_sets))
    return LevForm(p, p.coefficients, *lev)


def classify_lev(p: Polynomial) -> Verdict:
    """Sufficiency for linear-in-each-variable polynomials (Thm 3.5): an
    exclusive variable for every monomial, the zero-sum condition, and at
    least three monomials, checked in that order.  A two-monomial form is
    UNKNOWN here; ``classify_k2`` decides it."""
    try:
        form = to_lev_form(p)
    except NoExclusiveSetError:
        return _unknown("lev: some monomial has no exclusive variable")
    j = _zero_sum(p)
    if not j:
        return _unknown("lev: coefficients admit no zero-sum subset")
    if len(p.monomials) < 3:
        return _unknown("lev: fewer than three monomials")
    f_sets = [list(f) for f in form.f_sets]
    cert = Certificate(
        "Thm3.5",
        {
            "coefficients": list(p.coefficients),
            "J": list(j),
            "linear_vars": list(form.linear_vars),
            "product_vars": list(form.product_vars),
            "F": f_sets,
        },
    )
    return Verdict(
        PR,
        "yes",
        cert,
        (f"lev: exclusive designates {list(form.linear_vars)}, J={list(j)}, F={f_sets}",),
    )


# -- nonlinear lifting condition ---------------------------------------------


def nonlinear_shape(p: Polynomial) -> tuple[Optional[NonlinearShape], list[str]]:
    """Check the per-monomial supply of exclusive degree-1 variables against
    the multiplicities m_i; returns (shape, failure_trace).  Both are kept
    with p."""
    kept = p._shape
    if kept is None:
        kept = p._keep("_shape", _find_shape(p))
    shape, failures = kept
    return shape, list(failures)


def _find_shape(p: Polynomial) -> tuple[Optional[NonlinearShape], tuple[str, ...]]:
    """``nonlinear_shape`` of p, its failure lines as a tuple."""
    excl = _exclusive_groups(p)
    failures = [
        f"nonlinear: monomial {i + 1} ({m.monic_text()}) has no exclusive variable"
        for i, (m, own) in enumerate(zip(p.monomials, excl.exclusives))
        if not own
    ]
    if failures:
        return None, tuple(failures)
    chosen: list[tuple[str, ...]] = []
    for i, (m, have, need) in enumerate(
        zip(p.monomials, excl.degree_one, p.degree_profile().multiplicities)
    ):
        if len(have) < need:
            failures.append(
                f"nonlinear: monomial {i + 1} ({m.monic_text()}) needs {need} "
                f"exclusive degree-1 variable(s), found {len(have)}"
            )
        chosen.append(tuple(sorted(have))[:need])
    if failures:
        return None, tuple(failures)
    return NonlinearShape(tuple(chosen)), ()


def classify_nonlinear(p: Polynomial) -> Verdict:
    """Sufficiency for polynomials with nonlinear variables: at least three
    monomials, the zero-sum condition, and m_i = max(1, l_i) exclusive
    degree-1 variables in each monomial."""
    if len(p.monomials) < 3:
        return _unknown("nonlinear: fewer than three monomials")
    j = _zero_sum(p)
    if not j:
        return _unknown("nonlinear: coefficients admit no zero-sum subset")
    shape, failures = nonlinear_shape(p)
    if shape is None:
        return _unknown(*failures)
    prof = p.degree_profile()
    active = set(prof.nonlinear).union(*shape.chosen)
    cert = Certificate(
        "Thm4.2",
        {
            "coefficients": list(p.coefficients),
            "J": list(j),
            "exclusive_choice": [list(g) for g in shape.chosen],
            "nonlinear_vars": list(prof.nonlinear),
            "passive_vars": [v for v in p.variables if v not in active],
            "levels": list(prof.levels),
            "multiplicities": list(prof.multiplicities),
        },
    )
    return Verdict(
        PR,
        "yes",
        cert,
        (
            f"nonlinear: multiplicities m={list(prof.multiplicities)} met by "
            f"exclusive degree-1 choices {[list(g) for g in shape.chosen]}, J={list(j)}",
        ),
    )


# -- two-monomial analysis -----------------------------------------------------


def classify_k2(p: Polynomial) -> Verdict:
    """Two-monomial analysis: factor out the monomial gcd D and decide on the
    coprime difference R = Q1 - Q2, whose regularity is equivalent to P's.
    R has the multiplicative rule's shape, so that rule, run here and only
    here, always answers PR or NOT_PR with a certificate."""
    if len(p.monomials) != 2:
        raise NotTwoMonomialsError(f"{p} does not have exactly two monomials")
    not_applicable = _unknown(
        "k2: decomposition not applicable (coefficients not (c,-c) or one "
        "monomial divides the other)"
    )
    m1, m2 = p.monomials
    if m1.coefficient != -m2.coefficient:
        return not_applicable
    pos, neg = (m1, m2) if m1.coefficient > 0 else (m2, m1)
    d = monomial_gcd(pos, neg)
    d_map = d.exponent_map()
    q1 = {v: e - d_map.get(v, 0) for v, e in pos.exponents if e - d_map.get(v, 0) > 0}
    q2 = {v: e - d_map.get(v, 0) for v, e in neg.exponents if e - d_map.get(v, 0) > 0}
    if not q1 or not q2:
        # one monomial divides the other; Q1 - Q2 would carry a constant term
        return not_applicable
    reduced = Polynomial.from_terms([(1, q1), (-1, q2)])
    note = f"regularity of {p} is equivalent to regularity of {reduced}"
    by_sign = {m.coefficient: m.monic_text() for m in reduced.monomials}
    decomposition = {
        "gcd": d.monic_text(),
        "q1": by_sign[1],
        "q2": by_sign[-1],
        "reduced": str(reduced),
    }
    if reduced.is_linear:  # Q1 and Q2 are single variables
        cert = Certificate("K2Analysis", dict(decomposition, case="variable_difference"))
        return Verdict(
            PR,
            "no",
            cert,
            (
                f"k2: gcd {d.monic_text()} leaves {reduced}; solutions force the two "
                f"variables equal, so no injective solutions",
            ),
            (note,),
        )
    inner = classify_multiplicative(reduced)
    if p == reduced:
        return inner
    # p is c * D * (Q1 - Q2): the inner certificate talks about the reduced
    # polynomial, so wrap it with the decomposition
    cert = Certificate(
        "K2Analysis", dict(decomposition, case="reduced", inner=inner.certificate.to_json())
    )
    return Verdict(inner.status, inner.injective, cert, inner.trace, (note,))


# -- literature notes ----------------------------------------------------------

# Known facts about specific polynomials, surfaced as notes, never as
# certificates.  Keyed by structure up to variable renaming and global sign:
# each fact is kept as its variables, its sorted monomial degrees, and the
# canonical term sets of it and of its negation, built once here.


def _known_fact(p: Polynomial, note: str):
    """The entry of _KNOWN_FACTS for the fact that ``note`` states about p."""
    terms = frozenset(p.monomials)  # a record equals its (coefficient, exponents) pair
    negated = frozenset((-c, exps) for c, exps in terms)
    degrees = sorted([m.degree for m in p.monomials])
    return p.variables, degrees, terms, negated, note


_KNOWN_FACTS = [
    _known_fact(
        Polynomial.from_terms([(1, {"a": 1, "b": 1}), (1, {"a": 1, "c": 1}), (-1, {"b": 1, "c": 1})]),
        "known in the literature: xy + xz - yz is (injectively) partition regular "
        "(Csikvari, Gyarmati and Sarkozy), but admits no exclusive variables, so no "
        "implemented criterion certifies it",
    ),
    _known_fact(
        Polynomial.from_terms([(1, {"a": 1}), (1, {"b": 1}), (-1, {"c": 2})]),
        "known in the literature: some finite coloring of the positive integers "
        "leaves x + y - z^2 no monochromatic solution other than x = y = z = 2 "
        "(Csikvari, Gyarmati and Sarkozy), so it is not partition regular once "
        "that solution is excluded; with it, it is partition regular as defined "
        "here, and no implemented criterion certifies either statement",
    ),
]
_FACT_SIZES = {len(names) for names, *_ in _KNOWN_FACTS}  # the facts' variable counts


def _literature_notes(p: Polynomial) -> list[str]:
    """The notes of the known facts that p is, or is the negation of, under
    some bijection of variable names.  Canonical forms are equal exactly when
    their term sets are, so each renaming of p's terms is compared as a set,
    without building a polynomial."""
    if len(p.variables) not in _FACT_SIZES:
        return []
    degrees = sorted([m.degree for m in p.monomials])
    notes = []
    for names, known_degrees, known, negated, note in _KNOWN_FACTS:
        if len(names) != len(p.variables) or known_degrees != degrees:
            continue
        for perm in itertools.permutations(names):
            renaming = dict(zip(p.variables, perm))
            renamed = {
                (c, tuple(sorted((renaming[v], e) for v, e in exps))) for c, exps in p.monomials
            }
            if renamed == known or renamed == negated:
                notes.append(note)
                break
    return notes


# -- dispatcher ----------------------------------------------------------------


def classify(p: Polynomial, ring: str = "N") -> Verdict:
    """Run the implemented decision procedures in fixed order, each at most
    once, and return the first conclusive verdict; UNKNOWN carries the
    hypothesis-failure trace.  A nonlinear form runs ``classify_k2`` when it
    has two monomials, then ``classify_lev`` or ``classify_nonlinear``.

    ``ring="Z"`` additionally tries the all-variables sign flip: a polynomial
    whose flipped form is certified PR over the positive integers is PR over
    the nonzero integers (witnesses negate).
    """
    if ring not in ("N", "Z"):
        raise ValueError(f"ring must be 'N' or 'Z', got {ring!r}")
    if ring == "Z":
        return _classify_z(p)
    notes = _literature_notes(p)

    if p.is_linear:
        return classify_linear(p).with_notes(notes)
    trace = ["linear: not applicable (nonlinear monomial present)"]

    if len(p.monomials) == 2:
        verdict = classify_k2(p)
        if verdict.status != UNKNOWN:
            return verdict.with_trace(trace).with_notes(notes)
        # K2 decides every form of the multiplicative rule's shape, so the
        # rule, which K2 runs on Q1 - Q2, is not run again
        trace += [*verdict.trace, _SHAPE_MISMATCH]
    else:
        trace.append("k2/multiplicative: not applicable (monomial count != 2)")
    if p.is_lev:
        verdict = classify_lev(p)
    else:
        trace.append("lev: not linear in each variable")
        verdict = classify_nonlinear(p)
    if verdict.status != UNKNOWN:
        return verdict.with_trace(trace).with_notes(notes)
    trace.extend(verdict.trace)

    if p.is_homogeneous and not _zero_sum(p):
        cert = Certificate(
            "HomogeneousNecessity",
            {
                "coefficients": list(p.coefficients),
                "degree": p.monomials[0].degree,
            },
        )
        trace.append(
            "homogeneous necessity: zero-sum condition fails, which is necessary "
            "for homogeneous partition regular polynomials"
        )
        return Verdict(NOT_PR, "no", cert, tuple(trace), tuple(notes))

    if p.is_one_signed:
        notes = notes + [
            "all coefficients share one sign, so there are no solutions over the "
            "positive integers; no implemented certificate covers this"
        ]
    return Verdict(UNKNOWN, "unknown", None, tuple(trace), tuple(notes))


def _classify_z(p: Polynomial) -> Verdict:
    base = classify(p, "N")
    if base.status == PR:
        return base.with_notes(
            ["partition regularity over the positive integers transfers to the nonzero integers"]
        )
    flipped = negate_all_variables(p)
    fv = classify(flipped, "N")
    if fv.status == PR:
        if fv.certificate is None:
            raise AssertionError("a PR verdict of the flipped polynomial has no certificate")
        cert = Certificate(
            fv.certificate.theorem,
            dict(
                fv.certificate.payload,
                sign_map={v: -1 for v in p.variables},
                flipped=str(flipped),
            ),
        )
        return Verdict(
            PR,
            fv.injective,
            cert,
            fv.trace,
            fv.notes
            + (
                f"ring Z: {flipped} is partition regular over the positive integers; "
                f"negating its solutions solves {p} inside the negative integers",
            ),
        )
    return Verdict(
        UNKNOWN,
        "unknown",
        None,
        base.trace
        + (f"ring Z: sign-flipped form {flipped} is not certified PR either",),
        base.notes
        + ("ring Z: no negative certificates are implemented over the integers",),
    )
