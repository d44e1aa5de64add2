"""Explicit solution construction for certified polynomials.

Two lifting constructions produce exact positive-integer solutions:

  * ``reduct_lift``: from a zero-sum solution of the linear reduct of an
    l.e.v. polynomial, scaling each designated linear variable by the product
    of the y-values its monomial is missing, so every monomial picks up the
    full product and the linear cancellation survives verbatim.
  * ``nlp_lift``: from a solution of the polynomial with all nonlinear
    variables set to 1, multiplying the chosen exclusive degree-1 variables
    by staged products gamma_{i,j} that restore each monomial's missing
    nonlinear weight exactly (prod_j gamma_{i,j} = eta_i).

Each lift multiplies a linear variable by a formal product of the other
variables (the y's outside F_i, or gamma_{i,j}) evaluated at the given values,
and the result is verified exactly on construction.  ``*_formal_check``
substitutes the same formal products, with the y-values and g-values left as
symbols, and confirms the underlying algebraic identity by exact
cancellation.  ``build_witness`` falls back on the enumeration oracle
``solutions.brute_force_solutions``, whose ``Witness`` record the lifts
return too.  The l.e.v. form is ``classify.to_lev_form``; each default
pipeline decides every hypothesis once, and its one search takes a budget.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Iterator, Mapping, Optional, Sequence

from .classify import (
    LevForm,
    NoExclusiveSetError,
    NonlinearShape,
    NotLevError,
    _exclusive_groups,
    _zero_sum,
    nonlinear_shape,
    to_lev_form,
)
from .poly import Polynomial, _build, _exponents
from .solutions import Witness, brute_force_solutions

__all__ = [
    "NotAReductSolutionError",
    "NotAPTildeSolutionError",
    "GValuesNotDistinctError",
    "HypothesisFailure",
    "reduct_lift",
    "reduct_lift_formal_check",
    "nlp_lift",
    "nlp_lift_formal_check",
    "primes_above",
    "witness_via_reduct",
    "witness_via_nlp",
    "build_witness",
]


class NotAReductSolutionError(ValueError):
    pass


class NotAPTildeSolutionError(ValueError):
    pass


class GValuesNotDistinctError(ValueError):
    pass


class HypothesisFailure(RuntimeError):
    """A witness method's hypotheses do not hold for the polynomial."""

    def __init__(self, reasons: list[str]):
        self.reasons = reasons
        super().__init__("; ".join(reasons))


def reduct_lift(
    form: LevForm, alpha: Sequence[int], y_values: Sequence[int]
) -> Witness:
    """Lift a zero-sum solution of the reduct: x_i := alpha_i times the
    product of the y-values outside F_i, so that the whole polynomial equals
    (prod of all y-values) * sum(a_i * alpha_i) = 0."""
    k = len(form.coefficients)
    if len(alpha) != k:
        raise NotAReductSolutionError(f"need {k} alpha values, got {len(alpha)}")
    if any(a == 0 for a in alpha):
        raise NotAReductSolutionError("alpha values must be nonzero")
    residue = sum(a * x for a, x in zip(form.coefficients, alpha))
    if residue != 0:
        raise NotAReductSolutionError(
            f"sum(a_i * alpha_i) = {residue}, not an exact reduct solution"
        )
    if len(y_values) != len(form.product_vars):
        raise ValueError(
            f"need {len(form.product_vars)} y values, got {len(y_values)}"
        )
    if any(y < 1 for y in y_values):
        raise ValueError("y values must be positive")
    # x_i is alpha_i times the y-values outside F_i (``_outside_products``)
    x_values = [
        a * math.prod([y for j, y in enumerate(y_values, start=1) if j not in f_i])
        for a, f_i in zip(alpha, form.f_sets)
    ]
    assignment = dict(zip(form.linear_vars, x_values))
    assignment.update(zip(form.product_vars, y_values))
    value = form.polynomial.evaluate(assignment)
    full_product = math.prod(y_values)
    # exact identity from the construction, not merely value == 0
    if not value == full_product * residue == 0:
        raise AssertionError("reduct lift does not evaluate to prod(y) * residue = 0")
    return Witness(
        assignment,
        value,
        "ReductLift",
        {"eta": full_product, "eta_i": x_values, "gamma": {}, "I": {}},
    )


def _outside_products(form: LevForm) -> list[dict[str, int]]:
    """For each designated x_i, the formal product of the y's outside F_i:
    the factor the reduct lift multiplies alpha_i by."""
    return [
        {y: 1 for j, y in enumerate(form.product_vars, start=1) if j not in f_i}
        for f_i in form.f_sets
    ]


def _identity_holds(
    p: Polynomial,
    mapping: Mapping[str, tuple[int, Mapping[str, int]]],
    residue: int,
    eta: Mapping[str, int],
) -> bool:
    """Whether p is identically residue * eta after each mapped variable is
    replaced by c * M, where mapping[v] = (c, M) with M a formal product;
    unmapped variables stay symbols.  The substituted terms and
    -residue * eta must combine to nothing."""
    terms = []
    for coeff, exponents in p.monomials:
        exps: dict[str, int] = {}
        for v, e in exponents:
            c, product = mapping.get(v, (1, {v: 1}))
            coeff *= c**e
            for w, d in product.items():
                exps[w] = exps.get(w, 0) + d * e
        terms.append((coeff, _exponents(exps)))
    terms.append((-residue, _exponents(eta)))
    left, constant = _build(terms)
    return left is None and constant == 0


def reduct_lift_formal_check(form: LevForm, alpha: Sequence[int]) -> bool:
    """With the y-values left as formal variables, verify the polynomial
    identity  P(x(alpha, y), y) == (prod_j y_j) * sum(a_i alpha_i)  by exact
    cancellation.  ``alpha`` need not be a reduct solution here."""
    outside = _outside_products(form)
    mapping = {x: (alpha[i], outside[i]) for i, x in enumerate(form.linear_vars)}
    residue = sum(a * x for a, x in zip(form.coefficients, alpha))
    return _identity_holds(
        form.polynomial, mapping, residue, {y: 1 for y in form.product_vars}
    )


def _i_sets(p: Polynomial) -> list[tuple[dict[str, int], list[list[str]]]]:
    """For each monomial i, the deficit d(y_s) - d_i(y_s) of each nonlinear
    variable y_s, in the order of the degree profile's ``nonlinear``, and
    gamma_{i,j} for j = 1..m_i as the nonlinear variables whose product it
    is, s in I_{i,j} = {s : deficit >= j}.  A deficit is at most m_i, so y_s
    is in the first ``deficit`` groups."""
    prof = p.degree_profile()
    top = {v: p.degree_of(v) for v in prof.nonlinear}
    sets = []
    for m, need in zip(p.monomials, prof.multiplicities):
        deficit = {}
        groups = [[] for _ in range(need)]
        for v, d in top.items():
            deficit[v] = level = d - m.degree_of(v)
            for group in groups[:level]:
                group.append(v)
        sets.append((deficit, groups))
    return sets


def _check_shape(p: Polynomial, shape: NonlinearShape) -> None:
    """Raise ``ValueError`` naming the first way ``shape`` does not fit p:
    one chosen group per monomial, group i holding m_i distinct degree-1
    exclusive variables of monomial i.  The rest of the degree data is p's
    own, so with a shape that fits, prod_j gamma_{i,j} = eta_i holds for
    every monomial, and the lift of any solution of the substitution solves
    p."""
    if len(shape.chosen) != len(p.monomials):
        raise ValueError(
            f"shape has {len(shape.chosen)} chosen groups for the {len(p.monomials)} monomials of {p}"
        )
    degree_one = _exclusive_groups(p).degree_one
    needs = p.degree_profile().multiplicities
    for i, (m, group, need) in enumerate(zip(p.monomials, shape.chosen, needs)):
        if len(set(group)) != len(group) or len(group) != need or not set(group) <= set(degree_one[i]):
            raise ValueError(
                f"chosen group {i + 1} {list(group)} is not {need} distinct exclusive degree-1 "
                f"variable(s) of monomial {i + 1} ({m.monic_text()})"
            )


def nlp_lift(
    p: Polynomial,
    shape: NonlinearShape,
    alpha_beta: Mapping[str, int],
    g: Sequence[int],
) -> Witness:
    """Lift a solution of the nonlinear-variables-to-1 substitution of p.

    With eta = prod_s g_s^{d(y_s)} and gamma_{i,j} = prod_{s in I_{i,j}} g_s,
    each monomial's chosen exclusive variables absorb exactly its missing
    nonlinear weight (prod_j gamma_{i,j} = eta_i), so the full polynomial
    evaluates to eta times the substituted solution's value, i.e. zero.
    A shape that does not fit p raises ``ValueError`` (``_check_shape``).
    """
    _check_shape(p, shape)
    nonlinear = p.degree_profile().nonlinear
    h = len(nonlinear)
    if len(g) != h:
        raise ValueError(f"need {h} g values (one per nonlinear variable), got {len(g)}")
    if len(set(g)) != len(g):
        raise GValuesNotDistinctError(f"g values must be pairwise distinct: {list(g)}")
    if any(v < 2 for v in g):
        raise ValueError("g values must be integers >= 2")
    substituted = _ones_substitution(p)
    missing = [v for v in substituted.variables if v not in alpha_beta]
    if missing:
        raise NotAPTildeSolutionError(f"solution missing variables: {missing}")
    residue = substituted.evaluate(alpha_beta)
    if residue != 0:
        raise NotAPTildeSolutionError(
            f"substituted polynomial evaluates to {residue}, not 0"
        )
    g_of = dict(zip(nonlinear, g))
    index = {v: s for s, v in enumerate(nonlinear, start=1)}
    eta = math.prod([gv ** p.degree_of(v) for v, gv in g_of.items()])
    eta_i: list[int] = []
    gamma: dict[str, int] = {}
    i_json: dict[str, list[int]] = {}
    assignment = {
        v: val for v, val in alpha_beta.items() if v in substituted.variables
    }
    assignment.update(g_of)
    for i, (m, (deficit, i_sets)) in enumerate(zip(p.monomials, _i_sets(p))):
        nl_part = math.prod([gv ** m.degree_of(v) for v, gv in g_of.items()])
        level_product = math.prod([gv ** deficit[v] for v, gv in g_of.items()])
        eta_i.append(level_product)
        gammas_i = [math.prod([g_of[v] for v in names]) for names in i_sets]
        for j, (names, value) in enumerate(zip(i_sets, gammas_i), start=1):
            key = f"{i + 1},{j}"
            gamma[key] = value
            i_json[key] = [index[v] for v in names]
        # proof identities: prod_j gamma_{i,j} = eta_i and eta_i * M_i^NL = eta
        if math.prod(gammas_i) != level_product:
            raise AssertionError("nlp lift: prod_j gamma_{i,j} != eta_i")
        if level_product * nl_part != eta:
            raise AssertionError("nlp lift: eta_i * M_i^NL != eta")
        for j, x_var in enumerate(shape.chosen[i]):
            assignment[x_var] = alpha_beta[x_var] * gammas_i[j]
    value = p.evaluate(assignment)
    if not value == eta * residue == 0:
        raise AssertionError("nlp lift does not evaluate to eta * residue = 0")
    return Witness(
        assignment,
        value,
        "NlpLift",
        {"eta": eta, "eta_i": eta_i, "gamma": gamma, "I": i_json},
    )


def _ones_substitution(p: Polynomial) -> Polynomial:
    """p with every nonlinear variable set to 1, kept with p.  Only for a p
    that some shape fits: each monomial keeps a chosen exclusive variable,
    so the substituted monomials are nonempty and distinct, and they are
    built without validation, as ``parse`` builds its own."""
    ones = p._ones
    if ones is None:
        dropped = set(p.degree_profile().nonlinear)
        ones, _ = _build(
            (c, tuple([(v, e) for v, e in exponents if v not in dropped]))
            for c, exponents in p.monomials
        )
        p._keep("_ones", ones)
    return ones


def nlp_lift_formal_check(
    p: Polynomial, shape: NonlinearShape, alpha_beta: Mapping[str, int]
) -> bool:
    """With the g-values left as formal variables (reusing the nonlinear
    variable names as symbols), verify  P(assignment(g)) == eta(g) * residue
    by exact cancellation, for an arbitrary substituted-solution candidate.
    A shape that does not fit p raises ``ValueError`` (``_check_shape``)."""
    _check_shape(p, shape)
    i_sets = [groups for _, groups in _i_sets(p)]
    substituted = _ones_substitution(p)
    residue = substituted.evaluate(alpha_beta)
    mapping = {v: (alpha_beta[v], {}) for v in substituted.variables}
    for i, groups in enumerate(shape.chosen):
        for j, x_var in enumerate(groups):
            mapping[x_var] = (alpha_beta[x_var], dict.fromkeys(i_sets[i][j], 1))
    eta = {v: p.degree_of(v) for v in p.degree_profile().nonlinear}
    return _identity_holds(p, mapping, residue, eta)


# -- default generators ------------------------------------------------------


def _lex_reduct_solution(
    coeffs: Sequence[int], bound: int, budget: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """The lexicographically smallest tuple of pairwise distinct values in
    [2..bound] with exact zero weighted sum, and the nodes spent: one per
    step down or back.  It stops with None after ``budget`` nodes."""
    k = len(coeffs)
    lows = [0] * (k + 1)
    highs = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        c = coeffs[i]
        lo, hi = (c * 2, c * bound) if c > 0 else (c * bound, c * 2)
        lows[i] = lows[i + 1] + lo
        highs[i] = highs[i + 1] + hi

    # iterative depth-first search in lexicographic order, one value
    # iterator per level: no recursion limit on k
    values = range(2, bound + 1)

    def candidates(i: int, partial: int):
        """Values to try at position i.  The last position is solved for:
        c * v = -partial has at most one root."""
        if i != k - 1:
            return iter(values)
        v, rest = divmod(-partial, coeffs[i])
        return iter((v,) if rest == 0 and v in values else ())

    chosen: dict[int, None] = {}  # the values so far, in order
    partials = [0]  # partials[i]: the weighted sum of the first i values
    levels = [candidates(0, 0)]
    nodes = 0
    while len(chosen) < k:
        if nodes == budget:
            return None, nodes
        nodes += 1
        i = len(chosen)
        c, partial, lo, hi = coeffs[i], partials[i], lows[i + 1], highs[i + 1]
        for v in levels[-1]:
            if v in chosen:
                continue
            nxt = partial + c * v
            if nxt + lo <= 0 <= nxt + hi:
                chosen[v] = None
                partials.append(nxt)
                levels.append(candidates(i + 1, nxt))
                break
        else:
            if not chosen:
                return None, nodes
            levels.pop()
            partials.pop()
            chosen.popitem()
    # lows[k] = highs[k] = 0, so the last step left a zero weighted sum
    return tuple(chosen), nodes


# the first 13 primes; as Miller-Rabin bases they decide every n below
# _WITNESS_BOUND (Sorenson & Webster, Math. Comp. 86, 2017)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981
# _BASE_BOUNDS[t - 1] is the least strong pseudoprime to the first t small
# primes as bases (OEIS A014233; Jaeschke, Math. Comp. 61, 1993, and
# Sorenson & Webster), so those t bases decide every n below it
_BASE_BOUNDS = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461, _WITNESS_BOUND,
)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def _is_prime(n: int) -> bool:
    """The small primes screen n in one gcd, which settles it below 43^2;
    then Miller-Rabin with as many of the small primes as bases as
    ``_BASE_BOUNDS`` asks for n, exact below ``_WITNESS_BOUND`` and a strong
    probable-prime test to all 13 above it."""
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRODUCT) != 1:  # some small prime divides n
        return n in _SMALL_PRIMES
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES[:bisect.bisect_right(_BASE_BOUNDS, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below ``limit``, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(itertools.compress(range(limit), flags))


# candidates of ``primes_above`` with more than this many bits are sieved by
# the primes below 2^14 before Miller-Rabin; below it, testing each one costs
# less than striking out the multiples of the sieve primes
_SIEVE_BITS = 192


@functools.cache
def _sieve_primes() -> tuple[int, ...]:
    """The primes below 2^14, built on the first sieved call."""
    return _primes_below(1 << 14)


def _sieved_from(start: int, count: int) -> Iterator[int]:
    """The integers from ``start`` up, above every sieve prime, that no
    sieve prime divides, in windows of about ``count`` prime gaps."""
    size = count * start.bit_length()
    primes = _sieve_primes()
    while True:
        alive = bytearray([1]) * size  # alive[i]: no sieve prime divides start + i
        for p in primes:
            first = -start % p
            alive[first::p] = bytes(len(range(first, size, p)))
        yield from itertools.compress(range(start, start + size), alive)
        start += size


def primes_above(lower: int, count: int) -> tuple[int, ...]:
    """The first ``count`` primes strictly greater than ``lower``; strong
    probable primes to the 13 small-prime bases past ``_WITNESS_BOUND``.
    Candidates of more than ``_SIEVE_BITS`` bits are sieved first; the
    sieve drops only multiples of primes below them, so no prime."""
    start = max(lower, 1) + 1
    if start.bit_length() > _SIEVE_BITS:
        candidates: Iterator[int] = _sieved_from(start, count)
    else:  # 2 and the odd integers from start
        candidates = itertools.chain((2,) if start == 2 else (), itertools.count(start | 1, 2))
    return tuple(itertools.islice(filter(_is_prime, candidates), count))


# nodes the lexicographic searches of ``_default_alpha`` spend together
# before the construction answers
_ALPHA_NODES = 20_000


def _default_alpha(coeffs: Sequence[int]) -> tuple[int, ...]:
    """Reduct solution for the default generators, past the zero-sum gate.
    Two coefficients are c, -c, with no distinct solution: (1, 1).  Three or
    more take pairwise distinct values >= 2 (injective witnesses): the
    lexicographically smallest in [2..20], [2..60] or [2..240], searched
    under one budget of ``_ALPHA_NODES`` nodes, else ``_constructed_alpha``."""
    if len(coeffs) == 2:
        return (1, 1)
    budget = _ALPHA_NODES
    for bound in (20, 60, 240):
        alpha, spent = _lex_reduct_solution(coeffs, bound, budget)
        if alpha is not None:
            return alpha
        budget -= spent
    return _constructed_alpha(coeffs)


def _constructed_alpha(coeffs: Sequence[int]) -> tuple[int, ...]:
    """Pairwise distinct values >= 2 with zero weighted sum, built for k >= 3
    nonzero coefficients of both signs.

    The base point puts N, the sum of the negative coefficients' magnitudes,
    at each positive coefficient and P, the sum of the positive ones, at each
    negative one: P*N - N*P = 0.  The kernel vector d, the sum over m of
    t^m * (c[m+1] e_m - c[m] e_{m+1}), has entries that are pairwise distinct
    polynomials in t when k >= 3, so all but finitely many t make them
    distinct.  Every s * base + d has zero weighted sum; from the least s that
    puts each entry at 2 or more, two entries meet at one s at most when their
    base values differ, and never when they are equal."""
    k = len(coeffs)
    positive = sum(c for c in coeffs if c > 0)
    base = [positive - sum(coeffs) if c > 0 else positive for c in coeffs]

    def kernel(t: int) -> list[int]:
        d = [0] * k
        for m in range(k - 1):
            d[m] += coeffs[m + 1] * t**m
            d[m + 1] -= coeffs[m] * t**m
        return d

    t = 2
    while len(set(d := kernel(t))) < k:
        t += 1
    s = max(-((x - 2) // b) for x, b in zip(d, base))
    while len(set(alpha := [s * b + x for b, x in zip(base, d)])) < k:
        s += 1
    return tuple(alpha)


def _require_zero_sum(p: Polynomial) -> None:
    """The lifts' gate: some nonempty subset of p's coefficients sums to 0,
    read from the J kept with p."""
    if not _zero_sum(p):
        raise HypothesisFailure([f"coefficients {list(p.coefficients)} admit no zero-sum subset"])


def _lift_reduct(form: LevForm) -> Witness:
    """The default generators past the gates: distinct alpha values >= 2
    and the product variables set to distinct primes above them."""
    alpha = _default_alpha(form.coefficients)
    y_values = primes_above(max(alpha), len(form.product_vars))
    return reduct_lift(form, alpha, y_values)


def witness_via_reduct(p: Polynomial) -> Witness:
    """Default reduct-lift pipeline: gate on the l.e.v. form and the
    zero-sum condition, then ``_lift_reduct``, which makes the witness
    injective whenever the polynomial admits injective solutions."""
    try:
        form = to_lev_form(p)
    except (NotLevError, NoExclusiveSetError) as exc:
        raise HypothesisFailure([str(exc)]) from None
    _require_zero_sum(p)
    return _lift_reduct(form)


def witness_via_nlp(p: Polynomial) -> Witness:
    """Default nonlinear-lift pipeline: gate on three monomials, the
    zero-sum condition and the nonlinear shape; solve the all-ones
    substitution by ``_lift_reduct``, then choose distinct primes above
    every solution value for the nonlinear variables.  The substitution
    keeps p's coefficients, and a chosen exclusive degree-1 variable in
    every monomial, so it is an l.e.v. form that passes the reduct gates."""
    if len(p.monomials) < 3:
        raise HypothesisFailure(["fewer than three monomials"])
    _require_zero_sum(p)
    shape, failures = nonlinear_shape(p)
    if shape is None:
        raise HypothesisFailure(failures)
    base = _lift_reduct(to_lev_form(_ones_substitution(p)))
    g = primes_above(max(base.assignment.values(), default=1), len(p.degree_profile().nonlinear))
    return nlp_lift(p, shape, base.assignment, g)


def build_witness(
    p: Polynomial,
    method: str = "auto",
    n_bound: int = 20,
    injective: bool = False,
    limit: int = 1,
) -> list[Witness]:
    """CLI entry: construct witnesses by the requested method.

    ``auto`` prefers the reduct lift for l.e.v. polynomials, then the
    nonlinear lift, then bounded brute force.  ``n_bound`` and ``limit`` are
    checked before any method runs, so each method refuses the same values.
    """
    if n_bound < 1:
        raise ValueError("bound must be >= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if method == "auto":
        for attempt in ("reduct", "nlp"):
            try:
                return build_witness(p, attempt, n_bound, injective, limit)
            except HypothesisFailure:
                continue
        return build_witness(p, "brute", n_bound, injective, limit)
    if method in ("reduct", "nlp"):
        w = witness_via_reduct(p) if method == "reduct" else witness_via_nlp(p)
        if injective and not w.injective:
            raise HypothesisFailure(
                ["default generators produced no injective witness"]
            )
        return [w]
    if method == "brute":
        found = brute_force_solutions(p, n_bound, injective=injective, limit=limit)
        if not found:
            raise HypothesisFailure(
                [f"no solutions with values in [1..{n_bound}]"
                 + (" (injective)" if injective else "")]
            )
        return found
    raise ValueError(f"unknown method {method!r}")
