"""Solutions of p = 0 in the positive integers up to a bound: the one home of
enumeration, for ``witness --method brute``, ``enumerate_constraints`` and the
coloring search.

``brute_force_solutions`` is the oracle: every solution in [1..N]^k, in
lexicographic order of the values of the variables in name order, each as a
``Witness``, the verified-assignment record the lifts return too.
``solution_layers`` is what the search reads.  A solution is a plain tuple of
values, and the layers hold them by their largest value: layer v holds the
tuples whose largest value is v.  The search reads only value sets, so a
layer holds one representative per orbit of interchangeable variables (two
are interchangeable when swapping them maps p to p or -p): the tuples that
are nondecreasing inside each block of them.  A permutation keeps a tuple's
values, so the value sets of every layer are those of the full enumeration,
which the tests check against the oracle.

``DEFAULT_ENUM_BUDGET`` is the one candidate budget, read at call time: the
oracle checks it against the candidates of [1..N], the layers at each layer
read against the nondecreasing candidates of [1..v].  A one-signed form has
no solution, and answers empty after its budget check, unwalked.

Both solve for one variable instead of enumerating it, through ``_solve``, the
one solve step: divide, then take an exact root by integer Newton steps
(``_integer_root``), none of them taken when the target's bit length alone
puts the root above the caller's bound.
The oracle solves for the last variable when it occurs with one exponent.
The layers pick it by the form's shape, not its name: a variable v that
occurs in one monomial c*v^e only, every other term having the sign opposite
to c, bounds the walk (the later name wins a tie); failing one, the last
variable when it occurs with one exponent; failing that, no variable, and the
grid is walked.  With a bounding v every other term grows with each value,
and a root is at most N exactly when they sum to at most |c|*N^e in absolute
value, so the walk over prefixes stops raising a position once the prefix,
completed with the least values its blocks allow, passes that sum.  Every
tuple either enumerator emits is re-verified through ``evaluate``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from .poly import Polynomial

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "SearchSpaceTooLargeError",
    "Witness",
    "brute_force_solutions",
    "solution_layers",
]

DEFAULT_ENUM_BUDGET = 5_000_000


class SearchSpaceTooLargeError(RuntimeError):
    pass


@dataclass(frozen=True)
class Witness:
    """A verified assignment: evaluate(polynomial, assignment) == 0 exactly."""

    assignment: dict[str, int]
    value: int
    provenance: str
    trace: dict[str, Any] = field(default_factory=dict)

    @property
    def injective(self) -> bool:
        values = list(self.assignment.values())
        return len(set(values)) == len(values)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": 1,
            "assignment": dict(self.assignment),
            "value": self.value,
            "injective": self.injective,
            "provenance": self.provenance,
            "trace": {
                "eta": self.trace.get("eta"),
                "eta_i": self.trace.get("eta_i", []),
                "gamma": self.trace.get("gamma", {}),
                "I": self.trace.get("I", {}),
            },
        }


def _integer_root(value: int, e: int) -> Optional[int]:
    """Exact e-th root of a positive integer, or None.  Integer Newton steps
    from 2^ceil(bits/e), which is above the root, fall to floor(value^(1/e))
    in O(log bits) steps; no float range limits the size of ``value``."""
    if value < 1:
        return None
    if e == 1:
        return value
    root = 1 << -(-value.bit_length() // e)
    while (step := ((e - 1) * root + value // root ** (e - 1)) // e) < root:
        root = step
    return root if root**e == value else None


def _solve(lead: int, rest: int, e: int, bound: int) -> Optional[int]:
    """The solve step of every enumerator: the positive v with
    lead * v^e + rest == 0, or None when there is none; 0 when
    lead == rest == 0, where every v solves (0 is never a positive root).
    None, without a Newton step, when v^e has more bits than bound^e can
    have: v then exceeds the caller's ``bound``.  A root returned may still
    exceed it."""
    if lead == 0:
        return 0 if rest == 0 else None
    target, remainder = divmod(-rest, lead)
    if remainder or target.bit_length() > e * bound.bit_length():
        return None
    return _integer_root(target, e)


def _isolation_split(p: Polynomial, var: Optional[str] = None):
    """If p has two or more variables and every monomial containing ``var``
    (the last variable by default) uses the same exponent e, return
    (e, with_terms, without_terms): the terms drop that variable and key each
    remaining exponent by its position in ``p.variables``.  Else None."""
    variables = p.variables
    if len(variables) < 2:
        return None
    if var is None:
        var = variables[-1]
    exponents = {m.degree_of(var) for m in p.monomials if m.degree_of(var) >= 1}
    if len(exponents) != 1:
        return None
    index = {v: i for i, v in enumerate(variables)}
    with_terms = []
    without_terms = []
    for m in p.monomials:
        rest = [(index[v], d) for v, d in m.exponents if v != var]
        if m.degree_of(var) >= 1:
            with_terms.append((m.coefficient, rest))
        else:
            without_terms.append((m.coefficient, rest))
    return exponents.pop(), with_terms, without_terms


def _term_value(terms, prefix: tuple[int, ...], floor: Optional[int] = None) -> int:
    """Sum over the terms of coeff * prod(prefix[i] ** e).  With a ``floor``
    below 0 and every coefficient negative, a power x^e that alone passes the
    floor is not computed, since x^e >= 2^((x.bit_length() - 1) * e): the sum
    is then below the floor, and ``floor - 1`` stands for it."""
    total = 0
    for coeff, exps in terms:
        for i, e in exps:
            if e == 1:
                coeff *= prefix[i]
            elif floor is not None and (prefix[i].bit_length() - 1) * e >= (-floor).bit_length():
                return floor - 1
            else:
                coeff *= prefix[i] ** e
        total += coeff
    return total


def _check_candidates(n_bound: int, sizes: Sequence[int]) -> None:
    """Reject [1..n_bound] when it has more candidate tuples than
    ``DEFAULT_ENUM_BUDGET``, read here only and at call time.
    ``sizes`` are those of the blocks of enumerated positions, inside each of
    which a candidate is nondecreasing: prod C(n_bound + s - 1, s) over blocks
    of size s.  With m singleton blocks that is n_bound^m: the n_bound^(k-1)
    prefixes when the last variable is solved for, else the n_bound^k grid."""
    if n_bound < 1:
        raise ValueError("bound must be >= 1")
    candidates = math.prod(math.comb(n_bound + s - 1, s) for s in sizes)
    if candidates > DEFAULT_ENUM_BUDGET:
        raise SearchSpaceTooLargeError(
            f"{candidates} candidate tuples exceed the budget of {DEFAULT_ENUM_BUDGET}"
        )


def brute_force_solutions(
    p: Polynomial,
    n_bound: int,
    injective: bool = False,
    limit: Optional[int] = None,
) -> list[Witness]:
    """All solutions of p = 0 with values in [1..n_bound], in lexicographic
    order of the assignment tuple (variables in name order), up to ``limit``.

    A one-signed form has none, and answers after the budget check.  When
    the lexicographically last variable occurs with one common exponent
    wherever it appears, it is solved for exactly (divisibility plus integer
    root) instead of enumerated; otherwise the full grid is walked.  Every
    emitted tuple is re-verified through ``evaluate``.
    """
    split = _isolation_split(p)
    _check_candidates(n_bound, [1] * (len(p.variables) - bool(split)))
    if p.is_one_signed:
        return []
    variables = p.variables
    n = len(variables)
    results: list[Witness] = []

    def emit(values: tuple[int, ...]) -> bool:
        if injective and len(set(values)) != n:
            return False
        assignment = dict(zip(variables, values))
        if p.evaluate(assignment) != 0:  # independent re-verification
            raise AssertionError(f"enumerator produced a non-solution: {assignment}")
        results.append(Witness(assignment, 0, "BruteForce"))
        return limit is not None and len(results) >= limit

    if split:
        e, with_terms, without_terms = split
        for prefix in itertools.product(range(1, n_bound + 1), repeat=n - 1):
            root = _solve(
                _term_value(with_terms, prefix), _term_value(without_terms, prefix), e, n_bound
            )
            if root == 0:
                roots = range(1, n_bound + 1)
            else:
                roots = (root,) if root is not None and root <= n_bound else ()
            for z in roots:
                if emit(prefix + (z,)):
                    return results
        return results

    for tup in itertools.product(range(1, n_bound + 1), repeat=n):
        if p.evaluate(dict(zip(variables, tup))) == 0:
            if emit(tup):
                return results
    return results


def _with_max(n: int, sizes: list[int]) -> Iterator[tuple[int, ...]]:
    """The tuples of [1..n] whose largest entry is n and that are nondecreasing
    inside each block, for consecutive blocks of the given sizes, singletons
    last; grouped by the block of their first n.  The singletons are one
    product, so with all singleton blocks this walks the n^k - (n-1)^k tuples
    of [1..n]^k whose largest entry is n."""
    below, upto = range(1, n), range(1, n + 1)
    for first in range(len(sizes)):
        parts, singles = [], []
        for j, size in enumerate(sizes):
            values = below if j < first else upto
            if size == 1:
                singles.append((n,) if j == first else values)
            elif j == first:  # nondecreasing, so n comes last
                tops = itertools.combinations_with_replacement(upto, size - 1)
                parts.append(map(operator.add, tops, itertools.repeat((n,))))
            else:
                parts.append(itertools.combinations_with_replacement(values, size))
        if singles:
            parts.append(itertools.product(*singles))
        if len(parts) == 1:
            yield from parts[0]
        else:  # concatenate one tuple from each part
            yield from map(sum, itertools.product(*parts), itertools.repeat(()))


def _bounds_walk(split) -> bool:
    """Whether an ``_isolation_split`` solves for a variable v that occurs in
    one monomial c*v^e only, every other term having the sign opposite to c.
    Then each other term grows with each value, and the root is at most N
    exactly when their sum is at most |c|*N^e in absolute value."""
    if not split:
        return False
    _, lead_terms, rest_terms = split
    (c, exps), *more = lead_terms
    return not more and not exps and all(d * c < 0 for d, _ in rest_terms)


def _solved_position(p: Polynomial) -> Optional[int]:
    """The position of the variable the enumerator solves for: the last one
    whose split bounds the walk (``_bounds_walk``), else the last variable
    when ``_isolation_split`` applies to it, else None (the grid is walked).
    A bounding variable leaves no more candidates than any other choice."""
    variables = p.variables
    for i in reversed(range(len(variables))):
        if _bounds_walk(_isolation_split(p, variables[i])):
            return i
    return len(variables) - 1 if _isolation_split(p) else None


def _with_max_bounded(
    n: int, sizes: list[int], terms: list, floor: int
) -> list[tuple[tuple[int, ...], int]]:
    """The tuples of ``_with_max(n, sizes)`` at which the terms sum to at
    least ``floor``, each with that sum.  Every coefficient is negative, so
    the sum falls as any entry rises.  The walk sets one position at a time
    and completes the tuple with the least values its blocks allow: the value
    just set for the rest of its block, n at the last position of the block
    that holds the first n, and 1 elsewhere.  No tuple below a completion
    sums to more than it, so a position stops rising once its completion
    sums below ``floor``.  A power that alone passes the floor is not
    computed (``_term_value``), so a huge exponent costs nothing."""
    k = sum(sizes)
    ends = list(itertools.accumulate(sizes))  # one past each block
    block_ends = [stop for stop, size in zip(ends, sizes) for _ in range(size)]
    found: list[tuple[tuple[int, ...], int]] = []
    for first, end in enumerate(ends):
        top, start = end - 1, end - sizes[first]  # t[top] = n; the blocks before stay below n
        stops = block_ends[:start] + [top] * (top - start) + block_ends[top:]  # j's value fills t[j:stops[j]]
        t = [1] * k
        t[top] = n

        def walk(j: int, total: int) -> None:
            if j == top:
                j += 1
            if j == k:
                found.append((tuple(t), total))
                return
            low, stop = t[j], stops[j]
            for x in range(low, n if j < start else n + 1):
                if x > low:
                    t[j:stop] = [x] * (stop - j)
                    total = _term_value(terms, t, floor)
                    if total < floor:
                        break
                walk(j + 1, total)
            t[j:stop] = [low] * (stop - j)

        total = _term_value(terms, t, floor)
        if total >= floor:
            walk(0, total)
    return found


def _interchangeable_blocks(p: Polynomial, solved: Optional[int]) -> list[tuple[int, ...]]:
    """The enumerated positions of p (every variable but the one at
    ``solved``, from ``_solved_position``) in blocks of interchangeable variables,
    largest block first.  Two variables are interchangeable when swapping them
    maps p to p or -p; that is an equivalence, so each position is tested
    against the first member of each block.  The test compares the canonical
    terms that ``Polynomial`` equality compares, without building each
    renamed polynomial: that costs more than a whole small search."""
    variables = p.variables
    terms = {(m.coefficient, m.exponents) for m in p.monomials}
    negated = {(-c, exps) for c, exps in terms}

    def swapped(u: str, v: str) -> set:
        swap = {u: v, v: u}
        return {(c, tuple(sorted((swap.get(x, x), e) for x, e in exps))) for c, exps in terms}

    blocks: list[list[int]] = []
    for i in range(len(variables)):
        if i == solved:
            continue
        for block in blocks:
            if swapped(variables[block[0]], variables[i]) in (terms, negated):
                block.append(i)
                break
        else:
            blocks.append([i])
    return sorted(map(tuple, blocks), key=lambda block: (-len(block), block))


def solution_layers(p: Polynomial, max_n: int, injective: bool) -> Iterator[list[tuple[int, ...]]]:
    """For N = 1..max_n, the solutions of p whose largest value is N, in
    lexicographic order, one per orbit of permutations inside the blocks of
    ``_interchangeable_blocks``: the tuples nondecreasing inside each block.
    A tuple lists the variables block by block, then the variable solved for.
    The candidate budget, ``DEFAULT_ENUM_BUDGET``, is checked for N
    before layer N is built; a one-signed form's layer is then empty.

    The variable at ``_solved_position`` is solved for by ``_solve``:
    layer N walks only the prefixes whose largest entry is N, and a root
    above N waits for its own layer.  When that variable bounds the walk
    (``_bounds_walk``), the walk skips the prefixes whose root would exceed
    max_n (``_with_max_bounded``); otherwise it walks every prefix, and a
    prefix that every value solves joins each later layer.  With no variable solved
    for, layer N walks the tuples of [1..N]^k whose largest entry is N.
    Every emitted tuple is re-verified through ``evaluate``.
    """
    k = len(p.variables)
    position = _solved_position(p)
    blocks = _interchangeable_blocks(p, position)
    order = [i for block in blocks for i in block]
    split = position is not None and _isolation_split(p, p.variables[position])
    if split:
        order.append(position)
    variables = [p.variables[i] for i in order]
    sizes = [len(block) for block in blocks]
    bounded = _bounds_walk(split)
    if split:
        e, lead_terms, rest_terms = split
        at = {i: j for j, i in enumerate(order)}  # name position -> tuple position
        lead_terms, rest_terms = (
            [(c, [(at[i], d) for i, d in exps]) for c, exps in terms]
            for terms in (lead_terms, rest_terms)
        )
    if bounded:  # c * v^e = -rest, with c > 0 once p is negated if need be
        [(c, _)] = lead_terms
        if c < 0:
            c, rest_terms = -c, [(-d, exps) for d, exps in rest_terms]
        floor = -c * max_n**e  # the least rest of a root <= max_n
    pending: dict[int, list[tuple[int, ...]]] = {}  # root -> solutions
    free: list[tuple[int, ...]] = []  # prefixes that every value solves

    for n in range(1, max_n + 1):
        _check_candidates(n, sizes)
        if p.is_one_signed:
            yield []
            continue
        if split:
            solved = pending.pop(n, []) + [prefix + (n,) for prefix in free]
            if bounded:  # every root is at least 1 and at most max_n
                found = _with_max_bounded(n, sizes, rest_terms, floor)
                walk = ((prefix, c, rest) for prefix, rest in found)
            else:
                walk = (
                    (prefix, _term_value(lead_terms, prefix), _term_value(rest_terms, prefix))
                    for prefix in _with_max(n, sizes)
                )
            for prefix, lead, rest in walk:
                root = _solve(lead, rest, e, max_n)
                if root == 0:
                    free.append(prefix)
                    solved.extend(prefix + (z,) for z in range(1, n + 1))
                elif root is not None and root <= max_n:
                    (solved if root <= n else pending.setdefault(root, [])).append(prefix + (root,))
        solutions = []
        for t in solved if split else _with_max(n, sizes):
            if injective and len(set(t)) < k:
                continue
            assignment = dict(zip(variables, t))
            if p.evaluate(assignment) == 0:
                solutions.append(t)
            elif split:  # independent re-verification of a solved tuple
                raise AssertionError(f"enumerator produced a non-solution: {assignment}")
        solutions.sort()
        yield solutions
