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
The layers pick it by the form's shape, not its name (``_solved_position``),
and one walk serves every choice (``_walker``): every monomial rises in each
variable, so the completions of a prefix bound p from below and from above,
and a position stops rising once 0 falls outside a bound that its value
moves away from 0.  Every tuple either enumerator emits is re-verified
exactly by the polynomial, not by the walk's terms: the oracle calls
``evaluate`` on each tuple; the layers name their variable order
(``Layers.variables``), and the search that reads them re-verifies every
tuple it read in one ``evaluate_many`` call, which reads the tuples a
column at a time, once per search and before it builds any outcome.  A
non-zero value raises ``AssertionError`` naming that tuple.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import Any, Callable, Iterator, Optional, Sequence

from .poly import Polynomial

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "Layers",
    "SearchSpaceTooLargeError",
    "Witness",
    "brute_force_solutions",
    "solution_layers",
]

DEFAULT_ENUM_BUDGET = 5_000_000


class SearchSpaceTooLargeError(RuntimeError):
    pass


class Witness:
    """A verified assignment: evaluate(polynomial, assignment) == 0 exactly.

    A witness is immutable: its fields cannot be assigned.  Built without a
    trace, it gets an empty dict of its own.  Equality and ``repr`` read
    every field; the dicts make it unhashable."""

    assignment: dict[str, int]
    value: int
    provenance: str
    trace: dict[str, Any]

    def __init__(self, assignment: dict[str, int], value: int, provenance: str,
                 trace: Optional[dict[str, Any]] = None) -> None:
        fields = self.__dict__  # past the immutability guard
        fields["assignment"] = assignment
        fields["value"] = value
        fields["provenance"] = provenance
        fields["trace"] = {} if trace is None else trace

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Witness:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"Witness({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

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


def _isolation_split(p: Polynomial):
    """If p has two or more variables and every monomial containing the
    last variable uses the same exponent e, return (e, with_terms,
    without_terms): the terms drop that variable and key each remaining
    exponent by its position in ``p.variables``.  Else None."""
    variables = p.variables
    if len(variables) < 2:
        return None
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


def _term_value(terms, prefix: Sequence[int], floor: Optional[int] = None) -> int:
    """Sum over the terms of coeff * prod(prefix[i] ** e).  With a ``floor``
    and the positive terms first, a negative term's power x^e that alone
    takes the sum below the floor is not computed, since
    x^e >= 2^((x.bit_length() - 1) * e): the sum is then below the floor, and
    ``floor - 1`` stands for it."""
    total = 0
    for coeff, exps in terms:
        for i, e in exps:
            if e == 1:
                coeff *= prefix[i]
            elif floor is not None and coeff < 0 and (
                (prefix[i].bit_length() - 1) * e >= (total - floor).bit_length()
            ):
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
    root) instead of enumerated; otherwise the full grid is walked.  Each
    power x^d of a prefix value is raised once per value, not once per
    prefix.  Every emitted tuple is re-verified through ``evaluate``.
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
        # (x, d) -> x^d; one prefix position meets each value once, uncached
        power = functools.cache(pow) if n > 2 else pow

        def value(terms, prefix: tuple[int, ...]) -> int:
            total = 0
            for coeff, exps in terms:
                for i, d in exps:
                    coeff *= prefix[i] if d == 1 else power(prefix[i], d)
                total += coeff
            return total

        for prefix in itertools.product(range(1, n_bound + 1), repeat=n - 1):
            root = _solve(value(with_terms, prefix), value(without_terms, prefix), e, n_bound)
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


def _lone(p: Polynomial) -> dict[int, tuple[int, int]]:
    """The positions of the variables that occur in one monomial c*v^e
    only, each with its (c, e); none when p has fewer than two variables."""
    counts = collections.Counter(v for m in p.monomials for v, _ in m.exponents)
    alone = (m.exponents[0] + (m.coefficient,) for m in p.monomials if len(m.exponents) == 1)
    return {
        p.variables.index(v): (c, e) for v, e, c in alone if counts[v] == 1 and len(counts) > 1
    }


def _bounding(p: Polynomial, lone: dict[int, tuple[int, int]]) -> list[int]:
    """The lone positions whose monomial is the only one of its sign."""
    return [
        i for i, (c, _) in lone.items() if sum(m.coefficient * c > 0 for m in p.monomials) == 1
    ]


def _solved_position(
    p: Polynomial,
    lone: Optional[dict[int, tuple[int, int]]] = None,
    bounding: Optional[list[int]] = None,
) -> Optional[int]:
    """The position of the variable the layers solve for: one that bounds
    the walk (``_bounding``), which leaves the fewest candidates; else a lone
    one (``_lone``); else the last variable when ``_isolation_split`` applies
    to it; else None (the grid is walked).  A tie goes to the least exponent,
    so that higher powers are walked, where the bounds cut them short, then
    to the later name.  ``solution_layers`` passes the ``lone`` and
    ``bounding`` it has computed; without them they are computed here."""
    if lone is None:
        lone = _lone(p)
    if bounding is None:
        bounding = _bounding(p, lone)
    chosen = bounding or lone
    if chosen:
        return min(chosen, key=lambda i: (lone[i][1], -i))
    return len(p.variables) - 1 if _isolation_split(p) else None


def _walker(sizes: list[int], terms: list, lo: int, hi: int, max_n: int) -> Callable:
    """The walk of layer n: the prefixes of [1..n] with largest entry n,
    nondecreasing inside blocks of the given sizes, at which lo..hi plus the
    terms (keyed by prefix position; one past it is the variable solved for,
    in [1..max_n]) can reach 0, each with the first sum below.  Grouped by
    the block holding the first n, at its top, it sets one position at a
    time.  The terms lie between the first sum, positive terms at the
    greatest completion (n - 1 in the blocks before that one, n after) and
    negative ones at the least (the value just set for the rest of its
    block, 1 elsewhere), and the second sum, the other way round.  A prefix
    is kept while the first reaches -hi and the second stays at most -lo; a
    position stops rising once a sum that its value only moves away fails.
    A leaf's first sum is the terms' value there, unless they hold the
    variable solved for.  ``_term_value`` skips powers that decide a sum.
    One ``walk`` closure serves every group of every layer: ``layer(n)``
    points it at the group's completions and the layer's list of leaves."""
    terms = sorted(terms, key=lambda term: term[0] < 0)  # positive terms first
    up = {i for c, exps in terms if c > 0 for i, _ in exps}
    down = {i for c, exps in terms if c < 0 for i, _ in exps}
    always = not up and -sum(c for c, _ in terms) >= lo  # each term is at most its coefficient
    k = sum(sizes)
    # t holds the least completion, then the greatest, which positive terms read in the first sum
    first_sum = [(c, [(i + (k + 1) * (c > 0), e) for i, e in exps]) for c, exps in terms]
    second_sum = [(c, [(i + (k + 1) * (c < 0), e) for i, e in exps]) for c, exps in terms]
    ends = list(itertools.accumulate(sizes))  # one past each block
    block_ends = [stop for stop, size in zip(ends, sizes) for _ in range(size)]
    groups = []
    for first, end in enumerate(ends):
        top, start = end - 1, end - sizes[first]  # t[top] = n; the blocks before stay below n
        stops = block_ends[:start] + [top] * (top - start) + block_ends[top:]  # j's value fills t[j:stops[j]]
        groups.append((top, start, stops))
    floor, ceiling = -hi, -lo  # the first sum's least value, the second's greatest
    found: list[tuple[tuple[int, ...], int]] = []
    t: list[int] = []
    top = 0
    stops: list[int] = []

    def walk(j: int, total: int) -> None:
        if j == top:
            j += 1
        if j == k:
            found.append((tuple(t[:k]), total))
            return
        h = k + 1 + j  # j's place in the greatest completion
        x0, stop, last, rises = t[j], stops[j], t[h], j in up
        sure = always
        for x in range(x0, last + 1):
            t[j:stop] = [x] * (stop - j)
            t[h] = x
            if x > x0 or rises:  # else the first sum is the one passed in
                total = _term_value(first_sum, t, floor)
            if total < floor:
                if rises:
                    continue
                break
            if not sure:
                if _term_value(second_sum, t, ceiling + 1) > ceiling:
                    if j in down:
                        continue
                    break
                sure = up.isdisjoint(range(j, stop))  # else it may rise again
            walk(j + 1, total)
        t[j:stop] = [x0] * (stop - j)
        t[h] = last

    def layer(n: int) -> list[tuple[tuple[int, ...], int]]:
        nonlocal found, t, top, stops
        found = []
        for top, start, stops in groups:
            t = [1] * (k + 1) + [n - 1] * start + [n] * (k - start) + [max_n]
            t[top] = n
            total = _term_value(first_sum, t, floor)
            if total >= floor and (always or _term_value(second_sum, t, ceiling + 1) <= ceiling):
                walk(0, total)
        return found

    return layer


def _interchangeable_blocks(p: Polynomial, solved: Optional[int]) -> list[tuple[int, ...]]:
    """The enumerated positions of p (every variable but the one at
    ``solved``, from ``_solved_position``) in blocks of interchangeable
    variables, largest block first, then by position.  Two variables are
    interchangeable when swapping them maps p to p or -p; that is an
    equivalence, so each position is tested against the first member of
    each block.  The test compares the canonical
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


class Layers:
    """What ``solution_layers`` returns: an iterator over the layers, with
    ``variables``, the variable at each position of their tuples."""

    def __init__(self, variables: list[str], layers: Iterator[list[tuple[int, ...]]]) -> None:
        self.variables = variables
        self._layers = layers

    def __iter__(self) -> Layers:
        return self

    def __next__(self) -> list[tuple[int, ...]]:
        return next(self._layers)


def solution_layers(p: Polynomial, max_n: int, injective: bool) -> Layers:
    """For N = 1..max_n, the solutions of p whose largest value is N, in
    lexicographic order, one per orbit of permutations inside the blocks of
    ``_interchangeable_blocks``: the tuples nondecreasing inside each block.
    A tuple lists the variables block by block, lone ones last when none
    bounds the walk, then the variable solved for; ``variables`` of the
    result names them.  The candidate budget, ``DEFAULT_ENUM_BUDGET``, is
    checked for N before layer N is built; a one-signed form's layer is then
    empty.

    Layer N walks only the prefixes whose largest entry is N and whose
    completions can reach 0 (``_walker``).  The variable at
    ``_solved_position`` is solved for by ``_solve``, and a root above N
    waits for its own layer; a prefix that every value solves joins each
    later layer.  With no variable solved for, the walk's leaves are the
    solutions.  The layers are not re-verified here: the reader re-verifies
    every tuple it read, once per search (``search.find_bad_coloring``).
    """
    k = len(p.variables)
    lone = _lone(p)
    bounding = _bounding(p, lone)
    position = _solved_position(p, lone, bounding)
    blocks = _interchangeable_blocks(p, position)
    if not bounding:  # lone variables last
        blocks.sort(key=lambda block: block[0] in lone)
    order = [i for block in blocks for i in block]
    sizes = [len(block) for block in blocks]
    if position is not None:
        order.append(position)
    variables = [p.variables[i] for i in order]
    at = {v: j for j, v in enumerate(variables)}  # name -> tuple position
    terms = [(m.coefficient, [(at[v], d) for v, d in m.exponents]) for m in p.monomials]
    lo = hi = 0  # c*v^e over v in [1..max_n], for a constant lead c > 0
    if position is not None:
        e = p.degree_of(variables[-1])  # its one exponent
        lead_terms = [(c, [x for x in exps if x[0] != k - 1]) for c, exps in terms if (k - 1, e) in exps]
        rest_terms = [(c, exps) for c, exps in terms if (k - 1, e) not in exps]
        if len(lead_terms) == 1 and not lead_terms[0][1]:  # a lone c*v^e, negated if need be
            c = lead_terms[0][0]
            terms = [(d if c > 0 else -d, exps) for d, exps in rest_terms]
            lo, hi = abs(c), abs(c) * max_n**e
    walk = None if p.is_one_signed else _walker(sizes, terms, lo, hi, max_n)

    def layers() -> Iterator[list[tuple[int, ...]]]:
        pending: dict[int, list[tuple[int, ...]]] = {}  # root -> solutions
        free: list[tuple[int, ...]] = []  # prefixes that every value solves
        for n in range(1, max_n + 1):
            _check_candidates(n, sizes)
            if walk is None:
                yield []
                continue
            found = pending.pop(n, []) + [prefix + (n,) for prefix in free]
            for prefix, total in walk(n):
                if position is None:  # the terms are p, and total == 0
                    found.append(prefix)
                    continue
                if lo:  # the terms are the rest, and total their value
                    root = _solve(lo, total, e, max_n)
                else:
                    root = _solve(_term_value(lead_terms, prefix), _term_value(rest_terms, prefix), e, max_n)
                if root == 0:
                    free.append(prefix)
                    found.extend(prefix + (z,) for z in range(1, n + 1))
                elif root is not None and root <= max_n:
                    (found if root <= n else pending.setdefault(root, [])).append(prefix + (root,))
            if injective:
                found = [t for t in found if len(set(t)) == k]
            found.sort()
            yield found

    return Layers(variables, layers())
