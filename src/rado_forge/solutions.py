"""Solutions of p = 0 in the positive integers up to a bound: the one home of
enumeration, for ``witness --method brute``, ``enumerate_constraints`` and the
coloring search.

``brute_force_solutions`` is the oracle: every solution in [1..N]^k, in
lexicographic order of the values of the variables in name order, each as a
``Witness``, the verified-assignment record the lifts return too.
``solution_layers`` is what the search reads: the pair (variables, layers),
the variable at each position of the tuples and an iterator of the layers.
A solution is a plain tuple of values, and layer v holds the tuples whose
largest value is v.  The search reads only value sets, so a layer holds one
representative per orbit of interchangeable variables (two are
interchangeable when swapping them maps p to p or -p): the tuples that are
nondecreasing inside each block of them.  A permutation keeps a tuple's
values, so the value sets of every layer are those of the full enumeration,
which the tests check against the oracle.

``DEFAULT_ENUM_BUDGET`` is the one candidate budget.  The oracle reads it at
call time and checks it against the candidates of [1..N].  The layers read
it when their first layer is read: the nondecreasing candidates of [1..v]
rise with v, so the first layer over the budget is found then, by
bisection, and ``SearchSpaceTooLargeError`` is raised, in the words of a
check at that layer, only if the reader reaches it.  A one-signed form has
no solution, and answers empty within its budget, unwalked.

Both solve for one variable instead of enumerating it, through ``_solve``, the
one solve step: divide, then take an exact root (``_integer_root``): a small
root from the target's leading bits, screened modulo a prime before its
power is raised, a larger one by integer Newton steps, and none at all when
the target's bit length alone puts the root above the caller's bound.  A
lone linear variable c*v is the exception: the layers solve it with one
``divmod`` per leaf.
The oracle solves for the last variable when it occurs with one exponent.
The layers pick it by the form's shape, not its name, in ``_layout``, the
one pass over p that also blocks and orders the other variables; and one
walk serves every choice (``_walker``): every monomial rises in each
variable, so the completions of a prefix bound p from below and from above,
and a position stops rising once 0 falls outside a bound that its value
moves away from 0.  The walk does not recurse, so no number of variables
meets the recursion limit.

A small search reads a few dozen tuples, so what a layer read costs is
machinery paid per layer, per walk step and per leaf, not per solution:
the setup, paid once per search, derives the layout, indexes the terms once
by the slots they read and splits off each distinct walk step's moving
terms, which every group shares; a walk step steps each sum by its slope
and re-evaluates only the other terms that read what it moves; a leaf of a
lone linear variable costs one ``divmod``.  On the threshold forms the walk
reads no term but at the roots of its groups.

Every tuple either enumerator hands out is re-verified exactly by
``check._verify_solutions``, not by the walk's terms or the grid's
``evaluate``: the oracle's on the solutions it returns, the layers' by the
search that reads them, once per search, in the variable order that
``solution_layers`` returns with them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import namedtuple
from typing import Any, Callable, Iterator, Optional, Sequence

from .check import _verify_solutions
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


class Witness(namedtuple("Witness", ["assignment", "value", "provenance", "trace"])):
    """A verified assignment: evaluate(polynomial, assignment) == 0 exactly.

    Built without a trace, a witness gets an empty dict of its own.  The
    dicts make it unhashable."""

    # assignment: dict[str, int], value: int, provenance: str, trace: dict[str, Any]
    __slots__ = ()

    def __new__(cls, assignment: dict[str, int], value: int, provenance: str,
                trace: Optional[dict[str, Any]] = None) -> "Witness":
        return tuple.__new__(cls, (assignment, value, provenance, {} if trace is None else trace))

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


# A prime: r^e mod it screens a candidate root before r^e is raised in full
_ROOT_SCREEN = (1 << 61) - 1


def _integer_root(value: int, e: int) -> Optional[int]:
    """Exact e-th root of a positive integer, or None.  A value of at most e
    bits is below 2^e, so its only possible root is 1, and no step is taken.
    A root below 2^21 (bits // e <= 20) is the nearest integer to
    2^(log2(value) / e), read from the leading 64 bits of ``value``: the
    error of that float is below 10^-8, so no other integer can be the root.
    It is screened by ``pow(root, e, _ROOT_SCREEN)`` against
    ``value % _ROOT_SCREEN``, and only a root that passes is raised to the
    e-th power, once, to confirm it.  A larger root is found by integer
    Newton steps from 2^ceil(bits/e), which is above it, falling to
    floor(value^(1/e)) in O(log bits) steps; each step divides ``value`` by
    a power as large as it, which for a small root and a large e would cost
    a huge power per step.  No float range limits the size of ``value``."""
    if value < 1:
        return None
    if e == 1:
        return value
    bits = value.bit_length()
    if bits <= e:
        return 1 if value == 1 else None
    if bits // e <= 20:
        shift = max(bits - 64, 0)
        root = round(2 ** ((math.log2(value >> shift) + shift) / e))
        if pow(root, e, _ROOT_SCREEN) == value % _ROOT_SCREEN and root**e == value:
            return root
        return None
    root = 1 << -(-bits // e)
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
    powers = [m.degree_of(var) for m in p.monomials]
    exponents = set(powers) - {0}
    if len(exponents) != 1:
        return None
    index = {v: i for i, v in enumerate(variables)}
    with_terms = []
    without_terms = []
    for (c, exps), power in zip(p.monomials, powers):
        rest = [(index[v], d) for v, d in exps if v != var]
        (with_terms if power else without_terms).append((c, rest))
    return exponents.pop(), with_terms, without_terms


def _term_value(terms, prefix: Sequence[int], floor: Optional[int] = None, total: int = 0) -> int:
    """``total`` plus the sum over the terms of coeff * prod(prefix[i] ** e).
    With a ``floor`` and the positive terms first, a negative term's power
    x^e that alone takes the sum below the floor is not computed, since
    x^e >= 2^((x.bit_length() - 1) * e): the sum is then below the floor, and
    ``floor - 1`` stands for it."""
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


def _candidates(n_bound: int, sizes: Sequence[int]) -> int:
    """The candidate tuples of [1..n_bound], where ``sizes`` are those of
    the blocks of enumerated positions, inside each of which a candidate is
    nondecreasing: prod C(n_bound + s - 1, s) over blocks of size s.  With m
    singleton blocks that is n_bound^m: the n_bound^(k-1) prefixes when the
    last variable is solved for, else the n_bound^k grid."""
    return math.prod(math.comb(n_bound + s - 1, s) for s in sizes)


def _check_candidates(n_bound: int, sizes: Sequence[int]) -> None:
    """Reject [1..n_bound] when it has more ``_candidates`` than
    ``DEFAULT_ENUM_BUDGET``, read at call time."""
    if n_bound < 1:
        raise ValueError("bound must be >= 1")
    candidates = _candidates(n_bound, sizes)
    if candidates > DEFAULT_ENUM_BUDGET:
        raise SearchSpaceTooLargeError(
            f"{candidates} candidate tuples exceed the budget of {DEFAULT_ENUM_BUDGET}"
        )


def _first_over_budget(max_n: int, sizes: Sequence[int]) -> int:
    """The least n <= max_n that ``_check_candidates(n, sizes)`` rejects, or
    max_n + 1.  The count rises with n, so one comparison with the budget,
    read at call time, settles a bound that meets it, and a bisection finds
    the first n over it."""
    if _candidates(max_n, sizes) <= DEFAULT_ENUM_BUDGET:
        return max_n + 1
    count = functools.partial(_candidates, sizes=sizes)
    return 1 + bisect.bisect_right(range(1, max_n), DEFAULT_ENUM_BUDGET, key=count)


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
    prefix.  Every tuple returned is re-verified by
    ``check._verify_solutions``, which does not use ``evaluate``.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    split = _isolation_split(p)
    _check_candidates(n_bound, [1] * (len(p.variables) - bool(split)))
    if p.is_one_signed:
        return []
    variables = p.variables
    n = len(variables)

    def solutions() -> Iterator[tuple[int, ...]]:
        if not split:
            for tup in itertools.product(range(1, n_bound + 1), repeat=n):
                if p.evaluate(dict(zip(variables, tup))) == 0:
                    yield tup
            return
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
                yield prefix + (z,)

    found = solutions()
    if injective:
        found = (values for values in found if len(set(values)) == n)
    rows = list(itertools.islice(found, limit))
    _verify_solutions(p, variables, rows)
    return [Witness(dict(zip(variables, values)), 0, "BruteForce") for values in rows]


def _layout(p: Polynomial) -> tuple[Optional[int], list[tuple[int, ...]]]:
    """The position of the variable the layers solve for, or None, and the
    others in blocks of interchangeable variables, in walk order, from one
    pass that files each monomial under the positions it holds.  In a form
    of two or more variables, v is lone when it occurs in one monomial c*v^e
    only, and bounds the walk when that monomial is the only one of its
    sign.  The layers solve for a bounding variable, which leaves the fewest
    candidates; else a lone one; else the last variable when it has one
    exponent (``_isolation_split``'s case); else none.  A tie goes to the
    least exponent, so that the bounds cut the higher powers short, then to
    the later name.  Two variables are interchangeable when swapping them
    maps p to p or -p, an equivalence: each position is tested against each
    block's first member, on the monomials that hold either, each looked up
    among p's (renaming p costs more than a whole small search); one that
    holds neither fixes the sign at +1.  The blocks go largest first, then
    by position, and lone ones last when nothing bounds the walk."""
    variables, monomials = p.variables, p.monomials
    at = dict(zip(variables, range(len(variables))))
    held: list[dict[int, int]] = [{} for _ in variables]  # per position: monomial -> exponent
    coefficient = {}
    positive = 0  # the monomials of each sign
    for m, (c, exponents) in enumerate(monomials):
        coefficient[exponents] = c
        positive += c > 0
        for v, e in exponents:
            held[at[v]][m] = e
    lone = {}  # position -> e, of its one monomial c*v^e
    bounding = []
    if len(variables) > 1:
        for i, exps in enumerate(held):
            if len(exps) == 1:
                c, exponents = monomials[next(iter(exps))]
                if len(exponents) == 1:
                    lone[i] = exponents[0][1]
                    if (positive if c > 0 else len(monomials) - positive) == 1:
                        bounding.append(i)
    solved = None
    if lone:
        solved = min(bounding or lone, key=lambda i: (lone[i], -i))
    elif len(variables) > 1 and len(set(held[-1].values())) == 1:
        solved = len(variables) - 1

    def interchangeable(i: int, j: int) -> bool:
        swap = {variables[i]: variables[j], variables[j]: variables[i]}
        touched = held[i].keys() | held[j].keys()
        sign = 0 if len(touched) == len(monomials) else 1  # p's image is sign * p
        for m in touched:
            c, exponents = monomials[m]
            swapped = [(swap.get(x, x), e) for x, e in exponents]
            if len(swapped) > 1:
                swapped.sort()
            image = coefficient.get(tuple(swapped), 0)
            if image != sign * c if sign else image not in (c, -c):
                return False
            sign = image // c
        return True

    blocks: list[list[int]] = []
    for i in range(len(variables)):
        if i == solved:
            continue
        for block in blocks:
            if interchangeable(block[0], i):
                block.append(i)
                break
        else:
            blocks.append([i])
    return solved, sorted(map(tuple, blocks), key=lambda block: (
        not bounding and block[0] in lone, -len(block), block))


def _term_index(terms: list, width: int) -> Callable:
    """One sum's terms over the ``width`` slots of a walk's t, indexed once by
    the slots they read.  ``split`` gives a step that moves the slots
    ``fill`` and ``top`` (not in ``fill``) the slope and ``at_top`` of its
    linear terms, from running totals, and its other moving terms, in order,
    from ``read`` (the same terms at the same ordinals), by bisection."""
    per_slot = [0] * width
    filed: dict[int, list[int]] = {}  # slot -> ordinals of the other terms that read it
    for m, (c, exps) in enumerate(terms):
        if len(exps) == 1 and exps[0][1] == 1:
            per_slot[exps[0][0]] += c
        else:
            for i, _ in exps:
                filed.setdefault(i, []).append(m)
    running = [0, *itertools.accumulate(per_slot)]  # running[i]: the linear c below slot i
    slots = sorted(filed)

    def split(fill: range, top: int, read: list) -> tuple[int, int, list]:
        at_top = running[top + 1] - running[top]
        slope = running[fill.stop] - running[fill.start] + at_top
        moving = filed.get(top, [])
        cut = slots and slots[bisect.bisect_left(slots, fill.start) : bisect.bisect_left(slots, fill.stop)]
        if cut:  # each term once, in the terms' order
            moving = sorted({*moving, *itertools.chain.from_iterable(map(filed.__getitem__, cut))})
        return slope, at_top, [read[m] for m in moving]

    return split


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
    variable solved for.

    Each free position of a group is one generator, ``walk``: above the
    last it yields the first sum at each value its checks admit, and
    ``layer`` starts the next position's walk there; the last appends its
    leaves to the layer's list.  The walks of a group are a list, the
    deepest last, so nothing recurses and the layer's state is its own.

    A step re-evaluates only what it moves: the terms that read its fill or
    its greatest-completion slot, split off by ``_term_index`` (the second
    sum reads each term in the other half of t, at the mirrored slots).
    Each sum is a fixed part, a slope times the value and the other moving
    terms, added to the rest by ``_term_value``, which skips powers that
    decide the sum against its bound.  The first sum's fixed part is the
    total passed in less the moving part at entry; the second's is the whole
    second sum less its moving part, once a check needs it and no power was
    skipped in it.

    A layer costs what it walks, and the setup what the form holds: a step
    depends only on its position and where its fill stops (its block's top
    in that block's group, the block's end in the others), so the groups
    share it.  One completion list serves every group of every layer, the
    loop over a group's last free position appends its leaves itself, a
    fill of one position writes one slot, and a position's greatest
    completion is written only when some sum reads it.  With no positive
    term the first sum at a group's root only falls as n grows, so a group
    whose root fails it is retired for every later layer."""
    k = sum(sizes)
    up: set[int] = set()  # positions in a positive term
    down: set[int] = set()  # positions in a negative term
    # t holds the least completion, then the greatest, which positive terms read in the first sum
    first_sum, second_sum = [], []
    for c, exps in sorted(terms, key=lambda term: term[0] < 0):  # positive terms first
        positive = c > 0
        first, second = [], []
        for i, e in exps:
            (up if positive else down).add(i)
            first.append((i + (k + 1) * positive, e))
            second.append((i + (k + 1) * (not positive), e))
        first_sum.append((c, first))
        second_sum.append((c, second))
    always = not up and -sum(c for c, _ in terms) >= lo  # each term is at most its coefficient
    read = up if always else up | down  # positions whose greatest completion a sum reads
    ups = sorted(up)  # cut by bisection to a fill
    split = _term_index(first_sum, 2 * k + 2)  # and the second sum's, at the mirrored slots

    def make_step(j: int, stop: int) -> tuple:  # j's value fills t[j:stop]
        fill, h = range(j, stop), k + 1 + j  # h: j's place in the greatest completion
        slope, at_top, moving = split(fill, h, first_sum)
        slope2, _, moving2 = (0, 0, []) if always else split(range(h, stop + k + 1), j, second_sum)
        settles = bisect.bisect_left(ups, j) == bisect.bisect_left(ups, stop)  # no fill in up
        return (j, stop, stop - j == 1, j in up, j in down, j in read,
                settles, slope, at_top, slope2, moving, moving2)

    block_ends: list[int] = []  # one past the block of each position
    for size in sizes:
        block_ends += [len(block_ends) + size] * size
    # in the groups of the other blocks, j fills to its block's end
    outer = [make_step(j, end) for j, end in enumerate(block_ends)] if len(sizes) > 1 else []
    groups = []
    start = 0
    for size in sizes:
        top = start + size - 1  # t[top] = n; the blocks before stay below n
        steps = outer[:start]  # per free position
        for j in range(start, top):  # in its own block's group, j fills to below t[top]
            steps.append(make_step(j, top))
        steps += outer[top + 1 :]
        groups.append((top, start, steps, len(steps) - 1))
        start += size
    floor, ceiling = -hi, -lo  # the first sum's least value, the second's greatest
    t = [1] * (k + 1) + [0] * k + [max_n]  # the greatest completion is set by each layer

    def walk(step: tuple, leaf: bool, total: int, found: list) -> Iterator[int]:
        (j, stop, one, rises, falls, reads, settles, slope, at_top, slope2,
         moving, moving2) = step
        h = k + 1 + j  # j's place in the greatest completion
        x0, last = t[j], t[h]
        total += at_top * (x0 - last) - slope  # the first sum one value before x0
        if moving:  # less the other moving terms, which are read at each value
            fixed = total - _term_value(moving, t)
        fixed2 = None  # the second sum's fixed part, once a check needs it
        sure = always
        for x in range(x0, last + 1):
            if one:
                t[j] = x
            else:
                t[j:stop] = [x] * (stop - j)
            if reads:
                t[h] = x
            total += slope
            if moving:
                fixed += slope
                if x > x0 or rises:  # else the first sum is the one passed in
                    total = _term_value(moving, t, floor, fixed)
            if total < floor:
                if rises:
                    continue
                break
            if not sure:
                if fixed2 is None:
                    second = _term_value(second_sum, t, ceiling + 1)
                    if second != ceiling:  # no power skipped: exact, and the rest is fixed
                        fixed2 = second - slope2 * x - (_term_value(moving2, t) if moving2 else 0)
                else:
                    second = fixed2 + slope2 * x
                    if moving2:
                        second = _term_value(moving2, t, ceiling + 1, second)
                if second > ceiling:
                    if falls:
                        continue
                    break
                sure = settles  # else it may rise again
            if leaf:
                found.append((tuple(t[:k]), total))
            else:
                yield total
        if one:
            t[j] = x0
        else:
            t[j:stop] = [x0] * (stop - j)
        if reads:
            t[h] = last

    def layer(n: int) -> list[tuple[tuple[int, ...], int]]:
        found: list[tuple[tuple[int, ...], int]] = []
        t[k + 1 : 2 * k + 1] = [n] * k
        below = 0  # the greatest completion is n - 1 before this position
        for group in groups[:]:
            top, start, steps, final = group
            if start > below:
                t[k + 1 + below : k + 1 + start] = [n - 1] * (start - below)
                below = start
            t[top] = n
            total = _term_value(first_sum, t, floor)
            if total < floor:
                if not up:
                    groups.remove(group)
            elif always or _term_value(second_sum, t, ceiling + 1) <= ceiling:
                if steps:  # one walk per free position, the deepest last: no recursion
                    walks = [walk(steps[0], final == 0, total, found)]
                    while walks:
                        for total in walks[-1]:
                            i = len(walks)
                            walks.append(walk(steps[i], i == final, total, found))
                            break
                        else:
                            walks.pop()
                else:
                    found.append((tuple(t[:k]), total))
            t[top] = 1
        return found

    return layer


def solution_layers(
    p: Polynomial, max_n: int, injective: bool
) -> tuple[list[str], Iterator[list[tuple[int, ...]]]]:
    """The pair (variables, layers).  For N = 1..max_n, ``layers`` yields
    the solutions of p whose largest value is N, in lexicographic order, one
    per orbit of permutations inside the blocks of ``_layout``: the tuples
    nondecreasing inside each block.  A tuple lists the variables block by
    block, in ``_layout``'s order, then the variable solved for;
    ``variables`` names them.  The candidate budget, ``DEFAULT_ENUM_BUDGET``,
    is read when layer 1 is read; reading the first layer N whose candidates
    exceed it raises, as ``_check_candidates(N, sizes)`` would, before that
    layer is built.  A one-signed form's layers are empty.

    Layer N walks only the prefixes whose largest entry is N and whose
    completions can reach 0 (``_walker``).  The variable that ``_layout``
    picks is solved for by ``_solve``, and a root above N waits for its own
    layer; a prefix that every value solves joins each later layer.  With no variable solved for, the walk's leaves are the
    solutions.  The layers are not re-verified here: the reader re-verifies
    every tuple it read, once per search (``search.find_bad_coloring``).
    """
    k = len(p.variables)
    position, blocks = _layout(p)
    order = list(itertools.chain.from_iterable(blocks))
    sizes = list(map(len, blocks))
    if position is not None:
        order.append(position)
    variables = list(map(p.variables.__getitem__, order))
    at = dict(zip(variables, range(k)))  # name -> tuple position
    terms = []  # p's, keyed by tuple position
    lead_terms = []  # those holding the variable solved for, without it
    rest_terms = []  # the others
    solved = p.variables[position] if position is not None else None
    for m in p.monomials:
        exps, others = [], []
        for v, d in m.exponents:
            exps.append((at[v], d))
            if v != solved:
                others.append((at[v], d))
        terms.append((m.coefficient, exps))
        if len(others) < len(exps):  # it holds the variable solved for, with its one exponent
            lead_terms.append((m.coefficient, others))
        elif solved is not None:
            rest_terms.append((m.coefficient, exps))
    lo = hi = 0  # c*v^e over v in [1..max_n], for a constant lead c > 0
    if position is not None:
        e = p.degree_of(solved)  # its one exponent
        if len(lead_terms) == 1 and not lead_terms[0][1]:  # a lone c*v^e, negated if need be
            c = lead_terms[0][0]
            terms = [(d if c > 0 else -d, exps) for d, exps in rest_terms]
            lo, hi = abs(c), abs(c) * max_n
            if e > 1:  # the rest stays above -2^bits on [1..max_n], so any hi from
                # 2^bits up decides the same: a power of more bits is not raised
                bits = len(terms).bit_length() + max(
                    ((-d).bit_length() + sum(f for _, f in exps) * max_n.bit_length()
                     for d, exps in terms if d < 0), default=0)
                hi = 1 << bits if e * (max_n.bit_length() - 1) >= bits else lo * max_n**e
    linear = lo and e == 1  # a lone linear variable: one divmod per leaf solves it
    walk = None if p.is_one_signed else _walker(sizes, terms, lo, hi, max_n)

    def layers() -> Iterator[list[tuple[int, ...]]]:
        wall = _first_over_budget(max_n, sizes)
        pending: dict[int, list[tuple[int, ...]]] = {}  # root -> solutions
        free: list[tuple[int, ...]] = []  # prefixes that every value solves
        for n in range(1, max_n + 1):
            if n == wall:
                _check_candidates(n, sizes)
            if walk is None:
                yield []
                continue
            found = pending.pop(n, []) if pending else []
            if free:
                found += [prefix + (n,) for prefix in free]
            if position is None:  # the terms are p, and every leaf's total is 0
                found += [prefix for prefix, _ in walk(n)]
            elif linear:  # lo * v + total == 0, total the rest's value
                for prefix, total in walk(n):
                    root, remainder = divmod(-total, lo)
                    if not remainder and 0 < root <= max_n:
                        (found if root <= n else pending.setdefault(root, [])).append(prefix + (root,))
            else:
                for prefix, total in walk(n):
                    if lo:  # the terms are the rest, and total their value
                        root = _solve(lo, total, e, max_n)
                    else:
                        root = _solve(_term_value(lead_terms, prefix), _term_value(rest_terms, prefix), e, max_n)
                    if root == 0:
                        free.append(prefix)
                        found.extend(prefix + (z,) for z in range(1, n + 1))
                    elif root is not None and root <= max_n:
                        (found if root <= n else pending.setdefault(root, [])).append(prefix + (root,))
            if injective and found:
                found = [t for t in found if len(set(t)) == k]
            found.sort()
            yield found

    return variables, layers()
