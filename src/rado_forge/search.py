"""Finite coloring search: empirical evidence for partition regularity.

For a polynomial p, r colors and an interval [1..N], the engine backtracks
over colorings of 1, 2, ... looking for one with no monochromatic solution of
p.  Exhausting the tree proves the finite statement "every r-coloring of
[1..N] contains a monochromatic solution" (Forced); finding a leaf yields a
checkable bad coloring.  Neither outcome is ever a partition-regularity
claim; that language stays in the classifier.

The search reads the solutions of p in layers by their largest value, from
``solutions.solution_layers``, as the pair (variables, layers): layer
v + 1 when it first colors v.  It reads only value sets, so a layer holds
one representative per orbit of interchangeable variables, and
``stats.constraints`` counts the representatives read.  A layer read costs what the layer holds: an empty
layer touches no pending root, free prefix, owner table or mask, and the
walk retires a group once no later layer can reach it.  What is paid once
per search is the layers' setup, the search for the first layer over the
candidate budget, the re-verification below, and the table ``value_bit``
that turns the members of a value set into its mask, which grows by one
entry per layer read.  A small scan, such as the threshold of x + 3y = z
with 2 colors (19 layers, 51 tuples, 99 nodes), pays for that machinery
more than for its solutions: per layer, a generator step, the roots of the
walk's groups and the filing; per tuple, a walk leaf, one ``divmod`` for
the lone z, its mask and the two checks; per node, the kernel's step.  So
the walk reads no term on a linear step, and a layer's tuples are masked
and filed in one plain loop, with no ``map`` or set built per layer.
``enumerate_constraints`` and ``monochromatic_solution`` read the oracle
``brute_force_solutions``, not the layers, so a check made through them
does not run the search's enumerator.

A bad coloring of [1..N] restricts to one of [1..N-1], so a threshold is one
search over [1..max_n]: ``rado_number`` is ``depth_max + 1`` of a Forced
``find_bad_coloring``, one more than the length of the deepest bad coloring
the search reaches.  Re-verifying that coloring covers every shorter interval.

Two checks from ``check`` guard each search, each one pass over the tuples
it read, made after the kernel and before any outcome is built, an
Inconclusive one included.  ``_verify_solutions`` re-verifies every tuple of
every layer read, the layer above the deepest coloring too, in the
variables that ``solution_layers`` returns with the layers.
``_first_monochromatic`` does not trust the kernel's masks: it reads the
tuples of the layers up to the coloring's length and refuses the coloring
when some tuple's colors all agree.  ``monochromatic_solution`` makes the
same check over the oracle's tuples.

The backtracking is one iterative depth-first search, so its depth is not
bounded by the recursion limit.  Symmetry breaking: color(1) = 0, and color
c may first appear only after colors 0..c-1 (canonical representatives only,
completeness preserved).  Every color tried at a value is one node, a
refused one included (see below), and the node budget is a strict cap on the
nodes spent, per call.  The search takes the colors a value has left in one
step: a run of refused colors is charged at once, one node per color,
together with the color tried after it, or with the step back when no color
is left.  The budget may cut inside such a run; the search then stops with
exactly ``budget`` nodes, where trying one color at a time would stop.

The search checks forward.  Each color class is an int bitmask (bit i for the
value i + 1), and so is each color's ``blk``: the read values where that
color would close a monochromatic value set.  A node whose color is blocked
at its value is refused at once.  Each value set of a layer read is filed
as its tuple is read (a set that two tuples share is filed twice, to the
same effect) under u, its largest member below the layer's value w, in the
group of u keyed by (its members below t, d = w - t), where t is its
largest member below u, or u itself for a set {u, w}; the group's mask A
holds the t of its sets.  Coloring u with c closes ``(M & A) << d`` for each group of u whose
key members lie in M, the class of c with u: one shift per group, not one
test per set.  For Schur every set filed under u has no member below t and
the offset u, so u has one group and a coloring costs one shift, read
without a loop over groups.  The closed bits not yet in ``blk[c]`` are new;
when one of them is also set in the ``blk`` of every other color, that read
value has no color left, the coloring is dead (a prune) and the next color
is tried.  The undo trail holds an entry per colored value: its color, its
new bits as one int and the color limit it was tried under, in three lists
made once per search and indexed by the value, so no entry is pushed,
popped or built as a tuple.  A step forward writes the entry of its value;
a step back reads it, and undoing its bits is one subtraction, last in,
first out.  A bit set as its layer is read joins the entry of the smallest
u whose set closes it.  Only read layers are checked, and those reach at
most one past the deepest bad coloring so far, so a pruned branch dies
before it could go deeper: the deepest coloring, the first full coloring,
the Forced verdict and the layers read are those of the same search
without the check, in fewer nodes (``stats.prunes`` counts the dead
colorings).
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
from typing import Any, Iterator, Optional

from .check import _first_monochromatic, _verify_solutions
from .poly import Polynomial
from .solutions import brute_force_solutions, solution_layers

__all__ = [
    "Coloring",
    "SearchStats",
    "SearchOutcome",
    "DEFAULT_NODE_BUDGET",
    "enumerate_constraints",
    "find_bad_coloring",
    "rado_number",
    "monochromatic_solution",
]

DEFAULT_NODE_BUDGET = 5_000_000

BAD_COLORING = "bad_coloring"
FORCED = "forced"
INCONCLUSIVE = "inconclusive"


class Coloring(namedtuple("Coloring", ["colors"])):
    """Colors of 1..N: ``colors[i]`` is the color of the integer i+1."""

    __slots__ = ()  # colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_of(self, value: int) -> int:
        """The color of ``value``; ``IndexError`` outside [1..n]."""
        if value < 1:
            raise IndexError(f"value {value} is outside [1..{self.n}]")
        return self.colors[value - 1]

    def classes(self) -> list[list[int]]:
        count = max(self.colors) + 1 if self.colors else 0
        out: list[list[int]] = [[] for _ in range(count)]
        for value, color in enumerate(self.colors, start=1):
            out[color].append(value)
        return out


class SearchStats(namedtuple("SearchStats", ["nodes", "constraints", "ms", "depth_max",
                                             "enumerate_ms", "prunes", "search_ms"],
                             defaults=(0, 0, 0.0, 0, 0.0, 0, 0.0))):
    """The counts and times of one search, built once it has ended."""

    # constraints: solutions read, one representative per orbit; depth_max:
    # length of the deepest bad coloring reached; enumerate_ms: part of ms
    # spent building, reading and re-verifying layers; prunes: colorings the
    # forward check refused as dead; search_ms: part of ms spent in the
    # kernel, filing layers included, reading them not
    __slots__ = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "nodes": self.nodes,
            "constraints": self.constraints,
            "ms": int(self.ms),
            "depth_max": self.depth_max,
            "enumerate_ms": int(self.enumerate_ms),
            "prunes": self.prunes,
            "search_ms": int(self.search_ms),
        }


class SearchOutcome(namedtuple("SearchOutcome", ["kind", "coloring", "stats"])):
    """SearchOutcome(kind, coloring, stats)"""

    # kind: BAD_COLORING | FORCED | INCONCLUSIVE, coloring: Optional[Coloring],
    # stats: SearchStats
    __slots__ = ()

    def to_json(
        self, polynomial: str, r: int, n: int, injective: bool
    ) -> dict[str, Any]:
        return {
            "schema": 1,
            "polynomial": polynomial,
            "r": r,
            "N": n,
            "injective": injective,
            "outcome": self.kind,
            "coloring": list(self.coloring.colors) if self.coloring else None,
            "stats": self.stats.to_json(),
        }


def enumerate_constraints(
    p: Polynomial, n_bound: int, injective: bool = False
) -> list[tuple[int, ...]]:
    """All solution tuples of p in [1..n_bound]^k, variables in name order,
    lexicographic: those of the oracle ``brute_force_solutions``, under its
    candidate budget."""
    found = brute_force_solutions(p, n_bound, injective)
    return [tuple(w.assignment[v] for v in p.variables) for w in found]


def _first_bad_coloring(
    layers: Iterator[list[tuple[int, ...]]], r: int, n: int, budget: int
) -> tuple[list[int], list[list[tuple[int, ...]]], bool, int, int, float]:
    """Depth-first search over canonical colorings of 1..n, in branch order,
    reading layer v + 1 from ``layers`` when it first reaches depth v, with
    forward checking against the layers read.

    Returns (the deepest bad coloring reached, the layers read, budget
    exhausted, the nodes spent, the colorings pruned, the milliseconds spent
    reading layers).  The search stops at its first coloring of all of 1..n.
    A canonical coloring of 1..n uses at most n colors, so more than n colors
    change nothing.

    Each step at the value v + 1 skips the colors from ``color`` below its
    limit whose ``blk`` holds v and tries the lowest one left, charging the
    refused colors below it as one node each; with none left it charges the
    refused run and backs up.  A step that would spend more than the budget
    stops the search at exactly ``budget`` nodes, inside the run if need be.
    The nodes are kept by visit, not by try: a visit to v + 1 that runs out
    of colors has spent ``limit`` nodes, one per color, and a colored value
    on the trail has spent its color plus one.  ``room`` is the budget less
    those nodes, so a try of c at v + 1 stays within the budget when
    c < room, a back step stays within it when ``limit <= room``, and the
    search stops having spent ``budget - room`` nodes (a cut sets ``room``
    to 0).

    The scan keeps ``blk[c]`` of the color it stops at in ``b``.  Coloring
    v + 1 with c closes every read value set whose other members all have
    color c: ``(members & a) << d`` for each group ``[rem, d, a]`` of v whose
    ``rem`` lies in ``members``, the class of c with v + 1.  A value with one
    group (``sole[v]``; every value of Schur's form) reads it without a
    loop.  ``nb`` is ``b`` with the closed bits and ``new = nb - b`` the
    bits not yet blocked; the coloring is dead when one of them is in the
    ``blk`` of every other color.  Otherwise ``blk[c]`` becomes ``nb``
    (written only when ``new`` is not 0) and the trail entry of v + 1 is
    written: the lists ``colors``, ``news`` and ``limits``, made once for
    the search and indexed by v, get c, ``new`` and the limit.  The step
    back from v + 2 reads that entry: ``blk[c] -= news[v]``, the class of c
    loses v + 1, and the limit at v + 1 is restored.  ``bit`` (1 << v),
    ``limit`` and the depth reached are locals that move with each step;
    the colors are copied only when the depth grows, and the deepest
    coloring is the last copy.

    The dead check reads ``others[c]``: the first two other colors,
    sparsest first, inline, and the rest in a loop only when both leave a
    bit.  A list of fewer than two other colors is padded with the
    sentinel color r, whose ``blk[r]`` is -1 (every bit set), so one and
    two colors take the same step as more.

    The step adds and subtracts ints where three invariants make the bits
    disjoint or nested, because CPython specializes int ``+`` and ``-``
    and not the bit operations: v + 1 is in no class when it is colored,
    so ``members = classes[c] + bit``; ``nb`` holds ``b``, so ``nb - b``
    is ``nb ^ b``; and every bit of ``blk[c]`` that a trail entry holds was
    set by that entry alone, while it was in no ``blk[c]`` or entry (a step
    sets only ``new``, and ``take()`` adds a new layer's bit to one entry's
    ``news`` and to ``blk``), so when the entry is undone, last in, first
    out, its bits are all in ``blk[c]``.  A step forward doubles ``bit``
    with ``bit += bit``.  Where bits can overlap, in the closure
    ``(members & a) << d``, the loop over several groups and ``take()``,
    the step keeps ``|``, ``&`` and ``<<``.
    """
    r = min(r, n)
    read: list[list[tuple[int, ...]]] = []
    classes = [0] * r  # classes[c]: bit i set when i + 1 has color c
    # blk[c]: bit w set when color c closes a value set at w + 1; blk[r], the
    # sentinel color, has every bit set
    blk = [0] * r + [-1]
    others = []  # others[c]: the first two other colors and the rest
    for c in range(r):
        rest = list(reversed(range(r)))  # sparsest first
        rest.remove(c)
        o1, o2 = (rest + [r, r])[:2]  # padded with the sentinel color r
        others.append((o1, o2, tuple(rest[2:])))
    groups: list[list[list[int]]] = []  # groups[u]: [rem, d, a], closing (members & a) << d
    sole: list[Optional[list[int]]] = []  # sole[u]: the group of u when it is its only one
    group_of: list[dict[int, list[int]]] = []  # group_of[u]: d << u | rem -> its group of u
    value_bit = [0]  # value_bit[x]: the bit of the read value x, one entry per layer read
    clock = time.perf_counter
    reading = 0.0  # seconds spent reading layers
    # the trail, indexed by u: the color of u + 1, the bits it set in blk and
    # the color limit it was tried under
    colors = [0] * n
    news = [0] * n
    limits = [0] * n

    # what the search loop shares with take() is bound as defaults, so that
    # the loop reads plain locals, not closure cells
    def take(r=r, blk=blk, classes=classes, groups=groups, sole=sole, colors=colors,
             news=news) -> None:
        """Reads the next layer, files its value sets and blocks what they close."""
        nonlocal reading
        started = clock()
        layer = next(layers)
        reading += clock() - started
        w = len(read)
        read.append(layer)
        groups.append([])
        sole.append(None)
        group_of.append({})
        bit = 1 << w
        if not layer:
            value_bit.append(bit)
            return
        closed = False  # a value set of one member closes w + 1 for every color
        owner: dict[int, int] = {}  # color -> smallest u whose value set blocks it
        value_bit.append(0)  # the layer's own value: no bit while its sets are masked
        for values in layer:
            mask = 0  # the value set's members below w + 1
            for x in values:
                mask |= value_bit[x]
            if not mask:
                closed = True
                continue
            u = mask.bit_length() - 1
            low = mask ^ 1 << u or mask  # the members below u + 1, or u + 1 alone
            t = low.bit_length() - 1
            rem, d = low ^ 1 << t, w - t
            key = d << u | rem  # one int per (rem, d): rem has no bit at u or above
            group = group_of[u].get(key)
            if group is None:
                group = group_of[u][key] = [rem, d, 0]
                groups[u].append(group)
                sole[u] = group if len(groups[u]) == 1 else None
            group[2] |= 1 << t
            c = colors[u]
            if classes[c] & mask == mask and owner.get(c, u) >= u:
                owner[c] = u
        value_bit[w + 1] = bit
        if closed:
            for c in range(r):
                blk[c] |= bit
        else:
            for c, u in owner.items():
                blk[c] |= bit
                news[u] |= bit

    deepest: list[int] = []  # the colors of the deepest bad coloring
    room = budget  # the budget less the nodes of finished visits and of the trail
    prunes = depth = 0
    exhausted = False
    v = color = 0  # the value v + 1 tries the colors from ``color`` up
    bit = limit = 1  # 1 << v; the colors v + 1 may take, one past those of 1..v, at most r
    take()
    while True:
        c = color
        while c < limit:
            b = blk[c]
            if not b & bit:
                break
            c += 1  # refused: it closes a set at v + 1
        else:
            if limit > room:
                room, exhausted = 0, True
                break
            if not v:
                room -= limit
                break
            v -= 1  # no color left at v + 1: back to v
            c = colors[v]
            color = c + 1
            room += color - limit
            limit = limits[v]
            bit >>= 1
            blk[c] -= news[v]
            classes[c] -= bit
            continue
        if c >= room:
            room, exhausted = 0, True
            break
        members = classes[c] + bit
        group = sole[v]
        if group is not None:
            rem, d, a = group
            nb = (members & a) << d | b if not rem or members & rem == rem else b
        else:
            nb = b
            for rem, d, a in groups[v]:
                if members & rem == rem:
                    nb |= (members & a) << d
        new = nb - b
        if new:
            o1, o2, more = others[c]
            dead = new & blk[o1] & blk[o2]
            if dead:
                for o in more:
                    dead &= blk[o]
                    if not dead:
                        break
                else:  # a read value would have no color left
                    prunes += 1
                    color = c + 1
                    continue
            blk[c] = nb
        classes[c] = members
        room -= c + 1
        colors[v] = c
        news[v] = new
        limits[v] = limit
        if limit < r and c + 1 == limit:  # a new color opens the next
            limit += 1
        v += 1
        bit += bit
        color = 0
        if v > depth:
            depth = v
            deepest = colors[:v]
            if v == n:
                break
            take()
    return deepest, read, exhausted, budget - room, prunes, reading * 1000


def find_bad_coloring(
    p: Polynomial,
    r: int,
    n_bound: int,
    injective: bool = False,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Search for an r-coloring of [1..n_bound] with no monochromatic
    solution of p.  Forced is claimed only on exact exhaustion; running out
    of node budget is the Inconclusive outcome, not an error.  An oversized
    bound raises ``SearchSpaceTooLargeError`` only when the search reads the
    first layer over the candidate budget."""
    if r < 1:
        raise ValueError("need at least one color")
    if n_bound < 1:
        raise ValueError("bound must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    started = time.perf_counter()
    variables, layers = solution_layers(p, n_bound, injective)
    kernel_started = time.perf_counter()
    found, read, exhausted, nodes, prunes, reading_ms = _first_bad_coloring(
        layers, r, n_bound, budget
    )
    kernel_ended = time.perf_counter()
    rows = list(itertools.chain.from_iterable(read))
    _verify_solutions(p, variables, rows)
    enumerate_ms = reading_ms + (time.perf_counter() - kernel_ended + kernel_started - started) * 1000
    deepest = Coloring(tuple(found))
    colored = len(rows) - sum(map(len, read[deepest.n :]))  # the rows of read[: deepest.n]
    if _first_monochromatic(rows[:colored], (None, *found)) is not None:
        raise AssertionError("search produced an invalid bad coloring")
    stats = SearchStats(
        nodes, len(rows), (time.perf_counter() - started) * 1000, deepest.n, enumerate_ms,
        prunes, (kernel_ended - kernel_started) * 1000 - reading_ms,
    )
    if deepest.n == n_bound:
        return SearchOutcome(BAD_COLORING, deepest, stats)
    return SearchOutcome(INCONCLUSIVE if exhausted else FORCED, None, stats)


def rado_number(
    p: Polynomial,
    r: int,
    max_n: int,
    injective: bool = False,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[int]:
    """Smallest N <= max_n at which every r-coloring of [1..N] is Forced;
    None when a bad coloring of [1..max_n] exists or the budget runs out.
    It is ``depth_max + 1`` of one ``find_bad_coloring`` over [1..max_n]
    when that is Forced: one more than the length of the deepest bad
    coloring reached.  The budget caps that one search."""
    outcome = find_bad_coloring(p, r, max_n, injective, budget)
    return outcome.stats.depth_max + 1 if outcome.kind == FORCED else None


def monochromatic_solution(
    p: Polynomial, coloring: Coloring, injective: bool = False
) -> Optional[tuple[int, ...]]:
    """First (lexicographic) solution whose values all share one color, read
    from ``enumerate_constraints``, the oracle; None for the empty coloring."""
    if not coloring.n:
        return None
    rows = enumerate_constraints(p, coloring.n, injective)
    return _first_monochromatic(rows, (None, *coloring.colors))
