"""Finite coloring search: empirical evidence for partition regularity.

For a polynomial p, r colors and an interval [1..N], the engine enumerates
every solution tuple of p inside the interval (through the witness module's
exact enumerator), then backtracks over colorings looking for one with no
monochromatic solution.  Exhausting the tree proves the finite statement
"every r-coloring of [1..N] contains a monochromatic solution" (Forced);
finding a leaf yields a checkable bad coloring.  Neither outcome is ever a
partition-regularity claim; that language stays in the classifier.

The backtracking is one iterative depth-first search, so its depth is not
bounded by the recursion limit.  Symmetry breaking: color(1) = 0, and color
c may first appear only after colors 0..c-1 (canonical representatives only,
completeness preserved).  Every color tried at a value is one node, and the
node budget is a strict cap on the nodes spent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from .poly import Polynomial
from .witness import DEFAULT_ENUM_BUDGET, brute_force_solutions

__all__ = [
    "Coloring",
    "SolutionConstraint",
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


@dataclass(frozen=True)
class Coloring:
    """Colors of 1..N: ``colors[i]`` is the color of the integer i+1."""

    colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_of(self, value: int) -> int:
        return self.colors[value - 1]

    def classes(self) -> list[list[int]]:
        count = max(self.colors) + 1 if self.colors else 0
        out: list[list[int]] = [[] for _ in range(count)]
        for value, color in enumerate(self.colors, start=1):
            out[color].append(value)
        return out


@dataclass(frozen=True)
class SolutionConstraint:
    """A solution tuple of p inside [1..N], in variable name order."""

    values: tuple[int, ...]
    injective: bool

    def __post_init__(self) -> None:
        if self.injective and len(set(self.values)) != len(self.values):
            raise ValueError("injective constraint with repeated values")


@dataclass
class SearchStats:
    nodes: int = 0
    constraints: int = 0
    ms: float = 0.0

    def to_json(self) -> dict[str, Any]:
        return {"nodes": self.nodes, "constraints": self.constraints, "ms": int(self.ms)}


@dataclass(frozen=True)
class SearchOutcome:
    kind: str  # BAD_COLORING | FORCED | INCONCLUSIVE
    coloring: Optional[Coloring]
    stats: SearchStats

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
    p: Polynomial,
    n_bound: int,
    injective: bool = False,
    max_candidates: int = DEFAULT_ENUM_BUDGET,
) -> list[SolutionConstraint]:
    """All solution tuples of p in [1..n_bound]^n, lexicographic, deduplicated."""
    variables = p.variables
    seen: set[tuple[int, ...]] = set()
    out: list[SolutionConstraint] = []
    for w in brute_force_solutions(
        p, n_bound, injective=injective, max_candidates=max_candidates
    ):
        tup = tuple(w.assignment[v] for v in variables)
        if tup not in seen:
            seen.add(tup)
            out.append(SolutionConstraint(tup, injective))
    return out


def _others_by_max(
    constraints: list[SolutionConstraint], n: int
) -> list[list[tuple[int, ...]]]:
    """Distinct value sets of the constraints inside [1..n], bucketed by their
    maximum m: ``buckets[m]`` holds each set's other members as 0-based
    indices, in lexicographic order of the sets."""
    sets = {tuple(sorted(set(c.values))) for c in constraints}
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for s in sorted(sets):
        if s[-1] <= n:
            buckets[s[-1]].append(tuple(v - 1 for v in s[:-1]))
    return buckets


def _first_bad_coloring(
    n: int, r: int, buckets: list[list[tuple[int, ...]]], budget: int
) -> tuple[Optional[list[int]], int, bool]:
    """Depth-first search over canonical colorings of 1..n, in branch order.

    Returns (the first bad coloring or None, nodes spent, budget exhausted).
    """
    colors: list[int] = []  # colors of 1..len(colors), all checked
    used = [0]  # used[i]: number of distinct colors among 1..i
    nodes = 0
    color = 0  # next color to try at the value len(colors) + 1
    while len(colors) < n:
        if color < min(used[-1] + 1, r):
            if nodes >= budget:
                return None, nodes, True
            nodes += 1
            for others in buckets[len(colors) + 1]:
                for i in others:
                    if colors[i] != color:
                        break
                else:
                    break  # every member has this color: monochromatic
            else:
                colors.append(color)
                used.append(max(used[-1], color + 1))
                color = 0
                continue
            color += 1
        elif colors:
            used.pop()
            color = colors.pop() + 1
        else:
            return None, nodes, False
    return colors, nodes, False


def find_bad_coloring(
    p: Polynomial,
    r: int,
    n_bound: int,
    injective: bool = False,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Search for an r-coloring of [1..n_bound] with no monochromatic
    solution of p.  Forced is claimed only on exact exhaustion; running out
    of node budget is the Inconclusive outcome, not an error."""
    if r < 1:
        raise ValueError("need at least one color")
    started = time.perf_counter()
    constraints = enumerate_constraints(p, n_bound, injective)
    found, nodes, exhausted = _first_bad_coloring(
        n_bound, r, _others_by_max(constraints, n_bound), budget
    )
    coloring = None
    if found is not None:
        kind, coloring = BAD_COLORING, Coloring(tuple(found))
        if monochromatic_solution(p, coloring, injective, _constraints=constraints) is not None:
            raise AssertionError("search produced an invalid bad coloring")
    else:
        kind = INCONCLUSIVE if exhausted else FORCED
    stats = SearchStats(nodes, len(constraints), (time.perf_counter() - started) * 1000)
    return SearchOutcome(kind, coloring, stats)


def rado_number(
    p: Polynomial,
    r: int,
    max_n: int,
    injective: bool = False,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[int]:
    """Smallest N <= max_n proven Forced, scanning N upward; None when every
    scanned N admits a bad coloring (or exhausts its budget) up to max_n."""
    for n in range(1, max_n + 1):
        if find_bad_coloring(p, r, n, injective, budget).kind == FORCED:
            return n
    return None


def monochromatic_solution(
    p: Polynomial,
    coloring: Coloring,
    injective: bool = False,
    _constraints: Optional[list[SolutionConstraint]] = None,
) -> Optional[SolutionConstraint]:
    """First (lexicographic) solution whose values all share one color."""
    constraints = (
        _constraints
        if _constraints is not None
        else enumerate_constraints(p, coloring.n, injective)
    )
    for c in constraints:
        if max(c.values) > coloring.n:
            continue
        first = coloring.color_of(c.values[0])
        if all(coloring.color_of(v) == first for v in c.values[1:]):
            return c
    return None
