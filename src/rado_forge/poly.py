"""Exact multivariate integer polynomials with zero constant term.

A polynomial is a canonically ordered sum of monomials a_i * M_i, where each
M_i is a monic product of variables with positive integer exponents and each
coefficient a_i is a nonzero arbitrary-precision integer.  Canonical form:

  * like terms combined, zero coefficients dropped;
  * variables inside a monomial sorted lexicographically by name;
  * monomials sorted in descending pure-lexicographic order of their exponent
    vectors (taken over the variable names of the polynomial, sorted
    lexicographically), so printing is deterministic and parse(str(p)) == p.

Constant terms are rejected at parse time (``parse``); ``parse_with_constant``
splits them off for the affine classifier instead.  All arithmetic is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "PolySyntaxError",
    "ConstantTermError",
    "EmptyPolynomialError",
    "MissingVariableError",
    "Monomial",
    "Polynomial",
    "DegreeProfile",
    "parse",
    "parse_with_constant",
    "monomial_gcd",
]

_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class PolySyntaxError(ValueError):
    """Malformed polynomial text; carries position and expected token."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at position {position}: expected {expected}, found {found}")


class ConstantTermError(ValueError):
    """A nonzero constant term survived canonicalization."""

    def __init__(self, constant: int):
        self.constant = constant
        super().__init__(
            f"constant term {constant} is not allowed here; "
            f"use the constant-aware entry point for affine polynomials"
        )


class EmptyPolynomialError(ValueError):
    """All terms cancelled, or only a nonzero ``constant`` is left."""

    def __init__(self, constant: int = 0) -> None:
        super().__init__(f"only the constant {constant} is left; a polynomial needs a variable"
                         if constant else "all terms cancelled: the zero polynomial is not allowed")


class MissingVariableError(KeyError):
    """An evaluation assignment does not cover every variable."""

    def __init__(self, missing: tuple[str, ...]):
        self.missing = missing
        super().__init__(f"assignment missing variables: {', '.join(missing)}")


@dataclass(frozen=True)
class Monomial:
    """A signed monomial: coefficient times a product of variable powers.

    ``exponents`` is a tuple of (variable, exponent) pairs, sorted by variable
    name, with every exponent >= 1.  The empty tuple (a bare constant) is not
    a legal monomial of a Polynomial but is permitted transiently, e.g. as a
    gcd of disjoint monomials.
    """

    coefficient: int
    exponents: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.coefficient == 0:
            raise ValueError("monomial coefficient must be nonzero")
        if len(self.exponents) > 1:  # one pair is always sorted and unique
            names = [v for v, _ in self.exponents]
            if names != sorted(names) or len(set(names)) != len(names):
                raise ValueError("exponent pairs must be sorted by unique variable name")
        for v, e in self.exponents:
            if not _VAR_RE.fullmatch(v):
                raise ValueError(f"invalid variable name: {v!r}")
            if e < 1:
                raise ValueError(f"exponent of {v} must be >= 1, got {e}")

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.exponents)

    @property
    def degree(self) -> int:
        """Total degree: sum of the exponents."""
        return sum(e for _, e in self.exponents)

    def degree_of(self, var: str) -> int:
        for v, e in self.exponents:
            if v == var:
                return e
        return 0

    def exponent_map(self) -> dict[str, int]:
        return dict(self.exponents)

    def monic_text(self) -> str:
        if not self.exponents:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exponents)

    def __str__(self) -> str:
        if not self.exponents:
            return str(self.coefficient)
        if self.coefficient == 1:
            return self.monic_text()
        if self.coefficient == -1:
            return "-" + self.monic_text()
        return f"{self.coefficient}*{self.monic_text()}"


def monomial_gcd(m1: Monomial, m2: Monomial) -> Monomial:
    """Greatest common divisor of two monic monomials: exponent-wise minimum.

    Coefficients are ignored (treated as 1).  The result may be the empty
    product, returned as a coefficient-1 monomial with no variables.
    """
    e1, e2 = m1.exponent_map(), m2.exponent_map()
    shared = sorted(set(e1) & set(e2))
    pairs = tuple((v, min(e1[v], e2[v])) for v in shared)
    return Monomial(1, pairs)


@dataclass(frozen=True)
class DegreeProfile:
    """Structural degree data consumed by the classifier and witness builder.

    ``levels[i]`` is the largest degree deficit of monomial i against any
    nonlinear variable (0 when there are none); ``multiplicities[i]`` is
    max(1, levels[i]).  Tuple positions follow canonical monomial order.
    """

    degrees: dict[str, int]
    per_monomial: tuple[dict[str, int], ...]
    partial_degree: int
    nonlinear: tuple[str, ...]
    levels: tuple[int, ...]
    multiplicities: tuple[int, ...]


class Polynomial:
    """Canonical multivariate integer polynomial with zero constant term."""

    __slots__ = (
        "monomials", "variables", "coefficients",
        "is_linear", "is_lev", "is_homogeneous", "is_one_signed",
    )

    monomials: tuple[Monomial, ...]
    variables: tuple[str, ...]  # all variables, sorted lexicographically by name
    coefficients: tuple[int, ...]
    is_linear: bool
    is_lev: bool  # linear in each variable: partial degree equal to one
    is_homogeneous: bool
    is_one_signed: bool  # every coefficient has one sign: no solution in the positive integers

    def __init__(self, monomials: Iterable[Monomial]):
        given = list(monomials)
        if len({m.exponents for m in given}) == len(given):
            # distinct exponent tuples: combining like terms changes nothing
            combined = [m for m in given if m.exponents]
            constant = next((m.coefficient for m in given if not m.exponents), 0)
        else:
            combined, constant = _combine(
                (m.coefficient, m.exponent_map()) for m in given
            )
        if constant != 0:
            raise ConstantTermError(constant)
        if not combined:
            raise EmptyPolynomialError()
        ordered, names = _canonical_sort(combined)
        degrees = [m.degree for m in ordered]
        coefficients = tuple(m.coefficient for m in ordered)
        shape = {
            "monomials": ordered,
            "variables": names,
            "coefficients": coefficients,
            "is_linear": all(d == 1 for d in degrees),
            "is_lev": all(d == len(m.exponents) for d, m in zip(degrees, ordered)),
            "is_homogeneous": len(set(degrees)) == 1,
            "is_one_signed": len({c > 0 for c in coefficients}) == 1,
        }
        for name, value in shape.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the guarded __setattr__
        return (Polynomial, (self.monomials,))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, Mapping[str, int]]]) -> "Polynomial":
        """Build from (coefficient, {var: exponent}) pairs, canonicalizing."""
        return cls(
            Monomial(c, tuple(sorted((v, e) for v, e in exps.items() if e)))
            for c, exps in terms
            if c != 0
        )

    # -- structure ---------------------------------------------------------

    def degree_of(self, var: str) -> int:
        """Degree of ``var`` in the polynomial: max exponent over monomials."""
        return max(m.degree_of(var) for m in self.monomials)

    def degree_profile(self) -> DegreeProfile:
        degrees = {v: self.degree_of(v) for v in self.variables}
        per_monomial = tuple(
            {v: m.degree_of(v) for v in self.variables} for m in self.monomials
        )
        partial = max(degrees.values())
        nonlinear = tuple(v for v in self.variables if degrees[v] >= 2)
        levels = tuple(
            max((degrees[v] - m.degree_of(v) for v in nonlinear), default=0)
            for m in self.monomials
        )
        mults = tuple(max(1, l) for l in levels)
        return DegreeProfile(degrees, per_monomial, partial, nonlinear, levels, mults)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Exact value under a total assignment; extra keys are ignored."""
        missing = tuple(v for v in self.variables if v not in assignment)
        if missing:
            raise MissingVariableError(missing)
        total = 0
        for m in self.monomials:
            term = m.coefficient
            for v, e in m.exponents:
                term *= assignment[v] ** e
            total += term
        return total

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(self.monomials)

    def __str__(self) -> str:
        parts = [str(self.monomials[0])]
        for m in self.monomials[1:]:
            if m.coefficient < 0:
                flipped = Monomial(-m.coefficient, m.exponents)
                parts.append(f" - {flipped}")
            else:
                parts.append(f" + {m}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _combine(
    terms: Iterable[tuple[int, Mapping[str, int]]],
) -> tuple[list[Monomial], int]:
    """Sum like terms; return surviving monomials plus the constant term."""
    acc: dict[tuple[tuple[str, int], ...], int] = {}
    for coeff, exps in terms:
        if 0 in exps.values():
            exps = {v: e for v, e in exps.items() if e != 0}
        key = tuple(sorted(exps.items()))
        acc[key] = acc.get(key, 0) + coeff
    constant = acc.pop((), 0)
    monomials = [Monomial(c, key) for key, c in acc.items() if c != 0]
    return monomials, constant


def _canonical_sort(
    monomials: list[Monomial],
) -> tuple[tuple[Monomial, ...], tuple[str, ...]]:
    """The monomials in canonical order, and the sorted variable names."""
    var_order = tuple(sorted({v for m in monomials for v, _ in m.exponents}))
    index = {v: i for i, v in enumerate(var_order)}

    def key(m: Monomial) -> tuple[int, ...]:
        vec = [0] * len(var_order)
        for v, e in m.exponents:
            vec[index[v]] = -e  # negated: ascending sort gives descending lex
        return tuple(vec)

    return tuple(sorted(monomials, key=key)), var_order


# -- parsing ---------------------------------------------------------------
#
# The grammar; whitespace between tokens is skipped:
#
#   polynomial := ['+' | '-'] term (('+' | '-') term)*
#   term       := integer | [integer ['*']] variable ['^' integer] ('*' factor)*
#   factor     := variable ['^' integer]
#
# A bare integer is a constant term.  One scan cuts the text into tokens, each
# a match of one group of _TOKEN_RE: an integer (any Unicode decimal digits, as
# int() reads them), a variable, an operator, or a character that starts no
# token.  The descent then walks the token columns by index.  Positions are
# needed only for errors, so _syntax_error scans again to find them.  The
# pattern uses no syntax newer than Python 3.10 (no atomic groups or
# possessive quantifiers).

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*^])|(\S))")


def _syntax_error(text: str, index: int, expected: str) -> PolySyntaxError:
    """The error at token ``index`` of ``text``, or at the end of the input
    when the text has fewer tokens; a token's position is where it starts."""
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if i == index:
            return PolySyntaxError(m.start(m.lastindex), expected, repr(m[m.lastindex]))
    return PolySyntaxError(len(text), expected, "end of input")


def _parse_terms(text: str) -> list[tuple[int, dict[str, int]]]:
    """The (coefficient, {variable: exponent}) terms of ``text`` in order,
    like variables inside a term summed; a constant term has no variables."""
    found = _TOKEN_RE.findall(text)
    found.append(("", "", "", ""))  # the end of input, which matches no column
    ints, names, ops, stray = zip(*found)
    if any(stray):
        first = next(i for i, s in enumerate(stray) if s)
        raise _syntax_error(text, first, "integer, variable or operator")
    end = len(found) - 1
    if end == 0:
        raise _syntax_error(text, 0, "polynomial")
    op = ops[0]
    i = 1 if op == "+" or op == "-" else 0
    terms: list[tuple[int, dict[str, int]]] = []
    while True:
        coeff = -1 if op == "-" else 1
        exps: dict[str, int] = {}
        if ints[i]:
            coeff *= int(ints[i])
            i += 1
            if ops[i] == "*":
                i += 1
                more = True
            else:
                more = bool(names[i])  # no factor follows: a constant term
        elif names[i]:
            more = True
        else:
            raise _syntax_error(text, i, "term")
        while more:
            name = names[i]
            if not name:
                raise _syntax_error(text, i, "variable")
            if ops[i + 1] == "^":
                if not ints[i + 2]:
                    raise _syntax_error(text, i + 2, "exponent integer")
                exps[name] = exps.get(name, 0) + int(ints[i + 2])
                i += 3
            else:
                exps[name] = exps.get(name, 0) + 1
                i += 1
            more = ops[i] == "*"
            i += more
        terms.append((coeff, exps))
        if i == end:
            return terms
        op = ops[i]
        if op != "+" and op != "-":
            raise _syntax_error(text, i, "'+' or '-'")
        i += 1


def parse(text: str) -> Polynomial:
    """Parse text into canonical form; constant terms are an error."""
    monomials, constant = _combine(_parse_terms(text))
    if constant != 0:
        raise ConstantTermError(constant)
    if not monomials:
        raise EmptyPolynomialError()
    return Polynomial(monomials)


def parse_with_constant(text: str) -> tuple[Polynomial, int]:
    """Parse, splitting off the constant term (for the affine classifier)."""
    monomials, constant = _combine(_parse_terms(text))
    if not monomials:
        raise EmptyPolynomialError(constant)
    return Polynomial(monomials), constant
