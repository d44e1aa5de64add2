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

A ``Monomial`` is a record, a named (coefficient, exponents) pair: it equals
and hashes as that pair, and reads its ``variables``, ``degree`` and
``degree_of`` off its exponents.  A ``Polynomial`` fixes at construction its
``monomials``, one record per term in canonical order, its sorted variables
and coefficients, its four shape flags and the degree of each variable.
``degree_profile()``, read off the degrees, is built on the first call only.
``evaluate`` checks coverage against the precomputed variables, and so does
``evaluate_many``, which takes many assignments at once as rows of values and
reads them a column at a time.

Every polynomial is built by one builder, ``_build``, from (coefficient,
exponent tuple) terms whose exponent tuples are already canonical: the
(variable, exponent >= 1) pairs sorted by distinct names.  ``parse`` and
``parse_with_constant`` hand it the terms they read, a ``[c*]name`` term
keyed without a dict; ``Polynomial(monomials)`` its monomials, each of which
is such a term; ``Polynomial.from_terms`` its terms once it has checked their
names and exponents.  The builder sums like terms, then in one pass over the
sums keys each for the canonical order, makes its record, raises the degree
of each variable and collects the total degrees, and sorts once.  It checks
no name or exponent again: every name read from text matched the
variable-name pattern, and a ``Monomial`` validated its own when it was
built.
"""

from __future__ import annotations

import re
from operator import add, itemgetter, mul
from collections import namedtuple
from typing import Iterable, Mapping, Optional, Sequence

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

_NAME = r"[A-Za-z][A-Za-z0-9_]*"  # a variable name
_VAR_RE = re.compile(_NAME)


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


class Monomial(namedtuple("Monomial", ["coefficient", "exponents"])):
    """A signed monomial: coefficient times a product of variable powers.

    ``exponents`` is a tuple of (variable, exponent) pairs, sorted by variable
    name, with every exponent >= 1; any iterable of such pairs is accepted
    and kept as a tuple of tuples.  The empty tuple (a bare constant) is not
    a legal monomial of a Polynomial but is permitted transiently, e.g. as a
    gcd of disjoint monomials.  A monomial equals and hashes as its
    (coefficient, exponents) pair."""

    # coefficient: int, exponents: tuple[tuple[str, int], ...]
    __slots__ = ()

    def __new__(cls, coefficient: int, exponents: Iterable[tuple[str, int]]) -> "Monomial":
        if coefficient == 0:
            raise ValueError("monomial coefficient must be nonzero")
        exponents = tuple([(v, e) for v, e in exponents])
        if len(exponents) > 1:  # one pair is always sorted and unique
            names = [v for v, _ in exponents]
            if names != sorted(names) or len(set(names)) != len(names):
                raise ValueError("exponent pairs must be sorted by unique variable name")
        _check_factors(exponents)
        return tuple.__new__(cls, (coefficient, exponents))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple([v for v, _ in self.exponents])

    @property
    def degree(self) -> int:
        """The sum of the exponents."""
        return sum([e for _, e in self.exponents])

    def degree_of(self, var: str) -> int:
        for v, e in self.exponents:
            if v == var:
                return e
        return 0

    def exponent_map(self) -> dict[str, int]:
        return dict(self.exponents)

    def monic_text(self) -> str:
        return _monic_text(self.exponents) if self.exponents else "1"

    def __str__(self) -> str:
        if not self.exponents:
            return str(self.coefficient)
        if self.coefficient == 1:
            return self.monic_text()
        if self.coefficient == -1:
            return "-" + self.monic_text()
        return f"{self.coefficient}*{self.monic_text()}"


def _monic_text(exponents: tuple[tuple[str, int], ...]) -> str:
    """The product of variable powers that nonempty ``exponents`` spell."""
    return "*".join([v if e == 1 else f"{v}^{e}" for v, e in exponents])


def _check_factors(exponents: Iterable[tuple[str, int]]) -> None:
    """Raise ``ValueError`` at the first pair whose name is not a variable
    name or whose exponent is below 1."""
    for v, e in exponents:
        if not _VAR_RE.fullmatch(v):
            raise ValueError(f"invalid variable name: {v!r}")
        if e < 1:
            raise ValueError(f"exponent of {v} must be >= 1, got {e}")


def monomial_gcd(m1: Monomial, m2: Monomial) -> Monomial:
    """Greatest common divisor of two monic monomials: exponent-wise minimum.

    Coefficients are ignored (treated as 1).  The result may be the empty
    product, returned as a coefficient-1 monomial with no variables.
    """
    e1, e2 = m1.exponent_map(), m2.exponent_map()
    shared = sorted(set(e1) & set(e2))
    pairs = tuple((v, min(e1[v], e2[v])) for v in shared)
    return Monomial(1, pairs)


class DegreeProfile(namedtuple("DegreeProfile", ["partial_degree", "nonlinear", "levels",
                                                 "multiplicities"])):
    """Structural degree data consumed by the classifier and witness builder.

    ``nonlinear`` lists the variables of degree 2 or more in name order.
    ``levels[i]`` is the largest degree deficit of monomial i against any
    nonlinear variable (0 when there are none); ``multiplicities[i]`` is
    max(1, levels[i]).  Tuple positions follow canonical monomial order.  The
    degree of each variable is ``Polynomial.degree_of`` and its degree in
    monomial i is ``monomials[i].degree_of``.
    """

    # partial_degree: int, nonlinear: tuple[str, ...], levels and
    # multiplicities: tuple[int, ...]
    __slots__ = ()


class Polynomial:
    """Canonical multivariate integer polynomial with zero constant term.

    Construction fixes the structural data once: ``monomials``, one
    ``Monomial`` record per term in canonical order, the sorted variables,
    the coefficients, the four shape flags and the degree of each variable.
    ``Polynomial(monomials)``, ``from_terms``, ``parse`` and
    ``parse_with_constant`` all build through ``_build``, which combines like
    terms, so the monomials may come in any order and repeat.  Equality,
    hashing, ``str``, ``repr`` and evaluation read the monomials.

    The facts derived later start as None, so a polynomial no one asks
    about pays nothing for them.  Each reader reads its field and, when it
    is None, keeps what it derives with ``_keep``: the degree profile
    (``_profile``, read by ``degree_profile``), and in ``classify`` and
    ``witness`` the exclusive groups (``_groups``), the least zero-sum index
    set J, empty when there is none (``_zero_sum``), the l.e.v. designation
    (``_lev``: linear variables, product variables, F-sets), the nonlinear
    shape with its failure lines (``_shape``) and the all-ones substitution
    (``_ones``).  Each is a function of the monomials, so filling one is
    idempotent and changes nothing that equality, hashing, ``repr``, copy or
    pickle read; none refers back to the polynomial."""

    __slots__ = (
        "monomials", "variables", "coefficients",
        "is_linear", "is_lev", "is_homogeneous", "is_one_signed",
        "_degrees", "_profile", "_groups", "_zero_sum", "_lev", "_shape", "_ones",
    )

    monomials: tuple[Monomial, ...]  # in canonical order
    variables: tuple[str, ...]  # all variables, sorted lexicographically by name
    coefficients: tuple[int, ...]
    is_linear: bool
    is_lev: bool  # linear in each variable: partial degree equal to one
    is_homogeneous: bool
    is_one_signed: bool  # every coefficient has one sign: no solution in the positive integers

    def __new__(cls, monomials: Iterable[Monomial]) -> "Polynomial":
        monomials = tuple(monomials)
        for m in monomials:
            if not isinstance(m, Monomial):
                raise TypeError(f"a Polynomial is built from Monomial records, not {m!r}")
        return _polynomial(monomials)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __new__, not the guarded __setattr__
        return (Polynomial, (self.monomials,))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, Mapping[str, int]]]) -> "Polynomial":
        """Build from (coefficient, {var: exponent}) pairs, canonicalizing.
        Zero coefficients and zero powers are dropped first; every other
        name must be a variable name and every other exponent at least 1."""
        checked = []
        for c, exps in terms:
            if c != 0:
                exponents = tuple(sorted([(v, e) for v, e in exps.items() if e]))
                _check_factors(exponents)
                checked.append((c, exponents))
        return _polynomial(checked)

    # -- structure ---------------------------------------------------------

    def degree_of(self, var: str) -> int:
        """Degree of ``var`` in the polynomial: max exponent over monomials."""
        return self._degrees.get(var, 0)

    def degree_profile(self) -> DegreeProfile:
        """The degree data of p, built on the first call; later calls return
        the same object."""
        profile = self._profile
        if profile is None:
            profile = self._keep("_profile", _degree_profile(self))
        return profile

    def _keep(self, name: str, fact):
        """Store a derived fact in its field and return it."""
        object.__setattr__(self, name, fact)
        return fact

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Exact value under a total assignment; extra keys are ignored."""
        if not assignment.keys() >= self._degrees.keys():
            raise MissingVariableError(tuple(v for v in self.variables if v not in assignment))
        total = 0
        for term, exponents in self.monomials:
            for v, e in exponents:
                term *= assignment[v] ** e
            total += term
        return total

    def evaluate_many(self, order: Sequence[str], rows: Sequence[Sequence[int]]) -> list[int]:
        """Exact value at each row, where a row lists the values of the
        variables in ``order``; extra variables are ignored, as in
        ``evaluate``.  The rows are read a column at a time: one ``map`` pass
        per factor and per monomial, so no row costs a Python-level loop.  A
        column is read through ``itemgetter`` where a factor uses it, not
        built: transposing many rows at once would hold an iterator per row."""
        at = {v: i for i, v in enumerate(order)}  # a repeated name reads its last column
        if not at.keys() >= self._degrees.keys():
            raise MissingVariableError(tuple(v for v in self.variables if v not in at))
        if not rows:
            return []
        totals = None
        for coeff, exponents in self.monomials:
            term = None
            for v, e in exponents:
                column = map(itemgetter(at[v]), rows)
                if e != 1:
                    column = map(e.__rpow__, column)
                term = column if term is None else map(mul, term, column)
            if coeff != 1:
                term = map(coeff.__mul__, term)
            totals = term if totals is None else map(add, totals, term)
        return list(totals)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(self.monomials)

    def __str__(self) -> str:
        parts = []
        for c, exponents in self.monomials:
            monic = _monic_text(exponents)
            parts.append(" - " if c < 0 else " + ")
            parts.append(monic if c == 1 or c == -1 else f"{abs(c)}*{monic}")
        parts[0] = "-" if parts[0] == " - " else ""  # the first term's sign
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _table(monomials: list, degrees: dict[str, int], totals: set) -> Polynomial:
    """The polynomial of its canonical monomials, the degree of each
    variable and the set of total degrees."""
    coefficients = tuple([c for c, _ in monomials])
    p = _new(Polynomial)
    _set_monomials(p, tuple(monomials))
    _set_variables(p, tuple(sorted(degrees)))
    _set_coefficients(p, coefficients)
    _set_is_linear(p, totals == {1})
    _set_is_lev(p, max(degrees.values()) == 1)  # every exponent is 1
    _set_is_homogeneous(p, len(totals) == 1)
    _set_is_one_signed(p, min(coefficients) > 0 or max(coefficients) < 0)
    _set_degrees(p, degrees)
    for unset in _SET_FACTS:
        unset(p, None)
    return p


def _build(terms: Iterable[tuple[int, tuple[tuple[str, int], ...]]]) -> tuple[Polynomial | None, int]:
    """The polynomial of (coefficient, exponent tuple) terms, or None when
    every term cancels, and the constant term.  Each exponent tuple must be
    canonical: (variable name, exponent >= 1) pairs sorted by distinct
    names, as ``_exponents`` makes them; the empty tuple is a constant.

    Like terms are summed under their exponent tuple.  One pass over the
    sums then keys each nonzero term for the canonical order, makes its
    ``Monomial`` past validation, raises the degree of each variable and
    collects the total degrees, and the monomials are sorted once by key.

    The key is the pairs as name, negated exponent, then a name greater than
    every variable name.  The first name at which two monomials' exponent
    vectors differ is the first difference of their keys, either in the
    negated exponent or in a name that only the monomial with it present has
    at that place, and that monomial comes first: sorted by key, the terms
    are in descending pure-lexicographic order of their vectors over any
    sorted list of names."""
    sums: dict[tuple[tuple[str, int], ...], int] = {}
    for coeff, exponents in terms:
        if exponents in sums:
            coeff += sums[exponents]
        sums[exponents] = coeff
    constant = sums.pop((), 0)
    degrees: dict[str, int] = {}
    totals = set()
    ordered = []
    for exponents, coeff in sums.items():
        if coeff == 0:
            continue
        if len(exponents) == 1:
            (v, e), = exponents
            total = e
            key = (v, -e, "{")  # "{" sorts after "z", so after every name
            if e > degrees.get(v, 0):
                degrees[v] = e
        else:
            total = 0
            key = ()
            for v, e in exponents:
                total += e
                key += (v, -e)
                if e > degrees.get(v, 0):
                    degrees[v] = e
            key += ("{",)
        totals.add(total)
        ordered.append((key, _record(Monomial, (coeff, exponents))))
    if not ordered:
        return None, constant
    # by the key alone: list.sort then compares the keys' str first items directly
    ordered.sort(key=_first)
    return _table([m for _, m in ordered], degrees, totals), constant


def _polynomial(terms: Iterable[tuple[int, tuple[tuple[str, int], ...]]]) -> Polynomial:
    """``_build``'s polynomial of terms whose constant term is 0."""
    p, constant = _build(terms)
    if constant != 0:
        raise ConstantTermError(constant)
    if p is None:
        raise EmptyPolynomialError()
    return p


def _exponents(exps: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    """The canonical exponent tuple of {variable: exponent}: its pairs sorted
    by name, zero powers dropped."""
    if 0 in exps.values():
        exps = {v: e for v, e in exps.items() if e != 0}
    # one pair is sorted already
    return tuple(exps.items()) if len(exps) == 1 else tuple(sorted(exps.items()))


_new = object.__new__  # a Polynomial with no field set yet
_record = tuple.__new__  # _record(Monomial, (coefficient, exponents)) skips validation
_first = itemgetter(0)
# Each slot descriptor's own setter writes its field past the immutability
# guard, and costs less than ``object.__setattr__``, which looks the field up.
(_set_monomials, _set_variables, _set_coefficients, _set_is_linear, _set_is_lev,
 _set_is_homogeneous, _set_is_one_signed, _set_degrees, *_SET_FACTS) = [
    Polynomial.__dict__[name].__set__ for name in Polynomial.__slots__
]


def _degree_profile(p: Polynomial) -> DegreeProfile:
    """The degree data of p, read off the degree of each variable in p and
    in each monomial; ``Polynomial.degree_profile`` keeps it."""
    nonlinear = tuple([v for v in p.variables if p.degree_of(v) >= 2])
    levels = tuple([
        max([p.degree_of(v) - m.degree_of(v) for v in nonlinear], default=0)
        for m in p.monomials
    ])
    mults = tuple([max(1, l) for l in levels])
    return DegreeProfile(max(p._degrees.values()), nonlinear, levels, mults)


# -- shapes that the classifier and the checks both read ---------------------


def negate_all_variables(p: Polynomial) -> Polynomial:
    """P(-x1,...,-xn): monomials of odd total degree flip sign."""
    return Polynomial.from_terms(
        (
            (-m.coefficient if m.degree % 2 else m.coefficient),
            m.exponent_map(),
        )
        for m in p.monomials
    )


def _is_two_variable_difference(p: Polynomial) -> bool:
    """c*(x - y): the lone linear PR shape without injective solutions."""
    return (
        len(p.coefficients) == 2
        and p.is_linear
        and p.coefficients[0] == -p.coefficients[1]
    )


def _multiplicative_sides(p: Polynomial) -> Optional[tuple[Monomial, Monomial]]:
    """Match the shape prod(x_i^{a_i}) - prod(y_j^{b_j}): exactly two
    monomials, coefficients (1,-1) up to global sign, disjoint supports."""
    if len(p.monomials) != 2:
        return None
    m1, m2 = p.monomials
    if {m1.coefficient, m2.coefficient} != {1, -1}:
        return None
    if set(m1.variables) & set(m2.variables):
        return None
    return (m1, m2) if m1.coefficient == 1 else (m2, m1)


# -- parsing ---------------------------------------------------------------
#
# The grammar; whitespace between tokens is skipped:
#
#   polynomial := ['+' | '-'] term (('+' | '-') term)*
#   term       := integer | [integer ['*']] variable ['^' integer] ('*' factor)*
#   factor     := variable ['^' integer]
#
# A bare integer is a constant term, and an integer is any run of Unicode
# decimal digits, as int() reads them.  ``_parse_terms`` cuts the text at its
# signs, which occur only between terms, and reads each term on its own: a
# bare variable or ``integer*variable`` with string tests, any other term
# with one match of _TERM_RE.  A text with a term that does not match, or an
# empty term where a term belongs, goes to the descent ``_descend``, which
# gives the error.  The descent cuts the text into tokens in one scan, each a
# match of one group of _TOKEN_RE: an integer, a variable, an operator, or a
# character that starts no token, and then walks the token columns by index.
# Positions are needed only for errors, so _syntax_error scans again to find
# them.  The patterns use no syntax newer than Python 3.10 (no atomic groups
# or possessive quantifiers).  The cut matches one character, and no two
# optional runs of whitespace in a pattern are adjacent, so a text that does
# not match fails in linear time.

_FACTOR = _NAME + r"(?:\s*\^\s*\d+)?"
_FACTORS = _FACTOR + r"(?:\s*\*\s*" + _FACTOR + r")*"
_SIGN_RE = re.compile(r"([-+])")
# one whole term, stripped: an optional coefficient and its factors, or a
# constant
_TERM_RE = re.compile(r"(?:(\d+)(?:\s*\*)?\s*)?(" + _FACTORS + r")|(\d+)")
_FACTOR_RE = re.compile(r"(" + _NAME + r")(?:\s*\^\s*(\d+))?")
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(" + _NAME + r")|([-+*^])|(\S))")


def _syntax_error(text: str, index: int, expected: str) -> PolySyntaxError:
    """The error at token ``index`` of ``text``, or at the end of the input
    when the text has fewer tokens; a token's position is where it starts."""
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if i == index:
            return PolySyntaxError(m.start(m.lastindex), expected, repr(m[m.lastindex]))
    return PolySyntaxError(len(text), expected, "end of input")


def _parse_terms(text: str) -> list[tuple[int, tuple[tuple[str, int], ...]]]:
    """The (coefficient, exponent tuple) terms of ``text`` in order, each
    exponent tuple canonical (``_exponents``): like variables inside a term
    summed, zero powers dropped; a constant term has the empty tuple.  A
    ``[c*]name`` term is keyed without a dict."""
    pieces = _SIGN_RE.split(text)  # term, sign, term, ..., sign, term
    if pieces[0].strip():
        pieces.insert(0, "+")
    elif len(pieces) > 1:  # a leading sign
        del pieces[0]
    else:
        return _descend(text)
    terms: list[tuple[int, tuple[tuple[str, int], ...]]] = []
    for sign, body in zip(pieces[::2], pieces[1::2]):
        body = body.strip()  # str.strip and \s know the same whitespace
        digits, star, name = body.partition("*")
        # a variable name is an ASCII identifier that starts with a letter
        if not star and body.isascii() and body.isidentifier() and body[0] != "_":
            coeff, exponents = 1, ((body, 1),)
        elif star and digits.isdecimal() and name.isascii() and name.isidentifier() and name[0] != "_":
            coeff, exponents = int(digits), ((name, 1),)
        else:
            term = _TERM_RE.fullmatch(body)
            if term is None:
                return _descend(text)
            digits, factors, constant = term.groups()
            digits = digits or constant
            coeff, exps = int(digits) if digits else 1, {}
            for name, e in _FACTOR_RE.findall(factors or ""):
                exps[name] = exps.get(name, 0) + (int(e) if e else 1)
            exponents = _exponents(exps)
        terms.append((-coeff if sign == "-" else coeff, exponents))
    return terms


def _descend(text: str) -> list[tuple[int, tuple[tuple[str, int], ...]]]:
    """``_parse_terms`` by a descent over tokens; it raises the
    ``PolySyntaxError`` of a text outside the grammar."""
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
    terms: list[tuple[int, tuple[tuple[str, int], ...]]] = []
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
        terms.append((coeff, _exponents(exps)))
        if i == end:
            return terms
        op = ops[i]
        if op != "+" and op != "-":
            raise _syntax_error(text, i, "'+' or '-'")
        i += 1


def parse(text: str) -> Polynomial:
    """Parse text into canonical form; constant terms are an error."""
    return _polynomial(_parse_terms(text))


def parse_with_constant(text: str) -> tuple[Polynomial, int]:
    """Parse, splitting off the constant term (for the affine classifier)."""
    p, constant = _build(_parse_terms(text))
    if p is None:
        raise EmptyPolynomialError(constant)
    return p, constant
