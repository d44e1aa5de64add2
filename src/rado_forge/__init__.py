"""Partition-regularity analysis toolkit for integer polynomials."""

from .check import replay_certificate
from .classify import Certificate, Verdict, classify, rado_condition
from .poly import (
    ConstantTermError,
    DegreeProfile,
    EmptyPolynomialError,
    MissingVariableError,
    Monomial,
    Polynomial,
    PolySyntaxError,
    monomial_gcd,
    parse,
    parse_with_constant,
)
from .search import Coloring, SearchOutcome, find_bad_coloring, rado_number
from .witness import Witness, build_witness

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Coloring",
    "ConstantTermError",
    "DegreeProfile",
    "EmptyPolynomialError",
    "MissingVariableError",
    "Monomial",
    "Polynomial",
    "PolySyntaxError",
    "SearchOutcome",
    "Verdict",
    "Witness",
    "build_witness",
    "classify",
    "find_bad_coloring",
    "monomial_gcd",
    "parse",
    "parse_with_constant",
    "rado_condition",
    "rado_number",
    "replay_certificate",
    "__version__",
]
