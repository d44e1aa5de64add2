"""Bundled fixture corpus: golden classification expectations.

The corpus lives in ``fixtures.txt`` as plain text (one polynomial per line
with its expected verdict and a short reference) so the expectations are
reviewable without running anything.  ``run_corpus`` classifies every fixture
and diffs the outcome against the golden columns.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Any, Optional

from .classify import classify
from .poly import parse

__all__ = ["Fixture", "CorpusResult", "load_fixtures", "run_corpus"]


class Fixture(namedtuple("Fixture", ["text", "status", "theorem", "injective", "reference"])):
    """Fixture(text, status, theorem, injective, reference)"""

    __slots__ = ()  # every field a str; theorem is "-" when no certificate is expected


class CorpusResult(namedtuple("CorpusResult", ["fixture", "canonical", "profile", "status", "theorem",
                                               "injective", "notes", "ms"])):
    """CorpusResult(fixture, canonical, profile, status, theorem, injective, notes, ms)"""

    # fixture: Fixture, profile: dict[str, Any], notes: tuple[str, ...],
    # ms: float, the others str
    __slots__ = ()

    @property
    def match(self) -> bool:
        return (
            self.status == self.fixture.status
            and self.theorem == self.fixture.theorem
            and self.injective == self.fixture.injective
        )

    def diff(self) -> list[str]:
        lines = []
        for name, got, want in (
            ("status", self.status, self.fixture.status),
            ("certificate", self.theorem, self.fixture.theorem),
            ("injective", self.injective, self.fixture.injective),
        ):
            if got != want:
                lines.append(f"{self.fixture.text}: {name} expected {want}, got {got}")
        return lines

    def to_json(self) -> dict[str, Any]:
        return {
            "input": self.fixture.text,
            "canonical": self.canonical,
            "profile": self.profile,
            "expected": {
                "status": self.fixture.status,
                "certificate": self.fixture.theorem,
                "injective": self.fixture.injective,
            },
            "got": {
                "status": self.status,
                "certificate": self.theorem,
                "injective": self.injective,
            },
            "match": self.match,
            "reference": self.fixture.reference,
            "ms": int(self.ms),
        }


def load_fixtures(path: Optional[str] = None) -> list[Fixture]:
    if path is None:
        from importlib import resources  # only the bundled corpus needs it

        text = resources.files("rado_forge").joinpath("fixtures.txt").read_text()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    fixtures = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 5:
            raise ValueError(f"malformed fixture line: {line!r}")
        fixtures.append(Fixture(*fields))
    return fixtures


def run_corpus(path: Optional[str] = None) -> list[CorpusResult]:
    results = []
    for fixture in load_fixtures(path):
        started = time.perf_counter()
        try:
            p = parse(fixture.text)
        except ValueError as exc:
            raise ValueError(f"fixture {fixture.text!r}: {exc}") from exc
        verdict = classify(p)
        ms = (time.perf_counter() - started) * 1000
        prof = p.degree_profile()
        results.append(
            CorpusResult(
                fixture,
                str(p),
                {
                    "partial_degree": prof.partial_degree,
                    "nonlinear": list(prof.nonlinear),
                    "levels": list(prof.levels),
                    "multiplicities": list(prof.multiplicities),
                },
                verdict.status,
                verdict.certificate.theorem if verdict.certificate else "-",
                verdict.injective,
                verdict.notes,
                ms,
            )
        )
    return results
