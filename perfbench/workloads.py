"""Seeded inputs for the three workloads and the task that runs each input.

A task's ``run`` calls into the library through module attributes looked up at
call time (so the traced run sees every call); ``check`` judges the output
with ``oracles`` only.  Every workload is a fixed instance set: the seed
chooses spellings (variable names, term and factor order, the sign of the
whole polynomial), the task order of each pass and the generated linear forms,
never which instances run.
"""

from __future__ import annotations

import io
import json
import random
import string
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import oracles

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "rado_forge" / "fixtures.txt"

# Distinct spellings of each certify input; pass i uses spelling i mod VARIANTS.
VARIANTS = 8
# Generated linear forms: one partition regular and one not, per length.
LINEAR_LENGTHS = range(8, 17)
# Modulus of the not-PR construction; above the longest form.
NOT_PR_MODULUS = 17
# Node budget of the Schur r=4, N=44 task.  A bad colouring exists (S(4)=44),
# but the seed-commit kernel stops Inconclusive within this budget.
S4_BUDGET = 250_000
# Passes of a 30-second run, fixed so that a run's sample count, and so the
# rank of each percentile, does not change with the code's speed.  At the
# seed commit each count took about 30 s of wall time on 2 cores.
PASSES_PER_30_S = {"certify": 420, "threshold-scan": 13, "bad-coloring": 7}

LIFT = {"RadoLinear": "reduct", "Thm3.5": "reduct", "Thm4.2": "nlp"}

_NAME_POOL = [a + b for a in string.ascii_lowercase for b in ("",) + tuple("0123456789")]


def respell(terms: oracles.Terms, rng: random.Random) -> tuple[str, oracles.Terms]:
    """Rename variables, shuffle terms and factors and maybe negate the whole
    polynomial.  Returns the text and its terms under the new names."""
    names = sorted(oracles.variables(terms))
    rename = dict(zip(names, rng.sample(_NAME_POOL, len(names))))
    sign = rng.choice((1, -1))
    out: oracles.Terms = [
        (sign * c, {rename[v]: e for v, e in exps.items()}) for c, exps in terms
    ]
    rng.shuffle(out)
    pieces = []
    for c, exps in out:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in exps.items()]
        rng.shuffle(factors)
        if abs(c) != 1:
            factors.insert(0, str(abs(c)))
        pieces.append(("- " if c < 0 else "+ ") + "*".join(factors))
    text = " ".join(pieces)
    return (text[2:] if text.startswith("+") else "-" + text[2:]), out


def _linear_terms(coeffs: list[int]) -> oracles.Terms:
    return [(c, {f"x{i}": 1}) for i, c in enumerate(coeffs, start=1)]


def planted_pr(rng: random.Random, k: int) -> list[int]:
    """k nonzero coefficients from [-9, 9], except the one that closes a
    planted zero-sum subset of 2 to 4 of them."""
    while True:
        coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in range(k)]
        chosen = rng.sample(range(k), rng.randint(2, 4))
        last = -sum(coeffs[i] for i in chosen[:-1])
        if last != 0:
            coeffs[chosen[-1]] = last
            return coeffs


def constructed_not_pr(rng: random.Random, k: int) -> list[int]:
    """k coefficients of both signs, each 1 mod NOT_PR_MODULUS: a subset of
    size s sums to s mod the modulus, never 0, since k < NOT_PR_MODULUS."""
    coeffs = [NOT_PR_MODULUS * rng.randint(-3, 2) + 1 for _ in range(k)]
    coeffs[0] = NOT_PR_MODULUS * rng.randint(-3, -1) + 1
    return coeffs


@dataclass(frozen=True)
class CertifyTask:
    label: str
    text: str
    terms: oracles.Terms
    status: str
    theorem: str  # "-" when no certificate is expected
    injective: str
    lift: bool  # generated forms are not lifted, see README "Deviations"

    def run(self, lib) -> Any:
        p = lib.poly.parse(self.text)
        verdict = lib.classify.classify(p)
        replayed = lib.classify.replay_certificate(p, verdict)
        cert = verdict.certificate
        method = LIFT.get(cert.theorem) if cert is not None and self.lift else None
        lifted = lib.witness.build_witness(p, method=method) if method else []
        return verdict, replayed, [w.assignment for w in lifted]

    def check(self, out: Any) -> tuple[bool, bool]:
        verdict, replayed, lifted = out
        cert = verdict.certificate
        theorem = cert.theorem if cert is not None else "-"
        ok = (
            (verdict.status, theorem, verdict.injective)
            == (self.status, self.theorem, self.injective)
            and replayed is True
            and len(lifted) == (1 if self.lift and theorem in LIFT else 0)
            and all(oracles.witness_ok(self.terms, a) for a in lifted)
        )
        if ok and theorem == "RadoLinear":
            coeffs, j = cert.payload["coefficients"], cert.payload["J"]
            ok = (
                sorted(coeffs) == sorted(c for c, _ in self.terms)
                and len(set(j)) == len(j) > 0
                and all(1 <= i <= len(coeffs) for i in j)
                and sum(coeffs[i - 1] for i in j) == 0
            )
        return ok, ok and verdict.status != "UNKNOWN"


@dataclass(frozen=True)
class ThresholdTask:
    label: str
    text: str
    r: int
    injective: bool
    threshold: int

    def run(self, lib) -> Any:
        # "--" because argparse reads a leading "-h9 ..." as the -h option
        argv = ["search", "--colors", str(self.r),
                "--threshold", str(self.threshold + 1), "--json"]
        if self.injective:
            argv.append("--injective")
        argv += ["--", self.text]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = lib.cli.main(argv)
        return code, stdout.getvalue()

    def check(self, out: Any) -> tuple[bool, bool]:
        code, stdout = out
        if code != 0:
            return False, False
        payload = json.loads(stdout)
        ok = (
            payload.get("threshold") == self.threshold
            and payload.get("r") == self.r
            and payload.get("injective") is self.injective
        )
        return ok, ok


@dataclass(frozen=True)
class BadColoringTask:
    label: str
    text: str
    terms: oracles.Terms
    r: int
    n: int
    injective: bool
    budget: Optional[int]

    def run(self, lib) -> Any:
        p = lib.poly.parse(self.text)
        kwargs = {} if self.budget is None else {"budget": self.budget}
        outcome = lib.search.find_bad_coloring(p, self.r, self.n, self.injective, **kwargs)
        colors = list(outcome.coloring.colors) if outcome.coloring else None
        return outcome.kind, colors

    def check(self, out: Any) -> tuple[bool, bool]:
        kind, colors = out
        if kind == "inconclusive":
            return colors is None, False
        if kind != "bad_coloring" or colors is None:
            return False, False  # a bad colouring exists, so Forced is wrong
        return oracles.bad_coloring_ok(self.terms, colors, self.r, self.n, self.injective), True


def _fixtures() -> list[tuple[str, str, str, str]]:
    rows = []
    for line in FIXTURES.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            text, status, theorem, injective, _reference = (f.strip() for f in line.split("|"))
            rows.append((text, status, theorem, injective))
    return rows


def certify_inputs(rng: random.Random) -> list[list[CertifyTask]]:
    """VARIANTS spellings of one pass: the corpus fixtures plus one PR and one
    NOT_PR generated linear form per length in LINEAR_LENGTHS."""
    fixtures = _fixtures()
    passes = []
    for _ in range(VARIANTS):
        tasks = []
        for text, status, theorem, injective in fixtures:
            spelled, terms = respell(oracles.read_terms(text), rng)
            tasks.append(CertifyTask(text, spelled, terms, status, theorem, injective, True))
        for k in LINEAR_LENGTHS:
            for coeffs in (planted_pr(rng, k), constructed_not_pr(rng, k)):
                pr = oracles.has_zero_sum_subset(coeffs)
                spelled, terms = respell(_linear_terms(coeffs), rng)
                tasks.append(CertifyTask(
                    f"generated {'PR' if pr else 'NOT_PR'} k={k}", spelled, terms,
                    "PR" if pr else "NOT_PR",
                    "RadoLinear" if pr else "LinearNecessity",
                    "yes" if pr else "no",
                    False,
                ))
        passes.append(tasks)
    return passes


def threshold_inputs(rng: random.Random) -> list[list[ThresholdTask]]:
    tasks = []
    for text, r, injective, threshold, _citation in oracles.THRESHOLDS:
        spelled, _ = respell(oracles.read_terms(text), rng)
        label = f"{text} r={r}{' injective' if injective else ''} threshold"
        tasks.append(ThresholdTask(label, spelled, r, injective, threshold))
    return [tasks]


def bad_coloring_inputs(rng: random.Random) -> list[list[BadColoringTask]]:
    tasks = []
    for text, r, n, injective, _citation in oracles.BAD_COLORING_EXISTS:
        budget = S4_BUDGET if (text, r, n) == ("x+y-z", 4, 44) else None
        spelled, terms = respell(oracles.read_terms(text), rng)
        label = f"{text} r={r} N={n}{' injective' if injective else ''}"
        tasks.append(BadColoringTask(label, spelled, terms, r, n, injective, budget))
    return [tasks]


WORKLOADS = {
    "certify": certify_inputs,
    "threshold-scan": threshold_inputs,
    "bad-coloring": bad_coloring_inputs,
}
