"""Command-line front-end: classify, witness, search, corpus.

Exit codes are a stable API for scripted pipelines:

  classify   0 = PR, 1 = NOT_PR, 2 = UNKNOWN
  witness    0 = witness printed, 3 = method hypotheses not met
  search     0 = conclusive (bad coloring found / forced proven / threshold
                 found), 1 = threshold not found within the bound,
                 4 = node budget exhausted (Inconclusive); a --threshold
                 scan then knows only "threshold > depth_max" and says so
  corpus     0 = golden match, 5 = mismatch (diff printed)
  2 = malformed arguments (argparse usage error, a count or budget that is
      not a positive integer, a ``corpus --file`` that cannot be read, has a
      malformed line or holds a polynomial that does not parse, or
      ``classify --allow-constant`` on a form with a nonzero constant that
      is nonlinear or goes with ``--ring Z``), 64 = malformed polynomial
      (position diagnostics), 70 = internal error, or a reader that closed
      stdout before the output was written (no traceback)

Exit 2 is both classify's UNKNOWN and a usage error, so a malformed
``classify`` command line (``classify "x+y-z" --ring Q``) reads as UNKNOWN.
The codes are frozen; a script that must tell the two apart reads the
``status`` field of ``classify --json``, which a usage error never prints.

``main`` hands the arguments after a command name straight to that
command's own parser, so a command line is parsed once, not by the full
parser and then again by the command's.  The full parser reads the command
line only when there is none, when it starts with a top-level option such
as ``-h``, when the command is unknown, and when the command's parser
leaves arguments over, so that every answer, usage errors and help
included, is the full parser's to the byte.  Parsing twice cost about 30
microseconds more than parsing once, against half a millisecond for a
whole threshold command in a process that runs many of them (Python 3.11,
2 cores).

RADO_FORGE_BUDGET overrides the default search node budget.  A polynomial
that starts with "-" goes after "--", as in
``rado-forge search --colors 2 --N 5 -- "-h9 - p8 + q3"``; otherwise argparse
reads "-h9" as the -h option.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Optional

from . import corpus as corpus_mod
from .check import NOT_PR, PR, UNKNOWN
from .classify import classify, classify_affine
from .poly import (
    ConstantTermError,
    EmptyPolynomialError,
    Polynomial,
    PolySyntaxError,
    parse,
    parse_with_constant,
)
from .search import (  # noqa: F401 - perfbench/tracing.py wraps cli.rado_number
    DEFAULT_NODE_BUDGET,
    FORCED,
    INCONCLUSIVE,
    find_bad_coloring,
    rado_number,
)
from .solutions import SearchSpaceTooLargeError
from .witness import HypothesisFailure, build_witness

EXIT_PR = 0
EXIT_NOT_PR = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 2  # argparse's code for malformed argv
EXIT_METHOD_INAPPLICABLE = 3
EXIT_INCONCLUSIVE = 4
EXIT_CORPUS_MISMATCH = 5
EXIT_PARSE_ERROR = 64
EXIT_ERROR = 70

_STATUS_EXIT = {PR: EXIT_PR, NOT_PR: EXIT_NOT_PR, UNKNOWN: EXIT_UNKNOWN}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _default_budget() -> int:
    raw = os.environ.get("RADO_FORGE_BUDGET")
    if not raw:
        return DEFAULT_NODE_BUDGET
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        print(f"rado-forge: error: RADO_FORGE_BUDGET: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_SCALARS = {str, int, float, bool, type(None)}
# json.dumps(indent=2, sort_keys=True) writes a dict of scalars alone as its
# items, each on its own line; the C encoder, which takes no indent, writes
# them so when the indent goes into the item separator
_FLAT = json.JSONEncoder(sort_keys=True, separators=(",\n  ", ": "))


def _emit(payload: dict[str, Any]) -> None:
    if payload and all(type(value) in _SCALARS for value in payload.values()):
        print("{\n  " + _FLAT.encode(payload)[1:-1] + "\n}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_or_exit(text: str, allow_constant: bool) -> tuple[Polynomial, int]:
    try:
        if allow_constant:
            return parse_with_constant(text)
        return parse(text), 0
    except PolySyntaxError as exc:
        print(f"parse error {exc}", file=sys.stderr)
        here = " " * exc.position + "^"
        print(f"  {text}\n  {here}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE_ERROR)
    except (ConstantTermError, EmptyPolynomialError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE_ERROR)


def cmd_classify(args: argparse.Namespace) -> int:
    p, constant = _parse_or_exit(args.polynomial, args.allow_constant)
    if constant != 0 and (args.ring != "N" or not p.is_linear):
        reason = (
            "is classified over the positive integers only, not with --ring Z"
            if args.ring != "N"
            else f"must be linear, and {p} is not"
        )
        print(f"rado-forge: error: --allow-constant: a form with a nonzero constant {reason}",
              file=sys.stderr)
        return EXIT_USAGE
    if constant != 0:
        verdict = classify_affine(p, constant)
        canonical = f"{p} {'+' if constant > 0 else '-'} {abs(constant)}"
    else:
        verdict = classify(p, ring=args.ring)
        canonical = str(p)
    if args.json:
        _emit(verdict.to_json(args.polynomial, canonical, args.ring))
    else:
        print(f"polynomial : {canonical}")
        ring = "positive integers" if args.ring == "N" else "nonzero integers"
        print(f"status     : {verdict.status} (over the {ring})")
        print(f"injective  : {verdict.injective}")
        if verdict.certificate:
            print(f"certificate: {verdict.certificate.theorem}")
            for key, value in sorted(verdict.certificate.payload.items()):
                print(f"  {key} = {value}")
        for line in verdict.trace:
            print(f"trace: {line}")
        for note in verdict.notes:
            print(f"note : {note}")
    return _STATUS_EXIT[verdict.status]


def cmd_witness(args: argparse.Namespace) -> int:
    p, _ = _parse_or_exit(args.polynomial, False)
    try:
        witnesses = build_witness(
            p,
            method=args.method,
            n_bound=args.n_bound,
            injective=args.injective,
            limit=args.limit,
        )
    except HypothesisFailure as exc:
        if args.json:
            _emit({"schema": 1, "error": "hypotheses not met", "reasons": exc.reasons})
        else:
            print("no witness: method hypotheses not met", file=sys.stderr)
            for reason in exc.reasons:
                print(f"  {reason}", file=sys.stderr)
        return EXIT_METHOD_INAPPLICABLE
    if args.json:
        payload = [w.to_json() for w in witnesses]
        _emit(payload[0] if args.limit == 1 and len(payload) == 1 else
              {"schema": 1, "witnesses": payload})
    else:
        for w in witnesses:
            values = ", ".join(f"{v}={w.assignment[v]}" for v in sorted(w.assignment))
            print(f"witness ({w.provenance}, injective={str(w.injective).lower()}): {values}")
            print(f"  value = {w.value}")
            if w.trace.get("eta") is not None:
                print(f"  eta = {w.trace['eta']}")
            if w.trace.get("eta_i"):
                print(f"  eta_i = {w.trace['eta_i']}")
            for key in sorted(w.trace.get("gamma", {})):
                members = w.trace.get("I", {}).get(key)
                print(f"  gamma[{key}] = {w.trace['gamma'][key]}  I[{key}] = {members}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    p, _ = _parse_or_exit(args.polynomial, False)
    budget = args.budget if args.budget is not None else _default_budget()
    if args.threshold is not None:
        # rado_number's one search, called directly to tell a budget that
        # ran out from a bad coloring of [1..max_N]
        outcome = find_bad_coloring(p, args.colors, args.threshold, args.injective, budget)
        depth_max = outcome.stats.depth_max
        found = depth_max + 1 if outcome.kind == FORCED else None
        if args.json:
            _emit(
                {
                    "schema": 1,
                    "polynomial": str(p),
                    "r": args.colors,
                    "max_N": args.threshold,
                    "injective": args.injective,
                    "threshold": found,
                    "outcome": outcome.kind,
                    "depth_max": depth_max,
                }
            )
        elif found is not None:
            print(f"threshold: N = {found} is the least forced size for r={args.colors}")
        elif outcome.kind == INCONCLUSIVE:
            print(f"budget ran out: threshold > {depth_max} for r={args.colors}")
        else:
            print(f"no N <= {args.threshold} is forced for r={args.colors}")
        if outcome.kind == INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        return 0 if found is not None else 1
    outcome = find_bad_coloring(p, args.colors, args.n_bound, args.injective, budget)
    if args.json:
        _emit(outcome.to_json(str(p), args.colors, args.n_bound, args.injective))
    else:
        print(f"outcome: {outcome.kind}")
        if outcome.coloring is not None:
            print(f"coloring: {list(outcome.coloring.colors)}")
            for color, members in enumerate(outcome.coloring.classes()):
                print(f"  class {color}: {members}")
        stats = outcome.stats
        print(
            f"stats: nodes={stats.nodes} constraints={stats.constraints}"
            f" ms={int(stats.ms)} depth_max={stats.depth_max}"
            f" enumerate_ms={int(stats.enumerate_ms)} prunes={stats.prunes}"
            f" search_ms={int(stats.search_ms)} jumps={stats.jumps}"
        )
    return EXIT_INCONCLUSIVE if outcome.kind == INCONCLUSIVE else 0


def cmd_corpus(args: argparse.Namespace) -> int:
    try:
        if args.action == "list":
            fixtures = corpus_mod.load_fixtures(args.file)
        else:
            results = corpus_mod.run_corpus(args.file)
    except (OSError, ValueError) as exc:
        print(f"rado-forge: error: --file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.action == "list":
        if args.json:
            _emit(
                {
                    "schema": 1,
                    "fixtures": [
                        {
                            "polynomial": f.text,
                            "status": f.status,
                            "certificate": f.theorem,
                            "injective": f.injective,
                            "reference": f.reference,
                        }
                        for f in fixtures
                    ],
                }
            )
        else:
            for f in fixtures:
                print(f"{f.text:55s} {f.status:8s} {f.theorem:22s} {f.reference}")
        return 0
    all_match = all(r.match for r in results)
    if args.json:
        _emit(
            {
                "schema": 1,
                "fixtures": [r.to_json() for r in results],
                "all_match": all_match,
            }
        )
    else:
        for r in results:
            flag = "ok  " if r.match else "FAIL"
            print(f"{flag} {r.fixture.text:55s} {r.status:8s} {r.theorem}")
            for line in r.diff():
                print(f"     {line}")
        print(f"{'all fixtures match' if all_match else 'corpus mismatch'}")
    return 0 if all_match else EXIT_CORPUS_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing returns a new
    namespace and leaves the parser as it was."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and each subcommand's own parser, by command name."""
    parser = argparse.ArgumentParser(
        prog="rado-forge",
        description="Partition-regularity toolkit: classify polynomials, build "
        "solution witnesses, and search finite colorings for evidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a polynomial")
    c.add_argument("polynomial")
    c.add_argument("--ring", choices=["N", "Z"], default="N")
    c.add_argument("--allow-constant", action="store_true")
    c.add_argument("--json", action="store_true")
    c.set_defaults(handler=cmd_classify)

    w = sub.add_parser("witness", help="construct a verified solution witness")
    w.add_argument("polynomial")
    w.add_argument("--method", choices=["auto", "reduct", "nlp", "brute"], default="auto")
    w.add_argument("--N", dest="n_bound", type=_positive_int, default=20)
    w.add_argument("--injective", action="store_true")
    w.add_argument("--limit", type=_positive_int, default=1)
    w.add_argument("--json", action="store_true")
    w.set_defaults(handler=cmd_witness)

    s = sub.add_parser("search", help="search r-colorings of [1..N]")
    s.add_argument("polynomial")
    s.add_argument("--colors", type=_positive_int, required=True)
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--N", dest="n_bound", type=_positive_int)
    group.add_argument("--threshold", type=_positive_int, metavar="MAXN")
    s.add_argument("--injective", action="store_true")
    s.add_argument("--budget", type=_positive_int, default=None)
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=cmd_search)

    k = sub.add_parser("corpus", help="run or list the bundled fixture corpus")
    k.add_argument("action", choices=["run", "list"])
    k.add_argument("--file", default=None, help="alternate fixture file")
    k.add_argument("--json", action="store_true")
    k.set_defaults(handler=cmd_corpus)

    return parser, sub.choices


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:  # no argv, a top-level option or an unknown command
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:  # the full parser refuses them, in its own words
                args = parser.parse_args(argv)
        return args.handler(args)
    except SearchSpaceTooLargeError as exc:  # an enumeration over its candidate budget
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_ERROR


def run() -> None:  # console script entry
    try:
        code = main()
        sys.stdout.flush()  # a closed reader raises here, not at exit
    except BrokenPipeError:
        # stdout's reader is gone: what is left goes to devnull, so that the
        # flush at exit does not raise again (the Python docs' SIGPIPE note)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    run()
