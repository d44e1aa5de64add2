"""Byte-for-byte pins of the certificate and witness output.

``golden_cli.json`` holds, for every corpus fixture and for the paper's two
headline forms, the exit code and the exact stdout of ``classify --json`` in
rings N and Z and of ``witness --json``; then the same commands without
``--json``, and the three verdict lines of ``search --threshold``; last,
``search --N`` in ``--json`` and text form, on bad colorings, a Forced
outcome, an injective search and an Inconclusive one.  The three times a
search reports (``ms``, ``enumerate_ms`` and ``search_ms``) are masked to 0
in the recorded stdout; nothing else is.  So any change to a verdict, a
certificate, a trace line, a note, a witness, a coloring, a count or a
printed line shows here as a diff.  Regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` only for an intended change of
output, and say so with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

from rado_forge.cli import main
from rado_forge.corpus import load_fixtures

GOLDEN = Path(__file__).with_name("golden_cli.json")

EXTRA = ["x1*y1+x2*y1*y2-x3", "x1+x2-y1*y2"]


def _inputs() -> list[str]:
    texts = [f.text for f in load_fixtures()] + EXTRA
    return list(dict.fromkeys(texts))


# search --threshold: a threshold found, none up to MAXN, and a budget that ran out
THRESHOLDS = [
    ["--colors", "2", "--threshold", "10"],
    ["--colors", "2", "--threshold", "4"],
    ["--colors", "3", "--threshold", "20", "--budget", "100"],
]

# search --N: Forced, bad colorings at 2 and 3 colors, of the paper's form
# and injective, and a budget that ran out
SEARCHES = [
    ["x+y-z", "--colors", "2", "--N", "4"],
    ["x+y-z", "--colors", "2", "--N", "5"],
    ["x1+x2+x3-x4", "--colors", "3", "--N", "20"],
    ["x1*y1+x2*y1*y2-x3", "--colors", "2", "--N", "20"],
    ["x1+x2-y1*y2", "--colors", "2", "--N", "10", "--injective"],
    ["x+y-z", "--colors", "4", "--N", "44", "--budget", "1000"],
]

# the times a search reports, as "ms": 3 in JSON and as ms=3 in text
TIMINGS = re.compile(r'((?:"|\b)(?:ms|enumerate_ms|search_ms)(?:": |=))\d+')


def _argvs() -> list[list[str]]:
    argvs = []
    for text in _inputs():
        argvs.append(["classify", "--json", "--ring", "N", "--", text])
        argvs.append(["classify", "--json", "--ring", "Z", "--", text])
        argvs.append(["witness", "--json", "--", text])
    for text in _inputs():
        argvs.append(["classify", "--ring", "N", "--", text])
        argvs.append(["classify", "--ring", "Z", "--", text])
        argvs.append(["witness", "--", text])
    argvs.extend(["search", *options, "--", "x+y-z"] for options in THRESHOLDS)
    for text, *options in SEARCHES:
        argvs.append(["search", "--json", *options, "--", text])
        argvs.append(["search", *options, "--", text])
    return argvs


def _record(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": TIMINGS.sub(r"\g<1>0", out.getvalue())}


def records() -> list[dict]:
    return [_record(argv) for argv in _argvs()]


def test_cli_json_matches_golden_bytes():
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == _argvs()
    for g in golden:
        assert _record(g["argv"]) == g, g["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(records(), indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
