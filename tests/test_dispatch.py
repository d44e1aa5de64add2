"""``cli.main`` hands a subcommand's argv to that subcommand's parser alone.

Every command line must answer as it does through the full parser: the
same standard output, standard error and exit code, help, usage errors,
abbreviated options, "--" and polynomials that start with "-" included.
The reference is ``build_parser().parse_args`` and the handler, with the
exit-code handling of ``main``.  The wall-clock times a search reports
(``ms``, ``enumerate_ms`` and ``search_ms``) differ between two runs, so
they are masked to 0 as in ``test_golden.py``; every other byte is compared.

The file needs no test dependency, so other interpreters run the same
table directly:

    PYTHONPATH=src python3.13 tests/test_dispatch.py
"""

import argparse
import contextlib
import io
import re
import sys

from rado_forge import cli
from rado_forge.solutions import SearchSpaceTooLargeError

X1X4 = "x1+x2+x3-x4"

ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--bogus"],
    ["-h", "search"],
    ["--", "search"],
    ["search"],
    ["search", "-h"],
    ["search", "--help"],
    ["search", "x+y-z", "--colors", "2"],  # neither --N nor --threshold
    ["search", "x+y-z", "--colors", "2", "--N", "4", "--threshold", "5"],
    ["search", "--col", "2", "--thr", "9", "x+y-z"],
    ["search", "--col", "2", "--thr", "9", "--js", "x+y-z"],
    ["search", "x+y-z", "--colors=2", "--N=4"],
    ["search", "x+y-z", "--colors", "0", "--N", "8"],
    ["search", "x+y-z", "--colors", "2", "--N", "0"],
    ["search", "--colors", "2", "--N", "5", "--", "-h9 - p8 + q3"],
    ["search", "--colors", "2", "--N", "5", "-h9 - p8 + q3"],  # read as -h
    ["search", "x+y-z", "--colors", "2", "--N", "5", "--workers", "3"],
    ["search", "x+y-z", "--colors", "2", "--N", "4", "--N", "5"],
    ["search", "x+y-z", "--colors", "2", "--N", "4", "--bogus"],
    ["search", "x+y-z", "extra", "--colors", "2", "--N", "4"],
    ["search", "--colors", "2", "--threshold", "12", "--json", "--", X1X4],
    ["search", "--colors", "2", "--threshold", "5", "--", X1X4],
    ["search", "x+y-z", "--colors", "3", "--N", "14", "--budget", "50"],
    ["search", "x + * y", "--colors", "2", "--N", "4"],
    ["classify"],
    ["classify", "x+y-z", "--ring", "Q"],
    ["classify", "x+y-z", "--json"],
    ["classify", "x+y-z", "--ring", "Z", "extra"],
    ["classify", "x + y - z + 1", "--allow-constant"],
    ["witness", "x+y-2*z", "--N", "6", "--json"],
    ["witness", "x+y-z", "--method", "bogus"],
    ["corpus", "bogus"],
    ["corpus", "-h"],
]


# the times a search reports, as "ms": 3 in JSON and as ms=3 in text
TIMINGS = re.compile(r'((?:"|\b)(?:ms|enumerate_ms|search_ms)(?:": |=))\d+')


def _answer(call, argv):
    """What ``call(argv)`` prints and returns, its times masked to 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(argv)
    return TIMINGS.sub(r"\g<1>0", out.getvalue()), err.getvalue(), code


def _full_parser(argv):
    try:
        args = cli.build_parser().parse_args(argv)
        return args.handler(args)
    except SearchSpaceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_ERROR
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else cli.EXIT_ERROR


def test_main_answers_as_the_full_parser():
    for argv in ARGVS:
        assert _answer(cli.main, list(argv)) == _answer(_full_parser, list(argv)), argv


def test_a_subcommand_argv_is_parsed_once():
    # the full parser would parse twice: its own argv, then the subcommand's
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    argparse.ArgumentParser.parse_known_args = counted
    try:
        _answer(cli.main, ["search", "--colors", "2", "--threshold", "12", "--json", "--", X1X4])
        assert calls == ["rado-forge search"]
        calls.clear()
        _answer(cli.main, ["classify", "x+y-z"])
        assert calls == ["rado-forge classify"]
    finally:
        argparse.ArgumentParser.parse_known_args = parse_known_args


if __name__ == "__main__":
    test_main_answers_as_the_full_parser()
    test_a_subcommand_argv_is_parsed_once()
    print(f"Python {sys.version.split()[0]}: {len(ARGVS)} command lines answer alike")
