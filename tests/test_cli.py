"""Command-line interface tests: exit codes, JSON schemas, corpus golden run."""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rado_forge.cli import (
    EXIT_CORPUS_MISMATCH,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_METHOD_INAPPLICABLE,
    EXIT_NOT_PR,
    EXIT_PARSE_ERROR,
    EXIT_PR,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    _emit,
    build_parser,
    main,
)
import rado_forge
from rado_forge.poly import parse
from rado_forge.search import Coloring, monochromatic_solution

VERDICT_SCHEMA = {
    "type": "object",
    "required": ["schema", "input", "canonical", "ring", "status", "injective", "certificate", "trace",
                 "notes"],
    "properties": {
        "schema": {"const": 1},
        "input": {"type": "string"},
        "canonical": {"type": "string"},
        "ring": {"enum": ["N", "Z"]},
        "status": {"enum": ["PR", "NOT_PR", "UNKNOWN"]},
        "injective": {"enum": ["yes", "no", "unknown"]},
        "certificate": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["theorem", "payload"],
                    "properties": {
                        "theorem": {"type": "string"},
                        "payload": {"type": "object"},
                    },
                },
            ]
        },
        "trace": {"type": "array", "items": {"type": "string"}},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}

WITNESS_SCHEMA = {
    "type": "object",
    "required": ["schema", "assignment", "value", "injective", "provenance", "trace"],
    "properties": {
        "schema": {"const": 1},
        "assignment": {"type": "object", "additionalProperties": {"type": "integer"}},
        "value": {"const": 0},
        "injective": {"type": "boolean"},
        "provenance": {"enum": ["ReductLift", "NlpLift", "BruteForce"]},
        "trace": {
            "type": "object",
            "required": ["eta", "eta_i", "gamma", "I"],
            "properties": {
                "eta": {"type": ["integer", "null"]},
                "eta_i": {"type": "array", "items": {"type": "integer"}},
                "gamma": {"type": "object", "additionalProperties": {"type": "integer"}},
                "I": {
                    "type": "object",
                    "additionalProperties": {"type": "array", "items": {"type": "integer"}},
                },
            },
        },
    },
}

OUTCOME_SCHEMA = {
    "type": "object",
    "required": ["schema", "polynomial", "r", "N", "injective", "outcome", "coloring", "stats"],
    "properties": {
        "schema": {"const": 1},
        "polynomial": {"type": "string"},
        "r": {"type": "integer"},
        "N": {"type": "integer"},
        "injective": {"type": "boolean"},
        "outcome": {"enum": ["bad_coloring", "forced", "inconclusive"]},
        "coloring": {
            "oneOf": [
                {"type": "null"},
                {"type": "array", "items": {"type": "integer"}},
            ]
        },
        "stats": {
            "type": "object",
            "required": ["nodes", "constraints", "ms", "depth_max"],
            "properties": {"search_ms": {"type": "integer", "minimum": 0}},
            "additionalProperties": {"type": "integer"},
        },
    },
}


def run_json(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


# -- classify ----------------------------------------------------------


def test_classify_exit_codes(capsys):
    assert main(["classify", "x1 + x2 - y1*y2"]) == EXIT_PR
    assert main(["classify", "x + y - 3*z"]) == EXIT_NOT_PR
    assert main(["classify", "x*y + x*z - y*z"]) == EXIT_UNKNOWN
    capsys.readouterr()


def test_module_entry_points_exit_as_the_console_script(capsys):
    # the console script is cli.run, which exits with main's code
    env = dict(os.environ, PYTHONPATH=str(Path(rado_forge.__file__).parents[1]))
    for argv, code in (
        (["classify", "x1 + x2 - y1*y2"], EXIT_PR),
        (["classify", "x*y + x*z - y*z"], EXIT_UNKNOWN),
        (["classify", "x + * y"], EXIT_PARSE_ERROR),
    ):
        assert main(argv) == code
        out = capsys.readouterr().out
        for module in ("rado_forge", "rado_forge.cli"):
            done = subprocess.run(
                [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
            )
            assert (done.returncode, done.stdout) == (code, out), (module, argv)


def test_exported_names_resolve():
    # the package's and every module's __all__ name only what is importable
    modules = {"rado_forge": rado_forge}
    for info in pkgutil.iter_modules(rado_forge.__path__):
        if info.name != "__main__":
            modules[info.name] = importlib.import_module(f"rado_forge.{info.name}")
    for module in modules.values():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
    # one home per name: no two submodules export the same name, and an
    # exported class or function was defined in the module that exports it
    homes: dict[str, str] = {}
    for key, module in modules.items():
        if key == "rado_forge":
            continue
        for name in getattr(module, "__all__", ()):
            assert homes.setdefault(name, key) == key, (name, homes[name], key)
            value = getattr(module, name)
            if callable(value):
                assert value.__module__ == module.__name__, (key, name, value.__module__)


def test_classify_unknown_carries_note(capsys):
    main(["classify", "x*y + x*z - y*z"])
    out = capsys.readouterr().out
    assert "partition regular" in out and "note" in out


def test_classify_parse_error(capsys):
    assert main(["classify", "x + * y"]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert "position 4" in err


def test_classify_constant_requires_flag(capsys):
    assert main(["classify", "x + y + 1"]) == EXIT_PARSE_ERROR
    assert main(["classify", "x + y + 1", "--allow-constant"]) == EXIT_NOT_PR
    assert main(["classify", "x + y - z + 1", "--allow-constant"]) == EXIT_PR
    capsys.readouterr()


@pytest.mark.parametrize("text", ["3", "x - x + 3"])
def test_classify_constant_only_input_names_the_constant(capsys, text):
    # only a constant is left; that is not "all terms cancelled"
    assert main(["classify", text, "--allow-constant"]) == EXIT_PARSE_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "parse error: only the constant 3 is left; a polynomial needs a variable\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_classify_constant_is_refused_over_the_nonzero_integers(capsys, json_flag):
    # the affine rule decides the positive integers only; over the nonzero
    # integers (-1, -1, -1) solves x + y + z + 3 in one color, so a NOT_PR
    # line there would be false
    argv = ["classify", "x+y+z+3", "--allow-constant", "--ring", "Z"] + json_flag
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rado-forge: error: ") and err.count("\n") == 1
    # a zero constant leaves the homogeneous form, which --ring Z decides
    assert main(["classify", "x+y-z+0", "--allow-constant", "--ring", "Z"] + json_flag) == EXIT_PR
    capsys.readouterr()


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_classify_constant_is_refused_on_a_nonlinear_form(capsys, json_flag):
    # the affine rule decides linear forms only; x^2 - y^2 + 1 used to end
    # in exit 70, the code of an internal error
    assert main(["classify", "x^2 - y^2 + 1", "--allow-constant"] + json_flag) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rado-forge: error: --allow-constant: ") and err.count("\n") == 1
    assert "x^2 - y^2 is not" in err


def test_classify_json_schema(capsys):
    for text in ["x1 + x2 - y1*y2", "x + y - 3*z", "x*y + x*z - y*z"]:
        for ring in ("N", "Z"):
            code, payload = run_json(capsys, ["classify", text, "--ring", ring, "--json"])
            jsonschema.validate(payload, VERDICT_SCHEMA)
            assert payload["ring"] == ring
            assert json.loads(json.dumps(payload)) == payload  # round-trips
    # a verdict without its ring, or over another ring, does not pass
    for bad in (dict(payload, ring="Q"), {k: v for k, v in payload.items() if k != "ring"}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, VERDICT_SCHEMA)


def test_classify_ring_z(capsys):
    code, payload = run_json(
        capsys, ["classify", "x1*y1 + x2*y2 + x3", "--ring", "Z", "--json"]
    )
    assert code == EXIT_PR
    assert payload["certificate"]["payload"]["sign_map"] == {
        "x1": -1, "x2": -1, "x3": -1, "y1": -1, "y2": -1
    }


# -- witness ----------------------------------------------------------


def test_witness_reduct(capsys):
    code, payload = run_json(
        capsys, ["witness", "x1 + x2 - y1*y2", "--method", "reduct", "--json"]
    )
    assert code == 0
    jsonschema.validate(payload, WITNESS_SCHEMA)
    assert payload["value"] == 0


def test_witness_nlp_has_gamma_trace(capsys):
    code, payload = run_json(
        capsys,
        ["witness", "t1*t2*x^2 + t3*t4*y^2 - t5*t6*z^2", "--method", "nlp", "--json"],
    )
    assert code == 0
    jsonschema.validate(payload, WITNESS_SCHEMA)
    assert payload["trace"]["eta"] is not None
    assert payload["trace"]["gamma"]


def test_witness_brute(capsys):
    code, payload = run_json(
        capsys,
        ["witness", "x + y - z^2", "--method", "brute", "--N", "10", "--limit", "5", "--json"],
    )
    assert code == 0
    found = {tuple(w["assignment"][v] for v in ("x", "y", "z")) for w in payload["witnesses"]}
    assert (1, 3, 2) in found


def test_witness_inapplicable_method(capsys):
    assert (
        main(["witness", "x*y + x*z - y*z", "--method", "reduct"])
        == EXIT_METHOD_INAPPLICABLE
    )
    err = capsys.readouterr().err
    assert "exclusive" in err


def test_witness_injective_lift_refused(capsys):
    # x - y = 0 forces x = y: the reduct lift succeeds but is not injective
    argv = ["witness", "x-y", "--method", "reduct", "--injective"]
    assert main(argv) == EXIT_METHOD_INAPPLICABLE
    assert capsys.readouterr().err == (
        "no witness: method hypotheses not met\n"
        "  default generators produced no injective witness\n"
    )
    code, payload = run_json(capsys, argv + ["--json"])
    assert code == EXIT_METHOD_INAPPLICABLE
    assert payload == {
        "schema": 1,
        "error": "hypotheses not met",
        "reasons": ["default generators produced no injective witness"],
    }


@pytest.mark.parametrize(
    "text", ["x1+x2+x3+x4+x5+x6", "-3*z -3*x*y -3*a^2*b -7*z -3*b*z*w"]
)
def test_witness_one_signed_form_answers_without_walking_the_grid(capsys, text):
    # every term has one sign, so no positive solution exists; the answer
    # used to come after walking all of [1..20]^(k-1), about 4 s each
    started = time.perf_counter()
    code = main(["witness", "--", text])
    elapsed = time.perf_counter() - started
    assert code == EXIT_METHOD_INAPPLICABLE
    assert capsys.readouterr().err == (
        "no witness: method hypotheses not met\n"
        "  no solutions with values in [1..20]\n"
    )
    assert elapsed < 0.5
    # the candidate budget is still checked first
    assert main(["witness", "--method", "brute", "--N", "1000", "--", text]) == EXIT_ERROR
    assert "exceed the budget" in capsys.readouterr().err


# -- search ----------------------------------------------------------


def test_search_threshold(capsys):
    code, payload = run_json(
        capsys, ["search", "x + y - z", "--colors", "2", "--threshold", "10", "--json"]
    )
    assert code == 0
    assert payload["threshold"] == 5
    assert (payload["outcome"], payload["depth_max"]) == ("forced", 4)


def test_search_threshold_not_found(capsys):
    code = main(["search", "x + y - 3*z", "--colors", "2", "--threshold", "6"])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "colors,max_n,budget,depth_max",
    [
        ("3", "20", "100", 12),  # the threshold is 14
        ("4", "45", "250000", 43),  # S(4) = 44: the threshold is 45
    ],
)
def test_search_threshold_budget_exhausted(capsys, colors, max_n, budget, depth_max):
    # a scan that ran out of budget knows only a lower bound, and says so
    argv = ["search", "x + y - z", "--colors", colors, "--threshold", max_n, "--budget", budget]
    assert main(argv) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert out == f"budget ran out: threshold > {depth_max} for r={colors}\n"
    code, payload = run_json(capsys, argv + ["--json"])
    assert code == EXIT_INCONCLUSIVE
    assert payload["schema"] == 1
    assert payload["threshold"] is None
    assert (payload["outcome"], payload["depth_max"]) == ("inconclusive", depth_max)


def test_search_bad_coloring(capsys):
    code, payload = run_json(
        capsys, ["search", "x + y - z", "--colors", "2", "--N", "4", "--json"]
    )
    assert code == 0
    jsonschema.validate(payload, OUTCOME_SCHEMA)
    assert payload["coloring"] == [0, 1, 1, 0]


def test_search_budget_exit(capsys):
    code = main(
        ["search", "x + y - z", "--colors", "2", "--N", "9", "--injective", "--budget", "4"]
    )
    assert code == EXIT_INCONCLUSIVE
    capsys.readouterr()


def test_search_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RADO_FORGE_BUDGET", "4")
    code, payload = run_json(
        capsys,
        ["search", "x + y - z", "--colors", "2", "--N", "9", "--injective", "--json"],
    )
    assert code == EXIT_INCONCLUSIVE
    assert payload["outcome"] == "inconclusive"


@pytest.mark.parametrize(
    "argv,env",
    [
        (["search", "x + y - z", "--colors", "0", "--N", "5"], None),
        (["search", "x + y - z", "--colors", "2", "--N", "0"], None),
        (["search", "x + y - z", "--colors", "2", "--N", "-4"], None),
        (["search", "x + y - z", "--colors", "2", "--N", "5", "--budget", "-3"], None),
        (["search", "x + y - z", "--colors", "2", "--threshold", "0"], None),
        (["witness", "x + y - z", "--N", "0"], None),
        (["witness", "x+y-z", "--method", "brute", "--N", "6", "--limit", "0", "--json"], None),
        (["witness", "x+y-z", "--method", "brute", "--N", "6", "--limit", "-1", "--json"], None),
        (["search", "x + y - z", "--colors", "2", "--N", "5"], "abc"),
    ],
    ids=[
        "colors-0", "N-0", "N-neg", "budget-neg", "threshold-0", "witness-N-0",
        "witness-limit-0", "witness-limit-neg", "env-budget",
    ],
)
def test_bad_numeric_arguments_exit_usage(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("RADO_FORGE_BUDGET", env)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive integer" in captured.err
    assert "Traceback" not in captured.err


def test_search_deep_n_not_recursion_bound(capsys):
    code, payload = run_json(
        capsys, ["search", "x-2*y", "--colors", "2", "--N", "1500", "--json"]
    )
    assert code == 0
    assert payload["outcome"] == "bad_coloring"
    coloring = Coloring(tuple(payload["coloring"]))
    assert monochromatic_solution(parse("x-2*y"), coloring) is None


def test_search_root_beyond_float_range(capsys):
    # isolating y needs the exact 200th root of numbers above 1e308
    assert main(["search", "x^200-y^200", "--colors", "2", "--N", "50"]) == 0
    assert "outcome: forced" in capsys.readouterr().out


def test_search_huge_exponent_answers(capsys):
    # the bounded walk never computes a power that alone passes its floor
    assert main(["search", "x^100000000+y-z", "--colors", "2", "--N", "3"]) == 0
    assert "outcome: bad_coloring" in capsys.readouterr().out


def test_search_leading_minus_after_double_dash(capsys):
    assert main(["search", "--colors", "2", "--N", "5", "--", "-h9 - p8 + q3"]) == 0
    assert "outcome: forced" in capsys.readouterr().out


# -- corpus ----------------------------------------------------------


def test_corpus_run(capsys):
    code, payload = run_json(capsys, ["corpus", "run", "--json"])
    assert code == 0
    assert payload["all_match"] is True
    assert len(payload["fixtures"]) >= 10
    assert json.loads(json.dumps(payload)) == payload


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "x1+x2-y1*y2" in out
    assert "Thm3.5" in out


def test_corpus_run_reproducible(capsys):
    # bit-for-bit identical across runs, wall-clock timings aside
    def snapshot():
        _, payload = run_json(capsys, ["corpus", "run", "--json"])
        for fixture in payload["fixtures"]:
            fixture.pop("ms")
        return json.dumps(payload, sort_keys=True)

    assert snapshot() == snapshot()


def test_search_workers_flag(capsys):
    # --workers did nothing and is gone: argparse refuses it as any unknown option
    argv = ["search", "x + y - z", "--colors", "2", "--N", "5", "--workers", "8", "--json"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: rado-forge")
    assert "unrecognized arguments: --workers 8" in captured.err


def test_reused_parser_keeps_calls_independent(capsys):
    assert build_parser() is build_parser()
    argv = ["search", "x + y - z", "--colors", "2", "--N", "8", "--json"]
    # WS(2) = 8: an injective bad coloring of [1..8] exists; S(2) = 4: none without
    code, injective = run_json(capsys, argv + ["--injective"])
    assert (code, injective["injective"], injective["outcome"]) == (0, True, "bad_coloring")
    code, plain = run_json(capsys, argv)
    assert (code, plain["injective"], plain["outcome"]) == (0, False, "forced")
    assert main(["search", "x + y - z", "--colors", "0", "--N", "8"]) == EXIT_USAGE
    capsys.readouterr()
    code, again = run_json(capsys, argv)
    assert code == 0
    assert {**again, "stats": None} == {**plain, "stats": None}
    assert again["stats"]["nodes"] == plain["stats"]["nodes"]


def test_corpus_mismatch_exit(capsys, tmp_path):
    fixture = tmp_path / "edited.txt"
    fixture.write_text("x + y - z | NOT_PR | RadoLinear | yes | edited expectation\n")
    code = main(["corpus", "run", "--file", str(fixture)])
    assert code == EXIT_CORPUS_MISMATCH
    out = capsys.readouterr().out
    assert "expected NOT_PR, got PR" in out


@pytest.mark.parametrize(
    "action,content,message",
    [
        ("run", None, "No such file"),
        ("list", None, "No such file"),
        ("run", "x + y - z | PR | RadoLinear\n", "malformed fixture line"),
        ("list", "x + y - z | PR | RadoLinear\n", "malformed fixture line"),
        ("run", "x + * y | PR | RadoLinear | yes | unparsable\n", "fixture 'x + * y': at position 4"),
    ],
)
def test_corpus_bad_file_is_a_usage_error(capsys, tmp_path, action, content, message):
    # a fixture file that cannot be read, split or parsed is a malformed
    # argument: one line on stderr and exit 2, never a traceback
    fixture = tmp_path / "fixtures.txt"
    if content is not None:
        fixture.write_text(content)
    assert main(["corpus", action, "--file", str(fixture)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rado-forge: error: --file: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


# -- JSON output ------------------------------------------------------------------

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))


@given(st.dictionaries(st.text(max_size=6), SCALARS, max_size=8)
       | st.dictionaries(st.text(max_size=6), st.lists(SCALARS, max_size=3) | SCALARS, max_size=4))
@settings(max_examples=200, deadline=None)
def test_emit_writes_what_json_dumps_writes(payload):
    # a payload of scalars alone, as a threshold scan prints it, goes through
    # the C encoder; its bytes must be json.dumps(indent=2, sort_keys=True)'s
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload)
    assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- exit-code contract over generated argv ------------------------------------

EXIT_CODES = {0, 1, 2, 3, 4, 5, 64, 70}


@st.composite
def polynomial_text(draw):
    """Up to four variables, mostly linear, with small coefficients, zero and
    constant terms included; one time in four, arbitrary text over the
    polynomial alphabet."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(alphabet="xyzw0123456789+-*^() ", max_size=14))
    exponents = st.sampled_from([1, 1, 1, 2, 3])
    monomial = st.dictionaries(st.sampled_from("xyzw"), exponents, min_size=1, max_size=3)
    terms = draw(st.lists(st.tuples(st.integers(-4, 4), monomial), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        terms.append((draw(st.integers(-4, 4)), {}))
    text = ""
    for coeff, exps in terms:
        factors = [str(abs(coeff))] + [v if e == 1 else f"{v}^{e}" for v, e in sorted(exps.items())]
        text += f" {'-' if coeff < 0 else '+'} {'*'.join(factors)}"
    return text.removeprefix(" + ").strip()


def flag(*words):
    return st.sampled_from([[], list(words)])


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["classify", "witness", "search", "corpus"]))
    if command == "corpus":
        return ["corpus", draw(st.sampled_from(["run", "list"]))] + draw(flag("--json"))
    options = draw(flag("--json"))
    if command == "classify":
        options += draw(flag("--ring", draw(st.sampled_from("NZ")))) + draw(flag("--allow-constant"))
    elif command == "witness":
        method = draw(st.sampled_from(["auto", "reduct", "nlp", "brute"]))
        options += ["--method", method, "--N", str(draw(st.integers(1, 8)))]
        options += ["--limit", str(draw(st.integers(1, 3)))] + draw(flag("--injective"))
    else:
        bound = draw(st.sampled_from(["--N", "--threshold"]))
        options += ["--colors", str(draw(st.integers(1, 3))), bound, str(draw(st.integers(1, 8)))]
        options += ["--budget", "20000"] + draw(flag("--injective"))
    polynomial = draw(polynomial_text())
    if draw(st.booleans()):  # a leading "-" needs the "--" separator
        return [command] + options + ["--", polynomial]
    return [command, polynomial] + options


@given(cli_argv())
@settings(max_examples=150, deadline=None)
def test_every_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue(), argv
