"""The package's source parses under the oldest Python that pyproject.toml
allows, so a newer-only syntax fails here even when the suite runs on a
newer interpreter; and it holds no ``assert`` statement, so every check it
makes still runs under ``python -O``.  No module imports ``dataclasses``,
whose decorator compiles each record's methods at import, and importing the
package loads neither it, ``inspect`` nor ``importlib.resources``.  The layers the search reads are
re-verified at one site, once per search.  No module probes a private field
with ``getattr(obj, "_name", default)``: the facts a polynomial keeps start
as None.  Importing the package compiles no annotation: its records are
``collections.namedtuple`` classes, not ``typing.NamedTuple`` ones, and no
class but ``Polynomial`` writes its own ``__eq__``, ``__repr__``,
``__setattr__`` or ``__delattr__``.  ``check.py``, which re-checks the
classifier's and the search's claims, imports only ``poly`` and the
standard library.  Every name in a submodule's ``__all__`` is in the
package's or has a caller in ``src/`` or ``perfbench/``.  The CI
workflow runs the tier-1 command of ROADMAP.md and the benchmark self-test,
on every minor version from that oldest Python to the newest it lists,
under its 20-minute timeout."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "rado_forge").glob("*.py"))


WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_the_oldest_python_is_3_10():
    assert _oldest_python() == (3, 10)
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_under_the_oldest_python(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=_oldest_python())


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines} vanish under python -O"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_does_not_import_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "dataclasses"
    ]
    assert not lines, f"{path.name}: dataclasses imported at lines {lines}"


def test_importing_the_package_loads_no_dataclasses_inspect_or_resources():
    # -I -S: no site module and no environment, so only the package's own
    # imports count; -B: no bytecode written into the source tree
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import rado_forge, rado_forge.cli, rado_forge.corpus\n"
        "names = ('dataclasses', 'inspect', 'importlib.resources')\n"
        "print(*[name for name in names if name in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_importing_the_package_compiles_no_annotation():
    # a typing.NamedTuple record turns each string annotation into a
    # ForwardRef, one compile(..., "eval") per field; the records are
    # collections.namedtuple classes, which compile none
    script = (
        "import builtins, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "compile_ = builtins.compile\n"
        "evals = []\n"
        "def counted(source, filename, mode, *args, **kwargs):\n"
        "    if mode == 'eval':\n"
        "        evals.append(source)\n"
        "    return compile_(source, filename, mode, *args, **kwargs)\n"
        "builtins.compile = counted\n"
        "import rado_forge, rado_forge.cli, rado_forge.corpus\n"
        "print(repr(evals))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_search_re_verifies_at_one_site():
    # one evaluate_many call in search.py, solutions.py and check.py:
    # check._verify_solutions's, which find_bad_coloring makes over every
    # tuple it read and the oracle over every solution it returns
    sites, verifies = [], []
    for name in ("search.py", "solutions.py", "check.py"):
        tree = ast.parse((ROOT / "src" / "rado_forge" / name).read_text(encoding="utf-8"))
        sites += [
            (name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "evaluate_many"
        ]
        verifies += [
            name
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_verify_solutions"
        ]
    assert [name for name, _ in sites] == ["check.py"], sites
    assert verifies == ["search.py", "solutions.py"]


def _imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of each import in a module, with relative imports as
    ``.name`` and ``from . import name`` as ``.name`` too."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module:
                found.append((node.lineno, dots + node.module))
            else:
                found += [(node.lineno, dots + alias.name) for alias in node.names]
        elif isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
            if callee in ("__import__", "import_module"):
                found.append((node.lineno, "a dynamic import"))
    return found


def test_check_imports_only_poly_and_the_standard_library():
    # the re-checks cannot run the classifier, an enumerator or the search
    # kernel whose claims they check: check.py imports nothing else
    tree = ast.parse((ROOT / "src" / "rado_forge" / "check.py").read_text(encoding="utf-8"))
    imported = _imports(tree)
    assert ".poly" in [name for _, name in imported], imported
    refused = [
        (line, name)
        for line, name in imported
        if name != ".poly" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not refused, f"check.py imports beyond poly and the standard library: {refused}"


def _exported(path: Path) -> list[str]:
    """The names a module lists in its literal ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def _references(node: ast.AST, inside: frozenset = frozenset()):
    """Every name read in ``node``, as a name or an attribute, except a
    name read inside a definition of that name (its own body)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        name = node.attr
    else:
        name = None
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


# the tests' symbolic reference for the lift identity, which a checkable
# witness claim is to use (ROADMAP item 4)
UNCALLED_EXPORTS = {"reduct_lift_formal_check", "nlp_lift_formal_check"}


def test_every_exported_name_has_a_caller():
    # a name in a submodule's __all__ is public through the package, or
    # something in src/ or perfbench/ uses it; the benchmark tracer looks up
    # (module, attribute) pairs, which count as uses
    package = set(_exported(ROOT / "src" / "rado_forge" / "__init__.py"))
    used = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        used.update(_references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    [layers] = [
        node.value for node in tracing.body
        if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "LAYERS"
    ]
    used.update(attr for sites in ast.literal_eval(layers).values() for _module, attr in sites)
    assert UNCALLED_EXPORTS <= set(_exported(ROOT / "src" / "rado_forge" / "witness.py"))
    uncalled = [
        (path.name, name)
        for path in MODULES
        if not path.name.startswith("__")
        for name in _exported(path)
        if name not in package and name not in used and name not in UNCALLED_EXPORTS
    ]
    assert not uncalled, f"exported names with no caller in src/ or perfbench/: {uncalled}"


HAND_WRITTEN = {"__eq__", "__repr__", "__setattr__", "__delattr__"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_polynomial_writes_its_own_record_machinery(path):
    # a record is a namedtuple, whose equality, repr and immutability are
    # the tuple's; Polynomial, a plain class, is the one that writes its own
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        (node.name, item.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name != "Polynomial"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in HAND_WRITTEN
    ]
    assert not found, f"{path.name}: hand-written record methods {found}"


def _probes_a_private_field(node: ast.AST) -> bool:
    """``node`` is ``getattr(obj, "_name", default)``: a probe of a private
    field that may be unset."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) == 3
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
        and node.args[1].value.startswith("_")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_probes_a_private_field_with_a_default(path):
    # a kept fact starts as None and is read as a plain field; a getattr with
    # a default would pay for a raised and cleared AttributeError when unset
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _probes_a_private_field(node)]
    assert not lines, f"{path.name}: getattr with a default on a private field at lines {lines}"


def test_ci_runs_the_tier_1_command_and_the_self_test():
    # read as text: the suite needs no YAML parser
    workflow = WORKFLOW.read_text(encoding="utf-8")
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    tier_1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    runs = re.findall(r"^\s*run: (.+)$", workflow, re.MULTILINE)
    assert tier_1 in runs
    assert "python3 perfbench/selftest.py" in runs
    assert re.search(r"^\s*timeout-minutes: 20$", workflow, re.MULTILINE)
    versions = re.search(r"^\s*python-version: \[(.*)\]$", workflow, re.MULTILINE).group(1)
    listed = re.findall(r'"([^"]+)"', versions)
    major, minor = _oldest_python()
    newest = max(int(v.split(".")[1]) for v in listed)
    # every minor version from the oldest allowed to the newest listed, none skipped
    assert listed == [f"{major}.{m}" for m in range(minor, newest + 1)]
