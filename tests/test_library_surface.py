"""The package's code that no command runs is exactly a stated allow-list.

Two scans check it.  The run-based one runs ``reachability_probe.py`` in a
fresh interpreter.  That script runs a fixed set of command lines through
``cli.main`` under ``sys.setprofile`` and reports each ``src/`` function
that one of them entered.  The functions that none of them entered must be
the keys of ``NEVER_RUN``, and each entry names who runs the function
instead:

- ``tests:`` a test oracle or a paper formula that the tests check;
- ``perfbench:`` the benchmark calls it, or its checks do;
- ``contract:`` a behaviour the package promises, which a test pins.

Anything else is a second route to a job that a command already does, and
belongs deleted.  A function is keyed by the line its code object starts
on, which is its first decorator's line where it has one.

The static scan covers what a run cannot see.  A top-level class or
constant that no other ``src/`` code refers to must be a key of
``ALLOWED``, and a ``NamedTuple`` field whose name no ``src/`` code reads
as an attribute must be a key of ``ALLOWED_FIELDS``.  Docstrings and
comments do not count as references; the name strings of ``cli._LIBRARY``
do, since the CLI resolves those names lazily.
"""

import ast
import functools
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from annular_billiards.errors import DomainError, InvalidTableError
from annular_billiards.geometry import TableParams
from annular_billiards.orbits import PhasePoint, Wall

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "annular_billiards"
PROBE = Path(__file__).resolve().parent / "reachability_probe.py"

#: every ``src/`` function that no request of the probe runs, with who runs it
NEVER_RUN = {
    "billiard_map.FloatBackend.acos": "contract: half_period_formula's default backend refuses an arccos argument off [-1, 1] with NoCollisionError where math.acos raises ValueError, as test_floats_bit_equal_at_the_clamp_edges pins; the sampler runs the map on math itself",
    "birkhoff.TaylorJet3.linear": "tests: the Jacobian of a pushed jet, whose symplectic_defect they check",
    "birkhoff.TaylorJet3.max_rel_disagreement": "perfbench: checks.py's twist check runs taylor_jet(..., cross_check=True), whose audit compares the pushed and fitted jets with it",
    "birkhoff._fit_matrix": "perfbench: the least-squares fit of the same audit",
    "birkhoff.fd_taylor_jet": "perfbench: the 50-digit oracle of the same audit",
    "birkhoff.closed_form_A_large_n": "tests: paper formula, the large-n expansion of the twist coefficient",
    "birkhoff.rotation_number_leading": "tests: paper formula, the leading order of the rotation angle mu",
    "cli.entry": "contract: the process entry of python -m and the console script, which the probe's one interpreter cannot run; test_process_route_matches_main runs it in a child per request",
    "geometry.TableParams._make": "contract: _replace validates a table, as test_replace_validates pins",
    "geometry.chord_lines": "tests: oracle of max_radius_star's nearest chord and of the caustic radius",
    "geometry.clearance_from_other_chords": "tests: oracle of max_radius_star's chord clearance",
    "jets.Jet2.__eq__": "contract: jets compare by value; the tests check that a push is repeatable with it",
    "linear_stability.bounce_jacobian_birkhoff": "tests: per-bounce reference in (s, cos theta), determinant 1",
    "linear_stability.epsilon_star": "tests: paper formula 4/c1, the detuning scale of the tangent table's elliptic window; they check c1 against the monodromy",
    "linear_stability.epsilon_star_large_n": "tests: paper formula, the large-n asymptote of epsilon_star",
    "linear_stability.symplectic_defect": "tests: area-preservation check of the monodromy and the pushed jets",
    "orbits.OrbitRecord.period": "perfbench: tracer.py counts collisions with it",
    "orbits.PhasePoint._make": "contract: _replace validates a collision state, as test_replace_validates pins",
    "orbits.reflection": "tests: mirror-symmetry oracle of the ray tracer and the reduced map",
}

#: every top-level class or constant that no other ``src/`` code refers to, with the reason it stays
ALLOWED = {
    "JSON_SCHEMA": "published layout of the JSON scan output",
}

#: every record field that no ``src/`` code reads, with the reason it stays
ALLOWED_FIELDS: dict[str, str] = {}


# ---------------------------------------------------------------------------
# the run-based scan
# ---------------------------------------------------------------------------


def defined_functions(module: str, source: str) -> dict[tuple[str, int, str], str]:
    """Each function a module source defines, methods and nested functions
    included: its ``(file name, first line, name)``, as the probe reports
    a code object, mapped to ``module.qualified.name``.  The first line is
    that of the first decorator, where there is one, as ``co_firstlineno``
    holds."""
    out = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                out[(f"{module}.py", first, node.name)] = f"{prefix}{node.name}"
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, f"{prefix}{node.name}.")

    visit(ast.parse(source).body, f"{module}.")
    return out


def package_functions() -> dict[tuple[str, int, str], str]:
    return {
        key: name
        for path in sorted(PACKAGE.glob("*.py"))
        for key, name in defined_functions(path.stem, path.read_text()).items()
    }


@functools.cache
def ran_functions() -> frozenset:
    """What the probe reports, run once per test session in a fresh
    interpreter, so no cache or lazy import of an earlier test hides a
    function from it or shows one."""
    result = subprocess.run([sys.executable, str(PROBE)], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return frozenset(tuple(key) for key in json.loads(result.stdout))


def never_run(functions: dict[tuple[str, int, str], str]) -> set[str]:
    ran = ran_functions()
    return {name for key, name in functions.items() if key not in ran}


def test_never_run_functions_are_the_allow_list():
    found = never_run(package_functions())
    assert sorted(found - NEVER_RUN.keys()) == [], "functions no command runs, outside the allow-list"
    assert sorted(NEVER_RUN.keys() - found) == [], "allow-listed functions that a command now runs"


def test_a_deleted_method_coming_back_is_never_run():
    restored = (
        "class ReducedMap:\n"
        "    def full_period(self, point):\n"
        "        return self.apply(*self.apply(*point))\n"
    )
    functions = package_functions() | defined_functions("restored", restored)
    assert never_run(functions) == NEVER_RUN.keys() | {"restored.ReducedMap.full_period"}


def test_functions_are_keyed_as_their_code_objects_start():
    # a decorated function's code starts on its first decorator's line, so a
    # key on the def line would read it as never run
    source = (
        "import functools\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    @staticmethod\n"
        "    @functools.cache\n"
        "    def make():\n"
        "        return Box()\n"
        "def plain():\n"
        "    return Box.make().size\n"
    )
    namespace = {}
    exec(compile(source, "box.py", "exec"), namespace)
    codes = [namespace["Box"].size.fget.__code__, namespace["Box"].make.__wrapped__.__code__, namespace["plain"].__code__]
    keys = [(code.co_filename, code.co_firstlineno, code.co_name) for code in codes]
    assert keys == [("box.py", 3, "size"), ("box.py", 6, "make"), ("box.py", 10, "plain")]
    assert [defined_functions("box", source)[key] for key in keys] == ["box.Box.size", "box.Box.make", "box.plain"]


@pytest.mark.parametrize(
    "record, field, error",
    [
        (PhasePoint(Wall.OUTER, 0.0, 1.0), {"theta": 4.0}, DomainError),
        (TableParams.type_a(5, 1, 0.1), {"R": 2.0}, InvalidTableError),
    ],
)
def test_replace_validates(record, field, error):
    # the _make overrides exist for this: a record changed by _replace is
    # checked as a newly built one is
    with pytest.raises(error):
        record._replace(**field)


# ---------------------------------------------------------------------------
# the static scan: classes, constants and record fields
# ---------------------------------------------------------------------------


def _defined(stmt: ast.stmt) -> list[str]:
    """Classes and constants a top-level statement defines, dunders left out
    (the interpreter, not the package, refers to those)."""
    if isinstance(stmt, ast.ClassDef):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _referenced(stmt: ast.stmt) -> set[str]:
    """Names a statement's code refers to: identifiers, attribute names and
    imported names, plus the names ``cli._LIBRARY`` lists as strings."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add((node.asname or node.name).split(".")[0])
    if "_LIBRARY" in _defined(stmt):
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.update(node.value.split())
    return refs


def unreferenced_names(sources: list[str] | None = None) -> set[str]:
    """Top-level classes and constants that only their own definition
    refers to, in the given module sources (by default the package's)."""
    if sources is None:
        sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    statements = [stmt for source in sources for stmt in ast.parse(source).body]
    refs = [_referenced(stmt) for stmt in statements]
    return {
        name
        for i, stmt in enumerate(statements)
        for name in _defined(stmt)
        if not any(name in other for j, other in enumerate(refs) if j != i)
    }


def _attributes(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unreferenced_fields(sources: list[str] | None = None) -> set[str]:
    """``Record.field`` of each field of a top-level ``NamedTuple`` class whose
    name no attribute access reads, in the given module sources (by default
    the package's).  Fields are matched by name alone: one read of a name
    anywhere keeps every field so named."""
    if sources is None:
        sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    trees = [ast.parse(source) for source in sources]
    reads = sum((_attributes(tree) for tree in trees), Counter())
    return {
        f"{cls.name}.{stmt.target.id}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not reads[stmt.target.id]
    }


def test_unreferenced_names_are_the_allow_list():
    found = unreferenced_names()
    assert sorted(found - ALLOWED.keys()) == [], "unreferenced names outside the allow-list"
    assert sorted(ALLOWED.keys() - found) == [], "allow-listed names that src/ now refers to"


def test_unreferenced_fields_are_the_allow_list():
    found = unreferenced_fields()
    assert sorted(found - ALLOWED_FIELDS.keys()) == [], "unread record fields outside the allow-list"
    assert sorted(ALLOWED_FIELDS.keys() - found) == [], "allow-listed fields that src/ now reads"


def test_every_allowed_name_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())
    assert all(reason.strip() for reason in ALLOWED_FIELDS.values())
    # each never-run function names who runs it, and why, after the colon
    for reason in NEVER_RUN.values():
        who, _, why = reason.partition(": ")
        assert who in ("tests", "perfbench", "contract") and why.strip(), reason


def test_scan_flags_a_name_only_its_own_definition_uses():
    # functions are left to the run-based scan
    source = (
        "def used():\n"
        "    return 1\n"
        "LIMIT = used()\n"
        "class Lonely:\n"
        "    def copy(self):\n"
        "        return Lonely()\n"
        "def spare():\n"
        "    pass\n"
    )
    assert unreferenced_names([source]) == {"LIMIT", "Lonely"}


def test_docstrings_do_not_count_and_library_strings_do():
    module = (
        '"""Mentions Helper and SPARE in prose only."""\n'
        "class Helper:\n"
        '    """SPARE is not read here."""\n'
        "SPARE = 1\n"
        "class Lazy:\n"
        "    pass\n"
    )
    cli = '_LIBRARY = {"Lazy Helper": "module"}\ndef main():\n    return _LIBRARY\n'
    assert unreferenced_names([module]) == {"Helper", "SPARE", "Lazy"}
    assert unreferenced_names([module, cli]) == {"SPARE"}


def test_a_deleted_route_coming_back_is_flagged():
    # the enum that once named a table's family, which its detuning names now
    restored = 'import enum\nclass TableConfig(enum.Enum):\n    A = "a"\n    B = "b"\n'
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_names(package + [restored]) == ALLOWED.keys() | {"TableConfig"}


def test_field_scan_reads_attributes_of_named_tuples_only():
    # a field no attribute access reads is flagged, one read anywhere (by
    # name alone) is not; a plain class's annotations are not fields
    source = (
        "from typing import NamedTuple\n"
        "class Report(NamedTuple):\n"
        "    value: float\n"
        "    echo: int = 0\n"
        "class Plain:\n"
        "    spare: int\n"
        "def show(report):\n"
        "    echo = 1\n"
        "    return report.value + echo\n"
    )
    assert unreferenced_fields([source]) == {"Report.echo"}


def test_a_deleted_field_coming_back_is_flagged():
    restored = (
        "from typing import NamedTuple\n"
        "class IslandReport(NamedTuple):\n"
        "    max_excursion: float\n"
        "    iterations_run: int\n"
    )
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_fields(package + [restored]) == ALLOWED_FIELDS.keys() | {"IslandReport.iterations_run"}
