"""The package's unreferenced names are exactly a stated allow-list.

A top-level function, class or assignment of ``src/annular_billiards`` that
no other ``src/`` code refers to is called only by tests, and so is a public
method or property of a top-level class whose name no ``src/`` code outside
its own definition reads as an attribute.  A field of a ``NamedTuple`` record
whose name no ``src/`` code reads as an attribute is likewise read only by
tests.  Each such name must earn its place as an oracle, a paper formula or
a published contract, and say which in ``ALLOWED``, ``ALLOWED_METHODS`` or
``ALLOWED_FIELDS``; anything else is a second route to a job that a command
already does, and belongs deleted.  Docstrings and comments do not count as
references; the name strings of ``cli._LIBRARY`` do, since the CLI resolves
those names lazily.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "annular_billiards"

#: every top-level name that no other ``src/`` code refers to, with the reason it stays
ALLOWED = {
    "reflection": "mirror-symmetry oracle of the ray tracer and the reduced map",
    "bounce_jacobian": "per-bounce reference for the monodromy product",
    "bounce_jacobian_birkhoff": "per-bounce reference in (s, cos theta), determinant 1",
    "clearance_from_other_chords": "oracle of max_radius_star's chord clearance",
    "rotation_number_leading": "paper formula: leading order of the rotation angle mu",
    "closed_form_A_large_n": "paper formula: large-n expansion of the twist coefficient",
    "epsilon_star": "paper formula: detuning scale of the tangent table's elliptic window",
    "epsilon_star_large_n": "paper formula: large-n asymptote of epsilon_star",
    "symplectic_defect": "area-preservation health check; output telemetry gives it a caller",
    "JSON_SCHEMA": "published layout of the JSON scan output",
}

#: every public method or property that no other ``src/`` code reads, with the reason it stays
ALLOWED_METHODS = {
    "TaylorJet3.linear": "Jacobian for symplectic_defect; output telemetry gives it a caller",
    "OrbitRecord.period": "the benchmark's tracer counts collisions with it",
    "_SubcommandParser.parse_known_args": "an override that argparse's parse_args calls",
}

#: every record field that no ``src/`` code reads, with the reason it stays
ALLOWED_FIELDS = {
    f"BirkhoffReport.{field}": "checked against the eigenvalue oracle; the invariant twist (ROADMAP item 2) rewrites this report"
    for field in ("im_c21", "abs_c20_sq", "abs_c02_sq", "mu_arg")
}


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines, dunders left out (the
    interpreter, not the package, refers to those)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
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
    """Top-level names that only their own definition refers to, in the given
    module sources (by default the package's)."""
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


def unreferenced_methods(sources: list[str] | None = None) -> set[str]:
    """``Class.name`` of each public method or property of a top-level class
    whose name no attribute access outside its own definition reads, in the
    given module sources (by default the package's).  Methods are matched by
    name alone, so one read keeps every method of that name."""
    if sources is None:
        sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    trees = [ast.parse(source) for source in sources]
    reads = sum((_attributes(tree) for tree in trees), Counter())
    return {
        f"{cls.name}.{fn.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        and reads[fn.name] == _attributes(fn)[fn.name]
    }


def unreferenced_fields(sources: list[str] | None = None) -> set[str]:
    """``Record.field`` of each field of a top-level ``NamedTuple`` class whose
    name no attribute access reads, in the given module sources (by default
    the package's).  Fields are matched by name alone, as methods are."""
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


def test_unreferenced_methods_are_the_allow_list():
    found = unreferenced_methods()
    assert sorted(found - ALLOWED_METHODS.keys()) == [], "unreferenced methods outside the allow-list"
    assert sorted(ALLOWED_METHODS.keys() - found) == [], "allow-listed methods that src/ now reads"


def test_unreferenced_fields_are_the_allow_list():
    found = unreferenced_fields()
    assert sorted(found - ALLOWED_FIELDS.keys()) == [], "unread record fields outside the allow-list"
    assert sorted(ALLOWED_FIELDS.keys() - found) == [], "allow-listed fields that src/ now reads"


def test_every_allowed_name_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())
    assert all(reason.strip() for reason in ALLOWED_METHODS.values())
    assert all(reason.strip() for reason in ALLOWED_FIELDS.values())


def test_scan_flags_a_name_only_its_own_definition_uses():
    source = (
        "def used():\n"
        "    return 1\n"
        "def lonely(x):\n"
        "    return lonely(x - 1) if x else used()\n"
    )
    assert unreferenced_names([source]) == {"lonely"}


def test_docstrings_do_not_count_and_library_strings_do():
    module = (
        '"""Mentions helper and spare in prose only."""\n'
        "def helper():\n"
        '    """spare is not called here."""\n'
        "def spare():\n"
        "    pass\n"
        "def lazy():\n"
        "    pass\n"
    )
    cli = '_LIBRARY = {"lazy helper": "module"}\ndef main():\n    return _LIBRARY\n'
    assert unreferenced_names([module]) == {"helper", "spare", "lazy"}
    assert unreferenced_names([module, cli]) == {"spare", "main"}


def test_a_deleted_route_coming_back_is_flagged():
    # a one-line restatement of a paper number that no command prints
    restored = "import math\ndef caustic_radius(n, k):\n    return math.cos(k * math.pi / n)\n"
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_names(package + [restored]) == ALLOWED.keys() | {"caustic_radius"}


def test_method_scan_reads_attributes_outside_the_definition():
    # a method that only calls itself, or that only a bare name of the same
    # spelling mentions, is flagged; one another method reads is not, and
    # private methods and dunders are left out
    source = (
        "class Map:\n"
        "    def apply(self, x):\n"
        "        return self.step(x)\n"
        "    def step(self, x):\n"
        "        return x\n"
        "    def again(self, x):\n"
        "        return self.again(x)\n"
        "    def linear(self):\n"
        "        pass\n"
        "    def _hidden(self):\n"
        "        pass\n"
        "    def __call__(self, x):\n"
        "        pass\n"
        "def helper(m):\n"
        "    linear = 1\n"
        "    return m.apply(linear)\n"
    )
    assert unreferenced_methods([source]) == {"Map.again", "Map.linear"}


def test_a_deleted_method_coming_back_is_flagged():
    restored = (
        "class ReducedMap:\n"
        "    def full_period(self, point):\n"
        "        return self.apply(*self.apply(*point))\n"
    )
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_methods(package + [restored]) == ALLOWED_METHODS.keys() | {"ReducedMap.full_period"}


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
