"""Rules on the library source itself."""

import ast
from pathlib import Path

import mahlercf


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes;
    # every check in the library raises a typed MahlerCFError instead.
    sources = sorted(Path(mahlercf.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


# Exports whose only callers are the unit tests.  A name leaves this list when
# it gains a caller outside the tests or is deleted; none may join it.
TEST_ONLY_EXPORTS = {
    "cf_expand_fraction",
    "companion_map",
    "divisibility_ladder",
    "iterated_approximants",
    "iterated_pair_polynomials",
    "locate_as_convergent",
    "quality_sup",
    "transport",
}


def test_every_export_has_a_caller_outside_the_unit_tests():
    # An export counts as used when a library module other than __init__, a
    # script or the acceptance criteria refers to it by name or attribute.
    package = Path(mahlercf.__file__).parent
    root = Path(__file__).resolve().parents[1]
    init = ast.parse((package / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [
        *(path for path in package.glob("*.py") if path.name != "__init__.py"),
        *root.glob("scripts/*.py"),
        root / "tests" / "test_acceptance.py",
    ]
    referenced = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert sorted(exported - referenced) == sorted(TEST_ONLY_EXPORTS)
