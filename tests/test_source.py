"""Rules on the library source itself, and on how the tests run it."""

import ast
import contextlib
import importlib
import io
import runpy
import sys
from pathlib import Path

import pytest

import mahlercf
import mahlercf.errors
from mahlercf._record import _Record


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


# The constants that bound the run time of a request, by module.
CAPS = {
    ("approx", "TAIL_BITS_BOUND"), ("cli", "DEPTH_HARD_CAP"), ("cli", "EPS_EXPONENT_BOUND"),
    ("contfrac", "DEPTH_CAP_DEFAULT"), ("laurent", "FUNCEQ_FLOOR_BOUND"),
    ("padic", "N0_BOUND"), ("padic", "P_BITS_BOUND"), ("padic", "TABLE_PRIME_BOUND"),
    ("padic", "HENSEL_STEP_LIMIT"), ("padic", "HENSEL_MODULUS_BITS"),
}


def test_the_cap_table_gives_every_cap_its_value(cap_table):
    # docs/interface.md lists each cap once, at the value its module defines
    documented = [(row["module"], row["constant"]) for row in cap_table]
    assert sorted(documented) == sorted(CAPS)
    for row in cap_table:
        module = importlib.import_module(f"mahlercf.{row['module']}")
        assert getattr(module, row["constant"]) == row["value"], row["constant"]


def _nodes_outside_the_unit_tests() -> list[ast.AST]:
    # Every AST node of the library modules other than __init__, the scripts
    # and the acceptance criteria.
    package = Path(mahlercf.__file__).parent
    root = Path(__file__).resolve().parents[1]
    users = [
        *(path for path in package.glob("*.py") if path.name != "__init__.py"),
        *root.glob("scripts/*.py"),
        root / "tests" / "test_acceptance.py",
    ]
    return [
        node
        for path in users
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
    ]


# The package's exports, which its __init__ resolves lazily from one table.
EXPORTS = {
    "BadApproxWitness", "BetaSequence", "CFExpansion", "CertifiedValue",
    "ClassificationFailure", "Convergent", "DivisionByZeroPoly", "HenselDemo",
    "HypothesisFailed", "IDENTITY_NAMES", "IdentityFailure", "IdentityReport",
    "InsufficientPrecision", "InvalidParameter", "IrrationalityReport", "MahlerCFError",
    "MismatchAt", "NotFound", "OrbitRow", "RatPoly", "RateViolation", "ScaleNotInvertible",
    "SearchExhausted", "ShapeViolation", "TruncatedLaurentSeries", "ZeroDenominator",
    "beta_closed_form", "beta_sequence", "cf_expand", "check_conditions", "classify_all",
    "classify_convergent", "convergent_denominators", "convergent_soundness",
    "default_floor", "enumerate_orbit_hits", "eval_mahler", "expand_family",
    "family_series", "generate", "hensel_divisibility_demo", "irrationality_witness",
    "monic_normalize", "orbit_table", "partial_product", "partial_product_value",
    "poly_eval_mod", "poly_normalize_integer", "power_tower_residue",
    "rate_of_approximation", "real_cf_prefix", "revalidate_witness",
    "verify_functional_equations", "verify_identity", "well_approx_rate",
    "well_approx_report", "wieferich_scan", "witness_search",
}


def test_every_export_has_a_caller_outside_the_unit_tests():
    # An export counts as used when a library module other than __init__, a
    # script or the acceptance criteria refers to it by name or attribute.
    # The exports are the keys of the table that __init__ resolves them from.
    exported = set(mahlercf._EXPORTS)
    assert len(EXPORTS) == 58
    assert exported == EXPORTS
    referenced = set()
    for node in _nodes_outside_the_unit_tests():
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    assert sorted(exported - referenced) == []


class TestLazyExports:
    """``import mahlercf`` loads no submodule; each export is imported from
    its module on first read (PEP 562)."""

    def test_every_export_resolves_to_the_object_its_module_defines(self):
        for name in mahlercf.__all__:
            module = importlib.import_module(f"mahlercf.{mahlercf._EXPORTS[name]}")
            value = getattr(mahlercf, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name

    def test_dir_lists_every_export(self):
        assert set(dir(mahlercf)) >= EXPORTS | {"__version__"}

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_export'"):
            mahlercf.no_such_export

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from mahlercf import *", namespace)
        assert set(namespace) - {"__builtins__"} == EXPORTS
        assert namespace["RatPoly"] is importlib.import_module("mahlercf.polys").RatPoly


def _module_level_imports(tree: ast.AST) -> list[tuple[int, str]]:
    # (line, module) of each import outside a function or class body, a
    # relative module written with its leading dots.
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
        else:
            found += _module_level_imports(node)
    return found


def test_module_level_imports_skip_function_and_class_bodies():
    source = ("import a.b\nif x:\n    from .c import d\nfrom . import e\n"
              "def f():\n    import g\nclass K:\n    from .h import i\n")
    assert _module_level_imports(ast.parse(source)) == [(1, "a.b"), (3, ".c"), (4, ".")]


def test_the_package_and_the_parser_import_no_arithmetic_at_module_level():
    # ``import mahlercf`` and ``import mahlercf.cli`` load no arithmetic
    # module: __init__ imports no submodule, and cli only the standard
    # library, the errors and the identity vocabulary; each subcommand imports
    # the rest.  tests/test_cli.py::TestImportPath checks a fresh interpreter;
    # this names the line of a regression without starting one.
    package = Path(mahlercf.__file__).parent

    def imports(name: str) -> list[tuple[int, str]]:
        return _module_level_imports(ast.parse((package / name).read_text()))

    offenders = [
        f"__init__.py:{line} {module}"
        for line, module in imports("__init__.py")
        if module.startswith(".") or module.split(".")[0] == "mahlercf"
    ] + [
        f"cli.py:{line} {module}"
        for line, module in imports("cli.py")
        if module not in (".errors", "._identities")
        and module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert offenders == []


def _defaults(function: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    # Each parameter with a default, with its place among the positional
    # arguments of a call (None for a keyword-only one); a method's first
    # parameter is bound, not passed.
    positional = [*function.args.posonlyargs, *function.args.args]
    bound = is_method and not any(
        getattr(dec, "id", None) == "staticmethod" for dec in function.decorator_list
    )
    places = [(arg.arg, place - bound) for place, arg in enumerate(positional)]
    keyword = [
        (arg.arg, None)
        for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults)
        if default is not None
    ]
    return places[len(places) - len(function.args.defaults):] + keyword


@pytest.mark.parametrize(("source", "is_method", "expected"), [
    ("def f(a, b=1, *, c, e=2): pass", False, [("b", 1), ("e", None)]),
    ("def f(self, a, b=1, c=2): pass", True, [("b", 1), ("c", 2)]),
    ("@staticmethod\ndef f(a, /, b=1): pass", True, [("b", 1)]),
], ids=["function", "method", "staticmethod"])
def test_defaults_give_each_parameter_its_place_in_a_call(source, is_method, expected):
    # the rule below reads a default's place to see whether a positional
    # argument reaches it: a bound self takes no place, a staticmethod's
    # first parameter does, a keyword-only one has none
    assert _defaults(ast.parse(source).body[0], is_method) == expected


def test_every_parameter_default_is_overridden_outside_the_unit_tests():
    # A parameter with a default that only the unit tests set is a knob nobody
    # turns.  A call passes it when it names it, reaches its place among the
    # positional arguments, or unpacks * or ** arguments; calls are matched by
    # name, and a class's __init__ by the class name or by ``cls`` in its own
    # body.  main's argv stays: ``run``, the entry of the console script and
    # of ``python -m mahlercf.cli``, calls main() bare.
    passed: dict[str, list[ast.Call]] = {}
    for node in _nodes_outside_the_unit_tests():
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            passed.setdefault(name, []).append(node)
        elif isinstance(node, ast.ClassDef):
            passed.setdefault(node.name, []).extend(
                call for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls"
            )

    def reaches(call: ast.Call, param: str, place: int | None) -> bool:
        positional = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
        return (
            len(positional) < len(call.args)
            or any(kw.arg in (param, None) for kw in call.keywords)
            or (place is not None and len(positional) > place)
        )

    unset = []
    for path in sorted(Path(mahlercf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {
            id(stmt): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
        }
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            owner = owners.get(id(function))
            name = owner if function.name == "__init__" else function.name
            label = f"{owner}.{function.name}" if owner else function.name
            for param, place in _defaults(function, owner is not None):
                if not any(reaches(call, param, place) for call in passed.get(name, [])):
                    unset.append(f"{label}({param})")
    assert sorted(label for label in unset if label != "main(argv)") == []


# The survey scripts at small sizes; with the benchmark menus they read every
# record field.
SURVEYS = [
    ("beta_survey.py", "--d", "3", "--n", "20"),
    ("quotient_growth.py",),
    ("reproduce_table.py", "--p-max", "13", "--t-bound", "40", "--all-hits"),
]


def test_every_record_field_is_read_outside_the_unit_tests(monkeypatch, tmp_path):
    # A record field that only the unit tests read is a result nobody uses.
    # Each field's slot is wrapped in a property that notes the record class
    # and the field whenever code other than the record base (which compares,
    # hashes and prints every field) reads it; then every request of the
    # benchmark menus and the survey scripts run in this process.
    root = Path(__file__).resolve().parents[1]
    for path in Path(mahlercf.__file__).parent.glob("*.py"):
        importlib.import_module(f"mahlercf.{path.stem}")
    records = _Record.__subclasses__()
    assert {record.__name__ for record in records} == {
        "CertifiedValue", "ExponentSample", "IrrationalityReport", "Convergent",
        "BadApproxWitness", "HenselDemo", "OrbitRow",
        "BetaSequence", "IdentityReport", "WellApproxReport",
    }
    read = set()
    for record in records:
        for name in record.__slots__:
            slot = vars(record)[name]

            def get(obj, field=f"{record.__name__}.{name}", slot=slot):
                if sys._getframe(1).f_globals["__name__"] != "mahlercf._record":
                    read.add(field)
                return slot.__get__(obj)

            monkeypatch.setattr(record, name, property(get, slot.__set__))

    monkeypatch.syspath_prepend(str(root / "perfbench"))
    from workloads import WORKLOADS, menu

    from mahlercf.cli import main

    monkeypatch.chdir(tmp_path)  # where the witness requests save and replay
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for request in (r for w in WORKLOADS for r in menu(w)):
            with contextlib.suppress(ValueError):  # the seed's digit-limit defect
                main([*request.argv, "--no-timestamp"])
        for script, *argv in SURVEYS:
            monkeypatch.setattr(sys, "argv", [script, *argv])
            with contextlib.suppress(SystemExit):
                runpy.run_path(str(root / "scripts" / script), run_name="__main__")
    fields = {f"{record.__name__}.{name}" for record in records for name in record.__slots__}
    assert sorted(fields - read) == []


def test_every_error_class_is_constructed_by_the_library():
    # An error class that no module constructs is dead API.  Any call counts,
    # so a class built by a helper such as classify_convergent's fail() does.
    package = Path(mahlercf.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    classes = {
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef)
        and issubclass(getattr(mahlercf.errors, node.name), mahlercf.errors.MahlerCFError)
    } - {"MahlerCFError"}
    assert classes
    constructed = set()
    for path in package.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    constructed.add(func.id)
                elif isinstance(func, ast.Attribute):
                    constructed.add(func.attr)
    assert sorted(classes - constructed) == []


def test_only_polys_reads_the_fraction_valued_coeffs():
    # RatPoly and TruncatedLaurentSeries store a scale times an integer map;
    # ``.coeffs`` builds a Fraction per coefficient, so the library reads
    # ``int_coeffs()`` and ``scale`` instead, and only polys, which defines
    # the accessor, may touch it.
    package = Path(mahlercf.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "polys.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "coeffs"
    ]
    assert offenders == []


def test_only_polys_makes_the_normal_form():
    # The kernel in polys brings every result to normal form with one content
    # pass, _primitive; another module that called it would normalise twice.
    package = Path(mahlercf.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "polys.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "_primitive")
        or (isinstance(node, ast.Attribute) and node.attr == "_primitive")
        or (isinstance(node, ast.alias) and node.name == "_primitive")
    ]
    assert offenders == []


def test_only_polys_and_laurent_build_a_stored_form():
    # ``_of`` takes a scale and an integer map as they stand, unchecked; the
    # two modules that define the value classes are the only callers, and
    # any other module builds its values through their operations.
    package = Path(mahlercf.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("polys.py", "laurent.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_of"
    ]
    assert offenders == []


def test_no_library_code_calls_the_normalisers():
    # Every RatPoly is stored in normal form and CFExpansion answers the
    # monic quantities itself, so both normalisers return their argument;
    # they stay exported for the tests and the tracer, which name them.
    normalisers = ("monic_normalize", "poly_normalize_integer")
    package = Path(mahlercf.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in normalisers
    ]
    assert offenders == []
    assert all(name in mahlercf.__all__ and callable(getattr(mahlercf, name))
               for name in normalisers)


def test_only_cli_lays_out_output():
    # Library modules return records and cli alone turns them into stdout:
    # no other module prints or names sys.stdout, and the one to_json_dict
    # left is the witness file format, which BadApproxWitness.from_json_dict
    # reads back.
    package = Path(mahlercf.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "cli.py":
            offenders += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if (isinstance(node, ast.Name) and node.id == "print")
                or (isinstance(node, ast.Attribute) and node.attr == "stdout")
            ]
        offenders += [
            f"{path.name}:{node.lineno}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name != "BadApproxWitness"
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "to_json_dict"
        ]
    assert offenders == []
    assert callable(mahlercf.BadApproxWitness.to_json_dict)


def test_every_traced_name_resolves_where_the_tracer_looks():
    # perfbench/tracing.py wraps each SPANNED name: a module attribute, or for
    # "Class.method" an entry of the class's own __dict__ (an inherited method
    # is not there).  The tier-1 suite does not run the tracer, so it reads the
    # table here.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spanned = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["SPANNED"]
    )
    assert spanned
    missing = []
    for name, (module_name, attribute) in spanned.items():
        module = importlib.import_module(module_name)
        owner, _, method = attribute.rpartition(".")
        namespace = vars(getattr(module, owner)) if owner else vars(module)
        if method not in namespace:
            missing.append(name)
    assert missing == []


# The tests whose subject is the process: output past the digit limit read
# from a pipe, a cold import, a reader that closes stdout, the scripts and the
# installed console script.  Every other test runs the library in process.
STARTS_AN_INTERPRETER = {
    "test_cli.py::TestCF.test_coefficients_past_the_int_to_str_digit_limit_print_exactly",
    "test_cli.py::TestImportPath",
    "test_cli.py::TestClosedStdout",
    "test_cli.py::TestConsoleScript",
    "test_scripts.py::run_script",
}


def _process_starts(tree: ast.AST, scope: str = "") -> list[str]:
    # The dotted class and function scope of every use of the subprocess
    # module, through which every test that starts a process starts it.
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            found += _process_starts(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                and child.value.id == "subprocess"):
            found.append(scope)
        found += _process_starts(child, scope)
    return found


def test_only_the_process_tests_start_an_interpreter():
    tests = Path(__file__).resolve().parent
    starts = {
        f"{path.name}::{scope}"
        for path in sorted(tests.glob("*.py"))
        for scope in _process_starts(ast.parse(path.read_text(), filename=str(path)))
    }
    # the name in the list that covers each start, None for an unlisted one
    covered = {
        start: next((name for name in STARTS_AN_INTERPRETER
                     if start == name or start.startswith(name + ".")), None)
        for start in starts
    }
    assert sorted(start for start, name in covered.items() if name is None) == []
    # each name still starts one, so the list stays no longer than it must
    assert set(covered.values()) == STARTS_AN_INTERPRETER
