"""Rules on the library source itself."""

import ast
import importlib
from pathlib import Path

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


def test_every_export_has_a_caller_outside_the_unit_tests():
    # An export counts as used when a library module other than __init__, a
    # script or the acceptance criteria refers to it by name or attribute.
    init = ast.parse((Path(mahlercf.__file__).parent / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    referenced = set()
    for node in _nodes_outside_the_unit_tests():
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    assert sorted(exported - referenced) == []


def test_every_record_field_is_read_outside_the_unit_tests():
    # A record field that only the unit tests read is a result nobody uses;
    # it counts as read when a library module, a script or the acceptance
    # criteria refers to an attribute of that name.  Records are the classes
    # based on _Record, and their fields the names annotated in the class body.
    read = {
        node.attr for node in _nodes_outside_the_unit_tests() if isinstance(node, ast.Attribute)
    }
    fields = {
        f"{cls.name}.{stmt.target.id}"
        for path in sorted(Path(mahlercf.__file__).parent.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        and any(getattr(base, "id", None) == "_Record" for base in cls.bases)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    # the scan sees every field of every record class the package defines
    assert fields == {
        f"{record.__name__}.{name}" for record in _Record.__subclasses__() for name in record.__slots__
    }
    assert {field.partition(".")[0] for field in fields} == {
        "CertifiedValue", "ExponentSample", "IrrationalityReport", "Convergent",
        "BadApproxWitness", "HenselDemo", "OrbitRow",
        "BetaSequence", "IdentityReport", "WellApproxReport",
    }
    assert sorted(field for field in fields if field.rpartition(".")[2] not in read) == []


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
