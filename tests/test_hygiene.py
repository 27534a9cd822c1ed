"""Source hygiene checks that need nothing beyond the standard library.

Every name a module of the package or of its tests imports must be used in
that module: read as a name, as the base of an attribute, or listed in
__all__.  No module of the package may read a single-underscore attribute
it does not define itself (reads on self and cls aside): another module's
private state stays behind its public methods.  Every public top-level
function or class of the package must be named somewhere else in the
package or in perfbench/: a public name only tests call is dead code.
Every private top-level function of the package must be named in its own
module, so no helper outlives its last caller.  Every parameter with a
default in the package must be passed at some call site of the package
(the console entry point aside): a default no caller overrides is a
constant, and a test that needs another value monkeypatches.  Every
assert left in the package is listed below by module and enclosing function: certificates
raise, and a new assert is a deliberate edit of that list.  So is every
comparison of a field degree with 1: products specialize to Q in one
place, the exactfield accumulator, and a new Q-only fork is a deliberate
edit of its list.  So is every call that passes check=, which would
bring back a size gate on the sweep for associativity: today none does,
as every StructureAlgebra is swept where it is built.  The Fraction reference that the arithmetic is
checked against imports nothing from the package, so a package bug cannot
pass by agreeing with itself.  The modules that import fractions are listed
below, so that Fraction arithmetic does not come back into the linear
algebra unnoticed.  No assert in the tests may have a constant true
operand of `or` in its condition, which would let it pass whatever the
code does.  The checks parse the sources with ast, so they run without any
linter.  One check reads a signature instead: perfbench's table hook reads
the leading arguments of StructureAlgebra by position and keyword, so
their order is pinned.
"""

import ast
import inspect
from pathlib import Path

import pytest

from ksalgebra.csa import StructureAlgebra

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ksalgebra"
MODULES = sorted(SRC.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))
BENCH_MODULES = sorted((TESTS.parent / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_unused_imports_are_detected():
    source = "import os\nfrom math import gcd, lcm\nfrom .x import y\n__all__ = ['y']\nlcm(1)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=[f"tests/{p.name}" for p in TEST_MODULES])
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> list[str]:
    """Import statements that load ksalgebra or one of its modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "ksalgebra" or name.startswith("ksalgebra.") for name in names):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_package_imports_are_detected():
    source = (
        "import ksalgebra.polynomials as p\nfrom fractions import Fraction\n"
        "def f():\n    from ksalgebra import exactfield\n    import ksalgebrax\n"
    )
    assert package_imports(source) == [
        "line 1: import ksalgebra.polynomials as p",
        "line 4: from ksalgebra import exactfield",
    ]


def test_fraction_reference_imports_nothing_from_the_package():
    assert package_imports((TESTS / "fraction_reference.py").read_text()) == []


def imports_fractions(source: str) -> bool:
    """Whether the source imports the fractions module or a name from it."""
    return any(
        isinstance(node, ast.Import) and any(alias.name == "fractions" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "fractions"
        for node in ast.walk(ast.parse(source))
    )


def test_fraction_imports_are_detected():
    assert imports_fractions("import fractions\n")
    assert imports_fractions("def f():\n    from fractions import Fraction\n")
    assert not imports_fractions("from .exactfield import Fraction\nimport fractionsx\n")


# the modules of the package that import fractions: parsing and printing
# rationals, the field descriptor's rational data, and the symbol route.
# The linear algebra (linalg, qform, csa) runs on integer vectors, and
# bringing Fraction back into it is a deliberate edit of this list
FRACTION_MODULES = ["brauer", "cli", "exactfield", "pipeline", "polynomials"]


def test_modules_importing_fractions_are_the_listed_ones():
    assert [path.stem for path in MODULES if imports_fractions(path.read_text())] == FRACTION_MODULES


def foreign_private_reads(source: str) -> list[str]:
    """Reads of obj._name where the module defines no _name: not as a
    function, class or assigned name, not as an attribute it assigns, and
    not in __slots__.  Dunder names and reads on self and cls are skipped."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            defined.add(node.value)  # __slots__ entries and setattr names
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and node.attr not in defined
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_foreign_private_reads_are_detected():
    source = (
        "class A:\n    def __init__(self):\n        self._mine = 1\n"
        "def f(a, b):\n    return a._mine + b._theirs + b.__class__ + a.public\n"
        "def g(self):\n    return self._anything\n"
    )
    assert foreign_private_reads(source) == ["line 5: b._theirs"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_foreign_private_reads(path):
    assert foreign_private_reads(path.read_text()) == []


def names_read(sources: list[str]) -> set[str]:
    """Every name the sources use: as a name, an attribute or an import.
    A definition does not name itself."""
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return named


def unreferenced_public_names(defining: dict[str, str], using: list[str]) -> list[str]:
    """Public top-level functions and classes of the defining sources (name
    -> source) that no source names.  The using sources should include the
    defining ones, so that a helper used in its own module counts as
    used."""
    named = names_read(using)
    return [
        f"{module}.{node.name}"
        for module, source in defining.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named
    ]


def test_unreferenced_public_names_are_detected():
    defining = {"m": "def used():\n    return helper()\ndef helper():\n    pass\ndef dead():\n    pass\n"}
    using = [defining["m"], "from m import used\nused()\n"]
    assert unreferenced_public_names(defining, using) == ["m.dead"]


def test_every_public_name_is_used_outside_the_tests():
    defining = {path.stem: path.read_text() for path in MODULES}
    using = list(defining.values()) + [path.read_text() for path in BENCH_MODULES]
    assert unreferenced_public_names(defining, using) == []


def unreferenced_private_functions(source: str) -> list[str]:
    """Private top-level functions that their own module never names."""
    named = names_read([source])
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and node.name not in named
    ]


def test_unreferenced_private_functions_are_detected():
    source = "def f():\n    return _used()\ndef _used():\n    pass\ndef _dead():\n    pass\n"
    assert unreferenced_private_functions(source) == ["_dead"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_function_is_used_in_its_module(path):
    assert unreferenced_private_functions(path.read_text()) == []


# the asserts left in the package: programmer-error preconditions, by
# module and enclosing function, in source order
LISTED_ASSERTS = {
    "brauer": ["_int_valuation"],
    "pipeline": ["even_weight_orbits", "search_cubic_diagonal"],
    "polynomials": ["interval_eval"],
    "qform": ["_inertia"],
}


def located_by_function(source: str, match) -> list[str]:
    """The enclosing function (Class.method, outer.inner) of each node that
    match accepts, in source order; <module> for one at top level."""
    found = []

    def visit(node, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def asserts_by_function(source: str) -> list[str]:
    return located_by_function(source, lambda node: isinstance(node, ast.Assert))


def test_asserts_are_located_by_function():
    source = (
        "assert True\n"
        "def f(x):\n    assert x\n    def g():\n        if x:\n            assert x > 1\n"
        "class C:\n    def m(self):\n        for _ in ():\n            assert self\n"
        "def clean():\n    return 1\n"
    )
    assert asserts_by_function(source) == ["<module>", "f", "f.g", "C.m"]


def test_asserts_in_src_are_the_listed_preconditions():
    found = {path.stem: asserts_by_function(path.read_text()) for path in MODULES}
    assert {module: where for module, where in found.items() if where} == LISTED_ASSERTS


def vacuous_asserts(source: str) -> list[str]:
    """Asserts whose condition holds an `or` with a constant true operand."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Assert):
            continue
        for sub in ast.walk(node.test):
            if isinstance(sub, ast.BoolOp) and isinstance(sub.op, ast.Or) and any(
                isinstance(v, ast.Constant) and v.value for v in sub.values
            ):
                found.append(f"line {node.lineno}: {ast.unparse(node.test)}")
                break
    return found


def test_vacuous_asserts_are_detected():
    source = (
        "assert x in y or True\nassert f(a or 1)\nassert x or False\n"
        "assert x or y\nassert (x and y) or 'yes'\n"
    )
    assert vacuous_asserts(source) == [
        "line 1: x in y or True",
        "line 2: f(a or 1)",
        "line 5: x and y or 'yes'",
    ]


@pytest.mark.parametrize("path", TEST_MODULES, ids=[f"tests/{p.name}" for p in TEST_MODULES])
def test_no_vacuous_asserts_in_tests(path):
    assert vacuous_asserts(path.read_text()) == []


# the comparisons of a field degree with 1 left in the package, by module
# and enclosing function: Q's label only, as every product runs one kernel
LISTED_DEGREE_BRANCHES = {
    "brauer": ["QuaternionSymbol.render"],
}


def is_degree(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("d", "degree")) or (
        isinstance(node, ast.Attribute) and node.attr == "degree"
    )


def compares_degree_with_one(node) -> bool:
    """An == or != comparison of d, degree or x.degree with the constant 1."""
    if not isinstance(node, ast.Compare) or not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
        return False
    operands = [node.left, *node.comparators]
    one = any(isinstance(x, ast.Constant) and x.value == 1 for x in operands)
    return one and any(is_degree(x) for x in operands)


def degree_branches_by_function(source: str) -> list[str]:
    return located_by_function(source, compares_degree_with_one)


def test_degree_branches_are_located_by_function():
    source = (
        "def f(field, d):\n    if field.degree == 1:\n        return d != 1\n"
        "class K:\n    def m(self, degree):\n        return 1 == degree\n"
        "def clean(d, x):\n    return d < 1 or x == 1 or d == 2 or x.size == 1\n"
    )
    assert degree_branches_by_function(source) == ["f", "f", "K.m"]


def test_degree_branches_in_src_are_the_listed_ones():
    found = {path.stem: degree_branches_by_function(path.read_text()) for path in MODULES}
    assert {module: where for module, where in found.items() if where} == LISTED_DEGREE_BRANCHES


# the functions in the package that pass check= to a StructureAlgebra,
# by module: none, as every table is swept where it is built
LISTED_SWEEP_GATES = {}


def sweep_gates_by_function(source: str) -> list[str]:
    return located_by_function(
        source, lambda node: isinstance(node, ast.Call) and any(kw.arg == "check" for kw in node.keywords)
    )


def test_sweep_gates_are_located_by_function():
    source = (
        "def f(t):\n    return A(t, check=len(t) < 9)\n"
        "class K:\n    def m(self, t):\n        return [A(t, check=False), A(t), A(t, den=2)]\n"
        "def clean(t, check):\n    return A(t, checked=check)\n"
    )
    assert sweep_gates_by_function(source) == ["f", "K.m"]


def test_sweep_gates_in_src_are_the_listed_ones():
    found = {path.stem: sweep_gates_by_function(path.read_text()) for path in MODULES}
    assert {module: where for module, where in found.items() if where} == LISTED_SWEEP_GATES


def defaulted_parameters(tree) -> list[tuple[str, str, str, int | None]]:
    """(qualified name, callee name, parameter, position among the
    arguments a call writes, or None for keyword-only) of each parameter
    with a default.  A method's callee name is its own, __init__'s is its
    class's; self and cls take no position."""
    found = []

    def visit(node, scope: list[str], in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                callee = scope[-1] if bound and child.name == "__init__" else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                qualname = ".".join(scope + [child.name])
                for i, arg in enumerate(positional[first:], start=first):
                    found.append((qualname, callee, arg.arg, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((qualname, callee, arg.arg, None))
                visit(child, scope + [child.name], False)
            else:
                visit(child, scope, in_class)

    visit(tree, [], False)
    return found


def unpassed_defaults(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """module.function(parameter) for each parameter with a default that no
    call in the sources passes, by position or keyword.  Calls are matched
    to functions by name: f(...) and obj.f(...) both call every f."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    passed: dict[str, list[tuple[float, set[str]]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                count = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
                passed.setdefault(name, []).append((count, {k.arg for k in node.keywords}))
    return [
        f"{module}.{qualname}({param})"
        for module, tree in trees.items()
        for qualname, callee, param, position in defaulted_parameters(tree)
        if f"{module}.{qualname}" not in exempt
        and not any(
            param in keywords or None in keywords or (position is not None and count > position)
            for count, keywords in passed.get(callee, [])
        )
    ]


def test_unpassed_defaults_are_detected():
    defining = (
        "def f(x, y=1, z=2, *, w=3):\n    return g(x, 1) + g(x, fast=True)\n"
        "def g(x, y=0, fast=False):\n    return f(x, 5) + f(x, **{})\n"
        "class C:\n    def __init__(self, a, b=0):\n        self.m(a=1)\n"
        "    def m(self, a=0, b=0):\n        return C(1)\n"
        "def main(argv=None):\n    return C(1, 2)\n"
    )
    assert unpassed_defaults({"m": defining}, {"m.main"}) == ["m.C.m(b)"]
    assert unpassed_defaults({"m": defining.replace("**{}", "1")}, {"m.main"}) == [
        "m.f(z)", "m.f(w)", "m.C.m(b)"
    ]


def test_every_default_is_passed_somewhere_in_src():
    # a default that no caller overrides is a switch nobody sets: a constant
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unpassed_defaults(sources, {"cli.main"}) == []


def test_structure_algebra_leads_with_the_arguments_perfbench_reads():
    # perfbench/tracer.py _table_hook reads constants as args[2] and check
    # from the keywords when there are at most 4 positional arguments; a
    # reorder would miscount csa.assoc_triples_n silently.  No check is
    # passed, so the hook counts every table as swept, as each one is
    params = inspect.signature(StructureAlgebra.__init__).parameters
    assert list(params)[2] == "constants"
    assert params["constants"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert "check" not in params
    assert params["den"].kind is inspect.Parameter.KEYWORD_ONLY
