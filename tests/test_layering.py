"""Import rules of the package, checked on its source with ``ast``.

Every import sits at module level, so a module's dependencies are read off
its head. The lower layers never import the fixed-point driver or the CLI:
``analysis`` and below must work without them. No module imports another's
``_``-prefixed names. The package keeps only what is used: every public
module-level function and class is referred to outside its own definition,
by the package, the acceptance tests, the benchmark or the tools, and every
defaulted parameter of a public function or method, or defaulted field of a
frozen dataclass, is passed by some call in the package, or named with its
reason in ``UNPASSED_DEFAULTS``.
"""

import ast
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "streamfem"
SOURCES = sorted(PACKAGE.glob("*.py"))
# where a use of a package name counts; the package's __init__ re-exports nothing
USERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py")),
         *sorted((ROOT / "tools").glob("*.py"))]
LOWER_LAYERS = ("analysis", "assembly", "solvers", "argyris", "mesh", "quadrature")
UPPER_LAYERS = ("streamfem.picard", "streamfem.cli")
# defaulted parameters that no call in the package passes, each with its reason
UNPASSED_DEFAULTS = {
    "ScatterPlan.build(reduced)": "reduced=False keeps the constrained DOFs, for the energy "
                                  "oracle of acceptance criterion 4h",
    "build_element_basis(edge_normal_convention)": "the element tests pass degenerate midside "
                                                   "normals to reach the construction errors",
    "main(argv)": "the console script calls main() and argparse reads sys.argv; tests, the "
                  "benchmark and the tools pass their argv",
}


def function_imports(tree) -> list[int]:
    """Line numbers of the imports inside any function body of ``tree``."""
    return sorted(
        node.lineno
        for scope in ast.walk(tree) if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(scope) if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def imported_modules(tree) -> set[str]:
    """Absolute names of every module, or module member, that ``tree`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["streamfem" if node.level else None, node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def private_imports(tree) -> set[str]:
    """The ``_``-prefixed streamfem modules and members that ``tree`` imports."""
    return {name for name in imported_modules(tree)
            if name.startswith("streamfem.") and any(part.startswith("_")
                                                     for part in name.split(".")[1:])}


def public_definitions(tree) -> list[str]:
    """Names of the public functions and classes defined at module level."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def referenced_names(tree) -> set[str]:
    """Every name ``tree`` refers to outside the definition of that name: as a
    variable, an attribute or an imported member, or as the last part of a
    dotted string such as ``"solvers.pcg"``, by which the benchmark looks a
    function up."""
    names = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        used = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    used.add(parts[-1])
        names |= used - {own}
    return names


def frozen_dataclass(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
               for d in node.decorator_list)


def has_default(value) -> bool:
    """Whether a dataclass field's value gives it a default: any value but a
    ``field(...)`` call without ``default`` or ``default_factory``."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def defaulted_parameters(tree) -> list[tuple[str, str, str, int | None]]:
    """(label, call name, parameter, position) of every defaulted parameter
    of the public module-level functions and of the public methods and
    ``__init__`` of public classes. The position counts the arguments a call
    writes, so a method's ``self`` or ``cls`` is not counted; it is None for
    a keyword-only parameter. ``__init__`` is called by its class's name, and
    so is a frozen dataclass, whose fields are its parameters: they are set
    only there, where a mutable dataclass's defaults are a start state."""
    found = []

    def add(fn, label, call, bound):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found.extend((f"{label}({arg.arg})", call, arg.arg, k - bound)
                     for k, arg in enumerate(positional) if k >= first)
        found.extend((f"{label}({arg.arg})", call, arg.arg, None)
                     for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if frozen_dataclass(node):
                fields = [f for f in node.body
                          if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                found.extend((f"{node.name}({f.target.id})", node.name, f.target.id, k)
                             for k, f in enumerate(fields) if has_default(f.value))
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (
                        fn.name == "__init__" or not fn.name.startswith("_")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    call = node.name if fn.name == "__init__" else fn.name
                    add(fn, f"{node.name}.{fn.name}", call, 0 if static else 1)
    return found


def call_arguments(tree) -> list[tuple[str, float, set]]:
    """(called name, positional arguments, keywords) of every call in
    ``tree``, the name being the last part of the called expression with
    import aliases undone. A ``*args`` counts as every position, and a
    ``**kwargs`` as the keyword None, which passes every parameter."""
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls.append((aliases.get(name, name), math.inf if starred else len(node.args),
                          {keyword.arg for keyword in node.keywords}))
    return calls


def unpassed_defaults(definitions, calls) -> list[str]:
    """Labels of the defaulted parameters that no call passes. Calls are
    matched by name alone, so methods of one name share their calls."""
    return [label for label, name, param, position in definitions
            if not any(called == name and (param in keywords or None in keywords or (
                position is not None and count > position))
                       for called, count, keywords in calls)]


def upper_layer_imports(tree) -> set[str]:
    return {name for name in imported_modules(tree)
            if any(name == up or name.startswith(f"{up}.") for up in UPPER_LAYERS)}


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("import os\n\ndef f():\n    from . import picard\n    import streamfem.cli\n")
    assert function_imports(tree) == [4, 5]
    assert upper_layer_imports(tree) == {"streamfem.picard", "streamfem.cli"}
    assert upper_layer_imports(ast.parse("from .picard import PicardConfig\n")) == {
        "streamfem.picard", "streamfem.picard.PicardConfig"}
    assert not upper_layer_imports(ast.parse("from .solvers import pcg\nimport pickle\n"))
    assert private_imports(ast.parse(
        "from .argyris import BLOCK, _powers\nfrom scipy.sparse._sparsetools import coo_tocsr\n"
        "import streamfem._native\nfrom __future__ import annotations\n")) == {
        "streamfem.argyris._powers", "streamfem._native"}
    tree = ast.parse("def f():\n    return f()\n\nclass _C:\n    pass\n\n"
                     "def g():\n    return f, 'solvers.pcg'\n\nclass K:\n    x = m.h\n")
    assert public_definitions(tree) == ["f", "g", "K"]
    assert {"f", "pcg", "h", "m"} <= referenced_names(tree)
    assert not {"g", "K", "solvers"} & referenced_names(tree)
    assert "f" not in referenced_names(ast.parse("def f():\n    return f()\n"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert function_imports(ast.parse(path.read_text())) == [], path.name


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_lower_layers_import_neither_picard_nor_cli(layer):
    tree = ast.parse((PACKAGE / f"{layer}.py").read_text())
    assert upper_layer_imports(tree) == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    """Helpers such as the monomial tables of ``argyris`` stay behind their module."""
    assert private_imports(ast.parse(path.read_text())) == set(), path.name


def test_every_public_function_and_class_is_used():
    """A name that no command, acceptance test, benchmark or tool reaches
    belongs in the test that needs it, not in the package."""
    used = set()
    for path in [*SOURCES, *USERS]:
        if path.name != "__init__.py":
            used |= referenced_names(ast.parse(path.read_text()))
    unused = [f"{path.stem}.{name}" for path in SOURCES
              for name in public_definitions(ast.parse(path.read_text())) if name not in used]
    assert unused == []


def test_the_default_check_sees_positions_keywords_and_aliases():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n\n"
        "    @classmethod\n    def build(cls, y, z=1):\n        pass\n\n"
        "    @staticmethod\n    def make(w=1):\n        pass\n\n"
        "    def _hidden(self, v=1):\n        pass\n\n"
        "@dataclass(frozen=True)\nclass C:\n    a: int\n    b: int = field(repr=False)\n"
        "    c: int = 1\n    d: list = field(default_factory=list)\n\n"
        "@dataclass\nclass S:\n    n: int = 0\n")
    definitions = defaulted_parameters(tree)
    assert [(label, name, position) for label, name, _, position in definitions] == [
        ("f(b)", "f", 1), ("f(c)", "f", 2), ("f(d)", "f", None), ("K.__init__(x)", "K", 0),
        ("K.build(z)", "build", 1), ("K.make(w)", "make", 0), ("C(c)", "C", 2), ("C(d)", "C", 3)]
    uses = {
        "from .m import f as g\ng(0, 1)": ["f(c)", "f(d)", "K.__init__(x)", "K.build(z)",
                                          "K.make(w)", "C(c)", "C(d)"],
        "f(0, d=4)\nK(1)\nK.build(0)\nC(0, 1, d=[])": ["f(b)", "f(c)", "K.build(z)",
                                                       "K.make(w)", "C(c)"],
        "f(*args)\nk.build(0, 1)\nK.make(**kw)\nC(0, 1, 2)": ["f(d)", "K.__init__(x)", "C(d)"],
    }
    for source, unpassed in uses.items():
        assert unpassed_defaults(definitions, call_arguments(ast.parse(source))) == unpassed, \
            source


def test_every_defaulted_parameter_is_passed_by_the_package():
    """A default that no command overrides is a constant; one that only the
    tests override is a build path the program never takes. The allowed
    exceptions are in ``UNPASSED_DEFAULTS``, each with its reason."""
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    definitions = [d for tree in trees for d in defaulted_parameters(tree)]
    calls = [call for tree in trees for call in call_arguments(tree)]
    assert set(UNPASSED_DEFAULTS) <= {label for label, _, _, _ in definitions}
    assert [label for label in unpassed_defaults(definitions, calls)
            if label not in UNPASSED_DEFAULTS] == []
