"""Import rules of the package, checked on its source with ``ast``.

Every import sits at module level, so a module's dependencies are read off
its head. The lower layers never import the fixed-point driver or the CLI:
``analysis`` and below must work without them. No module imports another's
``_``-prefixed names. The package keeps only what is used: every public
module-level function and class is referred to outside its own definition,
by the package, the acceptance tests, the benchmark or the tools.
"""

import ast
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
