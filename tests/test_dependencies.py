"""The package runs on the standard library alone: no module of
src/anosurf imports a third-party module or dataclasses, and
pyproject.toml declares no runtime dependency. No module but the solver
itself imports the solver, anosurf.traintrack, when it is imported."""

import ast
import sys
from pathlib import Path

import pytest

import anosurf

PACKAGE = Path(anosurf.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(source: str):
    """The top-level name of each absolute import in a module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_walk_sees_every_kind_of_import():
    source = "import a.b, c\nfrom d.e import f\nfrom . import g\nfrom .h import i\n"
    assert list(absolute_imports(source)) == ["a", "c", "d"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_a_module_imports_only_the_standard_library_and_anosurf(path):
    names = set(absolute_imports(path.read_text(encoding="utf-8")))
    assert names <= set(sys.stdlib_module_names) | {"anosurf"}, names


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_a_module_imports_no_dataclasses(path):
    # the records are plain classes: dataclasses costs every import its
    # generated methods and the inspect module
    assert "dataclasses" not in set(absolute_imports(path.read_text(encoding="utf-8")))


def load_time_imports(source: str):
    """The import statements that run when a module is imported: each one
    outside a function body, those in class bodies and module-level
    blocks included."""
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nodes.extend(ast.iter_child_nodes(node))


def imported_parts(node) -> set:
    """Every dotted part of the modules and names an import statement
    names."""
    names = [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        names.append(node.module)
    return {part for name in names for part in name.split(".")}


def test_the_load_time_walk_skips_only_function_bodies():
    source = ("import a.b\nif x:\n    from .c import d\nclass K:\n    from . import e\n"
              "def f():\n    import g\nh = lambda: __import__('i')\n")
    parts = set().union(*map(imported_parts, load_time_imports(source)))
    assert parts == {"a", "b", "c", "d", "e"}


NOT_SOLVER = [path for path in MODULES if path.stem != "traintrack"]


@pytest.mark.parametrize("path", NOT_SOLVER, ids=[path.name for path in NOT_SOLVER])
def test_a_module_imports_the_solver_only_inside_a_function(path):
    # a process that only classifies never compiles the solver; the
    # __getattr__ hooks of anosurf and anosurf.catalog import it on first use
    for node in load_time_imports(path.read_text(encoding="utf-8")):
        assert "traintrack" not in imported_parts(node), (path.name, node.lineno)


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
