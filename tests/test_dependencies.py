"""The package runs on the standard library alone: no module of
src/anosurf imports a third-party module or dataclasses, and
pyproject.toml declares no runtime dependency."""

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


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
