"""tools/loc.py, the logical line count: what it counts on a small
module, and which files it counts."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# each sample with its count of logical lines
SAMPLES = {
    "docstrings": ('"""The module,\non two lines."""\n\n\n'
                   'class A:\n    """The class."""\n\n'
                   '    def f(self):\n        """The\n        function."""\n'
                   '        return 1\n', 3),
    "comments-and-blanks": ("# a comment\n\nx = 1  # after code\n\n    # indented\n\ny = 2\n", 2),
    "three-line-call": ("print(\n    1,\n    2)\n", 3),
    "string-statement": ('x = 1\n"not a docstring"\n\n\ndef f():\n    pass\n'
                         '    """nor this"""\n', 5),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_logical_lines(tmp_path, name):
    text, count = SAMPLES[name]
    path = tmp_path / "sample.py"
    path.write_text(text, encoding="utf-8")
    assert loc.logical_lines(path) == count


def test_the_files_are_the_package_and_the_data_builder():
    package = sorted((ROOT / "src" / "anosurf").iterdir())
    assert loc.FILES == [p for p in package if p.suffix == ".py"] + [
        ROOT / "tools" / "build_data.py"]
