"""The program entry `anosurf.cli.run`: the console script and
`python -m anosurf.cli` exit through it, in a fresh process each."""

import ast
import gc
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from anosurf import cli as cli_module
from anosurf.cli import main

SRC = Path(cli_module.__file__).resolve().parents[1]
PYPROJECT = SRC.parent / "pyproject.toml"
ENV = {**{k: v for k, v in os.environ.items() if k != "ANOSURF_CATALOG"},
       "PYTHONPATH": str(SRC)}

# Runs the module as `python -m anosurf.cli ARGS` would, then reports the
# exit status and the freeze count on stderr's last line.
RUN_AS_MAIN = """\
import gc, runpy, sys
sys.argv = ["anosurf", *sys.argv[1:]]
try:
    runpy.run_module("anosurf.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count(), file=sys.stderr)
"""


def _run_as_main(argv):
    done = subprocess.run([sys.executable, "-c", RUN_AS_MAIN, *argv], env=ENV,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    code, frozen = done.stderr.splitlines()[-1].split()
    return int(code), int(frozen)


def test_the_cli_imports_no_click():
    probe = "import sys, anosurf.cli; print(sorted(m for m in sys.modules if 'click' in m))"
    done = subprocess.run([sys.executable, "-c", probe], env=ENV, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# modules that no part of the package needs: dataclasses loads inspect, and
# fractions loads decimal; and the schema validator, which a load of the
# shipped data does not run
UNNEEDED = ("dataclasses", "inspect", "fractions", "decimal", "anosurf._schema")


def test_a_classification_imports_no_record_or_fraction_machinery():
    probe = ("import contextlib, io, sys\n"
             "from anosurf.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "    code = main(['classify', '7/2', '--format', 'json', '--traces', 'full'])\n"
             "print(code, len(out.getvalue()) > 0, [m for m in %r if m in sys.modules])\n"
             % (UNNEEDED,))
    done = subprocess.run([sys.executable, "-c", probe], env=ENV, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 True []\n", "")


def test_a_classification_imports_no_solver():
    # the track records live in anosurf._track; anosurf.traintrack waits for a law check
    probe = ("import contextlib, io, sys\n"
             "import anosurf\n"
             "imported = 'anosurf.traintrack' in sys.modules\n"
             "from anosurf.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "    code = main(['classify', '7/2', '--format', 'json', '--traces', 'full'])\n"
             "print(code, imported, 'anosurf.traintrack' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=ENV, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 False False\n", "")


@pytest.mark.parametrize("argv, last", [
    (["track", "Q4", "--bound", "4"], "  law holds"),
    (["catalog", "check", "--laws", "--law-bound", "6"], "catalog ok"),
], ids=["track", "catalog-check"])
def test_a_law_check_imports_the_solver_in_a_fresh_process(argv, last):
    # conftest imports traintrack first, so only a fresh process shows an
    # import cycle between _track and traintrack
    done = subprocess.run([sys.executable, "-m", "anosurf.cli", *argv], env=ENV,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == last


def test_a_fraction_made_after_the_import_parses():
    probe = ("from anosurf.slopes import Slope, parse_slope\n"
             "from fractions import Fraction\n"
             "print(parse_slope(Fraction(-14, 4)) == Slope(-7, 2), Slope(7, 2).as_fraction())\n")
    done = subprocess.run([sys.executable, "-c", probe], env=ENV, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True 7/2\n", "")


def test_the_cli_runs_without_docstrings():
    # python -OO drops the docstrings that the command help is made of
    argv = ["-OO", "-m", "anosurf.cli", "classify", "7/2"]
    done = subprocess.run([sys.executable, *argv], env=ENV, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("slope 7/2: NoAnosov\n")


def test_in_process_main_does_not_freeze(capsys):
    assert main(["classify", "7/2"]) == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv, code", [
    (["classify", "7/2"], 0),
    (["defenestrate"], 2),
    (["classify", "abc"], 3),
    (["track", "Q2", "--bound", "5"], 4),
    (["catalog", "show", "B99"], 5),
], ids=["ok", "usage", "slope", "law", "data"])
def test_the_main_block_exits_with_the_documented_code_and_freezes(argv, code):
    status, frozen = _run_as_main(argv)
    assert status == code
    assert frozen > 0


def _main_block_call(source):
    """The name of the function the module's `if __name__ == "__main__":`
    block calls."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            [stmt] = node.body
            return stmt.value.func.id
    raise AssertionError("no __main__ block")


def test_the_console_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]["anosurf"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is getattr(cli_module, _main_block_call(inspect.getsource(cli_module)))


def test_the_program_path_prints_what_main_prints(capsys):
    argv = ["classify", "7/2", "--format", "json", "--traces", "full"]
    done = subprocess.run([sys.executable, "-m", "anosurf.cli", *argv], env=ENV,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    assert main(argv) == 0
    assert done.returncode == 0
    assert done.stdout == capsys.readouterr().out.encode()
    assert done.stderr == b""


@pytest.mark.parametrize("argv", [["classify", "7/2"],
                                  ["classify", "7/2", "--format", "json", "--traces", "full"],
                                  ["catalog", "list"]], ids=["table", "json", "list"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1(argv, unbuffered):
    # the pipe has no reader from the start, so the first write or the
    # flush after the command fails with EPIPE, which `run` turns into
    # exit 1 with nothing on stderr
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "anosurf.cli", *argv], env=env,
                              stdin=subprocess.DEVNULL, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")
