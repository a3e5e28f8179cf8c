"""A digest pin on the law reports and the sorted slope lists of the CLI.

tests/golden/output_pin.sha256 holds one line per command: its
arguments joined by spaces, its exit code, and the sha256 of its stdout.
The commands are `track Qn --bound b --format json` for every family at
the bounds in TRACK_BOUNDS, `catalog check --laws --law-bound 20 --format
json`, `sweep --max 50 --format json`, whose stdout is pinned with its
`seconds` field dropped, since that field varies from run to run,
`catalog show` of every shipped entry, `catalog list` in both formats,
and `-h` of each of the eight parsers. The lines pin the realized slopes
in their printed order, so a change to how slopes are collected or
sorted shows here, each entry as shown, key order included, and every
option, choice and default as help prints it. argparse wraps help to
the terminal width, so every line is made with COLUMNS=80. A change that
alters an output on purpose regenerates the file:

    PYTHONPATH=src python tests/test_output_pin.py > tests/golden/output_pin.sha256
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
from unittest import mock

import pytest

from anosurf.catalog import FAMILIES, load_catalog
from anosurf.cli import main

PIN = pathlib.Path(__file__).resolve().parent / "golden" / "output_pin.sha256"
TRACK_BOUNDS = (0, 6, 20, 50)
COMMANDS = [
    *(["track", family, "--bound", str(bound), "--format", "json"]
      for family in FAMILIES for bound in TRACK_BOUNDS),
    ["catalog", "check", "--laws", "--law-bound", "20", "--format", "json"],
    ["sweep", "--max", "50", "--format", "json"],
    *(["catalog", "show", entry.id] for entry in load_catalog()),
    ["catalog", "list"],
    ["catalog", "list", "--format", "json"],
    *([*command, "-h"] for command in (
        [], ["classify"], ["sweep"], ["track"],
        ["catalog"], ["catalog", "list"], ["catalog", "show"], ["catalog", "check"])),
]


def pin_line(argv) -> str:
    out = io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()),
          mock.patch.dict(os.environ, {"COLUMNS": "80"})):
        code = main(argv)
    text = out.getvalue()
    if argv[:2] == ["sweep", "--max"]:
        doc = json.loads(text)
        del doc["seconds"]
        text = json.dumps(doc, indent=2)
    return f"{' '.join(argv)} {code} {hashlib.sha256(text.encode('utf-8')).hexdigest()}"


def _pinned():
    lines = PIN.read_text(encoding="utf-8").splitlines()
    return {line.rsplit(" ", 2)[0]: line for line in lines}


def test_the_pin_lists_every_command():
    assert list(_pinned()) == [" ".join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_is_unchanged(argv):
    assert pin_line(argv) == _pinned()[" ".join(argv)]


if __name__ == "__main__":
    print("\n".join(pin_line(argv) for argv in COMMANDS))
