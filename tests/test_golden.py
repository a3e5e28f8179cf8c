"""Byte-for-byte pins on the JSON output of the CLI.

Each file under tests/golden/ is the exact stdout of one command. A
change that alters any of them changes what users and scripts read, so
it must regenerate the file on purpose:

    python -m anosurf.cli ARGS > tests/golden/NAME
"""

import pathlib

import pytest

from anosurf.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

FULL = ["--format", "json", "--traces", "full"]
GOLDEN = {
    "classify_1_2.json": ["classify", "1/2", *FULL],
    "classify_5_2.json": ["classify", "5/2", *FULL],
    "classify_7_2.json": ["classify", "7/2", *FULL],
    "classify_m5_3.json": ["classify", "-5/3", *FULL],
    "classify_11_7.json": ["classify", "11/7", *FULL],
    "classify_101_50.json": ["classify", "101/50", *FULL],
    "catalog_check_laws.json": ["catalog", "check", "--laws", "--law-bound", "6",
                                "--format", "json"],
    "track_Q2.json": ["track", "Q2", "--bound", "6", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_output_is_unchanged(name, capsys):
    assert main(GOLDEN[name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
