"""Pins every family's carried classes and witnesses at bounds 20 and 40.

The numpy oracle cannot reach these bounds (21^6 grid points exceed its
cap), so these files are the only guard on the exact bound the
acceptance gate checks and on the wider class ranges above it. For each
family and bound they record the sha256 of the canonical JSON of
[[class, witness], ...] in the dict order of
`carried_classes(...).classes`, the null witness and the class count.
Regenerate on purpose only, when the witnesses are meant to change; this
writes both files:

    PYTHONPATH=src python tests/test_witness_pin.py
"""

import hashlib
import json
import pathlib

from anosurf.catalog import FAMILIES, load_catalog
from anosurf.traintrack import carried_classes

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
BOUNDS = (20, 40)


def _pin_path(bound: int) -> pathlib.Path:
    return GOLDEN / f"witnesses_b{bound}.json"


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def witness_pins(catalog, bound: int) -> dict:
    pins = {}
    for family in FAMILIES:
        report = carried_classes(catalog.tracks[family].track, bound)
        pairs = [[list(cls), witness] for cls, witness in report.classes.items()]
        pins[family] = {
            "classes_sha256": hashlib.sha256(_canonical(pairs)).hexdigest(),
            "class_count": len(report.classes),
            "null_witness": report.null_witness,
        }
    return pins


def test_bound_twenty_witnesses_are_pinned(catalog):
    assert witness_pins(catalog, 20) == json.loads(_pin_path(20).read_text(encoding="utf-8"))


def test_bound_forty_witnesses_are_pinned(catalog):
    assert witness_pins(catalog, 40) == json.loads(_pin_path(40).read_text(encoding="utf-8"))


if __name__ == "__main__":
    catalog = load_catalog()
    for bound in BOUNDS:
        text = json.dumps(witness_pins(catalog, bound), indent=2, sort_keys=True)
        _pin_path(bound).write_text(text + "\n", encoding="utf-8")
