"""Pins every family's carried classes and witnesses at bound 20.

The numpy oracle cannot reach bound 20 (21^6 grid points exceed its
cap), so this file is the only guard on the exact bound the acceptance
gate checks. For each family it records the sha256 of the canonical
JSON of [[class, witness], ...] in the dict order of
`carried_classes(...).classes`, the null witness and the class count.
Regenerate on purpose only, when the witnesses are meant to change:

    PYTHONPATH=src python tests/test_witness_pin.py > tests/golden/witnesses_b20.json
"""

import hashlib
import json
import pathlib

from anosurf.catalog import FAMILIES, load_catalog
from anosurf.traintrack import carried_classes

PIN = pathlib.Path(__file__).resolve().parent / "golden" / "witnesses_b20.json"
BOUND = 20


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


def witness_pins(catalog) -> dict:
    pins = {}
    for family in FAMILIES:
        report = carried_classes(catalog.tracks[family].track, BOUND)
        pairs = [[list(cls), witness] for cls, witness in report.classes.items()]
        pins[family] = {
            "classes_sha256": hashlib.sha256(_canonical(pairs)).hexdigest(),
            "class_count": len(report.classes),
            "null_witness": report.null_witness,
        }
    return pins


def test_bound_twenty_witnesses_are_pinned(catalog):
    assert witness_pins(catalog) == json.loads(PIN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    print(json.dumps(witness_pins(load_catalog()), indent=2, sort_keys=True))
