"""Pins the text of every slope-law violation and every realized slope set.

For each family track, each law kind in LAW_KINDS and the designated
roles of the family itself and of Q2, Q4 and Q9 (each role cut down to
the branches the track has), this records what `check_law` reports at
bound 2: the realized slopes and the violations, in order. Laws that
read a surjectivity height get 2. Most of these pairings are violated,
so the file holds the exact wording of every law's messages.
Regenerate on purpose only, when a message or a law is meant to change:

    PYTHONPATH=src python tests/test_law_pin.py > tests/golden/law_violations.json
"""

import json
import pathlib

from anosurf.catalog import FAMILIES, load_catalog
from anosurf.traintrack import LAW_KINDS, SlopeLaw, check_law

PIN = pathlib.Path(__file__).resolve().parent / "golden" / "law_violations.json"
BOUND = 2
ROLE_SOURCES = ("Q2", "Q4", "Q9")
HEIGHT_KINDS = ("ANY_SLOPE", "FORMULA_MU_NU_OMEGA")


def law_pins(catalog) -> dict:
    pins = {}
    for family in FAMILIES:
        track = catalog.tracks[family].track
        sources = [family] + [q for q in ROLE_SOURCES if q != family]
        for kind in LAW_KINDS:
            law = SlopeLaw(kind, 2 if kind in HEIGHT_KINDS else None)
            for source in sources:
                designated = {role: [b for b in ids if b in track.branches]
                              for role, ids in catalog.tracks[source].designated.items()}
                report = check_law(track, law, designated, BOUND, family=family)
                pins[f"{family} {kind} roles-of-{source}"] = {
                    "realized": sorted(str(s) for s in report.realized),
                    "violations": report.violations,
                }
    return pins


def test_law_reports_are_pinned(catalog):
    assert law_pins(catalog) == json.loads(PIN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    print(json.dumps(law_pins(load_catalog()), indent=2, sort_keys=True))
