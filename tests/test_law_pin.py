"""Pins the text of every slope-law violation and every realized slope set.

For each family track, each law kind in LAW_KINDS and the designated
roles of the family itself and of Q2, Q4 and Q9 (each role cut down to
the branches the track has), this records what `check_law` reports at
bound 2: the realized slopes and the violations, in order. Laws that
read a surjectivity height get 2. Most of these pairings are violated,
so the file holds the exact wording of every law's messages.

No shipped track realizes a class with p <= 0, so a second file pins
FORMULA_THREE_PLUS on random tracks, whose branch classes have p in
[-3, 3]: at bound 2 they realize classes with p < 0 on both sides of 3,
and classes with p = 0. Their branches take the roles omega, mu and nu
in turn.
Regenerate on purpose only, when a message or a law is meant to change;
this writes both files:

    PYTHONPATH=src python tests/test_law_pin.py
"""

import json
import pathlib

from trackgen import random_track_doc

from anosurf.catalog import FAMILIES, load_catalog
from anosurf.traintrack import LAW_KINDS, SlopeLaw, TrainTrack, check_law

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
PIN = GOLDEN / "law_violations.json"
THREE_PLUS_PIN = GOLDEN / "three_plus_random.json"
THREE_PLUS_SEEDS = range(40)
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


def three_plus_pins() -> dict:
    pins = {}
    for seed in THREE_PLUS_SEEDS:
        track = TrainTrack.from_json(random_track_doc(seed), track_id=f"rand{seed}")
        ids = track.branch_order()
        designated = {"omega": ids[0::3], "mu": ids[1::3], "nu": ids[2::3]}
        report = check_law(track, SlopeLaw("FORMULA_THREE_PLUS"), designated, BOUND)
        pins[f"rand{seed}"] = {
            "realized": sorted(str(s) for s in report.realized),
            "violations": report.violations,
        }
    return pins


def test_law_reports_are_pinned(catalog):
    assert law_pins(catalog) == json.loads(PIN.read_text(encoding="utf-8"))


def test_three_plus_on_random_tracks_is_pinned():
    assert three_plus_pins() == json.loads(THREE_PLUS_PIN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    for path, pins in ((PIN, law_pins(load_catalog())), (THREE_PLUS_PIN, three_plus_pins())):
        path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
