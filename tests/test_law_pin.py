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

The catalog's own check, `slope_law_check`, is pinned at bounds 20 and
40 for every family: the sha256 of the canonical JSON of its sorted
realized slopes, their count, and its violations in order.

Regenerate on purpose only, when a message or a law is meant to change;
this writes all four files:

    PYTHONPATH=src python tests/test_law_pin.py
"""

import hashlib
import json
import pathlib

import pytest

from trackgen import random_track_doc

from anosurf.catalog import FAMILIES, load_catalog, slope_law_check
from anosurf.traintrack import HEIGHT_KINDS, LAW_KINDS, SlopeLaw, TrainTrack, check_law

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
PIN = GOLDEN / "law_violations.json"
THREE_PLUS_PIN = GOLDEN / "three_plus_random.json"
THREE_PLUS_SEEDS = range(40)
BOUND = 2
ROLE_SOURCES = ("Q2", "Q4", "Q9")
CHECK_BOUNDS = (20, 40)


def _check_pin_path(bound: int) -> pathlib.Path:
    return GOLDEN / f"law_checks_b{bound}.json"


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
        ids = sorted(track.branches)
        designated = {"omega": ids[0::3], "mu": ids[1::3], "nu": ids[2::3]}
        report = check_law(track, SlopeLaw("FORMULA_THREE_PLUS"), designated, BOUND)
        pins[f"rand{seed}"] = {
            "realized": sorted(str(s) for s in report.realized),
            "violations": report.violations,
        }
    return pins


def check_pins(catalog, bound: int) -> dict:
    pins = {}
    for family in FAMILIES:
        report = slope_law_check(catalog, family, bound=bound)
        realized = sorted(str(s) for s in report.realized)
        canonical = json.dumps(realized, separators=(",", ":")).encode("ascii")
        pins[family] = {
            "realized_sha256": hashlib.sha256(canonical).hexdigest(),
            "realized_count": len(realized),
            "violations": report.violations,
        }
    return pins


def test_law_reports_are_pinned(catalog):
    assert law_pins(catalog) == json.loads(PIN.read_text(encoding="utf-8"))


def test_three_plus_on_random_tracks_is_pinned():
    assert three_plus_pins() == json.loads(THREE_PLUS_PIN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("bound", CHECK_BOUNDS)
def test_slope_law_checks_are_pinned(catalog, bound):
    pinned = json.loads(_check_pin_path(bound).read_text(encoding="utf-8"))
    assert check_pins(catalog, bound) == pinned


if __name__ == "__main__":
    catalog = load_catalog()
    outputs = [(PIN, law_pins(catalog)), (THREE_PLUS_PIN, three_plus_pins())]
    outputs += [(_check_pin_path(bound), check_pins(catalog, bound)) for bound in CHECK_BOUNDS]
    for path, pins in outputs:
        path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
