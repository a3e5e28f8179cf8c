"""A digest pin on the full-trace JSON of every slope of height 1 to 50.

tests/golden/grid_h50.sha256 holds one line per height: the height, the
number of reduced slopes q/p with max(p, |q|) equal to it, and the sha256
of their `json.dumps(result.to_json("full"))` texts, each followed by a
newline, in order of p and then q. Together the lines pin all 3095
results of the height-50 grid, and a difference shows at its height.
A change that alters a result on purpose regenerates the file:

    PYTHONPATH=src python tests/test_grid_pin.py > tests/golden/grid_h50.sha256
"""

import hashlib
import json
import math
import pathlib

from anosurf.catalog import load_catalog
from anosurf.classifier import classify
from anosurf.slopes import Slope, up_to_height

PIN = pathlib.Path(__file__).resolve().parent / "golden" / "grid_h50.sha256"
MAX_HEIGHT = 50


def height_slopes(h):
    """The reduced finite slopes of height exactly h, by p and then q."""
    for p in range(1, h + 1):
        for q in range(-h, h + 1):
            if max(p, abs(q)) == h and math.gcd(p, abs(q)) == 1:
                yield Slope(q, p)


def grid_digest_lines(catalog):
    lines = []
    for h in range(1, MAX_HEIGHT + 1):
        digest, count = hashlib.sha256(), 0
        for slope in height_slopes(h):
            text = json.dumps(classify(slope, catalog).to_json("full"))
            digest.update(text.encode("utf-8") + b"\n")
            count += 1
        lines.append(f"{h} {count} {digest.hexdigest()}")
    return lines


def test_grid_results_are_unchanged(catalog):
    want = PIN.read_text(encoding="utf-8").splitlines()
    assert sum(int(line.split()[1]) for line in want) == 3095
    have = grid_digest_lines(catalog)
    # compare per height, so a failure names the heights that moved
    moved = [w.split()[0] for w, h in zip(want, have) if w != h]
    assert len(have) == len(want) and not moved, f"heights that changed: {moved}"


def test_up_to_height_is_the_grid_by_p_then_q():
    grid = list(up_to_height(MAX_HEIGHT))
    assert len(grid) == 3095
    assert set(grid) == {s for h in range(1, MAX_HEIGHT + 1) for s in height_slopes(h)}
    assert grid == sorted(grid, key=lambda s: (s.p, s.q))


if __name__ == "__main__":
    print("\n".join(grid_digest_lines(load_catalog())))
