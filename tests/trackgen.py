"""Deterministic random track documents for property tests.

The construction only ever emits structurally valid tracks: every end
of every non loop branch is attached to exactly one switch side, each
switch gets one one-fold end and one or two two-fold ends, and no side
holds both ends of one branch.
"""

from __future__ import annotations

import random
from typing import List, Tuple

End = Tuple[str, str]


def random_track_doc(seed: int, max_branches: int = 8) -> dict:
    rng = random.Random(seed)
    n = rng.randint(1, max_branches)
    branches = []
    ends: List[End] = []
    for i in range(n):
        bid = f"b{i}"
        loop = rng.random() < 0.15
        branches.append({
            "id": bid,
            "class": [rng.randint(-3, 3), rng.randint(-3, 3)],
            "loop": loop,
        })
        if not loop:
            ends.append((bid, "head"))
            ends.append((bid, "tail"))
    rng.shuffle(ends)

    switches = []
    counter = 0
    while ends:
        if len(ends) == 3:
            size = 3
        elif len(ends) >= 5 and rng.random() < 0.5:
            size = 3
        else:
            size = 2
        group = [ends.pop() for _ in range(size)]
        # both ends of one branch inside a group of three must straddle
        # the switch, so route one of them to the one-fold side
        by_branch = {}
        for e in group:
            by_branch.setdefault(e[0], []).append(e)
        dup = next((es for es in by_branch.values() if len(es) == 2), None)
        if dup is not None and size == 3:
            one = dup[0]
        else:
            one = rng.choice(group)
        rest = [e for e in group if e != one]
        switches.append({
            "id": f"s{counter}",
            "one_fold": [{"branch": one[0], "end": one[1]}],
            "two_fold": [{"branch": b, "end": e} for b, e in rest],
        })
        counter += 1
    return {"branches": branches, "switches": switches}


def hung_loops_doc(loops: int) -> dict:
    """One component with `loops` free weights, each in [0, bound] on its
    own: loop x<i> has both ends on switch h<i>, which kills stem y<i>,
    and the stems hang from a chain of spine branches z<i> through joints
    j<i>. Every y and z weighs 0, so there are (bound + 1)^loops
    solutions. Needs loops >= 2."""
    def end(bid, name):
        return {"branch": bid, "end": name}

    branches = [{"id": f"{kind}{i}", "class": [1, i] if kind == "x" else [0, 0], "loop": False}
                for kind, count in (("x", loops), ("y", loops), ("z", loops - 2))
                for i in range(1, count + 1)]
    switches = [{"id": f"h{i}", "one_fold": [end(f"x{i}", "head")],
                 "two_fold": [end(f"x{i}", "tail"), end(f"y{i}", "tail")]}
                for i in range(1, loops + 1)]
    # j1 joins y1 and y2 to z1; each later joint hangs one more stem
    inner = ["y1"] + [f"z{i}" for i in range(1, loops - 1)]
    for i in range(1, loops):
        two = [end(f"y{i + 1}", "head")]
        if i < loops - 1:
            two.append(end(f"z{i}", "tail"))
        switches.append({"id": f"j{i}", "one_fold": [end(inner[i - 1], "head")],
                         "two_fold": two})
    return {"branches": branches, "switches": switches}
