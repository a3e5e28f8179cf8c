#!/usr/bin/env python3
"""Generate the packaged data files under src/anosurf/_data.

Everything the package loads at runtime is produced here: the spine
layout with its brute forced symmetry group, the eleven canonical
curve complexes, their boundary double cover train tracks with slope
laws, and the branched surface catalog with its checksum manifest.

The script asserts every structural invariant it knows about before
writing, and reloads what it wrote through the package loader
afterwards, so a successful run is itself a consistency check.

Run from the repository root:  python tools/build_data.py [OUT]

OUT defaults to src/anosurf/_data. Building into another directory and
comparing it with the packaged data shows whether the two have drifted.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from anosurf.catalog import CatalogEntry, check_catalog, load_catalog  # noqa: E402
from anosurf.spine import Spine, SpineCase, TrackBundle, adjacent_short_pairs, case_of  # noqa: E402
from anosurf.slopes import AdmissibleSet         # noqa: E402
from anosurf.traintrack import check_law, dead_branches  # noqa: E402

DATA = ROOT / "src" / "anosurf" / "_data"

# ---------------------------------------------------------------------------
# Spine layout.
#
# Hexagon side words, read cyclically; the letter of a side name is the
# edge it lies on. Corner k sits between sides k and k+1 mod 6, and the
# corners alternate between the two vertices.

X_SIDES = ["a1", "b1", "d1", "b2", "a2", "c1"]
Y_SIDES = ["d2", "c2", "b3", "c3", "d3", "a3"]
CORNER_COLORS = ["P1", "P2", "P1", "P2", "P1", "P2"]
EDGES = ("a", "b", "c", "d")

X_SHORT = ["s1", "s2", "s3", "s4", "s5", "s6"]
X_MEDIUM = ["mb1", "md1", "mb2", "ma2", "mc1", "ma1"]   # named by the skipped side
X_LONG = ["lx1", "lx2", "lx3"]
Y_SHORT = ["t1", "t2", "t3", "t4", "t5", "t6"]
Y_MEDIUM = ["mc2", "mb3", "mc3", "md2", "ma3", "md3"]
Y_LONG = ["ly1", "ly2", "ly3"]


def connector_rows():
    rows = []
    for hexagon, shorts, mediums, longs in (("X", X_SHORT, X_MEDIUM, X_LONG),
                                            ("Y", Y_SHORT, Y_MEDIUM, Y_LONG)):
        for i in range(6):
            rows.append({"id": shorts[i], "hexagon": hexagon,
                         "positions": [i, (i + 1) % 6], "kind": "short"})
        for i in range(6):
            rows.append({"id": mediums[i], "hexagon": hexagon,
                         "positions": [i, (i + 2) % 6], "kind": "medium"})
        for i in range(3):
            rows.append({"id": longs[i], "hexagon": hexagon,
                         "positions": [i, i + 3], "kind": "long"})
    return rows


# ---------------------------------------------------------------------------
# Symmetry search. Candidates are pairs of dihedral position maps, one
# per hexagon, optionally exchanging the hexagons; Spine.symmetry keeps
# a candidate when its side map induces a well defined edge permutation
# and vertex map, and raises otherwise.


def _dihedral():
    out = []
    for s in range(6):
        out.append(("r", s))
        out.append(("f", s))
    return out


def _apply(move, i):
    kind, s = move
    return (s + i) % 6 if kind == "r" else (s - i) % 6


def _name_of(swap, gx, gy):
    if not swap and gx == ("r", 0) and gy == ("r", 0):
        return "identity"
    tag = f"{gx[0]}{gx[1]}_{gy[0]}{gy[1]}"
    return f"{'exchange' if swap else 'keep'}_{tag}"


def find_symmetries(spine):
    words = spine.hexagons
    found = []
    for swap in (False, True):
        tx, ty = ("Y", "X") if swap else ("X", "Y")
        for gx in _dihedral():
            for gy in _dihedral():
                side_map = {side: words[tx][_apply(gx, i)] for i, side in enumerate(words["X"])}
                side_map.update(
                    {side: words[ty][_apply(gy, j)] for j, side in enumerate(words["Y"])})
                try:
                    found.append(spine.symmetry(_name_of(swap, gx, gy), side_map))
                except ValueError:
                    continue
    found.sort(key=lambda s: (s.name != "identity", s.name))
    return found


def build_spine_doc():
    doc = {
        "hexagons": {
            "X": {"sides": X_SIDES, "edges": {s: s[0] for s in X_SIDES}},
            "Y": {"sides": Y_SIDES, "edges": {s: s[0] for s in Y_SIDES}},
        },
        "corner_vertices": {"X": CORNER_COLORS, "Y": CORNER_COLORS},
        "connectors": connector_rows(),
        "symmetries": [],
    }
    symmetries = find_symmetries(Spine(doc))
    # the layout was chosen so that the full group has order eight and
    # its edge action is the cyclic group generated by a 4-cycle; both
    # facts are relied on by the case split, so pin them here
    assert len(symmetries) == 8, [s.name for s in symmetries]
    assert symmetries[0].name == "identity"
    actions = {tuple(sorted(s.edge_map.items())) for s in symmetries}
    assert len(actions) == 4, sorted(actions)
    cycle = {"a": "c", "c": "b", "b": "d", "d": "a"}
    assert tuple(sorted(cycle.items())) in actions
    doc["symmetries"] = [asdict(s) for s in symmetries]
    return doc


# ---------------------------------------------------------------------------
# The eleven canonical curve complexes.

QCOMPLEXES = {
    "Q1": {"s1": 1, "s4": 1, "ly3": 1},
    "Q2": {"s1": 2, "s4": 2, "ly3": 2},
    "Q3": {"mc1": 1, "md1": 1, "ly3": 1},
    "Q4": {"s1": 1, "s4": 1, "mc1": 1, "md1": 1, "ly3": 2},
    "Q5": {"mc1": 1, "md1": 1, "lx1": 1, "lx2": 1, "ly3": 2},
    "Q6": {"s2": 1, "s3": 1, "md1": 1, "mc2": 1, "mc3": 1, "ma3": 1},
    "Q7": {"s2": 1, "s3": 1, "md1": 3, "mc2": 2, "mc3": 2},
    "Q8": {"mb1": 1, "mb2": 1, "md1": 1, "t6": 1, "mc3": 1, "ma3": 1},
    "Q9": {"s2": 1, "s3": 1, "mc1": 1, "ly3": 1, "ma3": 2},
    "Q10": {"s2": 1, "mb2": 1, "lx1": 1, "t5": 1, "mc2": 1, "ma3": 1},
    "Q11": {"mb1": 1, "mb2": 1, "md1": 1, "t5": 1, "mc2": 1, "ma3": 1},
}

EXPECTED_CASES = {
    "Q1": SpineCase.CD_ZERO, "Q2": SpineCase.CD_ZERO, "Q3": SpineCase.CD_ZERO,
    "Q4": SpineCase.CD_ZERO, "Q5": SpineCase.CD_ZERO,
    "Q6": SpineCase.AC_ZERO, "Q7": SpineCase.AC_ZERO,
    "Q8": SpineCase.C_ZERO, "Q9": SpineCase.C_ZERO,
    "Q10": SpineCase.C_ZERO, "Q11": SpineCase.C_ZERO,
}


def check_complexes(spine):
    seen = []
    for family, q in QCOMPLEXES.items():
        assert case_of(spine, q) == EXPECTED_CASES[family], family
        assert adjacent_short_pairs(spine, q) == [], family
        assert q not in seen, family
        seen.append(dict(q))


# ---------------------------------------------------------------------------
# Track shapes. Branch ids are "<component>.<arc>"; each component is a
# lift of part of the complex to the orientation double cover.


def _br(bid, klass=(0, 0)):
    return {"id": bid, "class": list(klass), "loop": False}


def _sw(sid, one, two):
    return {"id": sid,
            "one_fold": [{"branch": b, "end": e} for b, e in one],
            "two_fold": [{"branch": b, "end": e} for b, e in two]}


def q1_shape(prefix, klass):
    """Two parallel circles A and B pinched by two dead arcs X1, X2.

    Every solution has x1 = x2 = 0 and a1 = a2, b1 = b2, so the carried
    classes are the multiples of `klass`."""
    a1, a2, b1, b2, x1, x2 = (f"{prefix}.{n}"
                              for n in ("A1", "A2", "B1", "B2", "X1", "X2"))
    branches = [_br(a1, klass), _br(a2), _br(b1, klass), _br(b2), _br(x1), _br(x2)]
    switches = [
        _sw(f"{prefix}.swA1", [(a1, "head")], [(a2, "tail"), (x1, "tail")]),
        _sw(f"{prefix}.swA2", [(a2, "head")], [(a1, "tail"), (x2, "tail")]),
        _sw(f"{prefix}.swB1", [(b2, "tail")], [(b1, "head"), (x1, "head")]),
        _sw(f"{prefix}.swB2", [(b1, "tail")], [(b2, "head"), (x2, "head")]),
    ]
    return branches, switches


def shear_shape(prefix, sign):
    """Two circles joined by two live arcs carrying a shear weight s:
    a1 = a2 + s and b1 = b2 + s, class (a2, sign * s)."""
    a1, a2, b1, b2, x1, x2 = (f"{prefix}.{n}"
                              for n in ("A1", "A2", "B1", "B2", "X1", "X2"))
    branches = [_br(a1), _br(a2, (1, 0)), _br(b1), _br(b2),
                _br(x1, (0, sign)), _br(x2)]
    switches = [
        _sw(f"{prefix}.sw1", [(a1, "head")], [(a2, "tail"), (x1, "tail")]),
        _sw(f"{prefix}.sw2", [(a1, "tail")], [(a2, "head"), (x2, "head")]),
        _sw(f"{prefix}.sw3", [(b1, "head")], [(b2, "tail"), (x2, "tail")]),
        _sw(f"{prefix}.sw4", [(b1, "tail")], [(b2, "head"), (x1, "head")]),
    ]
    return branches, switches


def dip_shape(prefix):
    """A (1,4) circle M that splits twice into parallel strands F or G;
    m = f1 + g1 = f2 + g2, class (m, 4m + f1 + f2)."""
    m1, m2, f1, g1, f2, g2 = (f"{prefix}.{n}"
                              for n in ("M1", "M2", "F1", "G1", "F2", "G2"))
    branches = [_br(m1, (1, 4)), _br(m2), _br(f1, (0, 1)), _br(g1),
                _br(f2, (0, 1)), _br(g2)]
    switches = [
        _sw(f"{prefix}.sw1", [(m1, "head")], [(f1, "tail"), (g1, "tail")]),
        _sw(f"{prefix}.sw2", [(m2, "tail")], [(f1, "head"), (g1, "head")]),
        _sw(f"{prefix}.sw3", [(m2, "head")], [(f2, "tail"), (g2, "tail")]),
        _sw(f"{prefix}.sw4", [(m1, "tail")], [(f2, "head"), (g2, "head")]),
    ]
    return branches, switches


def gh_shape(prefix):
    """A (1,1) arc GA and a junk strand JS feeding a chain of four
    (0,1)-headed arcs GB1..GB4; gb = ga + js, class (ga, ga + gb)."""
    ga, js, gb1, gb2, gb3, gb4 = (f"{prefix}.{n}"
                                  for n in ("GA", "JS", "GB1", "GB2", "GB3", "GB4"))
    branches = [_br(ga, (1, 1)), _br(js), _br(gb1, (0, 1)),
                _br(gb2), _br(gb3), _br(gb4)]
    switches = [
        _sw(f"{prefix}.swin", [(gb4, "head")], [(ga, "tail"), (js, "tail")]),
        _sw(f"{prefix}.swout", [(gb1, "tail")], [(ga, "head"), (js, "head")]),
        _sw(f"{prefix}.j1", [(gb1, "head")], [(gb2, "tail")]),
        _sw(f"{prefix}.j2", [(gb2, "head")], [(gb3, "tail")]),
        _sw(f"{prefix}.j3", [(gb3, "head")], [(gb4, "tail")]),
    ]
    return branches, switches


def circle2(prefix, klass):
    """A circle made of two arcs with equal weight."""
    c1, c2 = f"{prefix}.C1", f"{prefix}.C2"
    branches = [_br(c1, klass), _br(c2)]
    switches = [
        _sw(f"{prefix}.j1", [(c1, "head")], [(c2, "tail")]),
        _sw(f"{prefix}.j2", [(c2, "head")], [(c1, "tail")]),
    ]
    return branches, switches


def tri_shape(prefix):
    """A (1,4) circle P1-P3 with a parallel pair P2, RR between the
    same two switches; p1 = p3 = p2 + rr."""
    p1, p2, p3, rr = (f"{prefix}.{n}" for n in ("P1", "P2", "P3", "RR"))
    branches = [_br(p1, (1, 4)), _br(p2), _br(p3), _br(rr)]
    switches = [
        _sw(f"{prefix}.sw1", [(p1, "head")], [(p2, "tail"), (rr, "tail")]),
        _sw(f"{prefix}.sw2", [(p3, "tail")], [(p2, "head"), (rr, "head")]),
        _sw(f"{prefix}.j", [(p3, "head")], [(p1, "tail")]),
    ]
    return branches, switches


def _proj(connector, copy, arcs):
    return {"connector": connector, "copy": copy, "arcs": list(arcs)}


def _bundle(family, comps, law, designated, noncompact, projection):
    branches, switches = [], []
    for bs, ss in comps:
        branches.extend(bs)
        switches.extend(ss)
    return {
        "id": family,
        "track": {"branches": branches, "switches": switches},
        "law": law,
        "designated": designated,
        "noncompact": noncompact,
        "projection": projection,
    }


def build_bundles():
    bundles = {}

    bundles["Q1"] = _bundle(
        "Q1", [q1_shape("u", (1, 0))],
        {"kind": "ONLY_ZERO"}, {},
        ["u.X1", "u.X2"],
        [_proj("s1", 1, ["u.A1", "u.B1"]),
         _proj("s4", 1, ["u.A2", "u.B2"]),
         _proj("ly3", 1, ["u.X1", "u.X2"])])

    bundles["Q2"] = _bundle(
        "Q2", [shear_shape("pos", 1), shear_shape("neg", -1)],
        {"kind": "FORMULA_MU_NU_OMEGA", "surjective_height": 6},
        {"omega": ["pos.A2", "neg.A2"], "mu": ["pos.X1"], "nu": ["neg.X1"]},
        [],
        [_proj("s1", 1, ["pos.A1", "pos.A2"]),
         _proj("s4", 1, ["pos.B1", "pos.B2"]),
         _proj("ly3", 1, ["pos.X1", "pos.X2"]),
         _proj("s1", 2, ["neg.A1", "neg.A2"]),
         _proj("s4", 2, ["neg.B1", "neg.B2"]),
         _proj("ly3", 2, ["neg.X1", "neg.X2"])])

    bundles["Q3"] = _bundle(
        "Q3", [q1_shape("u", (1, 4))],
        {"kind": "ONLY_FOUR"}, {},
        ["u.X1", "u.X2"],
        [_proj("mc1", 1, ["u.A1", "u.B1"]),
         _proj("md1", 1, ["u.A2", "u.B2"]),
         _proj("ly3", 1, ["u.X1", "u.X2"])])

    bundles["Q4"] = _bundle(
        "Q4", [dip_shape("u"), dip_shape("v")],
        {"kind": "FORMULA_THREE_PLUS"},
        {"omega": ["u.M1", "v.M1"],
         "mu": ["u.M1", "v.M1", "u.F1", "v.F1"],
         "nu": ["u.F2", "v.F2"]},
        [],
        [_proj("s1", 1, ["u.M1", "u.M2"]),
         _proj("mc1", 1, ["u.F1", "u.G1"]),
         _proj("ly3", 1, ["u.F2", "u.G2"]),
         _proj("s4", 1, ["v.M1", "v.M2"]),
         _proj("md1", 1, ["v.F1", "v.G1"]),
         _proj("ly3", 2, ["v.F2", "v.G2"])])

    bundles["Q5"] = _bundle(
        "Q5", [q1_shape("u", (1, 4)), q1_shape("v", (1, 4))],
        {"kind": "ONLY_FOUR"},
        {"mu": ["u.X1", "v.X1"], "nu": ["u.X2", "v.X2"]},
        ["u.X1", "u.X2", "v.X1", "v.X2"],
        [_proj("mc1", 1, ["u.A1", "u.B1"]),
         _proj("md1", 1, ["u.A2", "u.B2"]),
         _proj("ly3", 1, ["u.X1", "u.X2"]),
         _proj("lx1", 1, ["v.A1", "v.B1"]),
         _proj("lx2", 1, ["v.A2", "v.B2"]),
         _proj("ly3", 2, ["v.X1", "v.X2"])])

    bundles["Q6"] = _bundle(
        "Q6", [q1_shape("u", (0, 1)), q1_shape("v", (0, 1))],
        {"kind": "ONLY_INFINITY"}, {},
        ["u.X1", "u.X2", "v.X1", "v.X2"],
        [_proj("s2", 1, ["u.A1", "u.B1"]),
         _proj("s3", 1, ["u.A2", "u.B2"]),
         _proj("md1", 1, ["u.X1", "u.X2"]),
         _proj("mc2", 1, ["v.A1", "v.B1"]),
         _proj("mc3", 1, ["v.A2", "v.B2"]),
         _proj("ma3", 1, ["v.X1", "v.X2"])])

    bundles["Q7"] = _bundle(
        "Q7", [q1_shape("u", (0, 1)), q1_shape("v", (0, 1)),
               q1_shape("w", (0, 1))],
        {"kind": "ONLY_INFINITY"}, {},
        ["u.X1", "u.X2", "v.X1", "v.X2", "w.X1", "w.X2"],
        [_proj("s2", 1, ["u.A1", "u.B1"]),
         _proj("s3", 1, ["u.A2", "u.B2"]),
         _proj("md1", 1, ["u.X1", "u.X2"]),
         _proj("mc2", 1, ["v.A1", "v.B1"]),
         _proj("mc3", 1, ["v.A2", "v.B2"]),
         _proj("md1", 2, ["v.X1", "v.X2"]),
         _proj("mc2", 2, ["w.A1", "w.B1"]),
         _proj("mc3", 2, ["w.A2", "w.B2"]),
         _proj("md1", 3, ["w.X1", "w.X2"])])

    bundles["Q8"] = _bundle(
        "Q8", [q1_shape("u", (0, 1)), q1_shape("v", (0, 1))],
        {"kind": "ONLY_INFINITY"}, {},
        ["u.X1", "u.X2", "v.X1", "v.X2"],
        [_proj("mb1", 1, ["u.A1", "u.B1"]),
         _proj("mb2", 1, ["u.A2", "u.B2"]),
         _proj("md1", 1, ["u.X1", "u.X2"]),
         _proj("mc3", 1, ["v.A1", "v.B1"]),
         _proj("ma3", 1, ["v.A2", "v.B2"]),
         _proj("t6", 1, ["v.X1", "v.X2"])])

    bundles["Q9"] = _bundle(
        "Q9", [gh_shape("g"), circle2("e", (0, -1)), circle2("f", (0, -1)),
               circle2("i", (0, -1))],
        {"kind": "FORMULA_B9"},
        {"g": ["g.GA"], "h": ["g.GB1"],
         "e": ["e.C1"], "f": ["f.C1"], "i": ["i.C1"]},
        [],
        [_proj("s2", 1, ["g.GA", "g.JS"]),
         _proj("s3", 1, ["g.GB1", "g.GB2"]),
         _proj("mc1", 1, ["g.GB3", "g.GB4"]),
         _proj("ly3", 1, ["e.C1", "e.C2"]),
         _proj("ma3", 1, ["f.C1", "f.C2"]),
         _proj("ma3", 2, ["i.C1", "i.C2"])])

    bundles["Q10"] = _bundle(
        "Q10", [q1_shape("u", (1, 4)), q1_shape("v", (1, 4))],
        {"kind": "ONLY_FOUR"}, {},
        ["u.X1", "u.X2", "v.X1", "v.X2"],
        [_proj("s2", 1, ["u.A1", "u.B1"]),
         _proj("mb2", 1, ["u.A2", "u.B2"]),
         _proj("lx1", 1, ["u.X1", "u.X2"]),
         _proj("t5", 1, ["v.A1", "v.B1"]),
         _proj("mc2", 1, ["v.A2", "v.B2"]),
         _proj("ma3", 1, ["v.X1", "v.X2"])])

    bundles["Q11"] = _bundle(
        "Q11", [tri_shape("u"), tri_shape("v"), tri_shape("w")],
        {"kind": "ONLY_FOUR"}, {},
        [],
        [_proj("mb1", 1, ["u.P1", "u.P3"]),
         _proj("mb2", 1, ["u.P2", "u.RR"]),
         _proj("md1", 1, ["v.P1", "v.P3"]),
         _proj("t5", 1, ["v.P2", "v.RR"]),
         _proj("mc2", 1, ["w.P1", "w.P3"]),
         _proj("ma3", 1, ["w.P2", "w.RR"])])

    return bundles


def check_bundles(bundles):
    for family, doc in bundles.items():
        q = QCOMPLEXES[family]
        bundle = TrackBundle.from_json(doc)
        track = bundle.track

        # two lifted arcs per connector copy
        assert len(track.branches) == 2 * sum(q.values()), family

        # projection covers each connector copy once and each branch once
        copies = {}
        used = []
        for rec in doc["projection"]:
            copies[rec["connector"]] = max(
                copies.get(rec["connector"], 0), rec["copy"])
            assert len(rec["arcs"]) == 2, (family, rec)
            used.extend(rec["arcs"])
        assert copies == {cid: mult for cid, mult in q.items()}, family
        assert sorted(used) == sorted(track.branches), family

        # declared noncompact arcs are exactly the dead branches
        assert set(bundle.noncompact) == dead_branches(track, 6), family

        # the slope law holds on bounded enumeration
        report = check_law(track, bundle.law, bundle.designated, bound=6, family=family)
        report.raise_if_violated()


# ---------------------------------------------------------------------------
# Catalog entries.


def _adm(kind, **kw):
    doc = {"kind": kind, **kw}
    AdmissibleSet.from_json(doc)   # validates
    return doc

ALL = _adm("AllRationals")
NONINT = _adm("IntegerDenominatorAtLeast2")


def _graph(nodes, edges):
    return {"nodes": nodes,
            "edges": [{"id": i, "from": u, "to": v, "flip": f}
                      for i, u, v, f in edges]}

# sector adjacency graphs for the orientation certificates
GRAPHS = {
    "B3": _graph(["sig1"], [("k1", "sig1", "sig1", True)]),
    "B6": _graph(["sig1", "sig2"],
                 [("g", "sig1", "sig2", True), ("h", "sig2", "sig1", True)]),
    "B7": _graph(["sig1", "sig2", "sig3"],
                 [("f", "sig1", "sig2", True), ("g", "sig2", "sig3", True),
                  ("h", "sig3", "sig1", False)]),
    "B8": _graph(["sig1", "sig2", "sig3"],
                 [("f", "sig1", "sig2", True), ("g", "sig1", "sig3", True),
                  ("h", "sig2", "sig3", False)]),
    "B9": _graph(["sig1", "sig2", "sig3", "sig4"],
                 [("h1", "sig1", "sig2", True), ("h2", "sig2", "sig3", False),
                  ("i1", "sig3", "sig4", True), ("i2", "sig4", "sig1", False)]),
}


def _disk(did, *arcs):
    return {"id": did,
            "boundary": [{"curve": c, "direction": d} for c, d in arcs]}


def _loop_cw(edge_count, with_face):
    edges = [{"id": f"e{i}", "ends": [0, 0]} for i in range(1, edge_count + 1)]
    faces = []
    if with_face:
        faces = [{"id": "f1", "boundary": [e["id"] for e in edges]}]
    return {"vertices": 1, "edges": edges, "faces": faces}


# complement records per exclusion class
PRODUCT_PIECE = {"kind": "SolidTorus", "vertical_annuli": 2,
                 "annulus_wrap": [1, 1], "meridian_hits": 0,
                 "exceptional": False, "core_power": None,
                 "description": "product piece behind the annulus sector; "
                                "the core power is set by the filling denominator"}
TYPE_I_PIECE = {"kind": "SolidTorus", "vertical_annuli": 1,
                "annulus_wrap": [2], "meridian_hits": 2,
                "exceptional": True,
                "description": "filled torus behind the vacant annulus; a "
                               "meridian crosses the annulus core twice"}
SPLIT_PIECE = {"kind": "SolidTorus", "vertical_annuli": 2,
               "annulus_wrap": [2, 2], "meridian_hits": 2,
               "exceptional": True,
               "description": "filled torus between the two split halves"}
R7_PIECE = {"kind": "SolidTorus", "vertical_annuli": 3,
            "annulus_wrap": [1, 1, 1], "meridian_hits": 3,
            "exceptional": False,
            "description": "single solid torus with three vertical cusps"}


def build_entries():
    entries = []

    def add(eid, family, summary, admissible, klass, **kw):
        entries.append({
            "id": eid, "family": family, "summary": summary,
            "admissible": admissible, "exclusion_class": klass, **kw})

    # -- the five whole surface shapes with illegal complements --------
    add("B1", "Q1",
        "Unbranched torus made of compact leaves; only the zero filling "
        "admits it, and its product complement is not an interval bundle "
        "coherent with an empty vertical boundary.",
        _adm("Only", slope="0"), "DiskLeaf",
        disk_sectors=[],
        complement=[{"kind": "TorusCrossInterval",
                     "description": "product region between two parallel tori"}],
        euler={"surface_cw": _loop_cw(2, True),
               "complement_cw": _loop_cw(2, True)})

    add("B2", "Q2",
        "Two sectors along a pair of branch circles; the complement "
        "collapses onto a wedge of two circles.",
        ALL, "DiskLeaf",
        disk_sectors=[_disk("D1", ("c", "out"), ("d", "in"))],
        complement=[{"kind": "Handlebody", "genus": 2,
                     "description": "collapses onto a wedge of two circles"}],
        euler={"surface_cw": _loop_cw(3, True),
               "complement_cw": _loop_cw(2, False)})

    add("B3", "Q3",
        "One sided Klein bottle sector; the twisted exterior carries no "
        "coherent interval bundle and the carried lamination cannot be "
        "transversely oriented.",
        _adm("Only", slope="4"), "DiskLeaf",
        orientable=False, orientation_graph=GRAPHS["B3"],
        disk_sectors=[],
        complement=[{"kind": "Other",
                     "description": "twisted interval bundle exterior with a "
                                    "torus horizontal boundary"}],
        euler={"surface_cw": _loop_cw(2, True),
               "complement_cw": _loop_cw(2, True)})

    add("B4", "Q4",
        "Branched surface whose complement is a genus two handlebody with "
        "no product structure.",
        _adm("GreaterThan", bound="3"), "DiskLeaf",
        disk_sectors=[_disk("D1", ("c", "in"), ("d", "out"))],
        complement=[{"kind": "Handlebody", "genus": 2,
                     "description": "collapses onto a wedge of two circles"}],
        euler={"surface_cw": _loop_cw(3, True),
               "complement_cw": _loop_cw(2, False)})

    add("B9_M", "Q9",
        "Variant containing a meridian compressing disk; the complement "
        "collapses onto a wedge of four circles.",
        ALL, "DiskLeaf",
        disk_sectors=[_disk("D_m", ("m", "out"))],
        complement=[{"kind": "Handlebody", "genus": 4,
                     "description": "collapses onto a wedge of four circles"}],
        euler={"surface_cw": _loop_cw(5, True),
               "complement_cw": _loop_cw(4, False)},
        notes={"compression": "carries a disk whose boundary is a meridian "
                              "of the filled torus"})

    # -- the four annulus sector surfaces (whole weight regime) --------
    basic = {
        "B6": ("Q6", [["g", "h"]],
               [_disk("D1", ("g", "in"), ("h", "out"))]),
        "B7": ("Q7", [["f", "g"], ["g", "h"]],
               [_disk("D1", ("f", "out"), ("g", "in")),
                _disk("D2", ("g", "out"), ("h", "in"))]),
        "B8": ("Q8", [["f", "g"], ["f", "h"]],
               [_disk("D1", ("f", "out"), ("g", "in"))]),
        "B9": ("Q9", [["h", "i"]],
               [_disk("D1", ("h", "out"), ("i", "in"))]),
    }
    for eid, (family, pairs, disks) in basic.items():
        add(eid, family,
            "Branched surface with an annulus sector whose boundary "
            "circles are both meridians of the filled torus.",
            ALL, "BasicTypeII",
            orientable=True, orientation_graph=GRAPHS[eid],
            sector_pairs=pairs, disk_sectors=disks,
            complement=[dict(PRODUCT_PIECE)],
            notes={"geometry": "nonzero integer fillings carry skew, R "
                               "covered flows",
                   "core_orbit": "the annulus core closes into a periodic "
                                 "orbit of any carried flow"})

    # -- the solid torus with three vertical cusps ---------------------
    add("R7", "Q7",
        "Boundary pattern closing into a single solid torus whose vertical "
        "boundary has three annuli.",
        ALL, "R7Cusps",
        disk_sectors=[],
        complement=[dict(R7_PIECE)])

    # -- split annulus variants ----------------------------------------
    split_curves = {
        "B6_II_gh": ("Q6", ["g", "h"]),
        "B7_II_fg": ("Q7", ["f", "g"]),
        "B7_II_gh": ("Q7", ["g", "h"]),
        "R7_II_fg": ("Q7", ["f", "g"]),
        "R7_II_gh": ("Q7", ["g", "h"]),
        "R7_II_hf": ("Q7", ["h", "f"]),
        "B8_II_fg": ("Q8", ["f", "g"]),
        "B8_II_fh": ("Q8", ["f", "h"]),
        "B9_II_hi": ("Q9", ["h", "i"]),
    }
    for eid, (family, curves) in split_curves.items():
        add(eid, family,
            f"Weight regime splitting the annulus sector along "
            f"{curves[0]} and {curves[1]}; the filled torus sits between "
            f"the two halves.",
            NONINT, "SplitTypeII",
            split_curves=curves,
            disk_sectors=[_disk("D1", (curves[0], "out"), (curves[1], "in"))],
            complement=[dict(SPLIT_PIECE)],
            notes={"split": f"annulus sector split along {curves[0]}, "
                            f"{curves[1]}",
                   "splits_from": eid.split("_II")[0]})

    # -- vacant annulus variants ---------------------------------------
    type_i = {
        "B5": ("Q5", "a0", _adm("IntersectionWithAtLeast", anchor="4", count=2)),
        "B6_I_g": ("Q6", "g", NONINT),
        "B6_I_h": ("Q6", "h", NONINT),
        "B7_I_f": ("Q7", "f", NONINT),
        "B7_I_g": ("Q7", "g", NONINT),
        "B7_I_h": ("Q7", "h", NONINT),
        "R7_I_f": ("Q7", "f", NONINT),
        "R7_I_g": ("Q7", "g", NONINT),
        "R7_I_h": ("Q7", "h", NONINT),
        "B7_star": ("Q7", "g", NONINT),
        "B7_ss_fg_f": ("Q7", "f", NONINT),
        "B7_ss_fg_g": ("Q7", "g", NONINT),
        "B7_ss_fg_h": ("Q7", "h", NONINT),
        "B7_ss_gh_f": ("Q7", "f", NONINT),
        "B7_ss_gh_g": ("Q7", "g", NONINT),
        "B7_ss_gh_h": ("Q7", "h", NONINT),
        "B8_III": ("Q8", "g", NONINT),
        "B10": ("Q10", "a0", _adm("IntersectionWithMoreThan", anchor="4", count=1)),
        "B11": ("Q11", "a0", _adm("IntersectionWithMoreThan", anchor="4", count=1)),
    }
    for eid, (family, vacant, adm) in type_i.items():
        add(eid, family,
            f"Weight regime leaving annulus {vacant} vacant; the filled "
            f"torus is the exceptional piece behind it.",
            adm, "TypeI",
            vacant_annulus=vacant,
            disk_sectors=[_disk("D1", (vacant, "out"), ("rim", "in"))],
            complement=[dict(TYPE_I_PIECE)],
            notes={"vacancy": f"annulus {vacant} carries weight zero"})

    return entries


EXPECTED_FAMILY_COUNTS = {
    "Q1": 1, "Q2": 1, "Q3": 1, "Q4": 1, "Q5": 1, "Q6": 4, "Q7": 20,
    "Q8": 4, "Q9": 3, "Q10": 1, "Q11": 1,
}

EXPECTED_EULER = {"B1": 0, "B2": -1, "B3": 0, "B4": -1, "B9_M": -3}


def check_entries(entries):
    assert len(entries) == 38, len(entries)
    ids = [e["id"] for e in entries]
    assert len(set(ids)) == 38
    counts = {}
    for e in entries:
        counts[e["family"]] = counts.get(e["family"], 0) + 1
    assert counts == EXPECTED_FAMILY_COUNTS, counts

    by_class = {}
    for entry in map(CatalogEntry.from_json, entries):
        by_class.setdefault(entry.exclusion_class, []).append(entry.id)
        assert entry.sink_disks == (), entry.id
        if entry.orientable is not None:
            assert entry.orientation.orientable == entry.orientable, entry.id
        if entry.euler is not None:
            assert entry.euler_characteristics == (EXPECTED_EULER[entry.id],) * 2, entry.id
    sizes = {k: len(v) for k, v in by_class.items()}
    assert sizes == {"DiskLeaf": 5, "BasicTypeII": 4, "R7Cusps": 1,
                     "SplitTypeII": 9, "TypeI": 19}, sizes


# ---------------------------------------------------------------------------
# Writing.


def dump(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: build_data.py [OUT]", file=sys.stderr)
        return 2
    out = Path(args[0]) if args else DATA
    spine_doc = build_spine_doc()
    spine = Spine(spine_doc)
    check_complexes(spine)
    bundles = build_bundles()
    check_bundles(bundles)
    entries = build_entries()
    check_entries(entries)

    dump(out / "spine.json", spine_doc)
    dump(out / "qcomplexes.json",
         {family: {"connectors": q} for family, q in QCOMPLEXES.items()})
    for family, doc in bundles.items():
        dump(out / "tracks" / f"{family}.json", doc)

    entries_dir = out / "catalog" / "entries"
    if entries_dir.exists():
        for stale in entries_dir.glob("*.json"):
            stale.unlink()
    entry_files = []
    for entry in entries:
        rel = f"catalog/entries/{entry['id']}.json"
        dump(out / rel, entry)
        entry_files.append(rel)
    entry_files.sort()

    hashed = ["spine.json", "qcomplexes.json"]
    hashed += [f"tracks/{family}.json" for family in sorted(bundles)]
    hashed += entry_files
    manifest = {
        "schema_version": 1,
        "entry_count": len(entries),
        "families": EXPECTED_FAMILY_COUNTS,
        "stated_total_in_source": 39,
        "entry_files": entry_files,
        "files": {rel: sha256_file(out / rel) for rel in sorted(hashed)},
    }
    dump(out / "catalog" / "manifest.json", manifest)

    # reload what was just written through the package loader as a final check
    catalog = load_catalog(path=out)
    report = check_catalog(catalog)
    assert report.problems == [], report.problems
    assert len(report.warnings) == 1, report.warnings
    assert catalog.complexes == QCOMPLEXES, catalog.complexes
    for entry in entries:
        assert catalog.get(entry["id"]).admissible.to_json() == entry["admissible"], entry["id"]

    print(f"spine: {len(spine_doc['symmetries'])} symmetries, "
          f"{len(spine_doc['connectors'])} connectors")
    print(f"complexes: {len(QCOMPLEXES)}")
    print(f"tracks: {len(bundles)}")
    print(f"catalog: {len(entries)} entries "
          f"(stated total {manifest['stated_total_in_source']})")
    print("all build checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
