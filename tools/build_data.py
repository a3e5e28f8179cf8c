#!/usr/bin/env python3
"""Generate the packaged data files under src/anosurf/_data.

Everything the package loads at runtime is produced here: the spine
layout with its brute forced symmetry group, the eleven canonical
curve complexes, their boundary double cover train tracks with slope
laws, and the branched surface catalog with its checksum manifest.

The script writes every file into a temporary directory and loads it
there through the package loader, which checks each file's shape and
each track against its complex; then it runs the catalog health check
and every family's slope law. What it asserts itself is that each
entry loads back to the document it wrote (`CatalogEntry.to_json()`),
and the paper's tables: 38 entries, the entries of each family, the
Euler values, the size of each exclusion class, the entries whose
orientation graph certifies a transversely orientable lamination (B6 to
B9) and the one whose graph is an obstruction (B3), the case of each
complex and the order-eight symmetry group. Only when all of that
passes are the files copied to OUT, so a failed run leaves OUT as it
was.

Run from the repository root:  python tools/build_data.py [OUT]

OUT defaults to src/anosurf/_data. Building into another directory and
comparing it with the packaged data shows whether the two have drifted.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from anosurf.catalog import (  # noqa: E402
    FAMILIES, MANIFEST, check_catalog, load_catalog, slope_law_check)
from anosurf.spine import Spine, SpineCase, case_of  # noqa: E402

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
            rows.append({"id": shorts[i], "hexagon": hexagon, "positions": [i, (i + 1) % 6]})
        for i in range(6):
            rows.append({"id": mediums[i], "hexagon": hexagon, "positions": [i, (i + 2) % 6]})
        for i in range(3):
            rows.append({"id": longs[i], "hexagon": hexagon, "positions": [i, i + 3]})
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
    }
    # the spine schema wants a symmetry: the identity, until the search finds all eight
    sides = X_SIDES + Y_SIDES
    identity = {"name": "identity", "side_map": dict(zip(sides, sides))}
    symmetries = find_symmetries(Spine({**doc, "symmetries": [identity]}))
    doc["symmetries"] = [{"name": s.name, "side_map": s.side_map} for s in symmetries]
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


# ---------------------------------------------------------------------------
# Track shapes. Branch ids are "<component>.<arc>"; each component is a
# lift of part of the complex to the orientation double cover. A shape
# returns its branches, its switches and its arc pairs (the two branches
# one connector copy lifts to, in the order the connectors are listed).
# Its docstring names its dead arcs, those every carried measure leaves
# at weight zero; the package derives them with dead_branches.


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
    return branches, switches, [(a1, b1), (a2, b2), (x1, x2)]


def shear_shape(prefix, sign):
    """Two circles joined by two live arcs carrying a shear weight s:
    a1 = a2 + s and b1 = b2 + s, class (a2, sign * s). No arc is dead."""
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
    return branches, switches, [(a1, a2), (b1, b2), (x1, x2)]


def dip_shape(prefix):
    """A (1,4) circle M that splits twice into parallel strands F or G;
    m = f1 + g1 = f2 + g2, class (m, 4m + f1 + f2). No arc is dead."""
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
    return branches, switches, [(m1, m2), (f1, g1), (f2, g2)]


def gh_shape(prefix):
    """A (1,1) arc GA and a junk strand JS feeding a chain of four
    (0,1)-headed arcs GB1..GB4; gb = ga + js, class (ga, ga + gb). No
    arc is dead."""
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
    return branches, switches, [(ga, js), (gb1, gb2), (gb3, gb4)]


def circle2(prefix, klass):
    """A circle made of two arcs with equal weight; neither is dead."""
    c1, c2 = f"{prefix}.C1", f"{prefix}.C2"
    branches = [_br(c1, klass), _br(c2)]
    switches = [
        _sw(f"{prefix}.j1", [(c1, "head")], [(c2, "tail")]),
        _sw(f"{prefix}.j2", [(c2, "head")], [(c1, "tail")]),
    ]
    return branches, switches, [(c1, c2)]


def tri_shape(prefix):
    """A (1,4) circle P1-P3 with a parallel pair P2, RR between the
    same two switches; p1 = p3 = p2 + rr. No arc is dead."""
    p1, p2, p3, rr = (f"{prefix}.{n}" for n in ("P1", "P2", "P3", "RR"))
    branches = [_br(p1, (1, 4)), _br(p2), _br(p3), _br(rr)]
    switches = [
        _sw(f"{prefix}.sw1", [(p1, "head")], [(p2, "tail"), (rr, "tail")]),
        _sw(f"{prefix}.sw2", [(p3, "tail")], [(p2, "head"), (rr, "head")]),
        _sw(f"{prefix}.j", [(p3, "head")], [(p1, "tail")]),
    ]
    return branches, switches, [(p1, p3), (p2, rr)]


def _bundle(family, lifts, law, designated):
    """One track bundle from its components, each a shape and the
    connectors its arc pairs lift, in pair order. The k-th lift of a
    connector in the bundle is its copy k."""
    branches, switches, projection = [], [], []
    copies = Counter()
    for (bs, ss, pairs), connectors in lifts:
        branches.extend(bs)
        switches.extend(ss)
        for connector, arcs in zip(connectors, pairs, strict=True):
            copies[connector] += 1
            projection.append(
                {"connector": connector, "copy": copies[connector], "arcs": list(arcs)})
    return {
        "id": family,
        "track": {"branches": branches, "switches": switches},
        "law": law,
        "designated": designated,
        "projection": projection,
    }


def build_bundles():
    bundles = {}

    bundles["Q1"] = _bundle(
        "Q1", [(q1_shape("u", (1, 0)), ["s1", "s4", "ly3"])],
        {"kind": "ONLY_ZERO"}, {})

    bundles["Q2"] = _bundle(
        "Q2", [(shear_shape("pos", 1), ["s1", "s4", "ly3"]),
               (shear_shape("neg", -1), ["s1", "s4", "ly3"])],
        {"kind": "FORMULA_MU_NU_OMEGA", "surjective_height": 6},
        {"omega": ["pos.A2", "neg.A2"], "mu": ["pos.X1"], "nu": ["neg.X1"]})

    bundles["Q3"] = _bundle(
        "Q3", [(q1_shape("u", (1, 4)), ["mc1", "md1", "ly3"])],
        {"kind": "ONLY_FOUR"}, {})

    bundles["Q4"] = _bundle(
        "Q4", [(dip_shape("u"), ["s1", "mc1", "ly3"]),
               (dip_shape("v"), ["s4", "md1", "ly3"])],
        {"kind": "FORMULA_THREE_PLUS"},
        {"omega": ["u.M1", "v.M1"],
         "mu": ["u.M1", "v.M1", "u.F1", "v.F1"],
         "nu": ["u.F2", "v.F2"]})

    bundles["Q5"] = _bundle(
        "Q5", [(q1_shape("u", (1, 4)), ["mc1", "md1", "ly3"]),
               (q1_shape("v", (1, 4)), ["lx1", "lx2", "ly3"])],
        {"kind": "ONLY_FOUR"},
        {"mu": ["u.X1", "v.X1"], "nu": ["u.X2", "v.X2"]})

    bundles["Q6"] = _bundle(
        "Q6", [(q1_shape("u", (0, 1)), ["s2", "s3", "md1"]),
               (q1_shape("v", (0, 1)), ["mc2", "mc3", "ma3"])],
        {"kind": "ONLY_INFINITY"}, {})

    bundles["Q7"] = _bundle(
        "Q7", [(q1_shape("u", (0, 1)), ["s2", "s3", "md1"]),
               (q1_shape("v", (0, 1)), ["mc2", "mc3", "md1"]),
               (q1_shape("w", (0, 1)), ["mc2", "mc3", "md1"])],
        {"kind": "ONLY_INFINITY"}, {})

    bundles["Q8"] = _bundle(
        "Q8", [(q1_shape("u", (0, 1)), ["mb1", "mb2", "md1"]),
               (q1_shape("v", (0, 1)), ["mc3", "ma3", "t6"])],
        {"kind": "ONLY_INFINITY"}, {})

    bundles["Q9"] = _bundle(
        "Q9", [(gh_shape("g"), ["s2", "s3", "mc1"]),
               (circle2("e", (0, -1)), ["ly3"]),
               (circle2("f", (0, -1)), ["ma3"]),
               (circle2("i", (0, -1)), ["ma3"])],
        {"kind": "FORMULA_B9"},
        {"g": ["g.GA"], "h": ["g.GB1"],
         "e": ["e.C1"], "f": ["f.C1"], "i": ["i.C1"]})

    bundles["Q10"] = _bundle(
        "Q10", [(q1_shape("u", (1, 4)), ["s2", "mb2", "lx1"]),
                (q1_shape("v", (1, 4)), ["t5", "mc2", "ma3"])],
        {"kind": "ONLY_FOUR"}, {})

    bundles["Q11"] = _bundle(
        "Q11", [(tri_shape("u"), ["mb1", "mb2"]),
                (tri_shape("v"), ["md1", "t5"]),
                (tri_shape("w"), ["mc2", "ma3"])],
        {"kind": "ONLY_FOUR"}, {})

    return bundles


# ---------------------------------------------------------------------------
# Catalog entries.


def _adm(kind, **kw):
    return {"kind": kind, **kw}

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
PRODUCT_PIECE = {"kind": "SolidTorus", "annulus_wrap": [1, 1], "meridian_hits": 0,
                 "description": "product piece behind the annulus sector; "
                                "the core power is set by the filling denominator"}
TYPE_I_PIECE = {"kind": "SolidTorus", "annulus_wrap": [2], "meridian_hits": 2,
                "description": "filled torus behind the vacant annulus; a "
                               "meridian crosses the annulus core twice"}
SPLIT_PIECE = {"kind": "SolidTorus", "annulus_wrap": [2, 2], "meridian_hits": 2,
               "description": "filled torus between the two split halves"}
R7_PIECE = {"kind": "SolidTorus", "annulus_wrap": [1, 1, 1], "meridian_hits": 3,
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
        orientation_graph=GRAPHS["B3"],
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
            orientation_graph=GRAPHS[eid],
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

# the orientation certificates: B6 to B9 carry transversely orientable
# laminations, and B3's one sided Klein bottle an obstruction
EXPECTED_ORIENTABLE = {"B3": False, "B6": True, "B7": True, "B8": True, "B9": True}

EXCLUSION_CLASS_SIZES = {"DiskLeaf": 5, "BasicTypeII": 4, "R7Cusps": 1,
                         "SplitTypeII": 9, "TypeI": 19}


def check_tables(catalog):
    """The paper's tables, on the reloaded catalog."""
    # the layout was chosen so that the full group has order eight and
    # its edge action is the cyclic group generated by a 4-cycle; both
    # facts are relied on by the case split, so pin them here
    spine = catalog.spine
    assert len(spine.symmetries) == 8, [s.name for s in spine.symmetries]
    assert spine.symmetries[0].name == "identity"
    actions = {tuple(sorted(s.edge_map.items())) for s in spine.symmetries}
    assert len(actions) == 4, sorted(actions)
    cycle = {"a": "c", "c": "b", "b": "d", "d": "a"}
    assert tuple(sorted(cycle.items())) in actions
    for family, q in catalog.complexes.items():
        assert case_of(spine, q) == EXPECTED_CASES[family], family
    assert len(catalog) == 38, len(catalog)
    assert catalog.family_counts() == EXPECTED_FAMILY_COUNTS, catalog.family_counts()
    orientable = {e.id: e.orientation.orientable for e in catalog if e.orientation}
    assert orientable == EXPECTED_ORIENTABLE, orientable
    euler = {e.id: e.euler_characteristics for e in catalog if e.euler is not None}
    assert euler == {eid: (chi, chi) for eid, chi in EXPECTED_EULER.items()}, euler
    sizes = Counter(e.exclusion_class for e in catalog)
    assert sizes == EXCLUSION_CLASS_SIZES, sizes


# ---------------------------------------------------------------------------
# Writing.


def dump(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_data(root: Path, spine_doc, bundles, entries) -> list:
    """Write every data file under root and return their paths, the manifest last."""
    dump(root / "spine.json", spine_doc)
    dump(root / "qcomplexes.json",
         {family: {"connectors": q} for family, q in QCOMPLEXES.items()})
    for family, doc in bundles.items():
        dump(root / "tracks" / f"{family}.json", doc)

    entry_files = []
    for entry in entries:
        rel = f"catalog/entries/{entry['id']}.json"
        dump(root / rel, entry)
        entry_files.append(rel)
    entry_files.sort()

    hashed = ["spine.json", "qcomplexes.json"]
    hashed += [f"tracks/{family}.json" for family in sorted(bundles)]
    hashed += entry_files
    manifest = {
        "schema_version": 1,
        "stated_total_in_source": 39,
        "entry_files": entry_files,
        "files": {rel: sha256_file(root / rel) for rel in sorted(hashed)},
    }
    dump(root / MANIFEST, manifest)
    return hashed + [MANIFEST]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: build_data.py [OUT]", file=sys.stderr)
        return 2
    out = Path(args[0]) if args else DATA
    spine_doc, bundles, entries = build_spine_doc(), build_bundles(), build_entries()

    with tempfile.TemporaryDirectory() as tmp:
        stage = Path(tmp)
        written = write_data(stage, spine_doc, bundles, entries)
        # load the staged files through the package loader and check them
        catalog = load_catalog(path=stage)
        report = check_catalog(catalog)
        assert report.problems == [], report.problems
        assert len(report.warnings) == 1, report.warnings
        for family in FAMILIES:
            slope_law_check(catalog, family, 6).raise_if_violated()
        for entry in entries:
            assert catalog.get(entry["id"]).to_json() == entry, entry["id"]
        check_tables(catalog)

        # only now touch OUT: drop stale entry files, then copy the staged files over
        kept = {out / rel for rel in written}
        for stale in set((out / "catalog" / "entries").glob("*.json")) - kept:
            stale.unlink()
        for rel in written:
            (out / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(stage / rel, out / rel)

    print(f"spine: {len(spine_doc['symmetries'])} symmetries, "
          f"{len(spine_doc['connectors'])} connectors")
    print(f"complexes: {len(QCOMPLEXES)}")
    print(f"tracks: {len(bundles)}")
    print(f"catalog: {len(entries)} entries "
          f"(stated total {report.stated_total})")
    print("all build checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
