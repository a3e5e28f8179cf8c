"""The standard two-hexagon spine and its weighted curve systems.

The spine sigma has two hexagonal faces, four edges a, b, c, d and two
vertices. Each edge appears three times among the twelve hexagon sides.
An essential curve system in good position meets sigma in arcs that
join two sides of one hexagon: a short connector cuts one corner, a
medium connector skips one side, a long connector joins opposite sides.
A Q-complex assigns a nonnegative multiplicity to each connector so
that all three sides of each edge receive the same number of endpoints;
that common number is the edge weight w_e.

The case split on zero patterns of (w_a, w_b, w_c, w_d) is taken up to
the spine's symmetries. The data ships each symmetry as its side
permutation only; Spine.symmetry derives the edge permutation and vertex
map from it on load, and refuses a side map that induces none.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Mapping, Tuple

from ._record import frozen, record
from .errors import SpineCaseError

EDGES = ("a", "b", "c", "d")

KINDS = {1: "short", 2: "medium", 3: "long"}


class SpineCase(Enum):
    CD_ZERO = "CD_ZERO"
    AC_ZERO = "AC_ZERO"
    C_ZERO = "C_ZERO"
    ALL_POSITIVE = "ALL_POSITIVE"


@record(frozen=True)
class Connector:
    # hexagon is "X" or "Y"
    def __init__(self, id: str, hexagon: str, positions: Tuple[int, int]):
        # two ends in one side make no kind
        if positions[0] == positions[1]:
            raise ValueError(f"connector {id} has both ends on one side")
        self.__dict__.update(id=id, hexagon=hexagon, positions=positions)

    @property
    def kind(self) -> str:
        """short, medium or long, by the gap between its two ends"""
        i, j = self.positions
        return KINDS[min((i - j) % 6, (j - i) % 6)]

    def sides(self, spine: "Spine") -> Tuple[str, str]:
        word = spine.hexagons[self.hexagon]
        return (word[self.positions[0]], word[self.positions[1]])


@record(frozen=True)
class Symmetry:
    """An automorphism of the spine: a side permutation with the edge
    permutation and vertex map it induces."""

    def __init__(self, name: str, side_map: Mapping[str, str], edge_map: Mapping[str, str],
                 vertex_map: Mapping[str, str]):
        self.__dict__.update(name=name, **frozen(dict(side_map=side_map, edge_map=edge_map,
                                                      vertex_map=vertex_map)))


@record(frozen=True)
class Spine:
    """The spine of a document with the shape of spine.schema.json. The
    document is its one field; what is read off it is kept beside it."""

    def __init__(self, doc: dict):
        from . import _schema  # here, since a load of the shipped data never needs it

        _schema.validate(doc, "spine")
        self._read(doc)

    @classmethod
    def _of_valid(cls, doc: dict) -> "Spine":
        """The spine of a document whose shape is already checked or known:
        the constructor without its schema walk, for the catalog loader."""
        spine = cls.__new__(cls)
        spine._read(doc)
        return spine

    def _read(self, doc: dict) -> None:
        hexagons = doc["hexagons"]
        # the document and its views, read-only, so that no edit parts them
        self.__dict__.update(frozen(dict(
            doc=doc,
            hexagons={h: tuple(hexagons[h]["sides"]) for h in ("X", "Y")},
            edge_of={side: edge for h in ("X", "Y")
                     for side, edge in hexagons[h]["edges"].items()},
            corner_vertices={h: tuple(doc["corner_vertices"][h]) for h in ("X", "Y")},
            connectors={c["id"]: Connector(id=c["id"], hexagon=c["hexagon"],
                                           positions=tuple(c["positions"]))
                        for c in doc["connectors"]})))
        self._validate()
        self.__dict__["symmetries"] = tuple(self.symmetry(s["name"], s["side_map"])
                                            for s in doc["symmetries"])
        # a group lists each element once, under one name
        seen: set = set()
        for sym in self.symmetries:
            if not seen.isdisjoint(keys := {sym.name, frozenset(sym.side_map.items())}):
                raise ValueError(f"symmetry {sym.name} repeats an earlier name or side map")
            seen |= keys

    def __setstate__(self, state):
        # what a pickle written before the spine was a record holds: its
        # attributes, which no check has read, and no document
        raise TypeError("a Spine is unpickled from its document, not from its attributes")

    # -- structure ---------------------------------------------------------

    def _validate(self) -> None:
        sides = [s for h in ("X", "Y") for s in self.hexagons[h]]
        if len(set(sides)) != 12:
            raise ValueError("spine data must name twelve distinct sides")
        for edge in EDGES:
            hits = [s for s in sides if self.edge_of[s] == edge]
            if len(hits) != 3:
                raise ValueError(f"edge {edge} must appear on exactly three sides")
        if len(self.connectors) != len(self.doc["connectors"]):
            ids = [c["id"] for c in self.doc["connectors"]]
            twice = next(cid for cid in ids if ids.count(cid) > 1)
            raise ValueError(f"connector {twice} is listed twice")

    def symmetry(self, name: str, side_map: Mapping[str, str]) -> Symmetry:
        """The symmetry with this side permutation, with the edge permutation
        and vertex map it induces on the incidence data. Raises ValueError
        when the side map is not a permutation, tears a hexagon, breaks the
        cyclic order of a hexagon's sides or maps an edge or a vertex two ways."""
        sides = set(self.edge_of)
        if set(side_map) != sides or set(side_map.values()) != sides:
            raise ValueError(f"symmetry {name}: side map is not a permutation")
        edge_map: Dict[str, str] = {}
        for side, image in side_map.items():
            if edge_map.setdefault(self.edge_of[side], self.edge_of[image]) != self.edge_of[image]:
                raise ValueError(f"symmetry {name}: edge map broken at side {side}")
        # cyclic adjacency of sides must be preserved; the corner between
        # two sides goes to the corner between their images
        position = {side: (h, i) for h in ("X", "Y")
                    for i, side in enumerate(self.hexagons[h])}
        vertex_map: Dict[str, str] = {}
        for h in ("X", "Y"):
            word = self.hexagons[h]
            for i in range(6):
                s_here, s_next = word[i], word[(i + 1) % 6]
                h1, i1 = position[side_map[s_here]]
                h2, i2 = position[side_map[s_next]]
                if h1 != h2:
                    raise ValueError(
                        f"symmetry {name}: hexagon torn between {s_here} and {s_next}")
                if (i2 - i1) % 6 == 1:
                    corner = i1
                elif (i1 - i2) % 6 == 1:
                    corner = i2
                else:
                    raise ValueError(f"symmetry {name}: adjacency broken at {s_here}|{s_next}")
                here, image = self.corner_vertices[h][i], self.corner_vertices[h1][corner]
                if vertex_map.setdefault(here, image) != image:
                    raise ValueError(f"symmetry {name}: vertex map broken at corner {h}{i}")
        return Symmetry(name=name, side_map=dict(side_map),
                        edge_map=edge_map, vertex_map=vertex_map)

    # -- complexes ---------------------------------------------------------

    def validate_complex(self, q: Mapping[str, int]) -> Dict[str, int]:
        """The edge weights of the Q-complex q, a nonempty map of connector
        ids to positive multiplicities whose ends reach each side of an
        edge equally often; anything else raises ValueError."""
        if not q:
            raise ValueError("a Q-complex must contain at least one connector")
        for cid, mult in q.items():
            if cid not in self.connectors:
                raise ValueError(f"unknown connector {cid!r}")
            if type(mult) is not int or mult < 1:
                raise ValueError(f"connector {cid!r} needs a positive integer multiplicity")
        counts = self.side_end_counts(q)
        weights = {}
        for edge in EDGES:
            hits = {counts[s] for s in counts if self.edge_of[s] == edge}
            if len(hits) != 1:
                raise ValueError(
                    f"sides of edge {edge} receive unequal endpoint counts: {sorted(hits)}")
            weights[edge] = hits.pop()
        return weights

    def side_end_counts(self, q: Mapping[str, int]) -> Dict[str, int]:
        counts = {s: 0 for s in self.edge_of}
        for cid, mult in q.items():
            s1, s2 = self.connectors[cid].sides(self)
            counts[s1] += mult
            counts[s2] += mult
        return counts


def case_of(spine: Spine, q: Mapping[str, int]) -> SpineCase:
    """Zero-pattern case of a Q-complex, up to spine symmetries.

    Cases are tried in the order CD, AC, C, all-positive, each against
    every symmetry image of the weight vector. Patterns that no image
    matches raise SpineCaseError.
    """
    w = spine.validate_complex(q)
    images = []
    for sym in spine.symmetries:
        images.append({e: w[sym.edge_map[e]] for e in EDGES})
    if any(v["c"] == 0 and v["d"] == 0 for v in images):
        return SpineCase.CD_ZERO
    if any(v["a"] == 0 and v["c"] == 0 for v in images):
        return SpineCase.AC_ZERO
    if any(v["c"] == 0 for v in images):
        return SpineCase.C_ZERO
    if all(w[e] > 0 for e in EDGES):
        return SpineCase.ALL_POSITIVE
    raise SpineCaseError(w, tuple(e for e in EDGES if w[e] == 0))


def _short_germ(spine: Spine, conn: Connector) -> Tuple[str, frozenset]:
    i, j = conn.positions
    corner = i if (j - i) % 6 == 1 else j
    vertex = spine.corner_vertices[conn.hexagon][corner]
    word = spine.hexagons[conn.hexagon]
    edges = frozenset((spine.edge_of[word[corner]],
                       spine.edge_of[word[(corner + 1) % 6]]))
    return vertex, edges


def adjacent_short_pairs(spine: Spine, q: Mapping[str, int]) -> List[Tuple[str, str]]:
    """Pairs of distinct short connectors in q that sit about the same
    vertex and meet along an edge there. Parallel copies of one short
    occupy one corner and never pair with themselves."""
    spine.validate_complex(q)
    shorts = [spine.connectors[cid] for cid in sorted(q)
              if spine.connectors[cid].kind == "short"]
    pairs = []
    for idx, c1 in enumerate(shorts):
        v1, g1 = _short_germ(spine, c1)
        for c2 in shorts[idx + 1:]:
            v2, g2 = _short_germ(spine, c2)
            if v1 == v2 and g1 & g2:
                pairs.append((c1.id, c2.id))
    return pairs


# Only perfbench calls this (its load_track_bundle_s layer); ROADMAP item 1
# deletes it. It imports the catalog lazily, since the catalog imports this
# module.
def load_track_bundle(family: str):
    """The family's TrackBundle in the default catalog."""
    from .catalog import default_catalog
    return default_catalog().tracks[family]
