"""Branched surface bookkeeping.

Everything here operates on the finite combinatorial records a catalog
entry ships: CW structures for Euler characteristics, sector adjacency
graphs for transverse orientability, disk sector boundaries for sink
detection, and complement component records for the interval bundle
tests used by the exclusion rules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ._record import frozen, record
from .errors import ComplementShapeError

# ---------------------------------------------------------------------------
# CW structures.


def euler_characteristic(cw: dict) -> int:
    """V - E + F of a finite CW structure, with incidence validation.

    Expects {"vertices": n, "edges": [{"id", "ends": [v, v]}],
    "faces": [{"id", "boundary": [edge ids]}]}. Unknown vertices or
    edges make the structure inconsistent and are rejected.
    """
    n = cw.get("vertices")
    if type(n) is not int or n < 1:
        raise ValueError("a CW structure needs a positive vertex count")
    edge_ids = set()
    for edge in cw.get("edges", ()):
        if edge["id"] in edge_ids:
            raise ValueError(f"duplicate edge id {edge['id']!r}")
        edge_ids.add(edge["id"])
        ends = edge.get("ends", ())
        if len(ends) != 2 or any(type(v) is not int or not 0 <= v < n for v in ends):
            raise ValueError(f"edge {edge['id']!r} has bad endpoints {ends!r}")
    face_ids = set()
    for face in cw.get("faces", ()):
        if face["id"] in face_ids:
            raise ValueError(f"duplicate face id {face['id']!r}")
        face_ids.add(face["id"])
        boundary = face.get("boundary", ())
        if not boundary:
            raise ValueError(f"face {face['id']!r} has an empty boundary")
        for eid in boundary:
            if eid not in edge_ids:
                raise ValueError(f"face {face['id']!r} glued along unknown edge {eid!r}")
    return n - len(edge_ids) + len(face_ids)


# ---------------------------------------------------------------------------
# Transverse orientability of the carried laminations.


@record(frozen=True)
class OrientationResult:
    # coloring: one sign per sector when orientable; obstruction: edge ids
    # of a closed walk with an odd number of flips otherwise; both read-only
    def __init__(self, orientable: bool, coloring: Optional[Dict[str, int]] = None,
                 obstruction: Optional[List[str]] = None):
        self.__dict__.update(orientable=orientable, coloring=frozen(coloring),
                             obstruction=frozen(obstruction))


def is_transversely_orientable(graph: dict) -> OrientationResult:
    """Two-color the sector adjacency graph.

    Each edge says whether crossing the branch locus preserves or flips
    a chosen coorientation. A consistent assignment of signs to sectors
    is returned as a certificate; otherwise some closed walk flips an
    odd number of times and its edge list is returned.
    """
    nodes = list(graph["nodes"])
    adjacency: Dict[str, List[Tuple[str, bool, str]]] = {v: [] for v in nodes}
    for edge in graph["edges"]:
        u, v, flip, eid = edge["from"], edge["to"], edge["flip"], edge["id"]
        if type(flip) is not bool:
            raise ValueError(f"orientation edge {eid!r}: flip must be a bool, not {flip!r}")
        if u not in adjacency or v not in adjacency:
            raise ValueError(f"orientation edge {eid!r} touches unknown sector")
        adjacency[u].append((v, flip, eid))
        adjacency[v].append((u, flip, eid))

    color: Dict[str, int] = {}
    via: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
    for start in nodes:
        if start in color:
            continue
        color[start] = 1
        via[start] = (None, None)
        queue = [start]
        while queue:
            u = queue.pop()
            for v, flip, eid in adjacency[u]:
                want = -color[u] if flip else color[u]
                if v not in color:
                    color[v] = want
                    via[v] = (u, eid)
                    queue.append(v)
                elif color[v] != want:
                    return OrientationResult(
                        orientable=False,
                        obstruction=_odd_walk(via, u, v, eid))
    return OrientationResult(orientable=True, coloring=color)


def _odd_walk(via: Dict[str, Tuple[Optional[str], Optional[str]]],
              u: str, v: str, closing_edge: str) -> List[str]:
    def path_to_root(x) -> List[Tuple[str, Optional[str]]]:
        out = []
        while x is not None:
            parent, eid = via[x]
            out.append((x, eid))
            x = parent
        return out

    pu = path_to_root(u)
    pv = path_to_root(v)
    seen = {x for x, _ in pu}
    shared = next((x for x, _ in pv if x in seen), None)
    walk: List[str] = [closing_edge]
    for x, eid in pu:
        if x == shared:
            break
        walk.append(eid)
    for x, eid in pv:
        if x == shared:
            break
        walk.append(eid)
    return [e for e in walk if e is not None]


# ---------------------------------------------------------------------------
# Sink disks.


def detect_sink_disks(disk_sectors: Sequence[dict]) -> List[str]:
    """Ids of disk sectors whose entire boundary is directed inward."""
    sinks = []
    for disk in disk_sectors:
        boundary = disk.get("boundary", ())
        if not boundary:
            raise ValueError(f"disk sector {disk.get('id')!r} has no boundary data")
        directions = {arc["direction"] for arc in boundary}
        if not directions <= {"in", "out"}:
            raise ValueError(f"disk sector {disk.get('id')!r} has a bad direction")
        if directions == {"in"}:
            sinks.append(disk["id"])
    return sinks


# ---------------------------------------------------------------------------
# Complement components.

_COMPONENT_KINDS = ("SolidTorus", "Ball", "TorusCrossInterval", "Handlebody", "Other")


@record(frozen=True)
class ComplementComponent:
    def __init__(self, kind: str, annulus_wrap: Tuple[int, ...] = (),
                 meridian_hits: Optional[int] = None, genus: Optional[int] = None,
                 description: str = ""):
        if kind not in _COMPONENT_KINDS:
            raise ValueError(f"unknown complement kind {kind!r}")
        self.__dict__.update(kind=kind, annulus_wrap=annulus_wrap, meridian_hits=meridian_hits,
                             genus=genus, description=description)

    @property
    def vertical_annuli(self) -> int:
        """The count of vertical annuli, each of which has one wrap number."""
        return len(self.annulus_wrap)

    @staticmethod
    def from_json(doc: dict) -> "ComplementComponent":
        """A complement record of a catalog entry, shaped as entry.schema.json
        says: its keys are the constructor's parameters, so the constructor
        supplies each default and refuses an unknown key (TypeError)."""
        return ComplementComponent(**{**doc, "annulus_wrap": tuple(doc.get("annulus_wrap", ()))})


def admits_coherent_ibundle(component: ComplementComponent) -> bool:
    """Whether the piece carries an interval bundle coherent with its
    vertical boundary. Exactly three shapes do: the product solid torus
    with two straight vertical annuli, the solid torus whose single
    vertical annulus wraps the core twice, and the ball with one
    vertical annulus."""
    if component.kind == "SolidTorus":
        return component.annulus_wrap in ((1, 1), (2,))
    if component.kind == "Ball":
        return len(component.annulus_wrap) == 1
    return False


def meridian_vertical_intersection(component: ComplementComponent) -> int:
    """How often a meridian disk boundary crosses the vertical annulus
    cores of a solid torus piece. Undefined for other shapes."""
    if component.kind != "SolidTorus":
        raise ComplementShapeError(component.kind, "meridian intersection is undefined")
    if component.meridian_hits is None:
        raise ComplementShapeError(component.kind, "record lacks meridian data")
    return component.meridian_hits
