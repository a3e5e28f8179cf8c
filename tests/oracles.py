"""Independent brute force oracles used by the test suite.

Everything here works on raw JSON and never calls the package's code, so
agreement between the two is meaningful. Grids are filtered with numpy,
component by component, and the component splits are recomputed here
from the switch rows alone. Admissibility is decided on (q, p) integer
pairs read straight from an entry's admissible record.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

_GRID_CAP = 20_000_000


def switch_rows(track_doc: dict) -> List[Dict[str, int]]:
    """One balance row per switch: one-fold ends count +1, two-fold -1."""
    rows = []
    for sw in track_doc["switches"]:
        row: Dict[str, int] = {}
        for key, sign in (("one_fold", 1), ("two_fold", -1)):
            for end in sw[key]:
                row[end["branch"]] = row.get(end["branch"], 0) + sign
        rows.append({b: c for b, c in row.items() if c != 0})
    return rows


def _components(branch_ids: List[str], rows: List[Dict[str, int]]) -> List[List[str]]:
    parent = {b: b for b in branch_ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        ids = sorted(row)
        for other in ids[1:]:
            ra, rb = find(ids[0]), find(other)
            if ra != rb:
                parent[ra] = rb
    groups: Dict[str, List[str]] = {}
    for b in branch_ids:
        groups.setdefault(find(b), []).append(b)
    return [sorted(g) for g in groups.values()]


def _component_grid(comp: List[str], rows: List[Dict[str, int]],
                    bound: int) -> List[Tuple[int, ...]]:
    k = len(comp)
    if (bound + 1) ** k > _GRID_CAP:
        raise ValueError(f"oracle grid too large: ({bound}+1)^{k}")
    local = [row for row in rows if any(b in comp for b in row)]
    index = {b: i for i, b in enumerate(comp)}
    # The grid grows one column at a time, in "ij" (lexicographic) order,
    # and each row is checked as soon as its last column is there, so a
    # large component with few solutions never holds its full grid.
    due: Dict[int, List[Dict[str, int]]] = {}
    for row in local:
        due.setdefault(max(index[b] for b in row), []).append(row)
    values = np.arange(bound + 1, dtype=np.int64)
    grid = np.zeros((1, 0), dtype=np.int64)
    for j in range(k):
        grid = np.column_stack([np.repeat(grid, bound + 1, axis=0), np.tile(values, len(grid))])
        for row in due.get(j, ()):
            total = np.zeros(len(grid), dtype=np.int64)
            for b, c in row.items():
                total += c * grid[:, index[b]]
            grid = grid[total == 0]
    return [tuple(int(v) for v in g) for g in grid]


def oracle_solutions(track_doc: dict, bound: int) -> Set[Tuple[int, ...]]:
    """All solutions at the bound, as weight tuples over sorted branch ids."""
    branch_ids = sorted(b["id"] for b in track_doc["branches"])
    rows = switch_rows(track_doc)
    comps = _components(branch_ids, rows)
    per_comp = [_component_grid(comp, rows, bound) for comp in comps]
    order = {b: i for i, b in enumerate(branch_ids)}
    out: Set[Tuple[int, ...]] = set()
    for combo in itertools.product(*per_comp):
        merged = [0] * len(branch_ids)
        for comp, tup in zip(comps, combo):
            for b, v in zip(comp, tup):
                merged[order[b]] = v
        out.add(tuple(merged))
    return out


def _normalize(p: int, q: int) -> Tuple[int, int]:
    # reduced pair with p >= 0, matching the package's slope invariants
    if p == 0:
        return (0, 1)
    if p < 0:
        p, q = -p, -q
    g = gcd(p, q)
    return (p // g, q // g)


def oracle_slope_pairs(track_doc: dict, bound: int) -> Set[Tuple[int, int]]:
    """Reduced (p, q) pairs of all nonzero realized classes."""
    branch_ids = sorted(b["id"] for b in track_doc["branches"])
    klass = {b["id"]: tuple(b.get("class", (0, 0))) for b in track_doc["branches"]}
    pairs: Set[Tuple[int, int]] = set()
    for tup in oracle_solutions(track_doc, bound):
        p = sum(klass[b][0] * w for b, w in zip(branch_ids, tup))
        q = sum(klass[b][1] * w for b, w in zip(branch_ids, tup))
        if (p, q) != (0, 0):
            pairs.add(_normalize(p, q))
    return pairs


def _component_arrays(track_doc: dict, bound: int):
    """The track's connected components, ordered by smallest branch id,
    each with its solution grid as an array whose columns follow the
    component's sorted ids. Every branch meeting a switch joins its
    component, also one whose two ends cancel in the balance row."""
    branch_ids = sorted(b["id"] for b in track_doc["branches"])
    rows = switch_rows(track_doc)
    meets = [{end["branch"]: 1 for key in ("one_fold", "two_fold") for end in sw[key]}
             for sw in track_doc["switches"]]
    comps = sorted(_components(branch_ids, meets), key=lambda comp: comp[0])
    grids = [np.array(_component_grid(comp, rows, bound), dtype=np.int64).reshape(-1, len(comp))
             for comp in comps]
    return comps, grids


def oracle_class_witnesses(track_doc: dict, bound: int
                           ) -> Tuple[Dict[Tuple[int, int], Dict[str, int]], Optional[Dict[str, int]]]:
    """Lex-least witness per nonzero class, plus the lex-least nonzero
    solution of class (0, 0) or None.

    A witness is compared as the concatenation of its component tuples,
    components ordered by smallest branch id. The classes come back in
    ascending witness order. Scans the full product of the per-component
    grids, so it is only for small tracks and bounds.
    """
    comps, grids = _component_arrays(track_doc, bound)
    if not comps:
        return {}, None
    ids = [b for comp in comps for b in comp]
    if int(np.prod([len(g) for g in grids])) * len(ids) > _GRID_CAP:
        raise ValueError(f"oracle product too large at bound {bound}")
    picks = np.stack(np.meshgrid(*[np.arange(len(g)) for g in grids], indexing="ij"),
                     axis=-1).reshape(-1, len(grids))
    full = np.concatenate([g[picks[:, k]] for k, g in enumerate(grids)], axis=1)
    full = full[np.lexsort(full.T[::-1])]  # first column most significant
    klass = {b["id"]: b.get("class", (0, 0)) for b in track_doc["branches"]}
    p = full @ np.array([klass[b][0] for b in ids], dtype=np.int64)
    q = full @ np.array([klass[b][1] for b in ids], dtype=np.int64)

    def witness(i: int) -> Dict[str, int]:
        return {b: int(v) for b, v in zip(ids, full[i])}

    nonzero_class = np.flatnonzero((p != 0) | (q != 0))
    _, first = np.unique(np.stack([p[nonzero_class], q[nonzero_class]], axis=1),
                         axis=0, return_index=True)
    classes = {(int(p[i]), int(q[i])): witness(i) for i in sorted(nonzero_class[first])}
    null = np.flatnonzero((p == 0) & (q == 0) & full.any(axis=1))
    return classes, (witness(int(null[0])) if len(null) else None)


def oracle_dead_branches(track_doc: dict, bound: int) -> Set[str]:
    """Branches whose weight is zero in every solution at the bound."""
    comps, grids = _component_arrays(track_doc, bound)
    return {b for comp, g in zip(comps, grids)
            for b, column in zip(comp, g.T) if not column.any()}


def _slope_pair(text: str) -> Tuple[int, int]:
    """(q, p) of a slope spelled "q", "q/p" or "inf", reduced with p >= 0."""
    if text == "inf":
        return (1, 0)
    q, _, p = text.partition("/")
    q, p = int(q), int(p or 1)
    if p < 0:
        q, p = -q, -p
    g = gcd(q, p)
    return (q // g, p // g)


def oracle_admissible(doc: dict, q: int, p: int) -> bool:
    """Whether the reduced slope q/p lies in the raw admissible record
    `doc`; the infinite slope is (q, p) = (1, 0)."""
    kind = doc["kind"]
    if kind == "AllRationals":
        return True
    if kind == "Only":
        return (q, p) == _slope_pair(doc["slope"])
    if kind == "IntegerDenominatorAtLeast2":
        return p >= 2
    if kind == "GreaterThan":
        bq, bp = _slope_pair(doc["bound"])
        return p > 0 and q * bp > bq * p
    aq, ap = _slope_pair(doc["anchor"])
    crossings = abs(q * ap - aq * p)
    if kind == "IntersectionWithAtLeast":
        return crossings >= doc["count"]
    if kind == "IntersectionWithMoreThan":
        return crossings > doc["count"]
    raise ValueError(f"unknown admissible kind {kind!r}")
