"""Measured train tracks on the boundary torus.

A track is a finite set of branches joined at switches. Every switch has
a one-fold side and a two-fold side; a nonnegative integer weight vector
is a solution when, at each switch, the weight entering the one-fold
side equals the total weight entering the two-fold side. Each branch
carries a homology class on the torus, written (p, q) for p times the
longitude plus q times the meridian, and a solution realizes the class
given by the weighted sum of its branches. The boundary slope of a
nonzero realized class (p, q) is q/p, with q/0 read as the meridian.

Branches may close up without meeting any switch (loop branches); their
weight is unconstrained. Weight enumeration is exact and bounded: all
solutions with every weight at most the bound, in lexicographic order
of the weight tuple over branch ids sorted alphabetically.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import MonogonError, SlopeLawError, SwitchSystemError
from .slopes import INFINITY, ZERO, Slope, _from_reduced, _reduced, up_to_height

End = Tuple[str, str]  # (branch id, "head" | "tail")

_END_NAMES = ("head", "tail")


@dataclass(frozen=True)
class Branch:
    id: str
    klass: Tuple[int, int] = (0, 0)
    loop: bool = False

    def to_json(self) -> dict:
        return {"id": self.id, "class": list(self.klass), "loop": self.loop}

    @staticmethod
    def from_json(doc: dict) -> "Branch":
        return Branch(id=doc["id"], klass=tuple(doc["class"]), loop=doc["loop"])


@dataclass(frozen=True)
class Switch:
    """one_fold holds exactly one end; two_fold holds one or two.

    A two_fold side with a single end is a degenerate joint equating two
    branch weights. It shows up where two lifted arcs meet over a plain
    crossing point rather than over a genuine branching.
    """

    id: str
    one_fold: Tuple[End, ...]
    two_fold: Tuple[End, ...]

    def ends(self) -> Tuple[End, ...]:
        return self.one_fold + self.two_fold

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "one_fold": [{"branch": b, "end": e} for b, e in self.one_fold],
            "two_fold": [{"branch": b, "end": e} for b, e in self.two_fold],
        }

    @staticmethod
    def from_json(doc: dict) -> "Switch":
        def side(key):
            return tuple((ref["branch"], ref["end"]) for ref in doc[key])
        return Switch(id=doc["id"], one_fold=side("one_fold"),
                      two_fold=side("two_fold"))


class TrainTrack:
    def __init__(self, branches: Sequence[Branch], switches: Sequence[Switch],
                 track_id: str = "track"):
        self.track_id = track_id
        self.branches: Dict[str, Branch] = {}
        for b in branches:
            if b.id in self.branches:
                raise SwitchSystemError(track_id, f"duplicate branch id {b.id!r}")
            self.branches[b.id] = b
        self.switches: Dict[str, Switch] = {}
        for s in switches:
            if s.id in self.switches:
                raise SwitchSystemError(track_id, f"duplicate switch id {s.id!r}")
            self.switches[s.id] = s
        self.validate()

    # -- structure ---------------------------------------------------------

    def validate(self) -> None:
        seen: Dict[End, str] = {}
        for s in self.switches.values():
            if len(s.one_fold) != 1:
                raise SwitchSystemError(self.track_id,
                                        f"switch {s.id!r} needs exactly one end on its one-fold side")
            if len(s.two_fold) not in (1, 2):
                raise SwitchSystemError(self.track_id,
                                        f"switch {s.id!r} needs one or two ends on its two-fold side")
            for side in (s.one_fold, s.two_fold):
                by_branch: Dict[str, int] = {}
                for branch_id, end_name in side:
                    if end_name not in _END_NAMES:
                        raise SwitchSystemError(self.track_id,
                                                f"switch {s.id!r} names bad end {end_name!r}")
                    if branch_id not in self.branches:
                        raise SwitchSystemError(self.track_id,
                                                f"switch {s.id!r} references unknown branch {branch_id!r}")
                    if self.branches[branch_id].loop:
                        raise SwitchSystemError(self.track_id,
                                                f"loop branch {branch_id!r} cannot meet switch {s.id!r}")
                    by_branch[branch_id] = by_branch.get(branch_id, 0) + 1
                for branch_id, count in by_branch.items():
                    if count > 1:
                        # both ends on one side of one switch bounds a monogon
                        raise MonogonError(self.track_id, branch_id)
            for end in s.ends():
                if end in seen:
                    raise SwitchSystemError(
                        self.track_id,
                        f"end {end!r} attached to both {seen[end]!r} and {s.id!r}")
                seen[end] = s.id
        for b in self.branches.values():
            if b.loop:
                continue
            for end_name in _END_NAMES:
                if (b.id, end_name) not in seen:
                    raise SwitchSystemError(self.track_id,
                                            f"branch {b.id!r} has a free {end_name}")

    def branch_order(self) -> List[str]:
        return sorted(self.branches)

    def switch_system(self) -> List[Dict[str, int]]:
        """One row per switch: branch id -> coefficient, one-fold counted
        positive. Coefficients land in {-1, 0, 1}; a branch whose two ends
        straddle the same switch cancels to 0."""
        rows = []
        for sid in sorted(self.switches):
            s = self.switches[sid]
            row: Dict[str, int] = {}
            for branch_id, _ in s.one_fold:
                row[branch_id] = row.get(branch_id, 0) + 1
            for branch_id, _ in s.two_fold:
                row[branch_id] = row.get(branch_id, 0) - 1
            rows.append({k: v for k, v in row.items() if v != 0})
        return rows

    def components(self) -> List[List[str]]:
        parent = {bid: bid for bid in self.branches}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for s in self.switches.values():
            ends = s.ends()
            for (b1, _), (b2, _) in zip(ends, ends[1:]):
                union(b1, b2)
        groups: Dict[str, List[str]] = {}
        for bid in self.branches:
            groups.setdefault(find(bid), []).append(bid)
        comps = [sorted(g) for g in groups.values()]
        comps.sort(key=lambda g: g[0])
        return comps

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "branches": [self.branches[b].to_json() for b in sorted(self.branches)],
            "switches": [self.switches[s].to_json() for s in sorted(self.switches)],
        }

    @staticmethod
    def from_json(doc: dict, track_id: str = "track") -> "TrainTrack":
        return TrainTrack(
            [Branch.from_json(b) for b in doc["branches"]],
            [Switch.from_json(s) for s in doc["switches"]],
            track_id=track_id,
        )


# ---------------------------------------------------------------------------
# Solution enumeration.


Row = Tuple[Tuple[int, int], ...]  # (local index, coefficient) pairs

# The most solutions enumerate_solutions builds. Every family fits at bound
# 10 (Q7 has 121^3 = 1,771,561); Q2 at bound 20 has 3311^2 = 10,962,721.
ENUMERATION_CAP = 2_000_000


def _local_system(rows: List[Dict[str, int]], comp: List[str]) -> Tuple[Row, ...]:
    """The switch rows supported on comp, in comp's local indices, sorted
    so that components with the same system get the same key."""
    index = {bid: i for i, bid in enumerate(comp)}
    return tuple(sorted(tuple(sorted((index[b], c) for b, c in row.items()))
                        for row in rows if row and next(iter(row)) in index))


def _elimination_plan(n: int, system: Tuple[Row, ...]) -> List[Tuple[Optional[int], list]]:
    """One level per free choice (None before the first): (index chosen,
    steps). A step (i, c, rest, b) forces w[i] from its row's other entries
    rest; (None, 0, row, b) checks a fully known row. What a row forces
    depends only on which weights are known, never on their values, so
    the plan is fixed before any is chosen. Within a level, each forced
    weight and each checked row's sum is A + b * x in the level's choice
    x: b is fixed here, and A depends only on the weights known before."""
    known: Set[Optional[int]] = set()
    pending, levels, choice = list(system), [], None
    while True:
        steps = []
        moves = {} if choice is None else {choice: 1}  # index -> its b
        while (row := next((r for r in pending
                            if sum(i not in known for i, _ in r) <= 1), None)) is not None:
            pending.remove(row)
            i, c = next(((i, c) for i, c in row if i not in known), (None, 0))
            known.add(i)
            rest = [(j, d) for j, d in row if j != i]
            b = sum(d * moves.get(j, 0) for j, d in rest)
            if i is not None:
                b = moves[i] = -c * b
            steps.append((i, c, rest, b))
        levels.append((choice, steps))
        choice = next((i for i in range(n) if i not in known), None)
        if choice is None:
            return levels
        known.add(choice)


def _component_solutions(n: int, system: Tuple[Row, ...], bound: int) -> List[Tuple[int, ...]]:
    """All weight tuples of length n satisfying every row of system (in
    local indices), each weight <= bound, sorted. Each level of the
    elimination plan works out once, from the weights already known, the
    range of its free choice that keeps every forced weight in [0, bound]
    and every checked row at 0, and walks only that range."""
    levels = _elimination_plan(n, system)
    weights = [0] * n
    out: List[Tuple[int, ...]] = []

    def settle(steps) -> Optional[Tuple[int, int, list]]:
        """The feasible range lo..hi of the level's choice, whose weight
        the caller has set to 0, and each forced (i, A, b); None if no
        value is feasible. Leaves each forced weight at its A."""
        lo, hi, forced = 0, bound, []
        for i, c, rest, b in steps:
            total = 0
            for j, d in rest:
                total += d * weights[j]
            if i is None:
                # the row sums to total + b * x, which must vanish
                if not b:
                    if total:
                        return None
                elif total % b:
                    return None
                else:
                    x = -total // b
                    lo, hi = max(lo, x), min(hi, x)
                continue
            a = -total * c  # c is +-1, so dividing by c is multiplying by it
            weights[i] = a
            forced.append((i, a, b))
            # 0 <= a + b * x <= bound, solved for x
            if b > 0:
                lo = max(lo, -(a // b))
                hi = min(hi, (bound - a) // b)
            elif b < 0:
                lo = max(lo, -((bound - a) // -b))
                hi = min(hi, a // -b)
            elif a < 0 or a > bound:
                return None
        return (lo, hi, forced) if lo <= hi else None

    def walk(level: int) -> None:
        choice, steps = levels[level]
        weights[choice] = 0
        span = settle(steps)
        if span is None:
            return
        lo, hi, forced = span
        nxt = level + 1
        last = nxt == len(levels)
        for x in range(lo, hi + 1):
            weights[choice] = x
            for i, a, b in forced:
                weights[i] = a + b * x
            if last:
                out.append(tuple(weights))
            else:
                walk(nxt)

    # level 0 has no choice: its weights are forced from nothing
    if settle(levels[0][1]) is not None:
        if len(levels) == 1:
            out.append(tuple(weights))
        else:
            walk(1)
    # walk reaches itself through its closure; without this the cycle keeps
    # out alive after the callers drop it, until a cyclic collection runs
    del walk
    out.sort()
    return out


def _solve(track: TrainTrack, bound: int) -> Tuple[List[List[str]], List[List[Tuple[int, ...]]]]:
    """The track's components and, aligned with them, each one's sorted
    weight tuples at this bound. Components with the same size and the
    same rows in local indices are solved once and share one list."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    comps = track.components()
    rows = track.switch_system()
    keys = [(len(comp), _local_system(rows, comp)) for comp in comps]
    solved = {key: _component_solutions(*key, bound) for key in set(keys)}
    return comps, [solved[key] for key in keys]


def enumerate_solutions(track: TrainTrack, bound: int) -> List[Dict[str, int]]:
    """Every solution with all weights <= bound, zero vector included,
    in lexicographic order over alphabetically sorted branch ids.

    Raises ValueError, before building any, when there are more than
    ENUMERATION_CAP of them."""
    comps, per_comp = _solve(track, bound)
    count = math.prod(map(len, per_comp))
    if count > ENUMERATION_CAP:
        raise ValueError(f"{count} solutions at bound {bound} exceed the "
                         f"enumeration cap of {ENUMERATION_CAP}")
    ids = [bid for comp in comps for bid in comp]
    order = track.branch_order()
    solutions = [dict(zip(ids, itertools.chain.from_iterable(combo)))
                 for combo in itertools.product(*per_comp)]
    solutions.sort(key=lambda w: tuple(w[b] for b in order))
    return solutions


def _slopes(classes) -> Set[Slope]:
    # reduce on integers first, then build one Slope per distinct slope
    # straight from its reduced pair
    return {_from_reduced(q, p) for q, p in {_reduced(p, q) for p, q in classes}}


@dataclass
class CarriedClasses:
    """Nonzero realized classes with one witness each, plus one witness
    of a nonzero solution whose class vanishes, when such exist."""

    classes: Dict[Tuple[int, int], Dict[str, int]] = field(default_factory=dict)
    null_witness: Optional[Dict[str, int]] = None

    def slopes(self) -> Set[Slope]:
        return _slopes(self.classes)


def _set_bits(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


Witnesses = Dict[Tuple[int, int], Tuple[int, ...]]


class _ClassMap(NamedTuple):
    """One component's classes as bits of the fold, a bit being a packed
    class minus the least packed class the component can reach."""

    nonzero: Dict[int, Tuple[int, ...]]  # bit -> lex-first nonzero tuple, ascending
    nonzero_mask: int
    zero: int                            # the bit of class 0
    mask: int                            # nonzero_mask with the zero bit set
    # bit -> its lex-first tuple after a nonzero prefix, where the zero
    # tuple is class 0's
    after: Dict[int, Tuple[int, ...]]


def _class_map(sols: List[Tuple[int, ...]], coef: Tuple[int, ...], bound: int) -> _ClassMap:
    """The class map of a component with these sorted solutions and
    packed branch classes, with one dot product per solution."""
    least = bound * sum(min(c, 0) for c in coef)
    # sols[0] is the zero tuple; the rest are nonzero and ascending, so
    # the first tuple seen for a class is its lex-first one, and at class
    # 0 it is the component's null tuple.
    nonzero: Dict[int, Tuple[int, ...]] = {}
    for tup in itertools.islice(sols, 1, None):
        nonzero.setdefault(sum(map(operator.mul, coef, tup)) - least, tup)
    zero = -least
    nonzero_mask = sum(1 << b for b in nonzero)
    after = dict(nonzero)
    after[zero] = sols[0]
    return _ClassMap(nonzero, nonzero_mask, zero, nonzero_mask | 1 << zero, after)


def _fold(track: TrainTrack, bound: int) -> Tuple[List[str], Witnesses, Optional[Tuple[int, ...]]]:
    """The branch ids in component order, and over them as one weight
    tuple the witness of each nonzero realized class, in ascending witness
    order, and the null witness or None. See carried_classes."""
    comps, solved = _solve(track, bound)
    klasses = [[track.branches[b].klass for b in comp] for comp in comps]
    # A class (p, q) packs into the integer p * width + q. width exceeds
    # the spread of q over every solution, so the packing is one to one
    # and classes add as their packed integers do.
    width = 1 + bound * sum(abs(q) for klass in klasses for _, q in klass)
    q_least = bound * sum(min(q, 0) for klass in klasses for _, q in klass)

    # Components that share a solution list (see _solve) and their packed
    # branch classes share one class map. Each list stays alive in solved
    # for the whole fold, so its id names it.
    maps: Dict[Tuple[int, Tuple[int, ...]], _ClassMap] = {}

    # The fold keeps the zero prefix (every component so far at its zero
    # tuple) apart from the nonzero layer: bit -> the lex-first nonzero
    # prefix of that class, in ascending witness order. A prefix is the
    # concatenation of its components' tuples.
    zero_bit, zero_prefix = 0, ()
    layer: Dict[int, Tuple[int, ...]] = {}
    for klass, sols in zip(klasses, solved):
        coef = tuple(p * width + q for p, q in klass)
        key = (id(sols), coef)
        cmap = maps.get(key)
        if cmap is None:
            cmap = maps[key] = _class_map(sols, coef, bound)
        mask, after = cmap.mask, cmap.after

        # The zero prefix comes first and covers the component's nonzero
        # classes shifted by its own bit. Then each nonzero prefix, in
        # ascending witness order, shifts the mask by its bit; only bits
        # not yet covered get a witness, in ascending tuple order, so the
        # first cover of a class is its lex-least witness.
        nxt = {zero_bit + b: zero_prefix + tup for b, tup in cmap.nonzero.items()}
        covered = cmap.nonzero_mask << zero_bit
        for shift, prefix in layer.items():
            new = mask & ~(covered >> shift)
            if new:
                covered |= new << shift
                for b in sorted(_set_bits(new), key=after.__getitem__):
                    nxt[shift + b] = prefix + after[b]
        layer = nxt
        zero_bit, zero_prefix = zero_bit + cmap.zero, zero_prefix + sols[0]

    classes: Witnesses = {}
    null = None
    for b, tup in layer.items():
        if b == zero_bit:
            null = tup
        else:
            p, q = divmod(b - zero_bit - q_least, width)
            classes[(p, q + q_least)] = tup
    return [bid for comp in comps for bid in comp], classes, null


def carried_classes(track: TrainTrack, bound: int) -> CarriedClasses:
    """Component-wise enumeration combined over the class lattice.

    The witness for a class is deterministic: components are taken in
    order of their smallest branch id, each contributing its
    lexicographically first weight tuple for its share of the class.
    """
    ids, classes, null = _fold(track, bound)
    return CarriedClasses({klass: dict(zip(ids, tup)) for klass, tup in classes.items()},
                          None if null is None else dict(zip(ids, null)))


def dead_branches(track: TrainTrack, bound: int) -> Set[str]:
    """Branches carrying zero weight in every solution at this bound."""
    alive: Set[str] = set()
    for comp, sols in zip(*_solve(track, bound)):
        for tup in sols:
            for bid, w in zip(comp, tup):
                if w:
                    alive.add(bid)
    return set(track.branches) - alive


# ---------------------------------------------------------------------------
# Slope laws.

# The slope each constant law allows, and for each formula law its
# roles and the class (p, q) a witness must have, given the weight sum
# over each role in that order, with its text for violation messages.
# The first role is the one the law's range condition reads.
_CONSTANT_LAWS = {"ONLY_ZERO": ZERO, "ONLY_FOUR": Slope(4, 1), "ONLY_INFINITY": INFINITY}
_FORMULAS = {
    "FORMULA_MU_NU_OMEGA": ("(omega, mu-nu)", ("omega", "mu", "nu"),
                            lambda omega, mu, nu: (omega, mu - nu)),
    "FORMULA_THREE_PLUS": ("(omega, 3*omega+mu+nu)", ("mu", "omega", "nu"),
                           lambda mu, omega, nu: (omega, 3 * omega + mu + nu)),
    "FORMULA_B9": ("(g, g+h-e-f-i)", ("g", "h", "e", "f", "i"),
                   lambda g, h, e, f, i: (g, g + h - e - f - i)),
}
# every kind, in the order of the schema's enum
LAW_KINDS = (*_CONSTANT_LAWS, "ANY_SLOPE", *_FORMULAS)


# The kinds whose check reads a surjective_height: every slope of height
# at most h must be realized, with h = 1 when the law gives none.
HEIGHT_KINDS = ("ANY_SLOPE", "FORMULA_MU_NU_OMEGA")

# The largest surjective_height a law may ask for. Checking height h
# builds every slope of height at most h, 3,096 at 50.
MAX_SURJECTIVE_HEIGHT = 50


@dataclass(frozen=True)
class SlopeLaw:
    kind: str
    surjective_height: Optional[int] = None

    def __post_init__(self):
        if self.kind not in LAW_KINDS:
            raise ValueError(f"unknown slope law {self.kind!r}")
        h = self.surjective_height
        if h is None:
            return
        if self.kind not in HEIGHT_KINDS:
            raise ValueError(f"{self.kind} takes no surjective_height, not {h!r}")
        if type(h) is not int or not 1 <= h <= MAX_SURJECTIVE_HEIGHT:
            raise ValueError(f"surjective_height must be an integer from 1 to "
                             f"{MAX_SURJECTIVE_HEIGHT}, not {h!r}")


@dataclass
class LawReport:
    family: str
    law: SlopeLaw
    bound: int
    realized: Set[Slope]
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            raise SlopeLawError(self.family, "; ".join(self.violations))


def _slopes_up_to_height(h: int) -> Set[Slope]:
    return {INFINITY, *up_to_height(h)}


def check_roles(track: TrainTrack, designated: Mapping[str, Sequence[str]]) -> None:
    """Raise SwitchSystemError unless each designated role is a list (or
    tuple) of branch ids of the track."""
    for role, ids in designated.items():
        if not isinstance(ids, (list, tuple)) or any(
                type(b) is not str or b not in track.branches for b in ids):
            raise SwitchSystemError(track.track_id, f"designated role {role!r} must list "
                                                    f"branches of the track, not {ids!r}")


def _role_sums(positions: List[int], witnesses) -> Iterator[int]:
    """Each witness tuple's weight summed over these positions, in order,
    through one getter built before the first witness."""
    if not positions:
        return itertools.repeat(0, len(witnesses))
    if len(positions) == 1:
        return map(operator.itemgetter(positions[0]), witnesses)
    return map(sum, map(operator.itemgetter(*positions), witnesses))


def check_law(track: TrainTrack, law: SlopeLaw, designated: Dict[str, List[str]],
              bound: int, family: str = "?") -> LawReport:
    """Verify the family's slope law against bounded enumeration.

    Constant laws assert the realized slope set exactly. Formula laws
    assert an identity between each witness's class and the weight sums
    over the designated roles, plus the law's range condition.
    """
    check_roles(track, designated)
    ids, classes, _ = _fold(track, bound)
    realized = _slopes(classes)
    violations: List[str] = []
    if law.kind in _CONSTANT_LAWS:
        expected = {_CONSTANT_LAWS[law.kind]}
        if realized != expected:
            violations.append(
                f"realized {sorted(str(s) for s in realized)} != expected "
                f"{sorted(str(s) for s in expected)}")
    if law.kind in _FORMULAS:
        label, roles, formula = _FORMULAS[law.kind]
        # each role's positions in the witness tuples; the ids were checked
        # above, and a role not designated sums to 0
        at = {bid: k for k, bid in enumerate(ids)}
        witnesses = classes.values()
        columns = [_role_sums([at[b] for b in designated.get(role, ())], witnesses)
                   for role in roles]
        saw_positive_g = False
        for (p, q), sums in zip(classes, zip(*columns)):
            want = formula(*sums)
            if (p, q) != want:
                violations.append(f"class ({p},{q}) disagrees with {label}=({want[0]},{want[1]})")
            if law.kind == "FORMULA_THREE_PLUS":
                if sums[0] < 1:
                    violations.append(f"class ({p},{q}) realized with mu = 0")
                # q/p > 3 on integers; p = 0 is the meridian, never above 3
                if p == 0 or (q if p > 0 else -q) <= 3 * abs(p):
                    violations.append(f"realized slope {Slope.of(q, p)} not greater than 3")
            elif law.kind == "FORMULA_B9":
                saw_positive_g = saw_positive_g or sums[0] > 0
        if law.kind == "FORMULA_B9" and not saw_positive_g and bound >= 1:
            violations.append("no witness with positive g")
    if law.kind in HEIGHT_KINDS:
        h = law.surjective_height or 1
        missing = _slopes_up_to_height(h) - realized
        if missing:
            violations.append(f"missing slopes of height <= {h}: "
                              f"{sorted(str(s) for s in missing)}")
    return LawReport(family=family, law=law, bound=bound,
                     realized=realized, violations=violations)
