"""Train tracks on the boundary torus, their slope laws and the roles a
law reads: what the catalog loader builds and checks.

A track is a finite set of branches joined at switches. Every switch has
a one-fold side and a two-fold side; each branch carries a homology
class on the torus, written (p, q) for p times the longitude plus q
times the meridian. Branches may close up without meeting any switch
(loop branches). A slope law says which boundary slopes a family's track
realizes.

The solver, which enumerates the weights of a track and checks its law,
is traintrack. Nothing here imports it at module level, so a process
that only loads the catalog and classifies never compiles it.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ._record import frozen, record
from .errors import MonogonError, SwitchSystemError
from .slopes import INFINITY, ZERO, Slope

End = Tuple[str, str]  # (branch id, "head" | "tail")

_END_NAMES = ("head", "tail")


@record(frozen=True)
class Branch:
    def __init__(self, id: str, klass: Tuple[int, int] = (0, 0), loop: bool = False):
        self.__dict__.update(id=id, klass=klass, loop=loop)

    @staticmethod
    def from_json(doc: dict) -> "Branch":
        return Branch(id=doc["id"], klass=tuple(doc["class"]), loop=doc["loop"])


@record(frozen=True)
class Switch:
    """one_fold holds exactly one end; two_fold holds one or two.

    A two_fold side with a single end is a degenerate joint equating two
    branch weights. It shows up where two lifted arcs meet over a plain
    crossing point rather than over a genuine branching.
    """

    def __init__(self, id: str, one_fold: Tuple[End, ...], two_fold: Tuple[End, ...]):
        self.__dict__.update(id=id, one_fold=one_fold, two_fold=two_fold)

    def ends(self) -> Tuple[End, ...]:
        return self.one_fold + self.two_fold

    @staticmethod
    def from_json(doc: dict) -> "Switch":
        def side(key):
            return tuple((ref["branch"], ref["end"]) for ref in doc[key])
        return Switch(id=doc["id"], one_fold=side("one_fold"),
                      two_fold=side("two_fold"))


@record(frozen=True)
class TrainTrack:
    """A validated track, a frozen record whose `branches` and `switches`
    are read-only maps by id, so the solve plan built on the first solve
    stays the plan of this track. Maps do not hash, and so neither does a
    track."""

    def __init__(self, branches: Sequence[Branch], switches: Sequence[Switch],
                 track_id: str = "track"):
        by_id: Dict[str, Branch] = {}
        for b in branches:
            if b.id in by_id:
                raise SwitchSystemError(track_id, f"duplicate branch id {b.id!r}")
            by_id[b.id] = b
        by_sid: Dict[str, Switch] = {}
        for s in switches:
            if s.id in by_sid:
                raise SwitchSystemError(track_id, f"duplicate switch id {s.id!r}")
            by_sid[s.id] = s
        self.__dict__.update(branches=frozen(by_id), switches=frozen(by_sid), track_id=track_id)
        self.validate()

    # -- structure ---------------------------------------------------------

    def validate(self) -> None:
        for b in self.branches.values():
            # the solve packs classes as ints and reads loop as a flag
            if not (type(b.klass) is tuple and len(b.klass) == 2
                    and all(type(x) is int for x in b.klass)):
                raise SwitchSystemError(self.track_id, f"branch {b.id!r} needs a class of "
                                        f"two integers, not {b.klass!r}")
            if type(b.loop) is not bool:
                raise SwitchSystemError(self.track_id,
                                        f"branch {b.id!r} needs a bool loop, not {b.loop!r}")
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

    @functools.cached_property
    def _solve_plan(self) -> "_SolvePlan":
        """What every solve of this track needs at any bound, built on the
        first solve and kept on the track."""
        from .traintrack import _SolvePlan
        return _SolvePlan.of(self)

    # -- serialization -----------------------------------------------------

    def __reduce__(self):
        # the fields are maps by id, and the constructor takes the values;
        # copies and pickles are built, and so checked, as a new track is
        return TrainTrack, (tuple(self.branches.values()), tuple(self.switches.values()),
                            self.track_id)

    @staticmethod
    def from_json(doc: dict, track_id: str = "track") -> "TrainTrack":
        return TrainTrack(
            [Branch.from_json(b) for b in doc["branches"]],
            [Switch.from_json(s) for s in doc["switches"]],
            track_id=track_id,
        )


# The largest bound of a law check that the CLI accepts, and the bound at
# which `catalog check` checks the class span and the solution cap. The
# check grows steeply with the bound; the README gives Q4's time at 50.
MAX_LAW_BOUND = 50


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


@record(frozen=True)
class SlopeLaw:
    def __init__(self, kind: str, surjective_height: Optional[int] = None):
        if kind not in LAW_KINDS:
            raise ValueError(f"unknown slope law {kind!r}")
        h = surjective_height
        if h is not None:
            if kind not in HEIGHT_KINDS:
                raise ValueError(f"{kind} takes no surjective_height, not {h!r}")
            if type(h) is not int or not 1 <= h <= MAX_SURJECTIVE_HEIGHT:
                raise ValueError(f"surjective_height must be an integer from 1 to "
                                 f"{MAX_SURJECTIVE_HEIGHT}, not {h!r}")
        self.__dict__.update(kind=kind, surjective_height=h)


def check_roles(track: TrainTrack, designated: Mapping[str, Sequence[str]]) -> None:
    """Raise SwitchSystemError unless each designated role is a list (or
    tuple) of branch ids of the track."""
    for role, ids in designated.items():
        if not isinstance(ids, (list, tuple)) or any(
                type(b) is not str or b not in track.branches for b in ids):
            raise SwitchSystemError(track.track_id, f"designated role {role!r} must list "
                                                    f"branches of the track, not {ids!r}")
