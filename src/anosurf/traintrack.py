"""The train-track solver: the measured weights of a track, the classes
they realize, and the check of a family's slope law.

The tracks, the laws and the roles are built in _track, which the
catalog loader imports; this module re-exports them. Only a law check,
a carried-class or dead-branch query and `catalog check` import this
one, so a process that only classifies never compiles it.

A nonnegative integer weight vector on a track is a solution when, at
each switch, the weight entering the one-fold side equals the total
weight entering the two-fold side. A solution realizes the class given
by the weighted sum of its branches. The boundary slope of a nonzero
realized class (p, q) is q/p, with q/0 read as the meridian. A loop
branch's weight is unconstrained. A bound caps every weight, and the
solutions under it are never listed one by one: they are kept as runs,
which carried_classes and dead_branches read.

Each connected component is solved on its own, as runs: along the last
free weight of its elimination plan the solutions move by one fixed
step, so a run (first tuple, length) stands for that many consecutive
solutions, and so does an arithmetic progression of packed classes. A
component with more than COMPONENT_SOLUTION_CAP solutions, or whose runs
would store more than COMPONENT_WEIGHT_CAP weights, raises
SwitchSystemError, and so does a solve of a track with more than
TRACK_BRANCH_CAP branches, before its plan is built.

The components' classes are folded into the track's as a sumset of
bitmasks, a class packed into one bit. check_law decides every law from
that class set alone; a formula law certified branch by branch needs no
witness, and a certified range condition is decided from the classes and
the runs. One witness fold serves carried_classes and a check that the
class set cannot settle: each class gets the code of its lex-first
witness, branch number i weighing 1 << i * w with w the bit length of
the bound, so the witness's weights are the code's base 2**w digits and
codes add over components. carried_classes decodes each code into a
dict; a failing check reads each role sum off the digits of its
branches. A track whose packed classes would span more than
CLASS_SPAN_CAP bits raises SwitchSystemError; check_class_span decides
that from the branch classes alone.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from ._record import frozen, record
from ._track import (  # noqa: F401  the loaded half, re-exported
    _CONSTANT_LAWS, _FORMULAS, HEIGHT_KINDS, LAW_KINDS, MAX_LAW_BOUND, MAX_SURJECTIVE_HEIGHT,
    Branch, End, SlopeLaw, Switch, TrainTrack, check_roles)
from .errors import SlopeLawError, SwitchSystemError
from .slopes import INFINITY, Slope, _slopes, up_to_height


# ---------------------------------------------------------------------------
# Solution enumeration.


Row = Tuple[Tuple[int, int], ...]  # (local index, coefficient) pairs
System = Tuple[int, Tuple[Row, ...]]  # a component's size and its rows
# One level per free choice: (index chosen, steps); see _elimination_plan.
Levels = Tuple[Tuple[Optional[int], tuple], ...]
# Consecutive solutions (first tuple, length); see _component_solutions.
Run = Tuple[Tuple[int, ...], int]

# The most solutions one component may have. The shipped tracks peak at
# 45,526, Q4's at bound 50.
COMPONENT_SOLUTION_CAP = 1_000_000
# The most weights one component's runs may store, a whole tuple per run.
# The shipped tracks peak at 15,606, Q4's at bound 50.
COMPONENT_WEIGHT_CAP = 4_000_000
# The most branches a track may have to be solved: the walk recurses once
# per free weight and the plan takes time quadratic in the branches. The
# shipped tracks have at most 18, Q7's.
TRACK_BRANCH_CAP = 256
# The most bits the packed classes of a track may span at one bound; the
# fold's masks are that wide. The shipped tracks peak at 161,001, Q5's and
# Q10's at bound 50.
CLASS_SPAN_CAP = 1_000_000


def _local_system(rows: List[Dict[str, int]], comp: Sequence[str]) -> Tuple[Row, ...]:
    """The switch rows supported on comp, in comp's local indices, sorted
    so that components with the same system get the same key."""
    index = {bid: i for i, bid in enumerate(comp)}
    return tuple(sorted(tuple(sorted((index[b], c) for b, c in row.items()))
                        for row in rows if row and next(iter(row)) in index))


def _elimination_plan(n: int, system: Tuple[Row, ...]) -> Levels:
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
            rest = tuple((j, d) for j, d in row if j != i)
            b = sum(d * moves.get(j, 0) for j, d in rest)
            if i is not None:
                b = moves[i] = -c * b
            steps.append((i, c, rest, b))
        levels.append((choice, tuple(steps)))
        choice = next((i for i in range(n) if i not in known), None)
        if choice is None:
            return tuple(levels)
        known.add(choice)


def _run_step(n: int, levels: Levels) -> Tuple[int, ...]:
    """How a run moves from one solution to the next: 1 on the last
    level's choice and b on each weight that level forces (0 everywhere
    when there is no choice). It does not depend on the bound."""
    choice, steps = levels[-1]
    moves = {i: b for i, _, _, b in steps if i is not None} if choice is not None else {}
    return tuple(1 if i == choice else moves.get(i, 0) for i in range(n))


def _component_solutions(n: int, levels: Levels, bound: int,
                         track_id: str = "track") -> List[Run]:
    """All weight tuples of length n satisfying the rows that levels, their
    elimination plan, was built from, each weight <= bound, as runs in
    ascending order. Each level works out once, from the weights already
    known, the range of its free choice that keeps every forced weight in
    [0, bound] and every checked row at 0, and walks only that range. At
    the last level that range is one run (first tuple, length), whose
    tuples move by _run_step. A level's choice is the smallest index still
    unknown, so the walk is in lex order and the first run starts at the
    zero tuple.

    Raises SwitchSystemError as soon as the runs would hold more than
    COMPONENT_SOLUTION_CAP solutions or store more than
    COMPONENT_WEIGHT_CAP weights."""
    weights = [0] * n
    out: List[Run] = []
    count = 0
    last = len(levels) - 1
    most_runs = COMPONENT_WEIGHT_CAP // n

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
        nonlocal count
        choice, steps = levels[level]
        weights[choice] = 0
        span = settle(steps)
        if span is None:
            return
        lo, hi, forced = span
        if level == last:
            count += hi - lo + 1
            if count > COMPONENT_SOLUTION_CAP:
                raise SwitchSystemError(track_id, f"a component has more than "
                                                  f"{COMPONENT_SOLUTION_CAP} solutions at bound {bound}")
            if len(out) == most_runs:
                raise SwitchSystemError(track_id, f"a component's runs store more than "
                                                  f"{COMPONENT_WEIGHT_CAP} weights at bound {bound}")
            weights[choice] = lo
            for i, a, b in forced:
                weights[i] = a + b * lo
            out.append((tuple(weights), hi - lo + 1))
            return
        for x in range(lo, hi + 1):
            weights[choice] = x
            for i, a, b in forced:
                weights[i] = a + b * x
            walk(level + 1)

    try:
        # level 0 has no choice: its weights are forced from nothing
        if settle(levels[0][1]) is not None:
            if last:
                walk(1)
            else:
                out.append((tuple(weights), 1))
    finally:
        # walk reaches itself through its closure; without this the cycle
        # keeps out alive after the callers drop it, until a cyclic
        # collection runs
        del walk
    return out


class _SolvePlan(NamedTuple):
    """The part of a solve that does not depend on the bound. Components
    with the same size and the same rows in local indices share one
    elimination plan."""

    comps: Tuple[Tuple[str, ...], ...]
    systems: Tuple[System, ...]                       # aligned with comps
    levels: Mapping[System, Levels]                   # one per distinct system
    steps: Mapping[System, Tuple[int, ...]]           # its runs' step, per system
    klasses: Tuple[Tuple[Tuple[int, int], ...], ...]  # branch classes, aligned with comps

    @classmethod
    def of(cls, track: TrainTrack) -> "_SolvePlan":
        if len(track.branches) > TRACK_BRANCH_CAP:
            raise SwitchSystemError(track.track_id, f"{len(track.branches)} branches, more "
                                                    f"than the {TRACK_BRANCH_CAP} a solve takes")
        comps = tuple(map(tuple, track.components()))
        rows = track.switch_system()
        systems = tuple((len(comp), _local_system(rows, comp)) for comp in comps)
        levels = {key: _elimination_plan(*key) for key in dict.fromkeys(systems)}
        steps = {key: _run_step(key[0], plan) for key, plan in levels.items()}
        klasses = tuple(tuple(track.branches[b].klass for b in comp) for comp in comps)
        return cls(comps, systems, frozen(levels), frozen(steps), klasses)


def _solve(track: TrainTrack, bound: int) -> Tuple[_SolvePlan, List[List[Run]]]:
    """The track's solve plan and, aligned with its components, each one's
    runs at this bound. Components that share an elimination plan are
    solved once and share one list."""
    if type(bound) is not int:
        raise TypeError(f"bound must be an integer, not {bound!r}")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    plan = track._solve_plan
    solved = {key: _component_solutions(key[0], levels, bound, track.track_id)
              for key, levels in plan.levels.items()}
    return plan, [solved[key] for key in plan.systems]


@record(frozen=False)
class CarriedClasses:
    """Nonzero realized classes with one witness each, plus one witness
    of a nonzero solution whose class vanishes, when such exist."""

    def __init__(self, classes: Optional[Dict[Tuple[int, int], Dict[str, int]]] = None,
                 null_witness: Optional[Dict[str, int]] = None):
        self.classes = {} if classes is None else classes
        self.null_witness = null_witness

    def slopes(self) -> Set[Slope]:
        return _slopes(self.classes)


def _set_bits(mask: int) -> List[int]:
    """The places of mask's one-bits, ascending, from one pass over its
    binary digits; peeling the lowest bit off in turn would copy the
    whole int once per bit."""
    # the runs of zeros below each one-bit, least first, and one above
    gaps = bin(mask)[:1:-1].split("1")
    gaps.pop()
    return list(itertools.accumulate(map((1).__add__, map(len, gaps)), initial=-1))[1:]


class _ClassMap:
    """One component's classes as bits of the fold, a bit being a packed
    class minus the least packed class the component can reach. The masks
    are built with the map; nonzero and rank, which only the witness fold
    reads, on first use."""

    def __init__(self, runs: List[Run], step: Tuple[int, ...], coef: Tuple[int, ...],
                 bound: int):
        self.runs, self.coef = runs, coef
        self.zero = -bound * sum(min(c, 0) for c in coef)  # the bit of class 0
        self.stride = sum(map(operator.mul, coef, step))
        self.nonzero_mask = functools.reduce(operator.or_,
                                             (mask for *_, mask in self._run_masks()), 0)
        self.mask = self.nonzero_mask | 1 << self.zero

    def _run_masks(self) -> Iterator[Tuple[Tuple[int, ...], int, int, int]]:
        """For each run with a nonzero tuple: its first tuple, the k and the
        bit of its first nonzero tuple, and the mask of the classes from
        there on. Along a run the packed class moves by one stride, so the
        run's m classes are comb, m one-bits |stride| apart, shifted to its
        lowest."""
        stride, gap = self.stride, abs(self.stride)
        combs: Dict[int, int] = {}  # run length -> comb; a division each is costly
        skip = 1  # the zero tuple starts the first run
        for first, length in self.runs:
            m = length - skip
            if m > 0:
                start = sum(map(operator.mul, self.coef, first)) + self.zero + skip * stride
                comb = combs.get(m)
                if comb is None:
                    comb = combs[m] = ((1 << m * gap) - 1) // ((1 << gap) - 1) if gap else 1
                yield first, skip, start, comb << min(start, start + (m - 1) * stride)
            skip = 0

    @functools.cached_property
    def nonzero(self) -> Dict[int, Tuple[Tuple[int, ...], int]]:
        """bit -> (first, k), ascending: the class's lex-first nonzero tuple
        is first + k * step for a run's first tuple."""
        # The runs and each run's tuples ascend, and the first tuple is the
        # zero tuple, so the first nonzero tuple of a class is its lex-first.
        nonzero: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        seen, stride = 0, self.stride
        for first, skip, start, run_mask in self._run_masks():
            grown = seen | run_mask
            new = grown ^ seen
            if new:
                seen = grown
                bits = _set_bits(new) if new.bit_count() > 1 else (new.bit_length() - 1,)
                for bit in (reversed(bits) if stride < 0 else bits):
                    # with stride 0 the run has one bit, at k = skip
                    nonzero[bit] = (first, skip + (bit - start) // (stride or 1))
        return nonzero

    @functools.cached_property
    def rank(self) -> Dict[int, int]:
        """bit -> the place of its lex-first tuple after a nonzero prefix:
        the zero tuple, class 0's, is 0 and the nonzero tuples follow."""
        rank = {bit: i for i, bit in enumerate(self.nonzero, 1)}
        rank[self.zero] = 0
        return rank


def check_class_span(track: TrainTrack, bound: int) -> None:
    """Raise SwitchSystemError when the packed classes of the track would
    span more than CLASS_SPAN_CAP bits at this bound. The span, (1 +
    bound * sum |p|) * (1 + bound * sum |q|) over the branch classes, grows
    with the bound, so a track that passes at MAX_LAW_BOUND passes at
    every bound the CLI accepts."""
    klasses = [b.klass for b in track.branches.values()]
    if ((1 + bound * sum(abs(p) for p, _ in klasses))
            * (1 + bound * sum(abs(q) for _, q in klasses)) > CLASS_SPAN_CAP):
        raise SwitchSystemError(track.track_id, f"the classes span more than "
                                                f"{CLASS_SPAN_CAP} bits at bound {bound}")


def check_law_bounds(track: TrainTrack) -> None:
    """Raise SwitchSystemError when a law check of the track would at some
    bound the CLI accepts. Its class span and the solutions of each of its
    components grow with the bound, so both are checked at MAX_LAW_BOUND:
    the span from the branch classes alone, then the solutions, with a
    walk only when the plan allows more than COMPONENT_SOLUTION_CAP. A
    plan with c free choices allows at most (bound + 1)^c solutions."""
    check_class_span(track, MAX_LAW_BOUND)
    if any((MAX_LAW_BOUND + 1) ** (len(levels) - 1) > COMPONENT_SOLUTION_CAP
           for levels in track._solve_plan.levels.values()):
        _solve(track, MAX_LAW_BOUND)


class _Folding:
    """A track solved at one bound, with the class map of each component,
    aligned with plan.comps: what every fold of the track at that bound
    reads. A class (p, q) packs into the integer p * width + q, where
    width exceeds the spread of q over every solution, so the packing is
    one to one and classes add as their packed integers do.

    Raises SwitchSystemError when the packed classes span more than
    CLASS_SPAN_CAP bits."""

    def __init__(self, track: TrainTrack, bound: int):
        self.bound = bound
        self.plan, solved = _solve(track, bound)
        check_class_span(track, bound)
        klasses = self.plan.klasses
        self.width = 1 + bound * sum(abs(q) for klass in klasses for _, q in klass)
        self.q_least = bound * sum(min(q, 0) for klass in klasses for _, q in klass)

        # Components with one system share a run list (see _solve); those
        # with the same packed branch classes too share one class map.
        shared: Dict[Tuple[System, Tuple[int, ...]], _ClassMap] = {}
        self.maps: List[_ClassMap] = []
        for klass, runs, system in zip(klasses, solved, self.plan.systems):
            coef = tuple(p * self.width + q for p, q in klass)
            key = (system, coef)
            if key not in shared:
                shared[key] = _ClassMap(runs, self.plan.steps[system], coef, bound)
            self.maps.append(shared[key])

    def classes(self, bits: Iterable[int], zero_bit: int) -> List[Tuple[int, int]]:
        """The class (p, q) of each bit of a fold whose class 0 is zero_bit."""
        # every bit, less zero_bit + q_least, is p * width + q - q_least
        pairs = map(divmod, map(operator.sub, bits, itertools.repeat(zero_bit + self.q_least)),
                    itertools.repeat(self.width))
        return [(p, q + self.q_least) for p, q in pairs]


def _witness_codes(folding: _Folding) -> Tuple[Dict[str, int], int, Dict[Tuple[int, int], int],
                                                 Optional[int]]:
    """Each branch's place, the digit mask, each nonzero realized class
    with the code of its witness, in ascending witness order, and the code
    of the null witness, or None. See carried_classes for the witnesses.
    Branch number i, in component order, has the place i * w, w the bit
    length of the bound, and a witness's code is the int sum of its
    weights, each shifted to its branch's place: code >> place[b] & digit
    is b's weight, and codes add over components."""
    plan, w = folding.plan, folding.bound.bit_length()
    place = {bid: i * w for i, bid in enumerate(itertools.chain.from_iterable(plan.comps))}
    # The fold keeps the zero prefix (every component so far at its zero
    # tuple, of code 0) apart from the nonzero layer: bit -> the code of
    # the lex-first nonzero prefix of that class, in ascending witness
    # order. A prefix is the concatenation of its components' tuples.
    zero_bit = 0
    layer: Dict[int, int] = {}
    for comp, cmap, system in zip(plan.comps, folding.maps, plan.systems):
        step = plan.steps[system]
        mask, rank = cmap.mask, cmap.rank
        # the code of the tuple k steps into the run starting at first
        own = [1 << place[bid] for bid in comp]
        moved = sum(map(operator.mul, own, step))
        code = {b: sum(map(operator.mul, own, first)) + k * moved
                for b, (first, k) in cmap.nonzero.items()}

        # The zero prefix comes first and covers the component's nonzero
        # classes shifted by its own bit. Then each nonzero prefix, in
        # ascending witness order, shifts the mask by its bit; only bits
        # not yet covered get a witness, in rank order, so the first
        # cover of a class is its lex-least witness.
        nxt = {zero_bit + b: c for b, c in code.items()}
        code[cmap.zero] = 0  # after a nonzero prefix
        covered = cmap.nonzero_mask << zero_bit
        for shift, prefix in layer.items():
            grown = covered | mask << shift
            fresh = grown ^ covered
            if fresh:
                covered = grown
                if fresh.bit_count() == 1:
                    b = fresh.bit_length() - 1
                    nxt[b] = prefix + code[b - shift]
                    continue
                for b in sorted(_set_bits(fresh >> shift), key=rank.__getitem__):
                    nxt[shift + b] = prefix + code[b]
        layer = nxt
        zero_bit += cmap.zero

    null = layer.pop(zero_bit, None)
    return (place, (1 << w) - 1, dict(zip(folding.classes(layer, zero_bit), layer.values())),
            null)


def _class_set(folding: _Folding) -> List[Tuple[int, int]]:
    """Every nonzero realized class, in no set order: the sumset of the
    components' masks, with no witness, rank or code."""
    total, zero_bit = 1, 0
    for cmap in folding.maps:
        # shift the denser mask once per bit of the sparser one
        sparse, dense = sorted((total, cmap.mask), key=int.bit_count)
        total = 0
        for bit in _set_bits(sparse):
            total |= dense << bit
        zero_bit += cmap.zero
    # the zero solution sets zero_bit, whose class is 0
    return folding.classes(_set_bits(total ^ 1 << zero_bit), zero_bit)


def _reaches_off(folding: _Folding, ids: Set[str]) -> bool:
    """Whether a solution with weight 0 on every branch in ids realizes a
    nonzero class: exactly when some component's such tuple does, with
    the others at their zero tuples. Along a run the sum of the ids'
    weights is affine in k and never negative, so it vanishes at none of
    the run's tuples, at the end where it is least, or at all of them."""
    plan = folding.plan
    for comp, cmap, system in zip(plan.comps, folding.maps, plan.systems):
        own = [bid in ids for bid in comp]
        moved = sum(map(operator.mul, own, plan.steps[system]))
        for first, length in cmap.runs:
            k = 0 if moved >= 0 else length - 1  # where the sum is least
            if sum(map(operator.mul, own, first)) + k * moved == 0:
                start = sum(map(operator.mul, cmap.coef, first))
                if start + k * cmap.stride or not moved and start + (length - 1) * cmap.stride:
                    return True
    return False


def carried_classes(track: TrainTrack, bound: int) -> CarriedClasses:
    """Component-wise enumeration combined over the class lattice.

    The witness for a class is deterministic: components are taken in
    order of their smallest branch id, each contributing its
    lexicographically first weight tuple for its share of the class.
    The fold gives each witness as one integer, its code (see
    _witness_codes), whose base 2**w digits are the witness's weights.
    """
    place, digit, codes, null = _witness_codes(_Folding(track, bound))

    def witness(code: int) -> Dict[str, int]:
        return {bid: code >> at & digit for bid, at in place.items()}

    return CarriedClasses({klass: witness(code) for klass, code in codes.items()},
                          None if null is None else witness(null))


def dead_branches(track: TrainTrack, bound: int) -> Set[str]:
    """Branches carrying zero weight in every solution at this bound."""
    alive: Set[str] = set()
    plan, solved = _solve(track, bound)
    for comp, runs, system in zip(plan.comps, solved, plan.systems):
        # a run longer than one moves every weight its step moves
        if any(length > 1 for _, length in runs):
            alive.update(bid for bid, d in zip(comp, plan.steps[system]) if d)
        for first, _ in runs:
            alive.update(bid for bid, w in zip(comp, first) if w)
    return set(track.branches) - alive


# ---------------------------------------------------------------------------
# Slope law checks; the laws themselves are built in _track.


@record(frozen=False)
class LawReport:
    def __init__(self, family: str, law: SlopeLaw, bound: int, realized: Set[Slope],
                 violations: List[str]):
        self.family = family
        self.law = law
        self.bound = bound
        self.realized = realized
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        if self.violations:
            raise SlopeLawError(self.family, "; ".join(self.violations))


def check_law(track: TrainTrack, law: SlopeLaw, designated: Dict[str, List[str]],
              bound: int, family: str = "?") -> LawReport:
    """Verify the family's slope law against bounded enumeration.

    Constant laws assert the realized slope set exactly. Formula laws
    assert an identity between each witness's class and the weight sums
    over the designated roles, plus the law's range condition. A branch
    that a role lists twice counts twice in its sum.

    The check solves the track and builds its class maps once, and
    decides the law from the class set: the realized slopes, and for a
    formula law whose every branch satisfies the formula on its own role
    counts (so no witness can break the identity), the range condition:
    g is p on every witness, and mu vanishes only where each mu branch
    weighs 0. When that cannot rule a violation out, or some branch
    breaks the formula, it folds the witness codes once, on the same
    solve, reads each role sum off each code's digits and compares
    witness by witness.
    """
    check_roles(track, designated)
    folding = _Folding(track, bound)
    classes = _class_set(folding)
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
        three_plus = law.kind == "FORMULA_THREE_PLUS"
        # Every formula is linear, so a witness's class minus the formula
        # of its role sums is the sum over branches b of w_b * delta_b,
        # delta_b being b's class minus the formula of b's role counts.
        # When each delta_b is 0 no witness disagrees. A branch a role
        # lists twice counts twice.
        certified = all(track.branches[bid].klass
                        == formula(*(designated.get(role, ()).count(bid) for role in roles))
                        for comp in track._solve_plan.comps for bid in comp)
        # A certified law needs no witness, unless it is FORMULA_THREE_PLUS
        # and the class set cannot rule out a witness with mu = 0 or a
        # slope not above 3: mu is a sum of nonnegative weights, 0 only
        # where each of its branches weighs 0. Otherwise one fold gives
        # every witness's code, and each role sum is read off its digits;
        # a role not designated sums to 0, and the ids were checked above.
        sums: Dict[Tuple[int, int], List[int]] = {}
        if not certified or three_plus and (
                any(p * (q - 3 * p) <= 0 for p, q in classes)
                or _reaches_off(folding, set(designated.get(roles[0], ())))):
            place, digit, codes, _ = _witness_codes(folding)
            members = [[place[b] for b in designated.get(role, ())] for role in roles]
            sums = {klass: [sum(code >> at & digit for at in ats) for ats in members]
                    for klass, code in codes.items()}
        for (p, q), role_sums in sums.items():
            if not certified:
                want = formula(*role_sums)
                if (p, q) != want:
                    violations.append(f"class ({p},{q}) disagrees with "
                                      f"{label}=({want[0]},{want[1]})")
            if three_plus:
                if role_sums[0] < 1:
                    violations.append(f"class ({p},{q}) realized with mu = 0")
                # q/p > 3 on integers, p * (q - 3p) > 0; p = 0 is the
                # meridian, never above 3
                if p * (q - 3 * p) <= 0:
                    violations.append(f"realized slope {Slope.of(q, p)} not greater than 3")
        # the first role sum is g, and a certified witness's g is its
        # class's p
        if law.kind == "FORMULA_B9" and bound >= 1 and not any(
                g > 0 for g, *_ in (sums.values() if sums else classes)):
            violations.append("no witness with positive g")
    if law.kind in HEIGHT_KINDS:
        h = law.surjective_height or 1
        missing = {INFINITY, *up_to_height(h)} - realized
        if missing:
            violations.append(f"missing slopes of height <= {h}: "
                              f"{sorted(str(s) for s in missing)}")
    return LawReport(family=family, law=law, bound=bound,
                     realized=realized, violations=violations)
