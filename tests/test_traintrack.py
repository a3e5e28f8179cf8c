import functools
import gc
import itertools
import operator
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_solutions, expand, load_data_json
from oracles import oracle_class_witnesses, oracle_dead_branches, oracle_solutions, switch_rows
from trackgen import hung_loops_doc, random_track_doc

from anosurf import traintrack
from anosurf.catalog import slope_law_check
from anosurf.errors import MonogonError, SlopeLawError, SwitchSystemError
from anosurf.slopes import INFINITY, Slope
from anosurf.traintrack import (
    Branch,
    HEIGHT_KINDS,
    LAW_KINDS,
    MAX_LAW_BOUND,
    MAX_SURJECTIVE_HEIGHT,
    SlopeLaw,
    Switch,
    TrainTrack,
    carried_classes,
    check_law,
    dead_branches,
)


def circle(prefix: str, klass=(0, 0), loop=False) -> TrainTrack:
    """A circle made of two arcs joined at two degenerate switches."""
    c1, c2 = f"{prefix}1", f"{prefix}2"
    return TrainTrack(
        [Branch(c1, klass, loop), Branch(c2)],
        [Switch(f"{prefix}_j1", ((c1, "head"),), ((c2, "tail"),)),
         Switch(f"{prefix}_j2", ((c2, "head"),), ((c1, "tail"),))],
        track_id=f"circle_{prefix}")


def joined(track_id: str, *tracks: TrainTrack) -> TrainTrack:
    """The disjoint union of tracks with distinct branch and switch ids."""
    return TrainTrack([b for t in tracks for b in t.branches.values()],
                      [s for t in tracks for s in t.switches.values()], track_id=track_id)


def pinched_pair(klass=(1, 0)) -> TrainTrack:
    """Two circles pinched by two arcs that no solution can use."""
    return TrainTrack(
        [Branch("A1", klass), Branch("A2"), Branch("B1", klass),
         Branch("B2"), Branch("X1"), Branch("X2")],
        [Switch("swA1", (("A1", "head"),), (("A2", "tail"), ("X1", "tail"))),
         Switch("swA2", (("A2", "head"),), (("A1", "tail"), ("X2", "tail"))),
         Switch("swB1", (("B2", "tail"),), (("B1", "head"), ("X1", "head"))),
         Switch("swB2", (("B1", "tail"),), (("B2", "head"), ("X2", "head")))],
        track_id="pinched")


class TestValidation:
    def test_duplicate_branch(self):
        with pytest.raises(SwitchSystemError):
            TrainTrack([Branch("a"), Branch("a")], [])

    def test_unknown_branch_in_switch(self):
        with pytest.raises(SwitchSystemError):
            TrainTrack([Branch("a")],
                       [Switch("s", (("a", "head"),), (("ghost", "tail"),))])

    def test_free_end(self):
        with pytest.raises(SwitchSystemError):
            TrainTrack([Branch("a"), Branch("b")],
                       [Switch("s", (("a", "head"),), (("b", "tail"),))])

    def test_end_attached_twice(self):
        with pytest.raises(SwitchSystemError):
            TrainTrack(
                [Branch("a"), Branch("b")],
                [Switch("s1", (("a", "head"),), (("b", "tail"),)),
                 Switch("s2", (("a", "head"),), (("b", "head"),)),
                 Switch("s3", (("a", "tail"),), (("b", "tail"),))])

    def test_monogon(self):
        with pytest.raises(MonogonError):
            TrainTrack([Branch("a"), Branch("b")],
                       [Switch("s", (("b", "head"),),
                               (("a", "head"), ("a", "tail"))),
                        Switch("s2", (("b", "tail"),), (("b", "tail"),))])

    def test_loop_branch_cannot_meet_switch(self):
        with pytest.raises(SwitchSystemError):
            TrainTrack([Branch("a", loop=True), Branch("b")],
                       [Switch("s", (("a", "head"),), (("b", "tail"),)),
                        Switch("s2", (("b", "head"),), (("a", "tail"),))])

    def test_one_fold_arity(self):
        with pytest.raises(SwitchSystemError):
            TrainTrack([Branch("a"), Branch("b")],
                       [Switch("s", (("a", "head"), ("b", "head")),
                               (("a", "tail"), ("b", "tail")))])

    @pytest.mark.parametrize("klass, loop", [
        ((1.5, 0), False), ((1, 2, 3), False), ((1,), False), (("1", 0), False),
        ((True, 0), False), ((0, False), False), ([1, 0], False), ((1, 0), "yes"),
        ((1, 0), 0)])
    def test_class_and_loop_types(self, klass, loop):
        # each used to build a track whose solve failed or misread it
        with pytest.raises(SwitchSystemError, match="^track 'circle_c': branch 'c1' needs a"):
            circle("c", klass, loop)

    def test_bad_end_name(self):
        with pytest.raises(SwitchSystemError):
            TrainTrack([Branch("a"), Branch("b")],
                       [Switch("s", (("a", "top"),), (("b", "tail"),)),
                        Switch("s2", (("b", "head"),), (("a", "tail"),))])

    def test_duplicate_switch(self):
        with pytest.raises(SwitchSystemError, match="duplicate switch id 's1'"):
            TrainTrack([Branch("a"), Branch("b")],
                       [Switch("s1", (("a", "head"),), (("b", "tail"),)),
                        Switch("s1", (("b", "head"),), (("a", "tail"),))])

    @pytest.mark.parametrize("two_fold", [(), (("b", "tail"), ("c", "tail"), ("d", "tail"))],
                             ids=["no-end", "three-ends"])
    def test_two_fold_arity(self, two_fold):
        with pytest.raises(SwitchSystemError,
                           match="switch 's' needs one or two ends on its two-fold side"):
            TrainTrack([Branch("a"), Branch("b"), Branch("c"), Branch("d")],
                       [Switch("s", (("a", "head"),), two_fold)])


class TestEnumeration:
    def test_circle_solutions(self):
        # over the branches c1, c2
        assert all_solutions(circle("c"), 2) == [(0, 0), (1, 1), (2, 2)]

    def test_pinched_pair_kills_cross_arcs(self):
        track = pinched_pair()
        sols = [dict(zip(sorted(track.branches), w)) for w in all_solutions(track, 2)]
        assert len(sols) == 9
        for w in sols:
            assert w["X1"] == w["X2"] == 0
            assert w["A1"] == w["A2"] and w["B1"] == w["B2"]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            traintrack._solve(circle("c"), -1)

    def test_lexicographic_order(self):
        # one component, whose ids are the sorted ones, so the runs alone
        # give the order
        track = pinched_pair()
        assert len(track.components()) == 1
        keys = all_solutions(track, 1)
        assert keys == sorted(keys)

    def test_loop_branch_weight_free(self):
        track = TrainTrack([Branch("l", (1, 4), loop=True)], [])
        assert all_solutions(track, 3) == [(0,), (1,), (2,), (3,)]


def shipped_law_check(family):
    """check_law on a family's shipped track, law and roles at bound 3."""
    return lambda cat: check_law(cat.tracks[family].track, cat.tracks[family].law,
                                 cat.tracks[family].designated, 3, family=family)


# Calls that must free what they build without a cyclic collection. Q4's
# and Q9's laws are certified range laws, decided from the class set.
GARBAGE_FREE_CALLS = {
    "_solve": lambda cat: traintrack._solve(cat.tracks["Q4"].track, 3),
    "carried_classes": lambda cat: carried_classes(cat.tracks["Q4"].track, 3),
    "dead_branches": lambda cat: dead_branches(cat.tracks["Q4"].track, 3),
    "check_law-Q4": shipped_law_check("Q4"),
    "check_law-Q9": shipped_law_check("Q9"),
}


class TestCarriedClasses:
    def test_single_class_with_witness(self):
        report = carried_classes(pinched_pair((1, 0)), 2)
        assert set(report.classes) == {(1, 0), (2, 0), (3, 0), (4, 0)}
        witness = report.classes[(1, 0)]
        assert sum(witness.values()) >= 1
        assert report.null_witness is None

    def test_null_witness_found(self):
        # two circles of opposite classes can cancel
        track = joined("cancel", circle("u", (1, 0)), circle("d", (-1, 0)))
        report = carried_classes(track, 2)
        assert report.null_witness is not None
        assert any(report.null_witness.values())
        assert (0, 0) not in report.classes

    def test_slopes(self):
        report = carried_classes(pinched_pair((1, 4)), 3)
        assert report.slopes() == {Slope(4, 1)}

    def test_meridian_class(self):
        report = carried_classes(circle("c", (0, 1)), 2)
        assert report.slopes() == {INFINITY}

    @pytest.mark.parametrize("bound", [255, 256, 1023, 1024])
    def test_witness_digits_around_powers_of_two(self, bound):
        # both arcs carry every weight up to the bound; 256 and 1024 need
        # one bit more than 255 and 1023
        _assert_matches_witness_oracle(track_doc(circle("c", (0, 1))), bound, "circle_c")

    def test_dead_branches(self):
        assert dead_branches(pinched_pair(), 4) == {"X1", "X2"}
        assert dead_branches(circle("c"), 4) == set()

    @pytest.mark.parametrize("consumer", [traintrack._solve, carried_classes, dead_branches],
                             ids=lambda f: f.__name__)
    def test_identical_components_solved_once(self, consumer, catalog, monkeypatch):
        # Q2's neg.* and pos.* halves have the same switch rows
        solve, calls = traintrack._component_solutions, []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(traintrack, "_component_solutions", counted)
        track = catalog.tracks["Q2"].track
        assert len(track.components()) == 2
        consumer(track, 2)
        assert len(calls) == 1

    @pytest.mark.parametrize("family, maps", [("Q4", 1), ("Q9", 2), ("Q2", 2)])
    def test_identical_components_share_one_class_map(self, family, maps, catalog,
                                                      monkeypatch):
        # Q4's two components, and Q9's three 2-branch ones, have the same
        # switch rows and the same branch classes. Q2's pos.* and neg.*
        # halves have the same switch rows but not the same classes.
        build, calls = traintrack._ClassMap, []

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(traintrack, "_ClassMap", counted)
        slope_law_check(catalog, family, bound=3)
        assert len(calls) == maps

    @pytest.mark.parametrize("consumer", sorted(GARBAGE_FREE_CALLS))
    def test_solving_leaves_no_cyclic_garbage(self, consumer, catalog):
        # a cycle would hold each solution list until a cyclic collection
        gc.collect()
        gc.disable()
        try:
            GARBAGE_FREE_CALLS[consumer](catalog)
            assert gc.collect() == 0
        finally:
            gc.enable()


BOUND_CALLS = {
    "carried_classes": lambda cat, bound: carried_classes(cat.tracks["Q2"].track, bound),
    "dead_branches": lambda cat, bound: dead_branches(cat.tracks["Q2"].track, bound),
    "check_law": lambda cat, bound: check_law(cat.tracks["Q2"].track, cat.tracks["Q2"].law,
                                              cat.tracks["Q2"].designated, bound),
    "slope_law_check": lambda cat, bound: slope_law_check(cat, "Q2", bound=bound),
}


@pytest.mark.parametrize("name", sorted(BOUND_CALLS))
def test_negative_bound_rejected_everywhere(name, catalog):
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        BOUND_CALLS[name](catalog, -1)


@pytest.mark.parametrize("bound", [2.5, "3", None, True], ids=repr)
@pytest.mark.parametrize("name", sorted(BOUND_CALLS))
def test_non_integer_bound_refused_everywhere(name, bound, catalog, monkeypatch):
    # refused before any component is walked; True is not bound 1
    def walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(traintrack, "_component_solutions", walk)
    with pytest.raises(TypeError, match=f"^bound must be an integer, not {re.escape(repr(bound))}$"):
        BOUND_CALLS[name](catalog, bound)


class TestSlopeLaws:
    def test_roundtrip(self):
        for family in ("Q1", "Q2"):
            doc = load_data_json(f"tracks/{family}.json")["law"]
            law = SlopeLaw(**doc)
            assert {"kind": law.kind, "surjective_height": law.surjective_height} == {
                "surjective_height": None, **doc}
        # a track's law is built by catalog._loaded_track after its schema check
        assert not hasattr(SlopeLaw, "from_json")

    @pytest.mark.parametrize("kind", sorted(set(LAW_KINDS) - set(HEIGHT_KINDS)))
    def test_height_only_where_the_check_reads_it(self, kind):
        with pytest.raises(ValueError, match="takes no surjective_height"):
            SlopeLaw(kind, surjective_height=2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SlopeLaw("ONLY_FIVE")

    @pytest.mark.parametrize("height", [1, MAX_SURJECTIVE_HEIGHT])
    def test_both_ends_of_the_height_range_build(self, height):
        assert SlopeLaw("ANY_SLOPE", height).surjective_height == height

    @pytest.mark.parametrize("height", [0, MAX_SURJECTIVE_HEIGHT + 1, True, "3"])
    def test_a_height_is_an_integer_from_1_to_the_cap(self, height):
        with pytest.raises(ValueError, match=f"surjective_height must be an integer from 1 to "
                                             f"{MAX_SURJECTIVE_HEIGHT}, not {height!r}"):
            SlopeLaw("ANY_SLOPE", height)

    def test_only_four_holds(self):
        report = check_law(pinched_pair((1, 4)), SlopeLaw("ONLY_FOUR"), {}, 3)
        assert report.ok
        report.raise_if_violated()

    def test_only_four_violated(self):
        report = check_law(pinched_pair((1, 3)), SlopeLaw("ONLY_FOUR"), {}, 3,
                           family="bad")
        assert not report.ok
        with pytest.raises(SlopeLawError):
            report.raise_if_violated()

    def test_unknown_designated_branch(self):
        with pytest.raises(SwitchSystemError):
            check_law(circle("c"), SlopeLaw("ONLY_ZERO"), {"omega": ["ghost"]}, 2)

    def test_any_slope_surjectivity_violated(self):
        # a single circle realizes one slope, nowhere near all of height 2
        law = SlopeLaw("ANY_SLOPE", surjective_height=2)
        report = check_law(circle("c", (1, 0)), law, {}, 4)
        assert not report.ok


def _assert_valid_slopes(realized, classes):
    """Slopes built from reduced pairs are the ones the checked
    constructors build from the realized classes."""
    assert realized == {Slope.of(q, p) for p, q in classes}
    for s in realized:
        assert s == Slope.of(s.q, s.p) == Slope(s.q, s.p)
        assert type(s.q) is int and type(s.p) is int


class TestRealizedSlopes:
    @pytest.mark.parametrize("bound", [20, 40])
    @pytest.mark.parametrize("family", [f"Q{i}" for i in range(1, 12)])
    def test_family_slopes_pass_the_checks(self, family, bound, catalog):
        track = catalog.tracks[family].track
        report = slope_law_check(catalog, family, bound=bound)
        _assert_valid_slopes(report.realized, carried_classes(track, bound).classes)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_track_slopes_pass_the_checks(self, seed):
        track = TrainTrack.from_json(random_track_doc(seed), track_id=f"rand{seed}")
        found = carried_classes(track, 3)
        _assert_valid_slopes(found.slopes(), found.classes)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_tracks_match_oracle(self, seed):
        doc = random_track_doc(seed)
        track = TrainTrack.from_json(doc, track_id=f"rand{seed}")
        assert set(all_solutions(track, 3)) == oracle_solutions(doc, 3)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_solutions_satisfy_rows_and_add(self, seed):
        doc = random_track_doc(seed, max_branches=6)
        track = TrainTrack.from_json(doc, track_id=f"h{seed}")
        rows = switch_rows(doc)
        sols = [dict(zip(sorted(track.branches), w)) for w in all_solutions(track, 2)]

        def check(w):
            for row in rows:
                assert sum(c * w[b] for b, c in row.items()) == 0

        for w in sols:
            check(w)
        # closure under addition and scaling, checked on the balance rows
        if len(sols) >= 2:
            w1, w2 = sols[0], sols[-1]
            check({b: w1[b] + w2[b] for b in w1})
            check({b: 3 * w2[b] for b in w2})


@st.composite
def raw_systems(draw):
    """n weights and rows over them with coefficients in {-1, 0, 1}, in the
    local-index form _component_solutions takes; a 0 leaves the weight out."""
    n = draw(st.integers(min_value=1, max_value=5))
    coefficients = st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n)
    rows = draw(st.lists(coefficients, max_size=5))
    return n, tuple(sorted(tuple((i, c) for i, c in enumerate(row) if c) for row in rows))


# Systems in which, once a level's weight x is chosen, a forced weight or
# a checked row's sum moves by 2 per unit of x, so the range of x needs a
# floor or a ceiling that is not exact. The shipped tracks have none.
DOUBLING_SYSTEMS = (
    # w1 = w0 and w2 = w0 + w1 = 2 * w0
    (3, (((0, -1), (1, -1), (2, 1)), ((0, -1), (1, 1)))),
    # w2 = w0 - w1, then the row -w1 + w2 = w0 - 2 * w1 must vanish
    (3, (((0, -1), (1, 1), (2, 1)), ((1, -1), (2, 1)))),
    # w2 = w1 and w3 = 2 * w1 - w0, which starts below 0
    (4, (((0, 1), (1, -1), (2, -1), (3, 1)), ((1, -1), (2, 1)))),
    # w3 = w2 and w4 = w0 + w1 - 2 * w2, which can start above the bound
    (5, (((0, 1), (1, 1), (2, -1), (3, -1), (4, -1)), ((2, -1), (3, 1)))),
)


def brute_force_solutions(n, system, bound):
    return [w for w in itertools.product(range(bound + 1), repeat=n)
            if all(sum(c * w[i] for i, c in row) == 0 for row in system)]


def solve_runs(n, system, bound):
    """The runs of a system in local indices, and their step."""
    levels = traintrack._elimination_plan(n, system)
    return traintrack._component_solutions(n, levels, bound), traintrack._run_step(n, levels)


def solve_system(n, system, bound):
    return [tup for run in expand(*solve_runs(n, system, bound)) for tup in run]


class TestComponentSolve:
    @pytest.mark.parametrize("n,system", DOUBLING_SYSTEMS)
    def test_doubling_systems_move_by_two(self, n, system):
        moves = {abs(b) for _, steps in traintrack._elimination_plan(n, system)
                 for *_, b in steps}
        assert 2 in moves

    @pytest.mark.parametrize("bound", range(6))
    @pytest.mark.parametrize("n,system", DOUBLING_SYSTEMS)
    def test_doubling_systems_match_brute_force(self, n, system, bound):
        assert solve_system(n, system, bound) == brute_force_solutions(n, system, bound)

    @example(DOUBLING_SYSTEMS[0], 3)
    @given(raw_systems(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=250, deadline=None)
    def test_raw_systems_match_brute_force(self, case, bound):
        n, system = case
        want = brute_force_solutions(n, system, bound)
        assert solve_system(n, system, bound) == want
        # runs ascend without overlapping, start at the zero tuple, and
        # each one's tuples are consecutive in the brute-force list
        runs = expand(*solve_runs(n, system, bound))
        assert runs[0][0] == (0,) * n
        for before, after in zip(runs, runs[1:]):
            assert before[-1] < after[0]
        for run in runs:
            at = want.index(run[0])
            assert want[at:at + len(run)] == run


def dot_product_class_map(sols, coef, bound):
    """_ClassMap's definition: one dot product per solution, keeping the
    first tuple of each class."""
    least = bound * sum(min(c, 0) for c in coef)
    nonzero = {}
    for tup in sols[1:]:
        nonzero.setdefault(sum(c * w for c, w in zip(coef, tup)) - least, tup)
    zero = -least
    nonzero_mask = sum(1 << b for b in nonzero)
    after = {**nonzero, zero: sols[0]}
    return nonzero, nonzero_mask, zero, nonzero_mask | 1 << zero, after


class TestClassMap:
    @given(raw_systems(), st.data(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=250, deadline=None)
    def test_runs_match_dot_products(self, case, data, bound):
        n, system = case
        # small coefficients make classes collide, so the first tuple of a
        # class has later tuples to lose to
        coef = tuple(data.draw(st.lists(st.integers(min_value=-4, max_value=4),
                                         min_size=n, max_size=n)))
        runs, step = solve_runs(n, system, bound)
        got = traintrack._ClassMap(runs, step, coef, bound)
        sols = solve_system(n, system, bound)
        nonzero, nonzero_mask, zero, mask, after = dot_product_class_map(sols, coef, bound)
        # each class's lex-first tuple is k steps into a run
        lengths = dict(runs)
        assert all(0 <= k < lengths[first] for first, k in got.nonzero.values())
        tuples = {b: tuple(w + k * d for w, d in zip(first, step))
                  for b, (first, k) in got.nonzero.items()}
        assert list(tuples.items()) == list(nonzero.items())
        assert (got.nonzero_mask, got.zero, got.mask) == (nonzero_mask, zero, mask)
        # the ranks order the bits as their tuples after a nonzero prefix do
        assert got.rank.keys() == after.keys() and len(set(got.rank.values())) == len(after)
        assert sorted(got.rank, key=got.rank.__getitem__) == sorted(after, key=after.__getitem__)


class TestSolutionCap:
    def test_the_cap_is_inclusive(self, monkeypatch):
        # the circle has bound + 1 solutions
        monkeypatch.setattr(traintrack, "COMPONENT_SOLUTION_CAP", 4)
        assert len(all_solutions(circle("c"), 3)) == 4
        with pytest.raises(SwitchSystemError,
                           match=r"^track 'circle_c': a component has more than 4 "
                                 r"solutions at bound 4$"):
            carried_classes(circle("c"), 4)

    @pytest.mark.parametrize("call", [carried_classes, dead_branches, traintrack._solve],
                             ids=lambda f: f.__name__)
    def test_a_component_over_the_cap_is_refused(self, call):
        # 21^8 solutions, in runs of 21: the walk stops after about 47,620
        track = TrainTrack.from_json(hung_loops_doc(8), track_id="hung")
        with pytest.raises(SwitchSystemError,
                           match=r"^track 'hung': a component has more than 1000000 "
                                 r"solutions at bound 20$"):
            call(track, 20)

    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_the_same_track_at_a_small_bound_matches_the_oracle(self, bound):
        doc = hung_loops_doc(8)
        track = TrainTrack.from_json(doc, track_id="hung")
        assert len(track.components()) == 1
        assert len(track._solve_plan.levels[track._solve_plan.systems[0]]) - 1 == 8
        got = all_solutions(track, bound)
        assert len(got) == (bound + 1) ** 8
        assert set(got) == oracle_solutions(doc, bound)

    def test_the_top_bound_check_walks_only_where_the_plan_allows_the_cap(
            self, catalog, monkeypatch):
        # four free weights allow 51^4 solutions at bound 50, and have them
        with pytest.raises(SwitchSystemError, match="more than 1000000 solutions at bound 50$"):
            traintrack.check_law_bounds(TrainTrack.from_json(hung_loops_doc(4), track_id="hung"))
        # every shipped plan has at most three free choices: 51^3 solutions
        walked = []
        monkeypatch.setattr(traintrack, "_component_solutions",
                            lambda *args: walked.append(args) or [])
        for bundle in catalog.tracks.values():
            traintrack.check_law_bounds(bundle.track)
        assert walked == []

    def test_every_family_stays_under_the_cap(self, catalog):
        peak, stored = {}, {}
        for family, bundle in catalog.tracks.items():
            assert len(bundle.track.branches) <= 18 < traintrack.TRACK_BRANCH_CAP
            for bound in range(51):
                plan, solved = traintrack._solve(bundle.track, bound)
                peak[family] = max(sum(length for _, length in runs) for runs in solved)
                stored[family] = max(len(runs) * len(comp)
                                     for runs, comp in zip(solved, plan.comps))
        # the peaks at bound 50; Q4's are the largest
        assert max(peak.values()) == peak["Q4"] == 45_526
        assert peak["Q4"] < traintrack.COMPONENT_SOLUTION_CAP
        assert max(stored.values()) == stored["Q4"] == 15_606
        assert stored["Q4"] < traintrack.COMPONENT_WEIGHT_CAP


class TestSizeCaps:
    def test_the_branch_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(traintrack, "TRACK_BRANCH_CAP", 2)
        assert len(all_solutions(circle("c"), 3)) == 4
        monkeypatch.setattr(traintrack, "TRACK_BRANCH_CAP", 1)
        with pytest.raises(SwitchSystemError,
                           match=r"^track 'circle_c': 2 branches, more than the 1 a solve "
                                 r"takes$"):
            dead_branches(circle("c"), 3)

    def test_a_track_over_the_branch_cap_is_refused_at_bound_zero(self):
        # one solution, but 1,100 free weights, which the walk recursed through
        track = TrainTrack.from_json(hung_loops_doc(1100), track_id="hung")
        started = time.perf_counter()
        with pytest.raises(SwitchSystemError,
                           match=r"^track 'hung': 3298 branches, more than the 256 a solve "
                                 r"takes$"):
            traintrack._solve(track, 0)
        assert time.perf_counter() - started < 1

    def test_runs_over_the_weight_cap_are_refused_before_they_fill_memory(self):
        # 2^20 solutions in runs of 2, each run a tuple of 58 weights: the
        # solution cap alone stops the walk only after 500,000 runs, 29M weights
        track = TrainTrack.from_json(hung_loops_doc(20), track_id="hung")
        tracemalloc.start()
        try:
            with pytest.raises(SwitchSystemError,
                               match=r"^track 'hung': a component's runs store more than "
                                     r"4000000 weights at bound 1$"):
                traintrack._solve(track, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20


class TestClassSpanCap:
    @pytest.mark.parametrize("call", [
        carried_classes,
        lambda track, bound: check_law(track, SlopeLaw("ANY_SLOPE"), {}, bound),
        # fails the per-branch certificate, so it folds every role
        lambda track, bound: check_law(track, SlopeLaw("FORMULA_B9"), {"g": ["c1"]}, bound),
    ], ids=["carried_classes", "check_law", "check_law-uncertified"])
    def test_a_wide_class_is_refused_at_once(self, call):
        # its classes would span 21 * (1 + 20 * 10**6) bits
        track = circle("c", (1, 10**6))
        started = time.perf_counter()
        with pytest.raises(SwitchSystemError,
                           match=r"^track 'circle_c': the classes span more than 1000000 "
                                 r"bits at bound 20$"):
            call(track, 20)
        assert time.perf_counter() - started < 1

    def test_the_cap_is_inclusive(self, monkeypatch):
        # the classes of circle c at bound 3 span (1 + 3 * 1) * (1 + 3 * 2) bits
        monkeypatch.setattr(traintrack, "CLASS_SPAN_CAP", 28)
        assert len(carried_classes(circle("c", (1, 2)), 3).classes) == 3
        with pytest.raises(SwitchSystemError, match="more than 28 bits at bound 4$"):
            carried_classes(circle("c", (1, 2)), 4)

    @pytest.mark.parametrize("family", ["Q5", "Q10"])
    def test_the_widest_shipped_tracks_fit_at_the_top_bound(self, family, catalog):
        # 161,001 bits each at bound 50, the most of any shipped track
        assert slope_law_check(catalog, family, bound=MAX_LAW_BOUND).ok


FORMULA_CHECKS = {
    # the roles (the one the range condition reads first), the formula and
    # its text of each formula law with a range condition, written out
    # here apart from traintrack's table
    "FORMULA_THREE_PLUS": (("mu", "omega", "nu"), "(omega, 3*omega+mu+nu)",
                           lambda s: (s["omega"], 3 * s["omega"] + s["mu"] + s["nu"])),
    "FORMULA_B9": (("g", "h", "e", "f", "i"), "(g, g+h-e-f-i)",
                   lambda s: (s["g"], s["g"] + s["h"] - s["e"] - s["f"] - s["i"])),
}
# every formula law: the two above and the one without a range
# condition, which asks instead that every slope of height at most 1 be
# realized
FORMULAS = {**FORMULA_CHECKS,
            "FORMULA_MU_NU_OMEGA": (("omega", "mu", "nu"), "(omega, mu-nu)",
                                    lambda s: (s["omega"], s["mu"] - s["nu"]))}
# the (q, p) of each constant law's slope
CONSTANT_SLOPES = {"ONLY_ZERO": (0, 1), "ONLY_FOUR": (4, 1), "ONLY_INFINITY": (1, 0)}


def expected_formula_violations(doc, bound):
    """The per-witness messages of a formula law's track document, from
    the witness oracle, and for FORMULA_MU_NU_OMEGA the missing slopes
    of height at most 1."""
    kind = doc["law"]["kind"]
    roles, label, formula = FORMULAS[kind]
    classes, _ = oracle_class_witnesses(doc["track"], bound)
    out = []
    saw_positive_g = False
    for (p, q), witness in classes.items():
        sums = {role: sum(witness[b] for b in doc["designated"].get(role, ())) for role in roles}
        want = formula(sums)
        if (p, q) != want:
            out.append(f"class ({p},{q}) disagrees with {label}=({want[0]},{want[1]})")
        if kind == "FORMULA_B9":
            saw_positive_g = saw_positive_g or sums["g"] > 0
        if kind != "FORMULA_THREE_PLUS":
            continue
        if sums["mu"] < 1:
            out.append(f"class ({p},{q}) realized with mu = 0")
        if p == 0 or (q if p > 0 else -q) <= 3 * abs(p):
            out.append(f"realized slope {Slope.of(q, p)} not greater than 3")
    if kind == "FORMULA_B9" and not saw_positive_g and bound >= 1:
        out.append("no witness with positive g")
    if kind == "FORMULA_MU_NU_OMEGA":
        realized = {Slope.of(q, p) for p, q in classes}
        missing = {Slope(1, 0), Slope(-1, 1), Slope(0, 1), Slope(1, 1)} - realized
        if missing:
            out.append(f"missing slopes of height <= 1: {sorted(str(s) for s in missing)}")
    return out


def expected_law_violations(doc, bound):
    """expected_formula_violations, and for a constant law the message
    when the oracle's realized slopes are not the law's one slope."""
    kind = doc["law"]["kind"]
    if kind not in CONSTANT_SLOPES:
        return expected_formula_violations(doc, bound)
    classes, _ = oracle_class_witnesses(doc["track"], bound)
    realized = sorted({str(Slope.of(q, p)) for p, q in classes})
    want = [str(Slope(*CONSTANT_SLOPES[kind]))]
    return [] if realized == want else [f"realized {realized} != expected {want}"]


def certified_law_doc(seed, kind, max_branches=8):
    """A random track document with the formula law `kind`, where each
    branch has a random role or none and the class that the formula gives
    its role counts, so the per-branch certificate holds. One branch is
    listed twice in the range condition's role and counts twice there."""
    rng = random.Random(seed)
    track = random_track_doc(seed, max_branches)
    roles, _, formula = FORMULAS[kind]
    first = roles[0]  # the role the range condition reads
    designated = {role: [] for role in roles}
    for branch in track["branches"]:
        role = rng.choice([*roles, None])
        if role is not None:
            designated[role].append(branch["id"])
    twice = rng.choice(track["branches"])["id"]
    designated[first] += [twice] if twice in designated[first] else [twice, twice]
    for branch in track["branches"]:
        counts = {role: ids.count(branch["id"]) for role, ids in designated.items()}
        branch["class"] = list(formula(counts))
    return {"track": track, "law": {"kind": kind}, "designated": designated}


class TestLawCertificate:
    @given(st.sampled_from(sorted(traintrack._FORMULAS)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_formula_is_linear(self, kind, data):
        # the premise of the per-branch certificate
        _, roles, formula = traintrack._FORMULAS[kind]
        sums = st.lists(st.integers(min_value=-10**6, max_value=10**6),
                        min_size=len(roles), max_size=len(roles))
        a, b = data.draw(sums), data.draw(sums)
        assert formula(*[0] * len(roles)) == (0, 0)
        fa, fb = formula(*a), formula(*b)
        assert formula(*map(sum, zip(a, b))) == (fa[0] + fb[0], fa[1] + fb[1])

    @staticmethod
    def counted_formula(monkeypatch, kind):
        label, roles, formula = traintrack._FORMULAS[kind]
        calls = []

        def counted(*sums):
            calls.append(sums)
            return formula(*sums)

        monkeypatch.setitem(traintrack._FORMULAS, kind, (label, roles, counted))
        return calls

    @pytest.mark.parametrize("family", ["Q2", "Q4", "Q9"])
    def test_shipped_formula_laws_are_certified_per_branch(self, family, catalog, monkeypatch):
        bundle = catalog.tracks[family]
        calls = self.counted_formula(monkeypatch, bundle.law.kind)
        report = check_law(bundle.track, bundle.law, bundle.designated, 6, family=family)
        assert report.ok
        # one formula evaluation per branch, none per witness
        assert len(calls) == len(bundle.track.branches)

    @pytest.mark.parametrize("kind", sorted(FORMULA_CHECKS))
    @pytest.mark.parametrize("seed", range(40))
    def test_certified_range_laws_on_random_tracks_match_the_witness_oracle(
            self, seed, kind, monkeypatch):
        # a certified check reads only the range condition of each
        # lex-first witness, and must read the oracle's
        doc = certified_law_doc(seed, kind)
        track = TrainTrack.from_json(doc["track"], track_id=f"rand{seed}")
        calls = self.counted_formula(monkeypatch, kind)
        for bound in range(4):
            report = check_law(track, SlopeLaw(kind), doc["designated"], bound)
            assert report.violations == expected_formula_violations(doc, bound), bound
        # certified: one formula evaluation per branch and bound, none per witness
        assert len(calls) == 4 * len(track.branches)

    def test_an_uncertified_law_solves_and_folds_the_track_once(self, monkeypatch):
        # Q4 with one branch's q raised by 1 fails the certificate, so the
        # check reads its three role sums off one fold of the witness
        # codes, on the solve that gave the class set
        doc = load_data_json("tracks/Q4.json")
        branch = doc["track"]["branches"][0]
        branch["class"] = [branch["class"][0], branch["class"][1] + 1]
        track = TrainTrack.from_json(doc["track"], track_id="Q4")
        law = SlopeLaw(**doc["law"])
        solve, calls = traintrack._solve, []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(traintrack, "_solve", counted)
        folds = TestClassSetDecision.counted_valued_folds(monkeypatch)
        for bound in (0, 1, 3, 6):
            calls.clear()
            folds.clear()
            report = check_law(track, law, doc["designated"], bound, family="Q4")
            assert (len(calls), len(folds)) == (1, 1), bound
            assert report.violations == expected_formula_violations(doc, bound), bound
        assert any("disagrees" in v for v in report.violations)

    def test_a_restamped_branch_class_is_checked_per_witness(self, monkeypatch):
        doc = load_data_json("tracks/Q4.json")
        branch = next(b for b in doc["track"]["branches"] if b["id"] == "u.F1")
        branch["class"] = [0, 2]  # its formula value is (0, 1)
        track = TrainTrack.from_json(doc["track"], track_id="Q4")
        law = SlopeLaw(**doc["law"])
        calls = self.counted_formula(monkeypatch, law.kind)
        report = check_law(track, law, doc["designated"], 3, family="Q4")
        want = expected_formula_violations(doc, 3)
        assert any("disagrees" in v for v in want)
        assert report.violations == want
        # the certificate stops at the first branch that fails it; then
        # the formula is evaluated once per witness
        classes, _ = oracle_class_witnesses(doc["track"], 3)
        _, roles, _ = traintrack._FORMULAS[law.kind]
        per_witness = [tuple(sum(w[b] for b in doc["designated"][role]) for role in roles)
                       for w in classes.values()]
        assert calls[len(calls) - len(classes):] == per_witness
        assert len(calls) - len(classes) <= len(track.branches)


def law_doc(seed, kind, certified):
    """A random track document of at most 6 branches with the law `kind`.
    A formula law's roles list random branches; when certified, each
    branch's class is then the formula of its role counts (see
    certified_law_doc), and otherwise it stays random. A constant law
    designates no branch."""
    if certified and kind in FORMULAS:
        return certified_law_doc(seed, kind, max_branches=6)
    rng = random.Random(seed)
    track = random_track_doc(seed, max_branches=6)
    designated = {role: [b["id"] for b in track["branches"] if rng.random() < 0.4]
                  for role in (FORMULAS[kind][0] if kind in FORMULAS else ())}
    return {"track": track, "law": {"kind": kind}, "designated": designated}


def naive_set_bits(mask):
    """The places of mask's one-bits, the lowest peeled off in turn."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TestClassSetDecision:
    """check_law decides a law from the track's class set and folds the
    witness values only to explain a failure."""

    @staticmethod
    def counted_valued_folds(monkeypatch):
        fold, calls = traintrack._witness_codes, []

        def counted(*args):
            calls.append(args)
            return fold(*args)

        monkeypatch.setattr(traintrack, "_witness_codes", counted)
        return calls

    @pytest.mark.parametrize("bound", [6, 20, 50])
    def test_shipped_laws_fold_no_witness_values(self, bound, catalog, monkeypatch):
        calls = self.counted_valued_folds(monkeypatch)
        for family, bundle in catalog.tracks.items():
            assert check_law(bundle.track, bundle.law, bundle.designated, bound, family=family).ok
        assert calls == []

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([*sorted(FORMULAS), *sorted(CONSTANT_SLOPES)]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_laws_match_the_witness_oracle(self, seed, kind, certified):
        doc = law_doc(seed, kind, certified)
        track = TrainTrack.from_json(doc["track"], track_id=f"rand{seed}")
        for bound in range(7):
            report = check_law(track, SlopeLaw(kind), doc["designated"], bound)
            assert report.violations == expected_law_violations(doc, bound), bound

    def test_a_class_reached_with_mu_zero_can_have_a_witness_with_mu(self, monkeypatch):
        # Both circles realize (1, 4) per unit of weight, and only b1 is in
        # mu: a1 reaches every class with mu = 0, so the class set cannot
        # rule a violation out and the witnesses are folded. Each class's
        # lex-first witness leaves circle a, the first component, at 0, so
        # its mu is at least 1 and the law holds.
        track = joined("late-mu", circle("a", (1, 4)), circle("b", (1, 4)))
        designated = {"omega": ["a1", "b1"], "nu": ["a1"], "mu": ["b1"]}
        doc = {"track": track_doc(track), "law": {"kind": "FORMULA_THREE_PLUS"},
               "designated": designated}
        calls = self.counted_valued_folds(monkeypatch)
        for bound in range(5):
            report = check_law(track, SlopeLaw("FORMULA_THREE_PLUS"), designated, bound)
            assert report.violations == expected_formula_violations(doc, bound) == [], bound
        assert len(calls) == 4  # one fold per bound with a nonzero class

    def test_mu_can_vanish_at_the_end_of_a_run(self):
        # c = a - b, and the walk moves b up and c down: in the run of each
        # a, mu (c) is 0 only at the run's last tuple, whose class (a, 5a)
        # has no other witness
        track = TrainTrack([Branch("a", (1, 3)), Branch("b", (0, 2)), Branch("c", (0, 1))],
                           [Switch("s1", (("a", "head"),), (("b", "tail"), ("c", "tail"))),
                            Switch("s2", (("a", "tail"),), (("b", "head"), ("c", "head")))],
                           track_id="falling-mu")
        designated = {"omega": ["a"], "mu": ["c"], "nu": ["b", "b"]}
        doc = {"track": track_doc(track), "law": {"kind": "FORMULA_THREE_PLUS"},
               "designated": designated}
        for bound in range(5):
            report = check_law(track, SlopeLaw("FORMULA_THREE_PLUS"), designated, bound)
            assert report.violations == expected_formula_violations(doc, bound)
            assert (f"class ({bound},{5 * bound}) realized with mu = 0" in report.violations
                    ) == (bound > 0)

    @pytest.mark.parametrize("bound", range(4))
    def test_q4_with_a_mu_branch_moved_to_nu(self, bound):
        # v.M1, in omega too, has the formula's class in either role, so
        # the law stays certified. A witness through v.M1 and not v.F1 now
        # has mu = 0, and a lex-first one leaves component u at 0.
        doc = load_data_json("tracks/Q4.json")
        doc["designated"]["mu"].remove("v.M1")
        doc["designated"]["nu"].append("v.M1")
        track = TrainTrack.from_json(doc["track"], track_id="Q4")
        report = check_law(track, SlopeLaw(**doc["law"]), doc["designated"], bound, family="Q4")
        want = expected_formula_violations(doc, bound)
        assert report.violations == want
        assert bool(want) == (bound > 0)

    @pytest.mark.parametrize("bound", range(4))
    def test_q9_without_its_g_branch(self, bound):
        # g.GA's class no longer fits the formula, and no witness has g > 0
        doc = load_data_json("tracks/Q9.json")
        doc["designated"]["g"] = []
        track = TrainTrack.from_json(doc["track"], track_id="Q9")
        report = check_law(track, SlopeLaw(**doc["law"]), doc["designated"], bound, family="Q9")
        want = expected_formula_violations(doc, bound)
        assert report.violations == want
        assert ("no witness with positive g" in want) == (bound > 0)


class TestSetBits:
    def test_zero(self):
        assert traintrack._set_bits(0) == naive_set_bits(0) == []

    @pytest.mark.parametrize("place", [0, 1, 63, 64, 161_000])
    def test_single_bits(self, place):
        assert traintrack._set_bits(1 << place) == naive_set_bits(1 << place) == [place]

    @given(st.integers(min_value=0, max_value=161_000), st.integers(min_value=0, max_value=2_000),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_sparse_masks_up_to_the_widest_span(self, top, count, rng):
        mask = functools.reduce(operator.or_, (1 << rng.randrange(top + 1) for _ in range(count)),
                                1 << top)
        assert traintrack._set_bits(mask) == naive_set_bits(mask)

    @given(st.integers(min_value=0, max_value=1 << 5_000))
    @settings(max_examples=40, deadline=None)
    def test_dense_masks(self, mask):
        assert traintrack._set_bits(mask) == naive_set_bits(mask)


def _assert_matches_witness_oracle(doc, bound, track_id):
    track = TrainTrack.from_json(doc, track_id=track_id)
    report = carried_classes(track, bound)
    classes, null_witness = oracle_class_witnesses(doc, bound)
    # same classes, same witnesses, same (ascending witness) order
    assert list(report.classes.items()) == list(classes.items())
    assert report.null_witness == null_witness
    assert dead_branches(track, bound) == oracle_dead_branches(doc, bound)


def track_doc(track: TrainTrack) -> dict:
    """The document TrainTrack.from_json reads back as this track."""
    def side(ends):
        return [{"branch": b, "end": e} for b, e in ends]
    return {
        "branches": [{"id": b.id, "class": list(b.klass), "loop": b.loop}
                     for b in map(track.branches.get, sorted(track.branches))],
        "switches": [{"id": s.id, "one_fold": side(s.one_fold), "two_fold": side(s.two_fold)}
                     for s in map(track.switches.get, sorted(track.switches))],
    }


EDGE_TRACKS = {
    # no switches at all: every loop is its own component, weights free
    "loops-only": lambda: TrainTrack(
        [Branch("a", (1, 2), loop=True), Branch("b", (-1, 0), loop=True),
         Branch("c", loop=True), Branch("d", (0, -3), loop=True)], []),
    # the first component's only nonzero solutions are null
    "null-component": lambda: joined("null-component", circle("a"), circle("b", (2, -1))),
    "null-only": lambda: joined("null-only", circle("a"), circle("b"),
                                TrainTrack([Branch("c", loop=True)], [])),
    # classes with p < 0, on both sides of slope 3, cancelling in part
    "negative-p": lambda: joined("negative-p", circle("a", (-1, -4)), circle("b", (-2, 1)),
                                 pinched_pair((1, 3))),
}


def _assert_same_result(got, want):
    """Equal results, down to the order of the classes."""
    assert got == want
    if isinstance(got, traintrack.CarriedClasses):
        assert list(got.classes.items()) == list(want.classes.items())


class TestSolvePlan:
    @pytest.mark.parametrize("family", [f"Q{i}" for i in range(1, 12)])
    def test_a_warm_track_matches_a_fresh_one(self, family, catalog, monkeypatch):
        build, built = traintrack._elimination_plan, []

        def counted(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(traintrack, "_elimination_plan", counted)
        bundle = catalog.tracks[family]
        doc = load_data_json(f"tracks/{family}.json")["track"]
        warm = TrainTrack.from_json(doc, track_id=family)
        rows = warm.switch_system()
        systems = {(len(comp), traintrack._local_system(rows, comp))
                   for comp in warm.components()}
        calls = [
            lambda t: dead_branches(t, 6),
            lambda t: check_law(t, bundle.law, bundle.designated, 20, family=family),
            lambda t: carried_classes(t, 0),
            lambda t: carried_classes(t, 3),
            lambda t: traintrack._solve(t, 2),
        ]
        for k, call in enumerate(calls):
            before = len(built)
            got = call(warm)
            # the first call builds one plan per distinct local system,
            # and no later call builds any
            assert len(built) - before == (len(systems) if k == 0 else 0)
            if k == 0:
                assert set(built) == systems
            _assert_same_result(got, call(TrainTrack.from_json(doc, track_id=family)))

    @given(st.integers(min_value=0, max_value=10_000), st.permutations(range(5)))
    @settings(max_examples=60, deadline=None)
    def test_random_warm_tracks_match_fresh_ones(self, seed, bounds):
        doc = random_track_doc(seed, max_branches=6)
        warm = TrainTrack.from_json(doc, track_id=f"warm{seed}")
        for bound in bounds:
            fresh = TrainTrack.from_json(doc, track_id=f"fresh{seed}")
            for call in (carried_classes, dead_branches, traintrack._solve):
                _assert_same_result(call(warm, bound), call(fresh, bound))

    def test_branches_and_switches_are_read_only(self):
        track = pinched_pair()
        with pytest.raises(TypeError):
            track.branches["A1"] = Branch("A1", (5, 5))
        with pytest.raises(TypeError):
            track.switches["swA1"] = track.switches["swB1"]

    def test_components_are_new_lists(self):
        def two_circles():
            return joined("two", circle("a", (1, 0)), circle("b", (0, 1)))

        want = carried_classes(two_circles(), 3)
        track = two_circles()
        for _ in range(2):  # before the plan is built, then after
            comps = track.components()
            comps[0].append("b1")
            comps.pop()
            assert track.components() == [["a1", "a2"], ["b1", "b2"]]
            got = carried_classes(track, 3)
            assert list(got.classes.items()) == list(want.classes.items())


class TestAgainstWitnessOracle:
    @pytest.mark.parametrize("family", [f"Q{i}" for i in range(1, 12)])
    def test_families_at_bound_six(self, family):
        doc = load_data_json(f"tracks/{family}.json")["track"]
        _assert_matches_witness_oracle(doc, 6, family)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_tracks_at_bound_three(self, seed):
        _assert_matches_witness_oracle(random_track_doc(seed), 3, f"rand{seed}")

    @pytest.mark.parametrize("bound", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(50))
    def test_random_tracks_at_small_bounds(self, seed, bound):
        _assert_matches_witness_oracle(random_track_doc(seed), bound, f"rand{seed}")

    @pytest.mark.parametrize("seed", range(30))
    def test_weighted_folds_sum_each_witness(self, seed):
        # the witness codes keep the classes and their order, and any
        # weighted sum read off a code's digits, the way check_law reads
        # role sums, is that sum over the witness; a weight may be 0, 2 or
        # negative, and a branch without one weighs 0
        doc = random_track_doc(seed)
        rng = random.Random(seed)
        weight_maps = [{b["id"]: rng.choice([-1, 0, 1, 2])
                        for b in doc["branches"] if rng.random() < 0.8} for _ in range(3)]
        weight_maps.append({})
        track = TrainTrack.from_json(doc, track_id=f"rand{seed}")
        for bound in range(4):
            classes, null = oracle_class_witnesses(doc, bound)
            place, digit, codes, null_code = traintrack._witness_codes(
                traintrack._Folding(track, bound))
            assert list(codes) == list(classes)
            assert (null_code is None) == (null is None)
            for weights in weight_maps:
                def read(code):
                    return sum(wt * (code >> place[b] & digit) for b, wt in weights.items())

                def total(witness):
                    return sum(weights.get(b, 0) * w for b, w in witness.items())
                assert [read(c) for c in codes.values()] == [total(w) for w in classes.values()]
                if null is not None:
                    assert read(null_code) == total(null)

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", sorted(EDGE_TRACKS))
    def test_edge_tracks(self, name, bound):
        _assert_matches_witness_oracle(track_doc(EDGE_TRACKS[name]()), bound, name)
