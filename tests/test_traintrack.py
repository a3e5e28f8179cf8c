import gc
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_data_json
from oracles import oracle_class_witnesses, oracle_dead_branches, oracle_solutions, switch_rows
from trackgen import random_track_doc

from anosurf import traintrack
from anosurf.catalog import slope_law_check
from anosurf.errors import MonogonError, SlopeLawError, SwitchSystemError
from anosurf.slopes import INFINITY, Slope
from anosurf.traintrack import (
    Branch,
    SlopeLaw,
    Switch,
    TrainTrack,
    carried_classes,
    carries_slope,
    check_law,
    dead_branches,
    enumerate_solutions,
)


def circle(prefix: str, klass=(0, 0)) -> TrainTrack:
    """A circle made of two arcs joined at two degenerate switches."""
    c1, c2 = f"{prefix}1", f"{prefix}2"
    return TrainTrack(
        [Branch(c1, klass), Branch(c2)],
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

    def test_bad_end_name(self):
        with pytest.raises(SwitchSystemError):
            TrainTrack([Branch("a"), Branch("b")],
                       [Switch("s", (("a", "top"),), (("b", "tail"),)),
                        Switch("s2", (("b", "head"),), (("a", "tail"),))])

    def test_json_roundtrip(self):
        track = pinched_pair()
        again = TrainTrack.from_json(track.to_json(), track_id="pinched")
        assert again.to_json() == track.to_json()


class TestEnumeration:
    def test_circle_solutions(self):
        track = circle("c")
        sols = enumerate_solutions(track, 2)
        assert sols == [{"c1": 0, "c2": 0}, {"c1": 1, "c2": 1}, {"c1": 2, "c2": 2}]

    def test_pinched_pair_kills_cross_arcs(self):
        track = pinched_pair()
        sols = enumerate_solutions(track, 2)
        assert len(sols) == 9
        for w in sols:
            assert w["X1"] == w["X2"] == 0
            assert w["A1"] == w["A2"] and w["B1"] == w["B2"]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_solutions(circle("c"), -1)

    def test_lexicographic_order(self):
        track = pinched_pair()
        sols = enumerate_solutions(track, 1)
        order = track.branch_order()
        keys = [tuple(w[b] for b in order) for w in sols]
        assert keys == sorted(keys)

    def test_loop_branch_weight_free(self):
        track = TrainTrack([Branch("l", (1, 4), loop=True)], [])
        sols = enumerate_solutions(track, 3)
        assert [w["l"] for w in sols] == [0, 1, 2, 3]

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(traintrack, "ENUMERATION_CAP", 3)
        assert len(enumerate_solutions(circle("c"), 2)) == 3
        with pytest.raises(ValueError, match="4 solutions at bound 3"):
            enumerate_solutions(circle("c"), 3)

    def test_oversized_enumeration_refused(self, catalog):
        # 3311 solutions per half of Q2 at bound 20: the cap is checked on
        # the per-component counts, before any of the 10,962,721 dicts
        assert traintrack.ENUMERATION_CAP == 2_000_000
        with pytest.raises(ValueError, match="10962721 solutions at bound 20"):
            enumerate_solutions(catalog.tracks["Q2"].track, 20)


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

    def test_carries_slope(self):
        track = pinched_pair((1, 4))
        witness = carries_slope(track, "4", 3)
        assert witness is not None
        assert witness["A1"] + witness["B1"] >= 1
        assert witness["A1"] == witness["A2"] and witness["B1"] == witness["B2"]
        assert carries_slope(track, "5", 3) is None

    def test_dead_branches(self):
        assert dead_branches(pinched_pair(), 4) == {"X1", "X2"}
        assert dead_branches(circle("c"), 4) == set()

    @pytest.mark.parametrize("consumer", [enumerate_solutions, carried_classes, dead_branches],
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

    @pytest.mark.parametrize("family", ["Q4", "Q9"])
    def test_identical_components_share_one_class_map(self, family, catalog, monkeypatch):
        # Q4's two components, and Q9's three 2-branch ones, have the same
        # switch rows and the same branch classes
        build, calls = traintrack._class_map, []

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(traintrack, "_class_map", counted)
        sizes = [len(comp) for comp in catalog.tracks[family].track.components()]
        slope_law_check(catalog, family, bound=3)
        assert len(calls) == len(set(sizes)) < len(sizes)

    @pytest.mark.parametrize("consumer", [enumerate_solutions, carried_classes, dead_branches],
                             ids=lambda f: f.__name__)
    def test_solving_leaves_no_cyclic_garbage(self, consumer, catalog):
        # a cycle would hold each solution list until a cyclic collection
        gc.collect()
        gc.disable()
        try:
            consumer(catalog.tracks["Q4"].track, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()


NEGATIVE_BOUND_CALLS = {
    "carried_classes": lambda cat: carried_classes(cat.tracks["Q2"].track, -1),
    "carries_slope": lambda cat: carries_slope(cat.tracks["Q2"].track, "1/2", -1),
    "dead_branches": lambda cat: dead_branches(cat.tracks["Q2"].track, -1),
    "check_law": lambda cat: check_law(cat.tracks["Q2"].track, cat.tracks["Q2"].law,
                                       cat.tracks["Q2"].designated, -1),
    "slope_law_check": lambda cat: slope_law_check(cat, "Q2", bound=-1),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_BOUND_CALLS))
def test_negative_bound_rejected_everywhere(name, catalog):
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        NEGATIVE_BOUND_CALLS[name](catalog)


class TestSlopeLaws:
    def test_roundtrip(self):
        law = SlopeLaw("FORMULA_MU_NU_OMEGA", surjective_height=6)
        assert SlopeLaw.from_json(law.to_json()) == law
        assert SlopeLaw.from_json({"kind": "ONLY_FOUR"}).surjective_height is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SlopeLaw("ONLY_FIVE")

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
        order = track.branch_order()
        got = {tuple(w[b] for b in order) for w in enumerate_solutions(track, 3)}
        assert got == oracle_solutions(doc, 3)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_solutions_satisfy_rows_and_add(self, seed):
        doc = random_track_doc(seed, max_branches=6)
        track = TrainTrack.from_json(doc, track_id=f"h{seed}")
        rows = switch_rows(doc)
        sols = enumerate_solutions(track, 2)

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


class TestComponentSolve:
    @pytest.mark.parametrize("n,system", DOUBLING_SYSTEMS)
    def test_doubling_systems_move_by_two(self, n, system):
        moves = {abs(b) for _, steps in traintrack._elimination_plan(n, system)
                 for *_, b in steps}
        assert 2 in moves

    @pytest.mark.parametrize("bound", range(6))
    @pytest.mark.parametrize("n,system", DOUBLING_SYSTEMS)
    def test_doubling_systems_match_brute_force(self, n, system, bound):
        assert traintrack._component_solutions(n, system, bound) == \
            brute_force_solutions(n, system, bound)

    @example(DOUBLING_SYSTEMS[0], 3)
    @given(raw_systems(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=250, deadline=None)
    def test_raw_systems_match_brute_force(self, case, bound):
        n, system = case
        assert traintrack._component_solutions(n, system, bound) == \
            brute_force_solutions(n, system, bound)


def _assert_matches_witness_oracle(doc, bound, track_id):
    track = TrainTrack.from_json(doc, track_id=track_id)
    report = carried_classes(track, bound)
    classes, null_witness = oracle_class_witnesses(doc, bound)
    # same classes, same witnesses, same (ascending witness) order
    assert list(report.classes.items()) == list(classes.items())
    assert report.null_witness == null_witness
    assert dead_branches(track, bound) == oracle_dead_branches(doc, bound)


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

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", sorted(EDGE_TRACKS))
    def test_edge_tracks(self, name, bound):
        _assert_matches_witness_oracle(EDGE_TRACKS[name]().to_json(), bound, name)
