import ast
import copy
import pathlib

import pytest

import anosurf
from anosurf import _track, classifier
from anosurf import catalog as catalog_module
from anosurf import spine as spine_module
from anosurf import traintrack
from anosurf.catalog import FAMILIES, default_catalog
from anosurf.errors import SpineCaseError, UnsupportedComplexError
from anosurf.spine import SpineCase, Spine, adjacent_short_pairs, case_of
from anosurf.traintrack import dead_branches
from conftest import ALL_POSITIVE_COMPLEX, load_data_json

EXPECTED_CASES = {
    "Q1": SpineCase.CD_ZERO, "Q2": SpineCase.CD_ZERO, "Q3": SpineCase.CD_ZERO,
    "Q4": SpineCase.CD_ZERO, "Q5": SpineCase.CD_ZERO,
    "Q6": SpineCase.AC_ZERO, "Q7": SpineCase.AC_ZERO,
    "Q8": SpineCase.C_ZERO, "Q9": SpineCase.C_ZERO,
    "Q10": SpineCase.C_ZERO, "Q11": SpineCase.C_ZERO,
}


class TestStructure:
    def test_loads_and_validates(self, spine):
        assert len(spine.connectors) == 30
        assert len(spine.symmetries) == 8
        assert any(s.name == "identity" for s in spine.symmetries)

    def test_symmetry_group_edge_action(self, spine):
        actions = {tuple(sorted(s.edge_map.items())) for s in spine.symmetries}
        # the edge action is a cyclic group of order four
        assert len(actions) == 4
        identity = tuple(sorted({"a": "a", "b": "b", "c": "c", "d": "d"}.items()))
        four_cycle = tuple(sorted({"a": "c", "c": "b", "b": "d", "d": "a"}.items()))
        assert identity in actions and four_cycle in actions

    def test_broken_edge_assignment_rejected(self, spine):
        doc = load_data_json("spine.json")
        bad = copy.deepcopy(doc)
        first = bad["hexagons"]["X"]["sides"][0]
        bad["hexagons"]["X"]["edges"][first] = "c"
        with pytest.raises(ValueError):
            Spine(bad)

    def test_broken_symmetry_rejected(self):
        doc = copy.deepcopy(load_data_json("spine.json"))
        sym = next(s for s in doc["symmetries"] if s["name"] != "identity")
        # composed with the swap of a1 and a2, which breaks the cyclic order of X
        side_map = sym["side_map"]
        side_map["a1"], side_map["a2"] = side_map["a2"], side_map["a1"]
        with pytest.raises(ValueError, match="adjacency broken"):
            Spine(doc)

    def test_shipped_symmetries_are_derived_from_their_side_maps(self, spine):
        for sym in spine.symmetries:
            assert spine.symmetry(sym.name, sym.side_map) == sym

    @pytest.mark.parametrize("swap, message", [(("a1", "a3"), "torn"),
                                                (("a1", "a2"), "adjacency broken")],
                             ids=["tear", "cyclic-order"])
    def test_side_map_that_breaks_a_hexagon_is_refused(self, spine, swap, message):
        side_map = {side: side for side in spine.edge_of}
        one, two = swap
        side_map[one], side_map[two] = two, one
        with pytest.raises(ValueError, match=message):
            spine.symmetry("broken", side_map)

    def test_connector_kind_must_match_gap(self):
        # two ends on one side are no short, medium or long connector
        doc = copy.deepcopy(load_data_json("spine.json"))
        doc["connectors"][0]["positions"] = [2, 2]
        with pytest.raises(ValueError, match="both ends on one side"):
            Spine(doc)


class TestComplexes:
    def test_canonical_families_validate(self, catalog, spine):
        complexes = catalog.complexes
        assert set(complexes) == set(EXPECTED_CASES)
        for family, q in complexes.items():
            spine.validate_complex(q)

    def test_unknown_connector(self, spine):
        with pytest.raises(ValueError):
            spine.validate_complex({"nope": 1})

    def test_bad_multiplicity(self, spine):
        with pytest.raises(ValueError):
            spine.validate_complex({"s1": 0})
        with pytest.raises(ValueError):
            spine.validate_complex({})

    def test_unbalanced_rejected(self, spine):
        # one short alone loads two sides of two edges and nothing else
        with pytest.raises(ValueError):
            spine.validate_complex({"s1": 1})

    def test_edge_weights(self, catalog, spine):
        q = catalog.complexes["Q6"]
        assert spine.edge_weights(q) == {"a": 0, "b": 2, "c": 0, "d": 2}
        total = sum(q.values())
        weights = spine.edge_weights(q)
        assert 2 * total == 3 * sum(weights.values())


class TestCaseSplit:
    def test_canonical_cases(self, catalog, spine):
        for family, q in catalog.complexes.items():
            assert case_of(spine, q) == EXPECTED_CASES[family], family

    def test_all_positive(self, spine):
        assert case_of(spine, ALL_POSITIVE_COMPLEX) == SpineCase.ALL_POSITIVE

    def test_symmetry_images_share_the_case(self, catalog, spine):
        """Mapping a complex through any spine symmetry lands on another
        valid complex in the same case; this drives zero patterns through
        every position the group can reach."""
        by_sides = {}
        for conn in spine.connectors.values():
            by_sides[frozenset(conn.sides(spine))] = conn.id
        seen_weight_zero_sets = set()
        for family, q in catalog.complexes.items():
            base_case = case_of(spine, q)
            for sym in spine.symmetries:
                image = {}
                for cid, mult in q.items():
                    s1, s2 = spine.connectors[cid].sides(spine)
                    target = frozenset((sym.side_map[s1], sym.side_map[s2]))
                    image[by_sides[target]] = mult
                spine.validate_complex(image)
                assert case_of(spine, image) == base_case, (family, sym.name)
                w = spine.edge_weights(image)
                seen_weight_zero_sets.add(
                    frozenset(e for e, v in w.items() if v == 0))
        # the orbit really visits ac-type patterns in other positions
        assert frozenset({"b", "c"}) in seen_weight_zero_sets
        assert frozenset({"b", "d"}) in seen_weight_zero_sets

    def test_case_split_total_on_combinations(self, catalog, spine):
        """Sums of canonical complexes stay balanced; none of them may
        fall through the case split."""
        complexes = list(catalog.complexes.values())
        combos = [
            {**complexes[0]},
            {"s1": 3, "s4": 3, "ly3": 3},
        ]
        q6 = catalog.complexes["Q6"]
        flipped = {}
        sym = next(s for s in spine.symmetries if s.name == "keep_r3_r3")
        by_sides = {frozenset(c.sides(spine)): c.id
                    for c in spine.connectors.values()}
        for cid, mult in q6.items():
            s1, s2 = spine.connectors[cid].sides(spine)
            flipped[by_sides[frozenset((sym.side_map[s1], sym.side_map[s2]))]] = mult
        merged = dict(q6)
        for cid, mult in flipped.items():
            merged[cid] = merged.get(cid, 0) + mult
        combos.append(merged)   # weights (2,2,2,2): every edge positive
        for q in combos:
            assert case_of(spine, q) in set(SpineCase)

    def test_case_error_is_defensive(self):
        err = SpineCaseError({"a": 1, "b": 0, "c": 0, "d": 0}, ("b", "c", "d"))
        assert err.zero_edges == ("b", "c", "d")


class TestShortAdjacency:
    def test_canonical_families_have_none(self, catalog, spine):
        for family, q in catalog.complexes.items():
            assert adjacent_short_pairs(spine, q) == [], family

    def test_detects_adjacent_pairs(self, spine):
        pairs = adjacent_short_pairs(spine, ALL_POSITIVE_COMPLEX)
        assert pairs == [("s1", "s3"), ("s1", "s5")]

    def test_shorts_pair_across_hexagons(self, spine):
        # t3 cuts a corner of the other hexagon at the same vertex, so it
        # meets every short sitting around that vertex
        q = {"s1": 1, "s3": 1, "s5": 1, "t3": 1, "md3": 1, "ma3": 1}
        pairs = adjacent_short_pairs(spine, q)
        assert ("s1", "t3") in pairs and ("s5", "t3") in pairs
        assert len(pairs) == 5

    def test_parallel_copies_do_not_pair(self, catalog, spine):
        q2 = catalog.complexes["Q2"]
        assert q2["s1"] == 2
        assert adjacent_short_pairs(spine, q2) == []


class TestDoubleCovers:
    def test_every_family_resolves(self, catalog):
        for family, q in catalog.complexes.items():
            found = catalog.family_of(q)
            assert found == family
            assert len(catalog.tracks[found].track.branches) == 2 * sum(q.values())

    def test_projection_partitions_branches(self, catalog):
        # the loader checks the projection and does not keep it
        for family, q in catalog.complexes.items():
            bundle = catalog.tracks[family]
            projection = load_data_json(f"tracks/{family}.json")["projection"]
            used = [b for rec in projection for b in rec["arcs"]]
            assert sorted(used) == sorted(bundle.track.branches)
            copies = {}
            for rec in projection:
                copies[rec["connector"]] = max(
                    copies.get(rec["connector"], 0), rec["copy"])
            assert copies == dict(q)

    def test_noncompact_annotation_is_exact(self, catalog):
        for family, bundle in catalog.tracks.items():
            assert set(bundle.noncompact) == dead_branches(bundle.track, 5), family

    def test_unknown_complex_rejected(self, catalog):
        with pytest.raises(UnsupportedComplexError):
            catalog.family_of(ALL_POSITIVE_COMPLEX)
        # a complex the spine refuses never reaches the lookup
        with pytest.raises(ValueError, match="unknown connector"):
            catalog.family_of({"nope": 1})


# names spine.py no longer offers; the catalog owns the spine, the
# complexes and the tracks
DELETED_NAMES = ("DoubleCover", "boundary_double_cover", "canonical_complexes", "load_spine",
                 "carries_slope", "TrackBundle")


def test_spine_imports_no_track_or_catalog_module():
    # only load_track_bundle reaches the catalog, through an import in its body
    tree = ast.parse(pathlib.Path(spine_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for name in imported:
        assert name.rpartition(".")[2] not in ("traintrack", "_track", "catalog"), name


def test_load_track_bundle_is_the_default_catalogs_bundle(monkeypatch):
    # the benchmark times this shim and drops its result
    monkeypatch.delenv("ANOSURF_CATALOG", raising=False)
    tracks = default_catalog().tracks
    assert sorted(tracks) == sorted(FAMILIES)
    for family in FAMILIES:
        assert spine_module.load_track_bundle(family) is tracks[family]


def test_public_names_resolve():
    assert len(anosurf.__all__) == len(set(anosurf.__all__))
    for name in anosurf.__all__:
        getattr(anosurf, name)
    # spine.load_track_bundle stays for the benchmark harness, but is not public
    for name in DELETED_NAMES + ("load_track_bundle",):
        assert name not in anosurf.__all__ and not hasattr(anosurf, name), name
    for name in DELETED_NAMES:
        assert not hasattr(spine_module, name), name
    # the concluding rules live in classifier._CONCLUSIONS, keyed by ANCHORS ids
    for name in ("RULES", "Rule"):
        assert not hasattr(classifier, name), name
    # the solve's runs are the only solutions; COMPONENT_SOLUTION_CAP the only cap
    for name in ("enumerate_solutions", "ENUMERATION_CAP"):
        assert name not in anosurf.__all__, name
        for module in (anosurf, traintrack):
            assert not hasattr(module, name), (module.__name__, name)
    for cls in (traintrack.TrainTrack, traintrack.Branch, traintrack.Switch):
        for name in ("branch_order", "to_json"):
            assert not hasattr(cls, name), (cls.__name__, name)


# the solver's names that anosurf and anosurf.catalog resolve on first use,
# and what anosurf.traintrack re-exports from anosurf._track
LAZY_NAMES = ("LawReport", "carried_classes", "check_law", "check_law_bounds", "dead_branches")
MOVED_NAMES = ("End", "Branch", "Switch", "TrainTrack", "_CONSTANT_LAWS", "_FORMULAS",
               "LAW_KINDS", "HEIGHT_KINDS", "MAX_SURJECTIVE_HEIGHT", "SlopeLaw", "check_roles",
               "MAX_LAW_BOUND")


def test_the_solver_names_are_the_solvers_objects():
    for name in LAZY_NAMES:
        solver = getattr(traintrack, name)
        assert getattr(anosurf, name) is getattr(catalog_module, name) is solver, name
    for name in MOVED_NAMES:
        assert getattr(traintrack, name) is getattr(_track, name), name
    for module in (anosurf, catalog_module):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name
    namespace = {}
    exec("from anosurf import *", namespace)
    for name in anosurf.__all__:
        assert namespace[name] is getattr(anosurf, name), name
