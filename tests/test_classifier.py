import copy
import hashlib
import json
import math
import pathlib

import pytest

from anosurf import classifier
from anosurf.catalog import EXCLUSION_CLASSES, candidates_for, load_catalog
from anosurf.classifier import (
    ANCHORS,
    _CHAINS,
    _CONCLUSIONS,
    ClassificationResult,
    ExclusionTrace,
    TraceStep,
    classify,
    exclusion_reason,
    exclusion_trace,
    fenley_power_admissible,
    unique_flow_argument,
)
from anosurf.errors import ClassificationGapError, UnsupportedSlopeError
from anosurf.slopes import INFINITY, ZERO, AdmissibleSet, Slope, parse_slope
from conftest import replace
from oracles import verify_orientation_certificate

HALF = Slope(1, 2)
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# one entry of each exclusion class at a slope outside its admissible
# set, the set replaced where the shipped one admits every slope
INADMISSIBLE = {
    "DiskLeaf": ("B1", None, "1/2"),
    "TypeI": ("B5", None, "7/2"),
    "SplitTypeII": ("B7_II_fg", None, "3"),
    "R7Cusps": ("R7", AdmissibleSet("IntegerDenominatorAtLeast2"), "3"),
    "BasicTypeII": ("B6", AdmissibleSet("Only", slope=ZERO), "1/2"),
}


class TestRuleTable:
    def test_every_rule_is_anchored(self):
        for rule_id, anchor in ANCHORS.items():
            assert anchor.strip(), rule_id

    def test_concluding_rules(self):
        # a rule missing here is a premise step
        assert set(_CONCLUSIONS) <= set(ANCHORS)
        assert _CONCLUSIONS == {
            "disk-leaves/no-legal-shape": "Excludes",
            "complement/three-vertical-cusps": "Excludes",
            "attractor/uniqueness-two-orbits": "Excludes",
            "split/meridian-twice": "Excludes",
            "fenley/power-bound": "Excludes",
            "carried/orientable-contradiction": "Excludes",
            "core-orbit/isotopic": "ForcesIntegerSlope",
            "type-ii/core-orbit": "YieldsCoreOrbit",
        }

    def test_power_bound(self):
        for k in (1, -1, 2, -2):
            assert fenley_power_admissible(k)
        for k in (3, -3, 5, 12):
            assert not fenley_power_admissible(k)
        with pytest.raises(ValueError):
            fenley_power_admissible(0)


class TestExclusionChains:
    def test_disk_leaf(self, catalog):
        trace = exclusion_trace(catalog.get("B2"), HALF)
        assert trace.digest()["rules"] == [
            "complement-shape/three-types", "disk-leaves/no-legal-shape"]
        assert trace.conclusion == "Excludes"
        assert trace.steps[1].facts["surface_euler"] == -1
        assert trace.steps[1].facts["complement_euler"] == -1

    def test_r7_cusps(self, catalog):
        trace = exclusion_trace(catalog.get("R7"), HALF)
        assert trace.digest()["rules"] == ["complement/three-vertical-cusps"]
        assert trace.conclusion == "Excludes"

    def test_type_i(self, catalog):
        trace = exclusion_trace(catalog.get("B5"), HALF)
        assert trace.digest()["rules"] == [
            "type-i/vacant-annulus", "type-i/exceptional-core",
            "attractor/one-boundary-orbit", "attractor/uniqueness-two-orbits"]
        assert trace.conclusion == "Excludes"
        assert trace.steps[0].facts["meridian_hits"] == 2

    def test_split_type_ii(self, catalog):
        trace = exclusion_trace(catalog.get("B7_II_fg"), HALF)
        assert trace.digest()["rules"] == [
            "split/two-annuli-one-torus", "split/meridian-twice"]
        assert trace.conclusion == "Excludes"
        assert len(trace.steps[0].facts["split_curves"]) == 2

    def test_annulus_sectors_at_denominator_two(self, catalog):
        trace = exclusion_trace(catalog.get("B6"), HALF)
        assert trace.digest()["rules"] == [
            "type-ii/slope-infinity-annulus", "type-ii/core-power",
            "fenley/power-bound", "fenley/square-non-coorientable",
            "non-coorientable/infinitely-many",
            "carried/orientable-contradiction"]
        assert trace.conclusion == "Excludes"
        assert trace.steps[2].facts["within_bound"] is True
        assert trace.steps[-1].facts["certificate"]

    def test_annulus_sectors_at_higher_denominator(self, catalog):
        trace = exclusion_trace(catalog.get("B6"), Slope(1, 3))
        assert trace.digest()["rules"] == [
            "type-ii/slope-infinity-annulus", "type-ii/core-power",
            "fenley/power-bound"]
        assert trace.conclusion == "Excludes"
        assert "within_bound" not in trace.steps[2].facts

    def test_annulus_sectors_at_integers_force_the_core_orbit(self, catalog):
        trace = exclusion_trace(catalog.get("B6"), Slope(2, 1))
        assert trace.digest()["rules"] == [
            "type-ii/slope-infinity-annulus", "type-ii/core-power",
            "core-orbit/isotopic"]
        assert trace.conclusion == "ForcesIntegerSlope"
        with pytest.raises(ClassificationGapError):
            exclusion_reason(catalog, "B6", Slope(2, 1))

    def test_exclusion_reason_happy_path(self, catalog):
        trace = exclusion_reason(catalog, "B3", Slope(4, 1))
        assert trace.conclusion == "Excludes"

    @pytest.mark.parametrize("entry_id", ["B2", "B6"])
    def test_exclusion_reason_refuses_the_trivial_filling(self, catalog, entry_id):
        # B2's disk-leaf chain would exclude at any slope, and B6's
        # annulus chain would read a core power of 0
        with pytest.raises(UnsupportedSlopeError):
            exclusion_reason(catalog, entry_id, INFINITY)

    @pytest.mark.parametrize("entry_id", ["B2", "B6"])
    def test_exclusion_trace_refuses_the_trivial_filling(self, catalog, entry_id):
        with pytest.raises(UnsupportedSlopeError):
            exclusion_trace(catalog.get(entry_id), INFINITY)

    def test_one_chain_per_exclusion_class(self):
        assert set(_CHAINS) == set(EXCLUSION_CLASSES)

    @pytest.mark.parametrize("klass", EXCLUSION_CLASSES)
    def test_exclusion_trace_refuses_an_inadmissible_slope(self, catalog, klass):
        entry_id, admissible, text = INADMISSIBLE[klass]
        entry = catalog.get(entry_id)
        if admissible is not None:
            entry = replace(entry, admissible=admissible)
        assert entry.exclusion_class == klass
        with pytest.raises(ValueError, match="not admissible"):
            exclusion_trace(entry, parse_slope(text))

    def test_premise_terminal_trace_has_no_conclusion(self):
        trace = ExclusionTrace(entry="X", slope=HALF,
                               steps=(TraceStep(rule="type-ii/core-power"),))
        with pytest.raises(ClassificationGapError):
            trace.conclusion

    def test_denominator_two_without_certificate_is_a_gap(self, catalog):
        stripped = replace(catalog.get("B6"), orientable=None,
                                       orientation_graph=None)
        with pytest.raises(ClassificationGapError):
            exclusion_trace(stripped, HALF)
        # at denominator three the chain never needs the certificate
        assert exclusion_trace(stripped, Slope(1, 3)).conclusion == "Excludes"

    def test_tampered_type_i_complement_is_a_gap(self, catalog):
        with pytest.raises(ClassificationGapError):
            exclusion_trace(_tampered_type_i(catalog.get("B5")), HALF)


def _tampered_type_i(entry):
    bad_piece = dict(entry.complement[0])
    bad_piece["annulus_wrap"] = [1]
    bad_piece["meridian_hits"] = 1
    return replace(entry, complement=(bad_piece,))


def _deface(value):
    """Mutate every list and dict reachable from value, in place."""
    if isinstance(value, list):
        for item in value:
            _deface(item)
        value.append("defaced")
    elif isinstance(value, dict):
        for item in value.values():
            _deface(item)
        value["defaced"] = True


class TestSlopeIndependentFacts:
    """An entry's parsed complement and Euler characteristics are
    computed once per entry; every chain still checks them on every call."""

    def test_a_tampered_entry_fails_on_every_call(self, catalog):
        bad = _tampered_type_i(catalog.get("B5"))
        for _ in range(2):
            with pytest.raises(ClassificationGapError):
                exclusion_trace(bad, HALF)
        # an unparsable record is refused by the constructor, every time
        for _ in range(2):
            with pytest.raises(ValueError, match="KleinBottle"):
                replace(catalog.get("B5"), complement=({"kind": "KleinBottle"},))

    def test_a_replaced_copy_starts_with_nothing_cached(self):
        fresh = load_catalog()
        entry = fresh.get("B5")
        assert exclusion_trace(entry, HALF).conclusion == "Excludes"
        with pytest.raises(ClassificationGapError):
            exclusion_trace(_tampered_type_i(entry), HALF)

        disk = fresh.get("B2")
        assert exclusion_trace(disk, HALF).steps[1].facts["surface_euler"] == -1
        euler = copy.deepcopy(disk.euler)
        euler["surface_cw"]["vertices"] += 1
        trace = exclusion_trace(replace(disk, euler=euler), HALF)
        assert trace.steps[1].facts["surface_euler"] == 0

    def test_results_share_no_mutable_facts(self, catalog):
        for text in ("1/2", "7/2", "-5/3", "3"):
            slope = parse_slope(text)
            want = json.dumps(classify(slope, catalog).to_json("full"))
            result = classify(slope, catalog)
            for step in result.argument + [s for t in result.traces for s in t.steps]:
                _deface(step.facts)
            assert json.dumps(classify(slope, catalog).to_json("full")) == want

    def test_a_second_pass_over_the_grid_is_identical(self):
        fresh = load_catalog()
        grid = [Slope(q, p) for p in range(1, 51) for q in range(-50, 51)
                if math.gcd(p, abs(q)) == 1]

        def digests():
            return [hashlib.sha256(json.dumps(classify(s, fresh).to_json("full"))
                                   .encode("utf-8")).hexdigest() for s in grid]

        assert digests() == digests()


class TestClassifyPath:
    """classify runs each candidate's chain itself, after one check of the
    slope, and reads the certificate its entry's constructor built."""

    @pytest.mark.parametrize("text", ["1/2", "7/2", "-5/3", "101/37"])
    def test_each_trace_is_the_entrys_exclusion_trace(self, catalog, text):
        slope = parse_slope(text)
        traces = classify(slope, catalog).traces
        assert traces
        for trace in traces:
            alone = exclusion_trace(catalog.get(trace.entry), slope)
            assert trace.steps == alone.steps
            assert trace.conclusion == alone.conclusion == "Excludes"

    @pytest.mark.parametrize("name,text", [("classify_7_2.json", "7/2"),
                                           ("classify_1_2.json", "1/2")])
    def test_classify_does_not_retest_admissibility(self, catalog, monkeypatch, name, text):
        def refuse(entry, slope):
            raise AssertionError("classify called the checked accessor")
        monkeypatch.setattr(classifier, "complement_components", refuse)
        doc = classify(parse_slope(text), catalog).to_json("full")
        assert json.dumps(doc, indent=2) + "\n" == (GOLDEN_DIR / name).read_text(encoding="utf-8")

    def test_the_certificate_is_a_copy_of_the_entrys_colouring(self, catalog):
        certified = [t for t in classify(HALF, catalog).traces
                     if t.steps[-1].rule == "carried/orientable-contradiction"]
        assert {catalog.get(t.entry).exclusion_class for t in certified} == {"BasicTypeII"}
        for trace in certified:
            entry = catalog.get(trace.entry)
            certificate = trace.steps[-1].facts["certificate"]
            assert certificate == entry.orientation.coloring
            assert certificate is not entry.orientation.coloring
            assert verify_orientation_certificate(entry.orientation_graph, True, certificate, None)

    def test_an_odd_graph_under_an_orientable_flag_is_a_gap(self, catalog):
        odd = replace(catalog.get("B6"),
                                  orientation_graph=catalog.get("B3").orientation_graph)
        assert odd.orientable is True and not odd.orientation.orientable
        with pytest.raises(ClassificationGapError, match="failed to verify"):
            exclusion_trace(odd, HALF)

    def test_records_have_no_instance_dict(self, catalog):
        result = classify(Slope(7, 2), catalog)
        trace = result.traces[0]
        step = trace.steps[0]
        for record in (result, trace, step):
            assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            step.rule = "type-ii/core-power"
        with pytest.raises(AttributeError):
            trace.entry = "B1"
        assert replace(step, facts={}) == TraceStep(step.rule)


class TestExistenceSide:
    def test_suspension_at_zero(self):
        steps = unique_flow_argument(Slope(0, 1))
        assert [s.rule for s in steps] == ["plante/suspension-rigidity"]

    def test_nonzero_integers(self):
        steps = unique_flow_argument(Slope(3, 1))
        assert [s.rule for s in steps] == [
            "type-ii/core-orbit", "core-orbit/da-surgery",
            "attractor/unique-model", "plante/suspension-rigidity",
            "surgery/equivalence-transfer"]
        assert steps[-1].facts["framing"] == 3

    def test_nonintegers_rejected(self):
        with pytest.raises(ValueError):
            unique_flow_argument(HALF)


class TestClassify:
    def test_trivial_filling_unsupported(self):
        with pytest.raises(UnsupportedSlopeError):
            classify(INFINITY)

    def test_zero_is_the_suspension(self):
        result = classify(Slope(0, 1))
        assert result.kind == "SuspensionAnosov"
        assert result.taut_foliation is True
        assert len(result.argument) == 1 and not result.traces

    def test_integers_have_a_unique_flow(self):
        result = classify(parse_slope("5"))
        assert result.kind == "UniqueAnosov"
        assert len(result.argument) == 5 and not result.traces

    def test_nonintegers_have_none(self, catalog):
        result = classify(parse_slope("7/2"), catalog)
        assert result.kind == "NoAnosov"
        assert result.taut_foliation is True
        assert not result.argument
        assert len(result.traces) == 33
        assert {t.entry for t in result.traces} == {
            e.id for e in candidates_for(catalog, parse_slope("7/2"))}
        assert all(t.conclusion == "Excludes" for t in result.traces)

    def test_negative_noninteger(self, catalog):
        result = classify(parse_slope("-8/3"), catalog)
        assert result.kind == "NoAnosov"

    def test_broken_catalog_surfaces_as_a_gap(self, catalog):
        entries = dict(catalog.entries)
        entries["B6"] = replace(catalog.get("B6"), orientable=None,
                                            orientation_graph=None)
        broken = replace(catalog, entries=entries)
        with pytest.raises(ClassificationGapError):
            classify(HALF, broken)
        # a denominator three filling never consults the certificate
        assert classify(Slope(1, 3), broken).kind == "NoAnosov"

    def test_json_modes(self, catalog):
        result = classify(parse_slope("3/2"), catalog)
        full = result.to_json(traces="full")
        assert full["kind"] == "NoAnosov"
        assert {"entry", "slope", "steps", "conclusion"} <= set(full["exclusions"][0])
        digest = result.to_json(traces="digest")
        assert {"entry", "rules", "conclusion"} <= set(digest["exclusions"][0])
        bare = result.to_json(traces="none")
        assert "exclusions" not in bare
        assert sorted(bare["excluded_entries"]) == sorted(
            t.entry for t in result.traces)
        integer = classify(Slope(4, 1)).to_json()
        assert "argument" in integer and "exclusions" not in integer
