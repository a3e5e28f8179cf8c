import collections
import json
import shutil

import pytest

from anosurf import _resources
from anosurf import catalog as catalog_module
from anosurf.catalog import (
    candidates_for,
    check_catalog,
    complement_components,
    default_catalog,
    load_catalog,
    slope_law_check,
)
from anosurf.errors import CatalogIntegrityError, CatalogKeyError, UnsupportedComplexError
from anosurf.slopes import Slope, parse_slope
from anosurf.traintrack import MAX_SURJECTIVE_HEIGHT
from conftest import (
    ALL_POSITIVE_AS_Q6,
    ALL_POSITIVE_COMPLEX,
    BAD_COMPLEXES,
    BAD_ENTRY_RECORDS,
    BAD_LAWS,
    DATA_DIR,
    admissible_edit,
    q2_as_q1,
    record_edit,
    replace,
    restamp_manifest,
    rewrite,
)

HALF = Slope(1, 2)

ALL_IDS = {
    "B1", "B2", "B3", "B4", "B5",
    "B6", "B6_I_g", "B6_I_h", "B6_II_gh",
    "B7", "B7_I_f", "B7_I_g", "B7_I_h",
    "B7_II_fg", "B7_II_gh", "B7_star",
    "B7_ss_fg_f", "B7_ss_fg_g", "B7_ss_fg_h",
    "B7_ss_gh_f", "B7_ss_gh_g", "B7_ss_gh_h",
    "B8", "B8_II_fg", "B8_II_fh", "B8_III",
    "B9", "B9_II_hi", "B9_M",
    "B10", "B11",
    "R7", "R7_I_f", "R7_I_g", "R7_I_h",
    "R7_II_fg", "R7_II_gh", "R7_II_hf",
}
FAMILY_COUNTS = {"Q1": 1, "Q2": 1, "Q3": 1, "Q4": 1, "Q5": 1,
                 "Q6": 4, "Q7": 20, "Q8": 4, "Q9": 3, "Q10": 1, "Q11": 1}


def _drop_track(doc):
    del doc["track"]


def _unknown_law(doc):
    doc["law"] = {"kind": "ONLY_SEVEN"}


def _designated_list(doc):
    doc["designated"] = []


def _duplicate_branch(doc):
    doc["track"]["branches"].append(doc["track"]["branches"][0])


def _repeated_side(doc):
    doc["hexagons"]["X"]["sides"][0] = doc["hexagons"]["X"]["sides"][1]


def _surjective_height(value):
    def edit(doc):
        doc["law"]["surjective_height"] = value
    return edit


# surjective_height values SlopeLaw refuses, with their test ids
BAD_HEIGHTS = {"height-text": "6", "height-float": 2.5, "height-negative": -3,
               "height-bool": True, "height-above-ceiling": MAX_SURJECTIVE_HEIGHT + 1}


def _first_branch(**fields):
    def edit(doc):
        doc["track"]["branches"][0].update(fields)
    return edit


def _first_connector_positions(value):
    return record_edit("connectors", 0, "positions", value=value)


# entry records, branches, switches and connectors the loader refuses, with
# their test ids
BAD_FIELDS = {
    "bound-infinite": ("catalog/entries/B4.json", admissible_edit(bound="inf")),
    # the schema cannot tie a count bound to the anchor: each of these sets
    # contains the infinite slope, which only AllRationals sets may
    "at-least-meets-infinity": ("catalog/entries/B5.json", admissible_edit(count=1)),
    "at-least-count-zero": ("catalog/entries/B5.json", admissible_edit(count=0)),
    "more-than-count-zero": ("catalog/entries/B10.json", admissible_edit(count=0)),
    "only-infinity": ("catalog/entries/B1.json", admissible_edit(slope="inf")),
    **{name: (f"catalog/entries/{entry}.json", edit)
       for name, (entry, edit) in BAD_ENTRY_RECORDS.items()},
    "class-float": ("tracks/Q1.json", _first_branch(**{"class": [1.5, 0]})),
    "class-three": ("tracks/Q1.json", _first_branch(**{"class": [1, 0, 9]})),
    "class-bool": ("tracks/Q1.json", _first_branch(**{"class": [True, 0]})),
    "loop-text": ("tracks/Q1.json", _first_branch(loop="false")),
    "loop-zero": ("tracks/Q1.json", _first_branch(loop=0)),
    "branch-id-int": ("tracks/Q1.json", _first_branch(id=7)),
    "switch-id-bool": ("tracks/Q11.json", record_edit("track", "switches", 0, "id", value=True)),
    "designated-bool": ("tracks/Q4.json", record_edit("designated", "nu", 0, value=False)),
    "designated-unknown-branch": ("tracks/Q4.json",
                                  record_edit("designated", "nu", 0, value="u.Z9")),
    "positions-text": ("spine.json", _first_connector_positions("4")),
    "positions-three": ("spine.json", _first_connector_positions([0, 1, 2])),
    "positions-out-of-range": ("spine.json", _first_connector_positions([5, 6])),
    "positions-bool": ("spine.json", _first_connector_positions([False, True])),
    **{name: (f"tracks/{family}.json", record_edit("law", value=law))
       for name, (family, law) in BAD_LAWS.items()},
    **{f"complexes-{name}": ("qcomplexes.json", edit) for name, edit in BAD_COMPLEXES.items()},
    # a schema cannot say that the eleven complexes are distinct
    "complexes-shared": ("qcomplexes.json", q2_as_q1),
    "track-id-of-another-family": ("tracks/Q4.json", record_edit("id", value="Q5")),
}


class TestLoading:
    def test_counts(self, catalog):
        assert len(catalog) == 38
        assert set(catalog.entries) == ALL_IDS
        assert catalog.family_counts() == FAMILY_COUNTS

    def test_get_and_iteration(self, catalog):
        assert catalog.get("B6").family == "Q6"
        assert sum(1 for _ in catalog) == 38
        with pytest.raises(CatalogKeyError):
            catalog.get("B99")

    def test_override_directory(self, data_copy):
        assert len(load_catalog(path=str(data_copy))) == 38

    @pytest.mark.parametrize("how", ["argument", "environment"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_bad_override_never_falls_back(self, data_copy, monkeypatch, how, kind):
        bad = data_copy / ("no-such-directory" if kind == "missing" else "spine.json")
        if how == "environment":
            monkeypatch.setenv("ANOSURF_CATALOG", str(bad))
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(bad) if how == "argument" else None)
        assert info.value.path == str(bad)

    @pytest.mark.parametrize("environment", ["unreadable", "missing"])
    def test_the_argument_replaces_the_environment(self, data_copy, tmp_path, monkeypatch,
                                                   environment):
        if environment == "unreadable":
            for path in data_copy.rglob("*.json"):
                path.write_text("not json")
            monkeypatch.setenv("ANOSURF_CATALOG", str(data_copy))
        else:
            monkeypatch.setenv("ANOSURF_CATALOG", str(tmp_path / "no-such-directory"))
        # shadows one file; every other file comes from the packaged data
        partial = tmp_path / "partial"
        partial.mkdir()
        shutil.copy(DATA_DIR / "spine.json", partial / "spine.json")
        assert len(load_catalog(path=str(partial))) == 38

    @pytest.mark.parametrize("verify", [True, False])
    def test_unlisted_file_is_refused(self, data_copy, verify):
        manifest_path = data_copy / "catalog" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["files"]["tracks/Q4.json"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy), verify=verify)
        assert info.value.path == "tracks/Q4.json"

    def test_corrupted_file_detected(self, data_copy):
        entry_path = data_copy / "catalog" / "entries" / "B1.json"
        doc = json.loads(entry_path.read_text())
        doc["summary"] = "tampered"
        entry_path.write_text(json.dumps(doc))
        with pytest.raises(CatalogIntegrityError):
            load_catalog(path=str(data_copy))
        # without verification the tampered copy still parses
        cat = load_catalog(path=str(data_copy), verify=False)
        assert len(cat) == 38

    def test_wrong_entry_count_detected(self, data_copy):
        manifest_path = data_copy / "catalog" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["entry_count"] = 40
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CatalogIntegrityError):
            load_catalog(path=str(data_copy))

    def test_duplicate_entry_detected(self, data_copy):
        entries_dir = data_copy / "catalog" / "entries"
        # two files now carry the same entry id
        (entries_dir / "B2.json").write_text(
            (entries_dir / "B1.json").read_text())
        restamp_manifest(data_copy)
        with pytest.raises(CatalogIntegrityError):
            load_catalog(path=str(data_copy))

    def test_each_file_is_read_once(self, monkeypatch):
        reads = collections.Counter()
        real = _resources.load_json

        def counting(relpath, *args, **kwargs):
            reads[relpath] += 1
            return real(relpath, *args, **kwargs)

        monkeypatch.setattr(_resources, "load_json", counting)
        catalog = load_catalog()
        expected = set(catalog.manifest["files"]) | {"catalog/manifest.json"}
        assert reads == dict.fromkeys(expected, 1)

    def test_default_follows_the_environment(self, data_copy, monkeypatch):
        assert default_catalog().tracks["Q1"].law.kind == "ONLY_ZERO"
        rewrite(data_copy, "tracks/Q1.json",
                 lambda doc: doc.update(law={"kind": "ONLY_FOUR"}))
        monkeypatch.setenv("ANOSURF_CATALOG", str(data_copy))
        assert default_catalog().tracks["Q1"].law.kind == "ONLY_FOUR"

    def test_family_of_reads_the_override_complexes(self, catalog, data_copy):
        packaged_q6 = catalog.complexes["Q6"]
        for relpath, edit in ALL_POSITIVE_AS_Q6:
            rewrite(data_copy, relpath, edit)
        override = load_catalog(path=str(data_copy))
        assert override.family_of(ALL_POSITIVE_COMPLEX) == "Q6"
        with pytest.raises(UnsupportedComplexError):
            override.family_of(packaged_q6)
        with pytest.raises(UnsupportedComplexError):
            catalog.family_of(ALL_POSITIVE_COMPLEX)

    @pytest.mark.parametrize("relpath,edit", [
        ("tracks/Q1.json", _drop_track),
        ("tracks/Q1.json", _unknown_law),
        ("tracks/Q1.json", _designated_list),
        ("tracks/Q1.json", _duplicate_branch),
        ("spine.json", _repeated_side),
        *[("tracks/Q2.json", _surjective_height(h)) for h in BAD_HEIGHTS.values()],
        *BAD_FIELDS.values(),
    ], ids=["missing-key", "unknown-law", "wrong-type", "switch-system", "spine", *BAD_HEIGHTS,
            *BAD_FIELDS])
    def test_unusable_data_detected(self, data_copy, relpath, edit):
        rewrite(data_copy, relpath, edit)
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy))
        assert info.value.path == relpath

    def test_unknown_family_detected(self, data_copy):
        rewrite(data_copy, "catalog/entries/B1.json", record_edit("family", value="Q99"))
        with pytest.raises(CatalogIntegrityError):
            load_catalog(path=str(data_copy))


class TestEntryFacts:
    @pytest.mark.parametrize("field,value", [
        ("family", "Q99"), ("exclusion_class", "KleinBottle"), ("id", 5)])
    def test_a_replaced_copy_is_checked(self, catalog, field, value):
        with pytest.raises(ValueError):
            replace(catalog.get("B6"), **{field: value})

    def test_a_replaced_graph_is_coloured_again(self, catalog):
        b6, b3 = catalog.get("B6"), catalog.get("B3")
        assert b6.orientation.orientable and not b3.orientation.orientable
        copy = replace(b6, orientation_graph=b3.orientation_graph)
        assert copy.orientation == b3.orientation


class TestCandidates:
    def test_generic_noninteger_slope(self, catalog):
        cands = candidates_for(catalog, parse_slope("7/2"))
        assert len(cands) == 33
        ids = {e.id for e in cands}
        # B5 needs two crossings with slope 4, but 7/2 gives only one
        assert "B5" not in ids and "B10" not in ids and "B11" not in ids
        assert "B4" in ids

    def test_slope_zero(self, catalog):
        cands = candidates_for(catalog, Slope(0, 1))
        assert len(cands) == 11
        ids = {e.id for e in cands}
        assert {"B1", "B5", "B10", "B11"} <= ids
        assert "B3" not in ids and "B4" not in ids

    def test_small_noninteger_slope(self, catalog):
        assert len(candidates_for(catalog, parse_slope("1/2"))) == 35


class TestComplements:
    def test_exceptional_piece(self, catalog):
        comps = complement_components(catalog.get("B5"), parse_slope("1/2"))
        assert comps[0].exceptional is True

    def test_requires_admissible_slope(self, catalog):
        with pytest.raises(ValueError):
            complement_components(catalog.get("B1"), Slope(1, 1))

    def test_each_call_returns_a_new_list(self, catalog):
        for entry_id, text in (("B5", "1/2"), ("B6", "7/2")):
            entry, slope = catalog.get(entry_id), parse_slope(text)
            first = complement_components(entry, slope)
            want = list(first)
            first.clear()
            assert complement_components(entry, slope) == want
        # the slope-independent pieces are parsed once and reused
        b5 = catalog.get("B5")
        assert complement_components(b5, HALF)[0] is complement_components(b5, HALF)[0]

    def test_split_entries_have_two_annuli(self, catalog):
        entry = catalog.get("B7_II_fg")
        assert entry.exclusion_class == "SplitTypeII"
        comps = complement_components(entry, parse_slope("1/2"))
        assert len(comps) == 1
        assert comps[0].vertical_annuli == 2
        assert comps[0].annulus_wrap == (2, 2)


class TestLawCheck:
    def test_known_family(self, catalog):
        report = slope_law_check(catalog, "Q3", bound=6)
        assert report.ok
        assert report.realized == {Slope(4, 1)}

    def test_unknown_family(self, catalog):
        with pytest.raises(CatalogKeyError):
            slope_law_check(catalog, "Q99")


class TestHealthCheck:
    def test_shipped_catalog_is_healthy(self, catalog):
        report = check_catalog(catalog)
        assert report.problems == []
        assert report.entry_count == 38
        assert report.stated_total == 39
        assert len(report.warnings) == 1
        assert "39" in report.warnings[0]
        assert "known, documented" in report.warnings[0]

    def test_the_check_reads_the_facts_built_at_load(self, catalog, monkeypatch):
        def recompute(*_args):
            raise AssertionError("check_catalog recomputed a fact of an entry")

        monkeypatch.setattr(catalog_module, "is_transversely_orientable", recompute)
        monkeypatch.setattr(catalog_module, "detect_sink_disks", recompute)
        assert check_catalog(catalog).problems == []

    def test_orientable_flag_must_match_graph(self, catalog):
        bad = replace(catalog.get("B6"), orientable=False)
        entries = dict(catalog.entries)
        entries["B6"] = bad
        report = check_catalog(replace(catalog, entries=entries))
        assert any("B6" in p and "orientable" in p for p in report.problems)
        assert not report.ok

    def test_uncertified_flag_is_a_problem(self, catalog):
        bad = replace(catalog.get("B6"), orientation_graph=None)
        entries = dict(catalog.entries)
        entries["B6"] = bad
        report = check_catalog(replace(catalog, entries=entries))
        assert any("B6" in p and "sector graph" in p for p in report.problems)

    def test_family_count_drift_is_a_problem(self, catalog):
        entries = dict(catalog.entries)
        del entries["B7_star"]
        report = check_catalog(replace(catalog, entries=entries))
        assert any("family counts" in p for p in report.problems)

    def test_sink_disk_is_a_problem(self, catalog):
        entry = catalog.get("B1")
        sectors = tuple(entry.disk_sectors) + (
            {"id": "Dsink", "boundary": [{"curve": "c", "direction": "in"}]},)
        bad = replace(entry, disk_sectors=sectors)
        entries = dict(catalog.entries)
        entries["B1"] = bad
        report = check_catalog(replace(catalog, entries=entries))
        assert any("Dsink" in p for p in report.problems)
