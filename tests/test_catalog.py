import collections
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from anosurf import _resources
from anosurf import catalog as catalog_module
from anosurf.branched_surface import ComplementComponent
from anosurf.catalog import (
    CatalogEntry,
    candidates_for,
    check_catalog,
    complement_components,
    default_catalog,
    load_catalog,
    slope_law_check,
)
from anosurf.classifier import exclusion_trace
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
    SCHEMA_FAULT,
    admissible_edit,
    q2_as_q1,
    record_edit,
    replace,
    restamp_manifest,
    rewrite,
)

HALF = Slope(1, 2)
SRC = Path(catalog_module.__file__).resolve().parents[1]

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

    @pytest.mark.parametrize("entry_id", sorted(ALL_IDS))
    def test_an_entry_is_its_file_and_reads_back(self, catalog, entry_id):
        entry = catalog.get(entry_id)
        stored = json.loads((DATA_DIR / "catalog" / "entries" / f"{entry_id}.json").read_text())
        assert entry.to_json() == stored
        assert CatalogEntry.from_json(entry.to_json()) == entry

    def test_an_entry_document_shares_nothing_with_its_entry(self, catalog):
        entry = catalog.get("B6")
        doc = entry.to_json()
        doc["orientation_graph"]["edges"].clear()
        doc["complement"][0]["kind"] = "Ball"
        doc["notes"].clear()
        assert entry.orientation_graph["edges"] and entry.notes
        assert entry.complement[0]["kind"] == "SolidTorus"

    def test_override_directory(self, data_copy):
        assert len(load_catalog(path=str(data_copy))) == 38

    def test_the_empty_path_is_no_directory(self, data_copy, monkeypatch):
        # Path("") is the current directory; an empty override must not read it
        (data_copy / "spine.json").write_text("not json")
        monkeypatch.chdir(data_copy)
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path="")
        assert (info.value.path, info.value.detail) == ("", "the override is not a directory")
        # an empty environment variable names no override
        monkeypatch.setenv("ANOSURF_CATALOG", "")
        assert len(load_catalog()) == 38

    @pytest.mark.parametrize("key", ["vertical_annuli", "exceptional"])
    def test_a_deleted_piece_key_is_refused(self, catalog, key):
        doc = catalog.get("B6_I_g").to_json()
        doc["complement"][0][key] = 1 if key == "vertical_annuli" else True
        with pytest.raises(ValueError, match=f"complement/0/{key}"):
            CatalogEntry.from_json(doc)
        with pytest.raises(TypeError, match=key):
            ComplementComponent.from_json(doc["complement"][0])

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

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("relpath,text,key", [
        ("catalog/entries/B6.json", '"summary": ', "summary"),
        ("tracks/Q4.json", '"kind": ', "kind"),
    ], ids=["top-level", "nested"])
    def test_a_key_repeated_in_one_object_is_refused(self, data_copy, relpath, text, key,
                                                     verify):
        # written as text, since a parsed document holds each key once
        path = data_copy / relpath
        assert path.read_text().count(text) == 1
        path.write_text(path.read_text().replace(text, f'{text}"other", {text}'))
        restamp_manifest(data_copy)
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy), verify=verify)
        assert (info.value.path, info.value.detail) == (
            relpath, f"unusable file (ValueError: the key {key!r} is repeated in one object)")

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

    @pytest.mark.parametrize("verify", [True, False])
    def test_a_listed_path_nothing_is_built_from_is_refused_unread(self, data_copy,
                                                                    monkeypatch, verify):
        # a valid file and a missing one, both listed with a checksum
        shutil.copy(data_copy / "spine.json", data_copy / "spare.json")
        manifest_path = data_copy / "catalog" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"].update({"spare.json": manifest["files"]["spine.json"],
                                  "tracks/Q12.json": "0" * 64})
        manifest_path.write_text(json.dumps(manifest))
        reads = collections.Counter()
        real = _resources._read_bounded

        def counting(path, relpath):
            reads[relpath] += 1
            return real(path, relpath)

        monkeypatch.setattr(_resources, "_read_bounded", counting)
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy), verify=verify)
        assert (info.value.path, info.value.detail) == (
            "spare.json", "the manifest lists this file, but nothing is built from it")
        expected = set(manifest["files"]) - {"spare.json", "tracks/Q12.json"}
        assert reads == dict.fromkeys(expected | {"catalog/manifest.json"}, 1)

    def test_a_file_of_exactly_the_cap_is_read_and_one_byte_more_is_not(self, tmp_path):
        # sparse files, whose bytes are a hole that takes no disk space
        path = tmp_path / "data.json"
        path.touch()
        os.truncate(path, _resources.DATA_FILE_CAP)
        assert _resources._read_bounded(path, "data.json") == bytes(_resources.DATA_FILE_CAP)
        os.truncate(path, _resources.DATA_FILE_CAP + 1)
        with pytest.raises(CatalogIntegrityError) as info:
            _resources._read_bounded(path, "data.json")
        assert (info.value.path, info.value.detail) == (
            "data.json", f"unusable file (over {_resources.DATA_FILE_CAP} bytes)")

    def test_a_file_that_grows_past_the_cap_after_its_size_check_is_refused(
            self, data_copy, monkeypatch):
        # a sparse file one byte over the cap, whose fstat reports a size
        # under it, as if the file grew between the size check and the read
        os.truncate(data_copy / "tracks" / "Q1.json", _resources.DATA_FILE_CAP + 1)
        real = os.fstat

        def shrunk(fd):
            info = real(fd)
            return os.stat_result((*info[:6], min(info.st_size, _resources.DATA_FILE_CAP),
                                   *info[7:10]))

        monkeypatch.setattr(_resources.os, "fstat", shrunk)
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy))
        assert (info.value.path, info.value.detail) == (
            "tracks/Q1.json", "unusable file (over 1048576 bytes)")

    @pytest.mark.parametrize("seen", [0, 1, 4999, 5000], ids=lambda n: f"seen-{n}")
    def test_a_file_that_grows_within_the_cap_after_its_size_check_is_read_whole(
            self, tmp_path, monkeypatch, seen):
        # fstat reports `seen` bytes of a 5,001-byte file, as if the file
        # grew between the size check and the read
        path = tmp_path / "data.json"
        data = b"[" + b"0," * 2499 + b"0]"
        path.write_bytes(data)
        real = os.fstat

        def shrunk(fd):
            return os.stat_result((*real(fd)[:6], seen, *real(fd)[7:10]))

        monkeypatch.setattr(_resources.os, "fstat", shrunk)
        assert _resources._read_bounded(path, "data.json") == data

    def test_a_manifest_that_lists_itself_is_refused(self, data_copy):
        manifest_path = data_copy / "catalog" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["catalog/manifest.json"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy), verify=False)
        assert info.value.path == "catalog/manifest.json"

    def test_a_file_that_fails_to_build_is_named_before_an_extra_listed_path(self, data_copy):
        rewrite(data_copy, "tracks/Q11.json", _unknown_law)
        manifest_path = data_copy / "catalog" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["a.json"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy))
        assert info.value.path == "tracks/Q11.json"

    def test_sha256_of_hashes_the_resolved_copy(self, data_copy):
        (data_copy / "spine.json").write_text("{}")
        assert _resources.sha256_of("spine.json") == hashlib.sha256(
            (DATA_DIR / "spine.json").read_bytes()).hexdigest()
        assert _resources.sha256_of("spine.json", override=data_copy) == hashlib.sha256(
            b"{}").hexdigest()

    def test_sha256_of_refuses_a_fifo_at_once(self, data_copy):
        # in a child with a timeout, since an unbounded open of a FIFO
        # waits for a writer forever
        os.mkfifo(data_copy / "fifo.json")
        code = ("import sys, time\n"
                "from anosurf import _resources\n"
                "from anosurf.errors import CatalogIntegrityError\n"
                "started = time.perf_counter()\n"
                "try:\n"
                "    _resources.sha256_of('fifo.json', override=sys.argv[1])\n"
                "except CatalogIntegrityError as exc:\n"
                "    print(exc, time.perf_counter() - started < 1)\n")
        done = subprocess.run([sys.executable, "-c", code, str(data_copy)],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=10)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "catalog at fifo.json: unusable file (not a regular file) True\n"

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


# the schema of each file the loader builds, with the count of such files
WALKED = {"manifest": 1, "entry": 38, "spine": 1, "qcomplexes": 1, "track": 11}


def _count_walks(monkeypatch) -> collections.Counter:
    """Count the schema walks of each schema from here on."""
    from anosurf import _schema

    walks = collections.Counter()
    real = _schema.validate

    def counting(doc, schema):
        walks[schema] += 1
        return real(doc, schema)

    monkeypatch.setattr(_schema, "validate", counting)
    return walks


class TestShippedManifest:
    """A verified load under the shipped manifest skips the schema walk;
    every other load walks each file."""

    def test_the_trusted_digest_is_the_shipped_manifests(self):
        have = hashlib.sha256((DATA_DIR / "catalog" / "manifest.json").read_bytes()).hexdigest()
        assert have == _resources.SHIPPED_MANIFEST_SHA256, (
            f"the shipped manifest has changed; set SHIPPED_MANIFEST_SHA256 in "
            f"src/anosurf/_resources.py to {have!r}")

    def test_a_shipped_load_walks_no_schema(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        load_catalog()
        assert walks == {}

    def test_the_shipped_bytes_in_an_override_walk_no_schema(self, data_copy, monkeypatch):
        walks = _count_walks(monkeypatch)
        assert load_catalog(path=str(data_copy)) == load_catalog()
        assert walks == {}

    def test_an_unverified_load_walks_every_file(self, monkeypatch):
        walks = _count_walks(monkeypatch)
        assert load_catalog(verify=False) == load_catalog()
        assert walks == WALKED

    def test_a_restamped_manifest_walks_every_file(self, data_copy, monkeypatch):
        restamp_manifest(data_copy)
        walks = _count_walks(monkeypatch)
        assert load_catalog(path=str(data_copy)) == load_catalog()
        assert walks == WALKED

    def test_an_unverified_load_refuses_a_schema_fault_under_the_shipped_manifest(
            self, data_copy):
        relpath, edit, message = SCHEMA_FAULT
        doc = json.loads((data_copy / relpath).read_text())
        edit(doc)
        (data_copy / relpath).write_text(json.dumps(doc))
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy), verify=False)
        assert str(info.value) == message

    def test_a_shipped_load_that_raises_leaves_the_next_load_walking(
            self, data_copy, monkeypatch):
        # the shipped manifest over a last track that fails its checksum
        shipped_track = (data_copy / "tracks" / "Q11.json").read_bytes()
        (data_copy / "tracks" / "Q11.json").write_bytes(shipped_track + b" ")
        walks = _count_walks(monkeypatch)
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy))
        assert info.value.path == "tracks/Q11.json" and walks == {}
        (data_copy / "tracks" / "Q11.json").write_bytes(shipped_track)
        relpath, edit, message = SCHEMA_FAULT
        rewrite(data_copy, relpath, edit)
        with pytest.raises(CatalogIntegrityError) as info:
            load_catalog(path=str(data_copy))
        assert str(info.value) == message and walks["entry"] > 0


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
        # the piece ships its meridian hits, and the TypeI chain concludes
        # from them that it is exceptional
        entry = catalog.get("B5")
        assert entry.exclusion_class == "TypeI"
        assert not hasattr(complement_components(entry, HALF)[0], "exceptional")
        step = exclusion_trace(entry, HALF).steps[1]
        assert (step.rule, step.facts) == ("type-i/exceptional-core", {"exceptional": True})

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

    def test_a_missing_certificate_is_a_problem(self, catalog):
        # B6's chain meets it at denominator two
        entries = dict(catalog.entries)
        entries["B6"] = replace(catalog.get("B6"), orientation_graph=None)
        report = check_catalog(replace(catalog, entries=entries))
        assert report.problems == [
            "B6: denominator two needs a transverse orientability certificate "
            "and this entry carries none"]

    def test_sink_disk_is_a_problem(self, catalog):
        entry = catalog.get("B1")
        sectors = tuple(entry.disk_sectors) + (
            {"id": "Dsink", "boundary": [{"curve": "c", "direction": "in"}]},)
        bad = replace(entry, disk_sectors=sectors)
        entries = dict(catalog.entries)
        entries["B1"] = bad
        report = check_catalog(replace(catalog, entries=entries))
        assert any("Dsink" in p for p in report.problems)
