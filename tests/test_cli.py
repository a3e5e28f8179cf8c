import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosurf import errors
from anosurf.cli import MAX_SWEEP_HEIGHT, main
from anosurf.traintrack import MAX_SURJECTIVE_HEIGHT
import catalogfuzz
from conftest import (
    ALL_POSITIVE_AS_Q6,
    BAD_COMPLEXES,
    BAD_ENTRY_RECORDS,
    BAD_LAWS,
    BAD_MANIFESTS,
    DATA_DIR,
    q2_as_q1,
    record_edit,
    restamp_manifest,
    rewrite,
)


# every command that takes --catalog, and paths it must refuse
CATALOG_COMMANDS = {"classify": ["classify", "7/2"], "sweep": ["sweep"], "track": ["track", "Q1"],
                    "catalog-list": ["catalog", "list"], "catalog-show": ["catalog", "show", "B6"],
                    "catalog-check": ["catalog", "check"]}
BAD_CATALOG_PATHS = {DATA_DIR / "no-such-directory": "missing",
                     DATA_DIR / "catalog" / "manifest.json": "file"}


# the CLI exit status of every error class in anosurf.errors
EXIT_CODES = {
    "AnosurfError": 5,
    "SlopeFormatError": 3,
    "UnsupportedSlopeError": 3,
    "SwitchSystemError": 5,
    "MonogonError": 5,
    "SpineCaseError": 5,
    "UnsupportedComplexError": 5,
    "ComplementShapeError": 5,
    "CatalogIntegrityError": 5,
    "CatalogKeyError": 5,
    "SlopeLawError": 4,
    "ClassificationGapError": 4,
}


def _meridian_hits(entry, value):
    return (f"catalog/entries/{entry}.json",
            record_edit("complement", 0, "meridian_hits", value=value))


_Q4_NU_BOOL = ("tracks/Q4.json", record_edit("designated", "nu", 0, value=False))

# edits of a restamped catalog, most of one field: the command, each edited
# file with its edit, and the exit code the command must give
RESTAMPED_FAULTS = {
    "type-i-meridian-null": (["classify", "7/2"], _meridian_hits("B6_I_g", None), 5),
    "type-i-meridian-pair": (["classify", "7/2"], _meridian_hits("B6_I_g", [0, 0]), 5),
    "split-meridian-pair": (["classify", "7/2"], _meridian_hits("B7_II_fg", [0, 0]), 5),
    "designated-bool-check": (["catalog", "check", "--laws", "--law-bound", "4"], _Q4_NU_BOOL, 5),
    "designated-bool-check-no-laws": (["catalog", "check"], _Q4_NU_BOOL, 5),
    "designated-bool-track": (["track", "Q4", "--bound", "4"], _Q4_NU_BOOL, 5),
    "switch-id-bool": (["track", "Q11", "--bound", "4"],
                       ("tracks/Q11.json", record_edit("track", "switches", 0, "id", value=True)),
                       5),
    "connector-positions-text": (["classify", "7/2"],
                                 ("spine.json",
                                  record_edit("connectors", 0, "positions", value="4")),
                                 5),
    "at-least-meets-infinity": (["classify", "7/2"],
                                ("catalog/entries/B5.json",
                                 record_edit("admissible", "count", value=1)),
                                5),
    **{name: (["track", family, "--bound", "4"],
              (f"tracks/{family}.json", record_edit("law", value=law)), 5)
       for name, (family, law) in BAD_LAWS.items()},
    **{f"complexes-{name}": (["catalog", "check"], ("qcomplexes.json", edit), 5)
       for name, edit in BAD_COMPLEXES.items()},
    "track-id-of-another-family": (["track", "Q4", "--bound", "4"],
                                   ("tracks/Q4.json", record_edit("id", value="Q5")), 5),
    "complexes-shared": (["catalog", "check"], ("qcomplexes.json", q2_as_q1), 5),
    "entry-id-int": (["catalog", "list"],
                     ("catalog/entries/B6_I_h.json", record_edit("id", value=7)), 5),
    "entry-id-list": (["classify", "7/2"],
                      ("catalog/entries/B1.json", record_edit("id", value=["x"])), 5),
    # records of another shape than their schema's that used to load, some
    # through a default, and exit 4 or 0
    "vacant-annulus-null": (["catalog", "check"],
                            ("catalog/entries/B7_I_g.json",
                             record_edit("vacant_annulus", value=None)), 5),
    "complement-text": (["classify", "7/2"],
                        ("catalog/entries/R7.json", record_edit("complement", value="")), 5),
    "split-curves-three": (["catalog", "check"],
                           ("catalog/entries/B7_II_fg.json",
                            record_edit("split_curves", value=["f", "g", "h"])), 5),
    "genus-text": (["catalog", "check"],
                   ("catalog/entries/B2.json", record_edit("complement", 0, "genus", value="inf")),
                   5),
    "branch-class-dropped": (["catalog", "check"],
                             ("tracks/Q2.json",
                              record_edit("track", "branches", 0, "class", drop=True)), 5),
    "noncompact-dropped": (["catalog", "check"],
                           ("tracks/Q2.json", record_edit("noncompact", drop=True)), 5),
    # a track whose projection does not lift its family's complex; each loaded
    "projection-connector-outside-complex": (
        ["classify", "7/2"],
        ("tracks/Q2.json", record_edit("projection", 0, "connector", value="t6")), 5),
    "projection-copy-missing": (["classify", "7/2"],
                                ("tracks/Q2.json", record_edit("projection", 3, "copy", value=3)),
                                5),
    "projection-arc-duplicated": (
        ["classify", "7/2"],
        ("tracks/Q1.json", record_edit("projection", 0, "arcs", value=["u.A1", "u.A1"])), 5),
    # facts that take an enumeration or a search, which `catalog check` makes
    "noncompact-not-dead": (["catalog", "check"],
                            ("tracks/Q2.json", record_edit("noncompact", value=["pos.A1"])), 4),
    "complex-adjacent-shorts": (["catalog", "check"], *ALL_POSITIVE_AS_Q6, 4),
    # a premise that a chain cites and its entry lacks: the chain refuses
    # it, and `catalog check` runs each entry's chain once; each exited 0
    "vacant-annulus-dropped": (["classify", "7/2"],
                               ("catalog/entries/B7_I_g.json",
                                record_edit("vacant_annulus", drop=True)), 4),
    "split-curves-dropped": (["classify", "7/2"],
                             ("catalog/entries/B7_II_fg.json",
                              record_edit("split_curves", drop=True)), 4),
    "type-i-meridian-three-check": (["catalog", "check"], _meridian_hits("B5", 3), 4),
}


MANIFEST = "catalog/manifest.json"


def _manifest_edit(make):
    """Replace the manifest by make(manifest), leaving its checksums as they are."""
    def apply(root):
        path = root / MANIFEST
        path.write_text(json.dumps(make(json.loads(path.read_text()))))
    return apply


def _unlist_and_edit_q4(root):
    _manifest_edit(lambda doc: {**doc, "files": {
        relpath: sha for relpath, sha in doc["files"].items() if relpath != "tracks/Q4.json"}})(root)
    rewrite(root, "tracks/Q4.json", record_edit("law", value={"kind": "ONLY_FOUR"}))


def _list_directory_entry(root):
    """List a directory, named as the manifest schema names entry files, as the first entry."""
    (root / "catalog" / "entries" / "dir.json").mkdir()
    _manifest_edit(lambda doc: {
        **doc, "files": {**doc["files"], "catalog/entries/dir.json": "0" * 64},
        "entry_files": ["catalog/entries/dir.json", *doc["entry_files"][1:]]})(root)


# faults of the manifest itself, which no restamp can fix, and of a file it
# does not list: the fault and the file that `catalog check` must name
MANIFEST_FAULTS = {
    **{name: (_manifest_edit(make), MANIFEST) for name, make in BAD_MANIFESTS.items()},
    "manifest-not-json": (lambda root: (root / MANIFEST).write_text("not json"), MANIFEST),
    "listed-file-missing": (_manifest_edit(lambda doc: {
        **doc, "files": {**doc["files"], "tracks/Q12.json": "0" * 64}}), "tracks/Q12.json"),
    "entry-path-directory": (_list_directory_entry, "catalog/entries/dir.json"),
    "entry-path-outside-entries": (_manifest_edit(lambda doc: {
        **doc, "files": {**doc["files"], "catalog/entries": "0" * 64},
        "entry_files": ["catalog/entries", *doc["entry_files"][1:]]}), MANIFEST),
    "unlisted-file": (_unlist_and_edit_q4, "tracks/Q4.json"),
}


def test_every_error_class_has_its_exit_code():
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.AnosurfError)}
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES


class TestExitCodes:
    def test_classify_ok(self, capsys):
        assert main(["classify", "7/2"]) == 0
        out = capsys.readouterr().out
        assert "NoAnosov" in out and "excluded candidates: 33" in out

    def test_trivial_filling(self, capsys):
        assert main(["classify", "5/0"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_slope(self, capsys):
        assert main(["classify", "abc"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["defenestrate"]) == 2

    def test_unknown_entry(self, capsys):
        assert main(["catalog", "show", "B99"]) == 5
        assert capsys.readouterr().err == "error: no catalog entry or family named 'B99'\n"

    def test_bad_track_family(self, capsys):
        assert main(["track", "Q99"]) == 2

    @pytest.mark.parametrize("argv,code", [
        (["classify", "\u0969/2"], 3),
        (["classify", "9" * 5000], 3),
        (["track", "Q2", "--bound", "-1"], 2),
        (["catalog", "check", "--law-bound", "-1"], 2),
        (["sweep", "--max", "-3"], 2),
        # rejected by click before any enumeration runs
        (["track", "Q1", "--bound", "51"], 2),
        (["catalog", "check", "--law-bound", "51"], 2),
        (["sweep", "--max", str(MAX_SWEEP_HEIGHT + 1)], 2),
        # a --catalog that is missing or a file never falls back to the packaged data
        *[(argv + ["--catalog", str(path)], 2)
          for argv in CATALOG_COMMANDS.values() for path in BAD_CATALOG_PATHS],
    ], ids=["non-ascii-digit", "5000-digits", "track-bound", "law-bound", "sweep-max",
            "track-bound-51", "law-bound-51", f"sweep-max-{MAX_SWEEP_HEIGHT + 1}",
            *[f"{name}-catalog-{kind}"
              for name in CATALOG_COMMANDS for kind in BAD_CATALOG_PATHS.values()]])
    def test_bad_input_exit_codes(self, argv, code, capsys):
        assert main(argv) == code

    # slope-shaped text, with any Unicode digits the regex engine picks
    @settings(max_examples=50, deadline=None)
    @given(st.one_of(st.text(), st.from_regex(r"-?\d{1,30}(/-?\d{1,30})?", fullmatch=True)))
    def test_classify_text_exits_with_a_documented_code(self, text):
        assert main(["classify", text]) in (0, 2, 3)


class TestClassifyOutput:
    def test_json_digest(self, capsys):
        assert main(["classify", "7/2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "NoAnosov"
        assert doc["taut_foliation"] is True
        assert len(doc["exclusions"]) == 33
        assert all("rules" in t for t in doc["exclusions"])

    def test_json_full_traces(self, capsys):
        assert main(["classify", "-1/2", "--format", "json",
                     "--traces", "full"]) == 0
        doc = json.loads(capsys.readouterr().out)
        steps = doc["exclusions"][0]["steps"]
        assert {"rule", "anchor", "facts"} <= set(steps[0])

    def test_json_integer(self, capsys):
        assert main(["classify", "0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "SuspensionAnosov"
        assert len(doc["argument"]) == 1

    def test_table_integer(self, capsys):
        assert main(["classify", "-3"]) == 0
        out = capsys.readouterr().out
        assert "UniqueAnosov" in out
        assert "hyperbolic filling: no" in out


class TestSweep:
    def test_small_sweep_counts(self, capsys):
        assert main(["sweep", "--max", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"NoAnosov": 8, "SuspensionAnosov": 1,
                                 "UniqueAnosov": 6}
        assert doc["slopes"]["SuspensionAnosov"] == ["0"]
        assert doc["slopes"]["UniqueAnosov"] == ["-3", "-2", "-1", "1", "2", "3"]


class TestTrack:
    def test_json_report(self, capsys):
        assert main(["track", "Q6", "--bound", "4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["realized"] == ["inf"]

    def test_table_report(self, capsys):
        assert main(["track", "Q2", "--bound", "6"]) == 0
        out = capsys.readouterr().out
        assert "law holds" in out

    def test_underpowered_bound_is_a_violation(self, capsys):
        # the surjectivity law is stated at height six; a bound below
        # that cannot witness it and the check must say so, not pass
        assert main(["track", "Q2", "--bound", "5"]) == 4
        assert "missing slopes" in capsys.readouterr().out


class TestCatalogCommands:
    def test_list_json(self, capsys):
        assert main(["catalog", "list", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 38
        assert {"id", "family", "exclusion_class", "admissible"} <= set(rows[0])

    def test_show(self, capsys):
        assert main(["catalog", "show", "B1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"] == "Q1" and "euler" in doc

    def test_check_reports_the_count_discrepancy(self, capsys):
        assert main(["catalog", "check"]) == 0
        out = capsys.readouterr().out
        assert "entries: 38" in out
        assert "warning:" in out and "39" in out
        assert "catalog ok" in out

    def test_check_json_with_laws(self, capsys):
        assert main(["catalog", "check", "--laws", "--law-bound", "6",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["warnings"]) == 1
        assert set(doc["laws"]) == {f"Q{i}" for i in range(1, 12)}
        assert all(v == [] for v in doc["laws"].values())


class TestTamperedCatalog:
    def test_semantic_tamper_exits_four(self, data_copy, capsys):
        rewrite(data_copy, "catalog/entries/B6.json", record_edit("orientable", value=False))

        assert main(["catalog", "check", "--catalog", str(data_copy)]) == 4
        captured = capsys.readouterr()
        assert "PROBLEM" in captured.out
        assert captured.err == "error: catalog check found 1 problem(s)\n"
        # the classifier refuses to paper over the broken certificate
        assert main(["classify", "7/2", "--catalog", str(data_copy)]) == 4

    def test_bitrot_exits_five(self, data_copy, capsys):
        entry_path = data_copy / "catalog" / "entries" / "B1.json"
        doc = json.loads(entry_path.read_text())
        doc["summary"] = "tampered"
        entry_path.write_text(json.dumps(doc))

        assert main(["catalog", "check", "--catalog", str(data_copy)]) == 5
        assert main(["classify", "7/2", "--catalog", str(data_copy)]) == 5
        assert "error:" in capsys.readouterr().err

    def test_law_check_uses_the_override_track(self, data_copy, capsys):
        rewrite(data_copy, "tracks/Q1.json", record_edit("law", value={"kind": "ONLY_FOUR"}))

        assert main(["catalog", "check", "--laws", "--catalog", str(data_copy)]) == 4
        assert "law Q1: violated" in capsys.readouterr().out

    def test_track_uses_the_override_track(self, data_copy, capsys):
        rewrite(data_copy, "tracks/Q1.json", record_edit("law", value={"kind": "ONLY_FOUR"}))

        assert main(["track", "Q1", "--catalog", str(data_copy)]) == 4
        assert "law ONLY_FOUR" in capsys.readouterr().out

    def test_unusable_track_exits_five(self, data_copy, capsys):
        (data_copy / "tracks" / "Q1.json").write_text(json.dumps({"id": "Q1"}))
        restamp_manifest(data_copy)

        assert main(["catalog", "check", "--laws", "--catalog", str(data_copy)]) == 5
        assert "tracks/Q1.json" in capsys.readouterr().err

    @pytest.mark.parametrize("height", ["6", 2.5, -3, True, MAX_SURJECTIVE_HEIGHT + 1],
                             ids=["text", "float", "negative", "bool", "above-ceiling"])
    def test_bad_surjective_height_exits_five(self, data_copy, height, capsys):
        rewrite(data_copy, "tracks/Q2.json", record_edit("law", "surjective_height", value=height))

        assert main(["catalog", "check", "--laws", "--law-bound", "2",
                     "--catalog", str(data_copy)]) == 5
        assert "tracks/Q2.json" in capsys.readouterr().err

    def test_infinite_bound_exits_five(self, data_copy, capsys):
        # a data fault, not a bad slope from the user (exit 3)
        rewrite(data_copy, "catalog/entries/B4.json",
                record_edit("admissible", "bound", value="inf"))

        assert main(["classify", "7/2", "--catalog", str(data_copy)]) == 5
        assert "catalog/entries/B4.json" in capsys.readouterr().err

    def test_parameter_of_another_kind_exits_five(self, data_copy, capsys):
        # B1 is Only 0; an extra bound used to replace its slope
        rewrite(data_copy, "catalog/entries/B1.json", record_edit("admissible", "bound", value="5"))

        assert main(["catalog", "show", "B1", "--catalog", str(data_copy)]) == 5
        captured = capsys.readouterr()
        assert "catalog/entries/B1.json" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["classify", "7/2"], ["catalog", "check"]],
                             ids=["classify", "check"])
    @pytest.mark.parametrize("name", BAD_ENTRY_RECORDS)
    def test_malformed_entry_record_exits_five(self, data_copy, name, command, capsys):
        entry, edit = BAD_ENTRY_RECORDS[name]
        rewrite(data_copy, f"catalog/entries/{entry}.json", edit)

        assert main([*command, "--catalog", str(data_copy)]) == 5
        assert f"catalog/entries/{entry}.json" in capsys.readouterr().err

    def test_fractional_branch_class_exits_five(self, data_copy, capsys):
        rewrite(data_copy, "tracks/Q1.json",
                record_edit("track", "branches", 0, "class", value=[1.5, 0]))

        assert main(["track", "Q1", "--catalog", str(data_copy)]) == 5
        assert "tracks/Q1.json" in capsys.readouterr().err

    def test_missing_environment_override_exits_five(self, data_copy, monkeypatch, capsys):
        missing = data_copy / "no-such-directory"
        monkeypatch.setenv("ANOSURF_CATALOG", str(missing))
        assert main(["classify", "7/2"]) == 5
        assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("name", RESTAMPED_FAULTS)
def test_restamped_fault_exits_with_its_code(data_copy, name, capsys):
    argv, *edits, code = RESTAMPED_FAULTS[name]
    for relpath, edit in edits:
        rewrite(data_copy, relpath, edit)
    # main returns instead of raising: no traceback reaches the terminal
    assert main([*argv, "--catalog", str(data_copy)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", MANIFEST_FAULTS)
def test_manifest_fault_exits_five(data_copy, name, capsys):
    fault, relpath = MANIFEST_FAULTS[name]
    fault(data_copy)
    assert main(["catalog", "check", "--catalog", str(data_copy)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: catalog at {relpath}: ") and err.count("\n") == 1


# The seeds of the restamp fuzzer that tier-1 runs, about 3 s; run
# `python tests/catalogfuzz.py FIRST COUNT` for wider searches.
FUZZ_SEEDS = range(60)


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "data"
    shutil.copytree(DATA_DIR, root)
    return root


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_a_restamped_edit_exits_with_a_documented_code(fuzz_root, seed):
    case = catalogfuzz.make_case(fuzz_root, seed)
    runs = catalogfuzz.run_case(fuzz_root, case)
    for argv, code in runs:
        assert code in catalogfuzz.EXIT_CODES, (case.edit, argv, code)
    # an edit that jsonschema refuses is unusable data for every command
    if not catalogfuzz.oracle(catalogfuzz.schema_of(case.relpath)).is_valid(case.doc):
        assert all(code == 5 for _, code in runs), (case.edit, runs)
    # a catalog that `catalog check` passes classifies
    assert not catalogfuzz.checked_but_unclassified(runs), (case.edit, runs)
