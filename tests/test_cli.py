import hashlib
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosurf.cli import MAX_SWEEP_HEIGHT, main
from anosurf.traintrack import MAX_SURJECTIVE_HEIGHT
from conftest import BAD_ENTRY_RECORDS, DATA_DIR


# every command that takes --catalog, and paths it must refuse
CATALOG_COMMANDS = {"classify": ["classify", "7/2"], "sweep": ["sweep"], "track": ["track", "Q1"],
                    "catalog-list": ["catalog", "list"], "catalog-show": ["catalog", "show", "B6"],
                    "catalog-check": ["catalog", "check"]}
BAD_CATALOG_PATHS = {DATA_DIR / "no-such-directory": "missing",
                     DATA_DIR / "catalog" / "manifest.json": "file"}


def _restamp_manifest(root) -> None:
    manifest_path = root / "catalog" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for rel in manifest["files"]:
        manifest["files"][rel] = hashlib.sha256(
            (root / rel).read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


@pytest.fixture
def data_copy(tmp_path):
    root = tmp_path / "data"
    shutil.copytree(DATA_DIR, root)
    return root


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
        entry_path = data_copy / "catalog" / "entries" / "B6.json"
        doc = json.loads(entry_path.read_text())
        doc["orientable"] = False
        entry_path.write_text(json.dumps(doc))
        _restamp_manifest(data_copy)

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
        track_path = data_copy / "tracks" / "Q1.json"
        doc = json.loads(track_path.read_text())
        doc["law"] = {"kind": "ONLY_FOUR"}
        track_path.write_text(json.dumps(doc))
        _restamp_manifest(data_copy)

        assert main(["catalog", "check", "--laws", "--catalog", str(data_copy)]) == 4
        assert "law Q1: violated" in capsys.readouterr().out

    def test_track_uses_the_override_track(self, data_copy, capsys):
        track_path = data_copy / "tracks" / "Q1.json"
        doc = json.loads(track_path.read_text())
        doc["law"] = {"kind": "ONLY_FOUR"}
        track_path.write_text(json.dumps(doc))
        _restamp_manifest(data_copy)

        assert main(["track", "Q1", "--catalog", str(data_copy)]) == 4
        assert "law ONLY_FOUR" in capsys.readouterr().out

    def test_unusable_track_exits_five(self, data_copy, capsys):
        (data_copy / "tracks" / "Q1.json").write_text(json.dumps({"id": "Q1"}))
        _restamp_manifest(data_copy)

        assert main(["catalog", "check", "--laws", "--catalog", str(data_copy)]) == 5
        assert "tracks/Q1.json" in capsys.readouterr().err

    @pytest.mark.parametrize("height", ["6", 2.5, -3, True, MAX_SURJECTIVE_HEIGHT + 1],
                             ids=["text", "float", "negative", "bool", "above-ceiling"])
    def test_bad_surjective_height_exits_five(self, data_copy, height, capsys):
        track_path = data_copy / "tracks" / "Q2.json"
        doc = json.loads(track_path.read_text())
        doc["law"]["surjective_height"] = height
        track_path.write_text(json.dumps(doc))
        _restamp_manifest(data_copy)

        assert main(["catalog", "check", "--laws", "--law-bound", "2",
                     "--catalog", str(data_copy)]) == 5
        assert "tracks/Q2.json" in capsys.readouterr().err

    def test_infinite_bound_exits_five(self, data_copy, capsys):
        # a data fault, not a bad slope from the user (exit 3)
        entry_path = data_copy / "catalog" / "entries" / "B4.json"
        doc = json.loads(entry_path.read_text())
        doc["admissible"]["bound"] = "inf"
        entry_path.write_text(json.dumps(doc))
        _restamp_manifest(data_copy)

        assert main(["classify", "7/2", "--catalog", str(data_copy)]) == 5
        assert "catalog/entries/B4.json" in capsys.readouterr().err

    def test_parameter_of_another_kind_exits_five(self, data_copy, capsys):
        # B1 is Only 0; an extra bound used to replace its slope
        entry_path = data_copy / "catalog" / "entries" / "B1.json"
        doc = json.loads(entry_path.read_text())
        doc["admissible"]["bound"] = "5"
        entry_path.write_text(json.dumps(doc))
        _restamp_manifest(data_copy)

        assert main(["catalog", "show", "B1", "--catalog", str(data_copy)]) == 5
        captured = capsys.readouterr()
        assert "catalog/entries/B1.json" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["classify", "7/2"], ["catalog", "check"]],
                             ids=["classify", "check"])
    @pytest.mark.parametrize("name", ["euler-edge-list", "surface-cw-list", "complement-number",
                                      "graph-without-edges", "arc-without-direction"])
    def test_malformed_entry_record_exits_five(self, data_copy, name, command, capsys):
        entry, edit = BAD_ENTRY_RECORDS[name]
        entry_path = data_copy / "catalog" / "entries" / f"{entry}.json"
        doc = json.loads(entry_path.read_text())
        edit(doc)
        entry_path.write_text(json.dumps(doc))
        _restamp_manifest(data_copy)

        assert main([*command, "--catalog", str(data_copy)]) == 5
        assert f"catalog/entries/{entry}.json" in capsys.readouterr().err

    def test_fractional_branch_class_exits_five(self, data_copy, capsys):
        track_path = data_copy / "tracks" / "Q1.json"
        doc = json.loads(track_path.read_text())
        doc["track"]["branches"][0]["class"] = [1.5, 0]
        track_path.write_text(json.dumps(doc))
        _restamp_manifest(data_copy)

        assert main(["track", "Q1", "--catalog", str(data_copy)]) == 5
        assert "tracks/Q1.json" in capsys.readouterr().err

    def test_missing_environment_override_exits_five(self, data_copy, monkeypatch, capsys):
        missing = data_copy / "no-such-directory"
        monkeypatch.setenv("ANOSURF_CATALOG", str(missing))
        assert main(["classify", "7/2"]) == 5
        assert str(missing) in capsys.readouterr().err
