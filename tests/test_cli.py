import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosurf import cli as cli_module, errors
from anosurf._resources import DATA_FILE_CAP
from anosurf.classifier import ANCHORS, TRACE_FORMATS, classify
from anosurf.cli import MAX_SWEEP_HEIGHT, main
from anosurf.slopes import Slope, parse_slope
from anosurf.traintrack import MAX_SURJECTIVE_HEIGHT, TrainTrack
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
    replace,
    restamp_manifest,
    rewrite,
)
from trackgen import hung_loops_doc


# every command that takes --catalog, and paths it must refuse
CATALOG_COMMANDS = {"classify": ["classify", "7/2"], "sweep": ["sweep"], "track": ["track", "Q1"],
                    "catalog-list": ["catalog", "list"], "catalog-show": ["catalog", "show", "B6"],
                    "catalog-check": ["catalog", "check"]}
BAD_CATALOG_PATHS = {DATA_DIR / "no-such-directory": "missing",
                     DATA_DIR / "catalog" / "manifest.json": "file"}
# one usage error of each command
USAGE_ERRORS = {"classify": ["classify"], "sweep": ["sweep", "--max", "x"], "track": ["track"],
                "catalog-list": ["catalog", "list", "--format", "xml"],
                "catalog-show": ["catalog", "show"],
                "catalog-check": ["catalog", "check", "--laws", "--law-bound", "51"]}


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


def _misspell_mu(doc):
    doc["designated"]["mu_"] = doc["designated"].pop("mu")


# Q4's mu role under a name its formula does not read, which would sum to 0
_Q4_MU_MISSPELLED = ("tracks/Q4.json", _misspell_mu)


def _q1_class(q):
    """Q1's branch u.A1 with the class (1, q)."""
    return ("tracks/Q1.json", record_edit("track", "branches", 0, "class", value=[1, q]))


_Q1_MULTIPLICITIES = ("qcomplexes.json",
                      record_edit("Q1", "connectors",
                                  value={"ly3": 10**30, "s1": 10**30, "s4": 10**30}))


def _hung_loops_and_circle(loops):
    """hung_loops_doc(loops) plus a circle of two branches c1, c2: its
    branch ids, 3 * loops in all, and its switches."""
    hung = hung_loops_doc(loops)
    ends = [("c1", "c2"), ("c2", "c1")]
    switches = hung["switches"] + [
        {"id": f"c{i}", "one_fold": [{"branch": a, "end": "head"}],
         "two_fold": [{"branch": b, "end": "tail"}]} for i, (a, b) in enumerate(ends)]
    return [b["id"] for b in hung["branches"]] + ["c1", "c2"], switches


def _q7_hung_loops(doc):
    """Rewire Q7's 18 branches: 16 of them as hung_loops_doc(6), one
    component with 6 free weights, and the other two as a circle. That
    component has 7^6 solutions at bound 6, under COMPONENT_SOLUTION_CAP,
    and (bound + 1)^6 over it from bound 10 on."""
    names, switches = _hung_loops_and_circle(6)
    rename = dict(zip(names, (b["id"] for b in doc["track"]["branches"])))
    doc["track"]["switches"] = [
        {"id": sw["id"], **{side: [{**end, "branch": rename[end["branch"]]} for end in sw[side]]
                            for side in ("one_fold", "two_fold")}} for sw in switches]


def _q2_hung_loops(loops):
    """Q2 restamped consistently at size 3 * loops (loops even): its complex
    with multiplicity loops / 2 on each connector, and its track
    hung_loops_doc(loops) with zero classes plus a circle, two branches
    per connector copy and its roles on branches of the new track."""
    def track(doc):
        names, switches = _hung_loops_and_circle(loops)
        doc["track"] = {"branches": [{"id": b, "class": [0, 0], "loop": False} for b in names],
                        "switches": switches}
        doc["projection"] = [{"connector": ("s1", "s4", "ly3")[k % 3], "copy": k // 3 + 1,
                              "arcs": names[2 * k:2 * k + 2]} for k in range(len(names) // 2)]
        doc["designated"] = {"omega": ["c1"], "mu": ["x1"], "nu": ["x2"]}
    m = loops // 2
    multiplicities = record_edit("Q2", "connectors", value={"ly3": m, "s1": m, "s4": m})
    return ("qcomplexes.json", multiplicities), ("tracks/Q2.json", track)


_Q7_HUNG_LOOPS = ("tracks/Q7.json", _q7_hung_loops)
# a track too large for a solve, 3,300 branches, whose walk recursed once
# per free weight; and one of 60 branches whose runs at bound 1 would store
# 2^19 tuples of 58 weights
_Q2_DEEP, _Q2_WIDE = _q2_hung_loops(1100), _q2_hung_loops(20)

# restamped edits that make a number of the data huge; each must be
# refused in well under a second, without a traceback or a large allocation
SIZE_FAULTS = {
    "branch-class-10e30-track": (["track", "Q1", "--bound", "2"], _q1_class(10**30), 5),
    "branch-class-10e30-laws": (["catalog", "check", "--laws"], _q1_class(10**30), 5),
    "branch-class-10e30-check": (["catalog", "check"], _q1_class(10**30), 5),
    "branch-class-10e6-track": (["track", "Q1", "--bound", "20"], _q1_class(10**6), 5),
    "multiplicities-10e30-classify": (["classify", "7/2"], _Q1_MULTIPLICITIES, 5),
    "multiplicities-10e30-list": (["catalog", "list"], _Q1_MULTIPLICITIES, 5),
    # tracks that the solve refuses by their size; the first two gave a
    # RecursionError traceback, the last took 2.2 s and a 308 MB peak RSS
    # to exit 5
    "branch-cap-track": (["track", "Q2", "--bound", "0"], *_Q2_DEEP, 5),
    "branch-cap-check": (["catalog", "check"], *_Q2_DEEP, 5),
    "weight-cap-track": (["track", "Q2", "--bound", "1"], *_Q2_WIDE, 5),
}

_SECTOR_PAIRS_DROPPED = ("catalog/entries/B6.json", record_edit("sector_pairs", drop=True))


def _lx3_twice(doc):
    doc["connectors"].append({"id": "lx3", "hexagon": "X", "positions": [2, 3]})


_SPLIT_CURVES_REPEATED = ("catalog/entries/B6_II_gh.json",
                         record_edit("split_curves", value=["g", "g"]))


def _symmetry_twice(doc):
    doc["symmetries"].append(doc["symmetries"][-1])


# edits of a restamped catalog, most of one field: the command, each edited
# file with its edit, and the exit code the command must give
RESTAMPED_FAULTS = {
    "type-i-meridian-null": (["classify", "7/2"], _meridian_hits("B6_I_g", None), 5),
    "type-i-meridian-pair": (["classify", "7/2"], _meridian_hits("B6_I_g", [0, 0]), 5),
    "split-meridian-pair": (["classify", "7/2"], _meridian_hits("B7_II_fg", [0, 0]), 5),
    "designated-bool-check": (["catalog", "check", "--laws", "--law-bound", "4"], _Q4_NU_BOOL, 5),
    "designated-bool-check-no-laws": (["catalog", "check"], _Q4_NU_BOOL, 5),
    "designated-bool-track": (["track", "Q4", "--bound", "4"], _Q4_NU_BOOL, 5),
    "designated-role-misspelled-track": (["track", "Q4", "--bound", "4"], _Q4_MU_MISSPELLED, 5),
    "designated-role-misspelled-check": (["catalog", "check"], _Q4_MU_MISSPELLED, 5),
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
    # the spine keys connectors by id: a second lx3, short, replaced the long one
    "connector-listed-twice": (["catalog", "check"], ("spine.json", _lx3_twice), 5),
    "symmetry-listed-twice": (["catalog", "check"], ("spine.json", _symmetry_twice), 5),
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
    # the dead branches follow from the switch system, so a track file
    # that still lists them has a key its schema does not allow
    "noncompact-present": (["catalog", "check"],
                           ("tracks/Q2.json", record_edit("noncompact", value=[])), 5),
    "noncompact-present-classify": (["classify", "7/2"],
                                    ("tracks/Q2.json", record_edit("noncompact", value=[])), 5),
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
    # a fact that takes a search, which `catalog check` makes
    "complex-adjacent-shorts": (["catalog", "check"], *ALL_POSITIVE_AS_Q6, 4),
    # a premise that a chain cites and its entry lacks: the chain refuses
    # it, and `catalog check` runs each entry's chain once; each exited 0
    "vacant-annulus-dropped": (["classify", "7/2"],
                               ("catalog/entries/B7_I_g.json",
                                record_edit("vacant_annulus", drop=True)), 4),
    "split-curves-dropped": (["classify", "7/2"],
                             ("catalog/entries/B7_II_fg.json",
                              record_edit("split_curves", drop=True)), 4),
    "split-curves-repeated": (["classify", "7/2"], _SPLIT_CURVES_REPEATED, 4),
    "split-curves-repeated-check": (["catalog", "check"], _SPLIT_CURVES_REPEATED, 4),
    "type-i-meridian-three-check": (["catalog", "check"], _meridian_hits("B5", 3), 4),
    "sector-pairs-dropped": (["classify", "7/2"], _SECTOR_PAIRS_DROPPED, 4),
    "sector-pairs-dropped-check": (["catalog", "check"], _SECTOR_PAIRS_DROPPED, 4),
    **SIZE_FAULTS,
    # a class whose span stays under the cap breaks the law as before; its
    # span at the top law bound is over the cap, which `catalog check` refuses
    "branch-class-1000-track": (["track", "Q1", "--bound", "20"], _q1_class(1000), 4),
    "branch-class-1000-check": (["catalog", "check"], _q1_class(1000), 5),
    # a component within the solution cap up to bound 9 and over it from
    # bound 10 on, which `catalog check` walks at the top law bound
    "solution-cap-from-bound-10-track": (["track", "Q7", "--bound", "10"], _Q7_HUNG_LOOPS, 5),
    "solution-cap-from-bound-10-check": (["catalog", "check"], _Q7_HUNG_LOOPS, 5),
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


def _replace_by_fifo(path):
    path.unlink()
    os.mkfifo(path)


def _replace_by_dev_zero(path):
    path.unlink()
    path.symlink_to("/dev/zero")


def _grow_over_the_cap(path):
    # the new bytes are a hole, which takes no disk space
    os.truncate(path, DATA_FILE_CAP + 1)


# data files that are no small regular file, with their test ids: the file,
# what is put in its place, and why it is refused. A FIFO blocked the read
# forever, /dev/zero read until memory ran out, and a file over the cap was
# read whole.
UNREADABLE_FILES = {
    "fifo-manifest": (MANIFEST, _replace_by_fifo, "not a regular file"),
    "fifo-entry": ("catalog/entries/B6.json", _replace_by_fifo, "not a regular file"),
    "dev-zero-symlink": ("spine.json", _replace_by_dev_zero, "not a regular file"),
    "sparse-over-cap": ("tracks/Q1.json", _grow_over_the_cap, f"over {DATA_FILE_CAP} bytes"),
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

    def test_an_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted(path=None):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli_module, "load_catalog", interrupted)
        assert main(["catalog", "list"]) == 130
        assert capsys.readouterr().out == ""

    def test_unknown_command(self, capsys):
        assert main(["defenestrate"]) == 2

    def test_laws_has_no_negative_spelling(self, capsys):
        assert main(["catalog", "check", "--no-laws"]) == 2
        assert "unrecognized arguments: --no-laws" in capsys.readouterr().err

    def test_unknown_entry(self, capsys):
        assert main(["catalog", "show", "B99"]) == 5
        assert capsys.readouterr().err == "error: no catalog entry or family named 'B99'\n"

    def test_bad_track_family(self, capsys):
        assert main(["track", "Q99"]) == 2

    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
    def test_a_usage_error_prints_nothing_on_stdout(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: anosurf ")

    def test_help_exits_0(self, capsys):
        assert main(["classify", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: anosurf classify ") and captured.err == ""

    # a token such as -7/2 is not an option, wherever it stands
    @pytest.mark.parametrize("argv", [["classify", "-7/2"],
                                      ["classify", "-7/2", "--format", "json"],
                                      ["classify", "--format", "json", "-7/2"]],
                             ids=["table", "json-after", "json-before"])
    def test_a_negative_slope_needs_no_separator(self, argv, capsys):
        result = classify(Slope(-7, 2))
        assert main(argv) == 0
        out = capsys.readouterr().out
        if "json" in argv:
            assert out == json.dumps(result.to_json(traces="digest"), indent=2) + "\n"
        else:
            assert out.startswith(f"slope -7/2: {result.kind}\n")
            assert main(["classify", "--", "-7/2"]) == 0
            assert out == capsys.readouterr().out

    @pytest.mark.parametrize("argv,code", [
        (["classify", "\u0969/2"], 3),
        (["classify", "9" * 5000], 3),
        (["track", "Q2", "--bound", "-1"], 2),
        (["catalog", "check", "--law-bound", "-1"], 2),
        (["sweep", "--max", "-3"], 2),
        # rejected by the argument parser before any enumeration runs
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


    @pytest.mark.parametrize("text", ["3", "0"])
    def test_table_integer_with_full_traces(self, text, capsys):
        result = classify(parse_slope(text))
        assert main(["classify", text, "--traces", "full"]) == 0
        steps = "".join(f"    {step.rule}\n        {ANCHORS[step.rule]}\n"
                        for step in result.argument)
        assert capsys.readouterr().out == (
            f"slope {text}: {result.kind}\n  hyperbolic filling: no\n  taut foliation: yes\n"
            f"  argument:\n{steps}")

    def test_table_with_full_traces(self, capsys):
        result = classify(Slope(7, 2))
        assert main(["classify", "7/2", "--traces", "full"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == ["slope 7/2: NoAnosov", "  hyperbolic filling: yes",
                           "  taut foliation: yes", "  excluded candidates: 33"]
        expected = []
        for trace in result.traces:
            expected.append(f"    {trace.entry}: {' -> '.join(s.rule for s in trace.steps)}")
            expected.extend(f"        [{s.rule}] {ANCHORS[s.rule]}" for s in trace.steps)
        assert out[4:] == expected

    def test_the_trace_choices_are_the_classifiers_formats(self):
        classify_parser = cli_module._parser()._subparsers._group_actions[0].choices["classify"]
        traces = next(a for a in classify_parser._actions if a.dest == "traces")
        assert traces.choices is TRACE_FORMATS

    def test_table_without_traces(self, capsys):
        assert main(["classify", "7/2", "--traces", "none"]) == 0
        assert capsys.readouterr().out == ("slope 7/2: NoAnosov\n  hyperbolic filling: yes\n"
                                           "  taut foliation: yes\n  excluded candidates: 33\n")


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

    # the optional keys of each: a graph and sector pairs, a vacant
    # annulus, split curves, and notes in all three
    @pytest.mark.parametrize("entry", ["B6", "B5", "B7_II_fg"])
    def test_show_prints_the_entry_file(self, entry, capsys):
        assert main(["catalog", "show", entry]) == 0
        shown = json.loads(capsys.readouterr().out)
        stored = json.loads((DATA_DIR / "catalog" / "entries" / f"{entry}.json").read_text())
        assert shown == stored

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
        # a flip edge from a sector to itself: an odd cycle, so B6's graph
        # no longer certifies an orientable lamination
        loop = {"id": "k", "from": "sig1", "to": "sig1", "flip": True}
        rewrite(data_copy, "catalog/entries/B6.json",
                lambda doc: doc["orientation_graph"]["edges"].append(loop))

        assert main(["catalog", "check", "--catalog", str(data_copy)]) == 4
        captured = capsys.readouterr()
        assert "PROBLEM: B6: orientability certificate failed to verify" in captured.out
        assert captured.err == "error: catalog check found 1 problem(s)\n"
        # the classifier refuses to paper over the broken certificate
        assert main(["classify", "7/2", "--catalog", str(data_copy)]) == 4
        # a denominator three filling never consults it
        assert main(["classify", "7/3", "--catalog", str(data_copy)]) == 0

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


# the rows whose command checks a slope law and exits 5
LAW_CHECK_REFUSALS = [name for name, (argv, *_, code) in RESTAMPED_FAULTS.items()
                      if code == 5 and (argv[0] == "track"
                                        or argv[:3] == ["catalog", "check", "--laws"])]


@pytest.mark.parametrize("name", LAW_CHECK_REFUSALS)
def test_a_refused_law_check_fails_plain_catalog_check(data_copy, name):
    # a passing `catalog check` certifies the law checks at every bound
    # the CLI accepts
    argv, *edits, code = RESTAMPED_FAULTS[name]
    for relpath, edit in edits:
        rewrite(data_copy, relpath, edit)
    assert main(["catalog", "check", "--catalog", str(data_copy)]) != 0


def test_the_law_check_refusals_hold_the_class_span_rows():
    assert {"branch-class-10e30-track", "branch-class-10e30-laws",
            "branch-class-10e6-track"} <= set(LAW_CHECK_REFUSALS)


@pytest.mark.parametrize("name", SIZE_FAULTS)
def test_a_size_fault_is_refused_within_a_second(data_copy, name):
    argv, *edits, code = SIZE_FAULTS[name]
    for relpath, edit in edits:
        rewrite(data_copy, relpath, edit)
    started = time.perf_counter()
    assert main([*argv, "--catalog", str(data_copy)]) == code
    assert time.perf_counter() - started < 1


SRC = Path(cli_module.__file__).resolve().parents[1]
# the address space of a child CLI: many times what a run uses, so that an
# unbounded read fails the test and does not fill the machine's memory
CHILD_ADDRESS_SPACE = 1 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("override", ["option", "environment"])
@pytest.mark.parametrize("name", UNREADABLE_FILES)
def test_a_data_file_that_is_no_small_regular_file_exits_five(data_copy, name, override):
    # a child with bounded time and memory, in which a regression fails
    # the test instead of hanging the suite
    relpath, replace, detail = UNREADABLE_FILES[name]
    replace(data_copy / relpath)
    argv = [sys.executable, "-m", "anosurf.cli", "classify", "7/2"]
    env = {**{k: v for k, v in os.environ.items() if k != "ANOSURF_CATALOG"},
           "PYTHONPATH": str(SRC)}
    if override == "option":
        argv += ["--catalog", str(data_copy)]
    else:
        env["ANOSURF_CATALOG"] = str(data_copy)
    done = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=30, preexec_fn=_limit_address_space)
    assert (done.returncode, done.stdout) == (5, "")
    assert done.stderr == f"error: catalog at {relpath}: unusable file ({detail})\n"


# override names that are there but lead nowhere: each used to fall back
# to the packaged file
DANGLING_NAMES = [MANIFEST, "spine.json", "catalog/entries/B6.json"]


@pytest.mark.parametrize("override", ["option", "environment"])
@pytest.mark.parametrize("relpath", DANGLING_NAMES)
def test_a_dangling_symlink_in_an_override_exits_five(data_copy, relpath, override,
                                                      monkeypatch, capsys):
    path = data_copy / relpath
    path.unlink()
    path.symlink_to(data_copy / "no-such-file.json")
    argv = ["classify", "7/2"]
    if override == "option":
        argv += ["--catalog", str(data_copy)]
    else:
        monkeypatch.setenv("ANOSURF_CATALOG", str(data_copy))
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: catalog at {relpath}: unusable file "
                                   f"(FileNotFoundError: ")


ALIASES = 200


def _list_under_aliases(root):
    """List one valid JSON file of nearly DATA_FILE_CAP bytes under ALIASES
    spellings of its name, with its true checksum; return the spellings."""
    big = root / "big.json"
    big.write_text(json.dumps(["x" * 1000] * (DATA_FILE_CAP // 1004)))
    sha = hashlib.sha256(big.read_bytes()).hexdigest()
    spellings = ["./" * count + "big.json" for count in range(1, ALIASES + 1)]
    _manifest_edit(lambda doc: {**doc, "files": {**doc["files"],
                                                 **dict.fromkeys(spellings, sha)}})(root)
    return spellings


@pytest.mark.parametrize("override", ["option", "environment"])
def test_a_file_listed_under_many_names_is_refused_unread(data_copy, override):
    # each spelling used to be read and kept, about a megabyte each
    spellings = _list_under_aliases(data_copy)
    assert DATA_FILE_CAP - 4000 < (data_copy / "big.json").stat().st_size <= DATA_FILE_CAP
    argv = [sys.executable, "-m", "anosurf.cli", "classify", "7/2"]
    env = {**{k: v for k, v in os.environ.items() if k != "ANOSURF_CATALOG"},
           "PYTHONPATH": str(SRC)}
    if override == "option":
        argv += ["--catalog", str(data_copy)]
    else:
        env["ANOSURF_CATALOG"] = str(data_copy)
    started = time.perf_counter()
    done = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=30, preexec_fn=_limit_address_space)
    assert time.perf_counter() - started < 1
    assert (done.returncode, done.stdout) == (5, "")
    prefix = "error: catalog at "
    assert done.stderr.startswith(prefix)
    assert done.stderr[len(prefix):].partition(": ")[0] in spellings


def test_a_track_too_large_to_solve_still_classifies(data_copy):
    # classify never solves a track
    for relpath, edit in _Q2_DEEP:
        rewrite(data_copy, relpath, edit)
    assert main(["classify", "7/2", "--catalog", str(data_copy)]) == 0


# a JSON document nested deeper than the parser recurses
NESTED_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("override", ["option", "environment"])
@pytest.mark.parametrize("relpath", [MANIFEST, "spine.json"])
@pytest.mark.parametrize("argv", [["classify", "7/2"], ["catalog", "list"]],
                         ids=["classify", "catalog-list"])
def test_deeply_nested_json_exits_five(data_copy, argv, relpath, override, monkeypatch,
                                       capsys):
    (data_copy / relpath).write_text(NESTED_JSON)
    if relpath != MANIFEST:
        restamp_manifest(data_copy)
    if override == "option":
        argv = [*argv, "--catalog", str(data_copy)]
    else:
        monkeypatch.setenv("ANOSURF_CATALOG", str(data_copy))
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: catalog at {relpath}: unusable file (RecursionError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", MANIFEST_FAULTS)
def test_manifest_fault_exits_five(data_copy, name, capsys):
    fault, relpath = MANIFEST_FAULTS[name]
    fault(data_copy)
    assert main(["catalog", "check", "--catalog", str(data_copy)]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: catalog at {relpath}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["catalog", "check"], ["catalog", "show", "B6"]],
                         ids=["check", "show"])
def test_a_repeated_key_exits_five_naming_its_file(data_copy, argv, capsys):
    # the text is written as it is: a parsed document holds each key once
    path = data_copy / "catalog" / "entries" / "B6.json"
    path.write_text(path.read_text().replace('"summary": ', '"summary": "other", "summary": '))
    restamp_manifest(data_copy)
    assert main([*argv, "--catalog", str(data_copy)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: catalog at catalog/entries/B6.json: unusable file "
                            "(ValueError: the key 'summary' is repeated in one object)\n")


def test_a_repeated_symmetry_exits_five_naming_the_spine(data_copy, capsys):
    rewrite(data_copy, "spine.json", _symmetry_twice)
    assert main(["catalog", "check", "--catalog", str(data_copy)]) == 5
    assert capsys.readouterr().err.startswith("error: catalog at spine.json: unusable data "
                                              "(ValueError: symmetry keep_r3_r3 repeats")


# `catalog check` walks every track at the top law bound before it checks the laws
@pytest.mark.parametrize("argv,bound", [(["track", "Q7", "--bound", "20"], 20),
                                        (["catalog", "check", "--laws", "--law-bound", "20"], 50)],
                         ids=["track", "check"])
def test_a_component_over_the_solution_cap_exits_five(argv, bound, catalog, monkeypatch,
                                                      capsys):
    # A track file must have as many branches as its projection lists, 18
    # for Q7, so this 22-branch track with 8 free weights is swapped into
    # a loaded catalog instead. At bound 20 it has 21^8 solutions.
    track = TrainTrack.from_json(hung_loops_doc(8), track_id="Q7")
    bundle = replace(catalog.tracks["Q7"], track=track)
    swapped = replace(catalog, tracks={**catalog.tracks, "Q7": bundle})
    monkeypatch.setattr(cli_module, "load_catalog", lambda path=None: swapped)
    started = time.perf_counter()
    assert main(argv) == 5
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == (f"error: track 'Q7': a component has more than "
                                       f"1000000 solutions at bound {bound}\n")


# The seeds of the restamp fuzzer that tier-1 runs, about 3 s; run
# `python tests/catalogfuzz.py FIRST COUNT` for wider searches.
FUZZ_SEEDS = range(60)


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "data"
    shutil.copytree(DATA_DIR, root)
    return root


def test_the_fuzzer_runs_as_a_script_without_pythonpath(tmp_path):
    # the command the README gives, from a fresh checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = Path(catalogfuzz.__file__).resolve()
    done = subprocess.run([sys.executable, str(script), "0", "1"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("1 cases from seed 0, 0 faults, 0 schema refusals that load, "
                                "0 refusals that catalog check passes\n")


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_a_restamped_edit_exits_with_a_documented_code(fuzz_root, seed):
    case = catalogfuzz.make_case(fuzz_root, seed)
    runs = catalogfuzz.run_case(fuzz_root, case)
    for argv, code in runs:
        assert code in catalogfuzz.EXIT_CODES, (case.edit, argv, code)
    # an edit that jsonschema refuses is unusable data for every command
    if not catalogfuzz.oracle(catalogfuzz.schema_of(case.relpath)).is_valid(case.doc):
        assert all(code == 5 for _, code in runs), (case.edit, runs)
    # a catalog that `catalog check` passes classifies, and no command
    # refuses it as unusable
    assert not catalogfuzz.checked_but_refused(runs), (case.edit, runs)
