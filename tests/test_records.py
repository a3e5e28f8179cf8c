"""The record classes of the package, pinned one by one: repr text,
equality, hashing, frozenness, instance layout, construction with
defaults, and copy and pickle of the frozen records and of a loaded
catalog, each rebuilt through its constructor. The pins
read only the behaviour of the classes, so they hold whatever builds
their methods."""

import copy
import copyreg
import operator
import pickle
import re
from types import SimpleNamespace

import pytest
from conftest import replace

from anosurf._record import ReadOnlyDict, ReadOnlyList, record
from anosurf.branched_surface import ComplementComponent, OrientationResult
from anosurf.catalog import (Catalog, CatalogEntry, CatalogReport, TrackBundle, load_catalog,
                             slope_law_check)
from anosurf.classifier import ClassificationResult, ExclusionTrace, TraceStep, classify
from anosurf.errors import SwitchSystemError
from anosurf.slopes import AdmissibleSet, Slope
from anosurf.spine import Connector, Spine, Symmetry
from anosurf.traintrack import Branch, CarriedClasses, LawReport, SlopeLaw, Switch, TrainTrack

ALL = AdmissibleSet("AllRationals")
STEP = TraceStep("fenley/power-bound", {"power": 2})
# a track of one branch, a loop, which a TrackBundle's roles can name
LOOP = TrainTrack([Branch("b", (1, 0), True)], [], track_id="T")


def case(cls, fields, text, *, hashing, frozen, slotted, minimal=None, factories=(),
         changes=None):
    """One record class: sample field values in constructor order, the
    repr of that sample, how it hashes ("value", "error" or None for an
    unhashable class), the smallest keyword set the constructor takes, the
    fields built by a default factory, and one other value per field."""
    first = next(iter(fields))
    return SimpleNamespace(
        cls=cls, fields=fields, text=text, hashing=hashing, frozen=frozen, slotted=slotted,
        minimal={first: fields[first]} if minimal is None else minimal,
        factories=factories, changes=changes)


RECORDS = [
    case(OrientationResult, {"orientable": True, "coloring": {"a": 1}, "obstruction": None},
         "OrientationResult(orientable=True, coloring={'a': 1}, obstruction=None)",
         hashing="error", frozen=True, slotted=False,
         changes={"orientable": False, "coloring": {"a": -1}, "obstruction": ["e1"]}),
    case(ComplementComponent,
         {"kind": "Other", "annulus_wrap": (2,), "meridian_hits": 3, "genus": None,
          "description": "d"},
         "ComplementComponent(kind='Other', annulus_wrap=(2,), meridian_hits=3, genus=None, "
         "description='d')",
         hashing="value", frozen=True, slotted=False,
         changes={"kind": "Handlebody", "annulus_wrap": (1,), "meridian_hits": 4, "genus": 2,
                  "description": "e"}),
    case(CatalogEntry,
         {"id": "B0", "family": "Q1", "summary": "s", "admissible": ALL,
          "exclusion_class": "DiskLeaf", "orientation_graph": None,
          "disk_sectors": (), "complement": (), "euler": None, "sector_pairs": (),
          "vacant_annulus": None, "split_curves": (), "notes": {}},
         "CatalogEntry(id='B0', family='Q1', summary='s', admissible=AdmissibleSet("
         "kind='AllRationals', slope=None, count=None), exclusion_class='DiskLeaf', "
         "orientation_graph=None, disk_sectors=(), complement=(), "
         "euler=None, sector_pairs=(), vacant_annulus=None, split_curves=(), notes={})",
         hashing="error", frozen=True, slotted=False,
         minimal={"id": "B0", "family": "Q1", "summary": "s", "admissible": ALL,
                  "exclusion_class": "DiskLeaf"},
         factories=("notes",),
         changes={"id": "B1", "family": "Q2", "summary": "t",
                  "admissible": AdmissibleSet("IntegerDenominatorAtLeast2"),
                  "exclusion_class": "TypeI",
                  "orientation_graph": {"nodes": ["a"], "edges": []},
                  "disk_sectors": ({"id": "D", "boundary": [{"direction": "in"}]},),
                  "complement": ({"kind": "Other"},),
                  "euler": {"surface_cw": {"vertices": 1}, "complement_cw": {"vertices": 2}},
                  "sector_pairs": (("a", "b"),), "vacant_annulus": "A",
                  "split_curves": ("c",), "notes": {"k": "v"}}),
    case(TrackBundle, {"track": LOOP, "law": SlopeLaw("ONLY_ZERO"), "designated": {}},
         "TrackBundle(track=TrainTrack(branches={'b': Branch(id='b', "
         "klass=(1, 0), loop=True)}, switches={}, track_id='T'), "
         "law=SlopeLaw(kind='ONLY_ZERO', surjective_height=None), designated={})",
         hashing="error", frozen=True, slotted=False,
         minimal={"track": LOOP, "law": SlopeLaw("ONLY_ZERO"), "designated": {}},
         changes={"track": TrainTrack([Branch("b", (0, 1), True)], [], track_id="T"),
                  "law": SlopeLaw("ANY_SLOPE"), "designated": {"mu": ("b",)}}),
    case(Catalog, {"entries": {}, "manifest": {}, "spine": "S", "complexes": {}, "tracks": {}},
         "Catalog(entries={}, manifest={}, spine='S', complexes={}, tracks={})",
         hashing="error", frozen=True, slotted=False,
         minimal={"entries": {}, "manifest": {}, "spine": "S", "complexes": {}, "tracks": {}},
         changes={"entries": {"B0": 0}, "manifest": {"v": 1}, "spine": "R",
                  "complexes": {"Q1": {}}, "tracks": {"Q1": 0}}),
    case(CatalogReport, {"entry_count": 38, "family_counts": {"Q1": 1}, "stated_total": 39,
                         "warnings": ["w"], "problems": []},
         "CatalogReport(entry_count=38, family_counts={'Q1': 1}, stated_total=39, "
         "warnings=['w'], problems=[])",
         hashing=None, frozen=False, slotted=False,
         minimal={"entry_count": 38, "family_counts": {}, "stated_total": None,
                  "warnings": [], "problems": []},
         changes={"entry_count": 39, "family_counts": {"Q1": 2}, "stated_total": None,
                  "warnings": [], "problems": ["p"]}),
    case(TraceStep, {"rule": "fenley/power-bound", "facts": {"power": 2}},
         "TraceStep(rule='fenley/power-bound', facts={'power': 2})",
         hashing="error", frozen=True, slotted=True, factories=("facts",),
         changes={"rule": "type-ii/core-power", "facts": {"power": 3}}),
    case(ExclusionTrace, {"entry": "B0", "slope": Slope(7, 2), "steps": ()},
         "ExclusionTrace(entry='B0', slope=Slope(q=7, p=2), steps=())",
         hashing="value", frozen=True, slotted=True,
         minimal={"entry": "B0", "slope": Slope(7, 2), "steps": ()},
         changes={"entry": "B1", "slope": Slope(5, 2), "steps": (STEP,)}),
    case(ClassificationResult,
         {"slope": Slope(7, 2), "kind": "NoAnosov", "taut_foliation": True,
          "argument": [STEP], "traces": []},
         "ClassificationResult(slope=Slope(q=7, p=2), kind='NoAnosov', taut_foliation=True, "
         "argument=[TraceStep(rule='fenley/power-bound', facts={'power': 2})], traces=[])",
         hashing=None, frozen=False, slotted=True,
         minimal={"slope": Slope(7, 2), "kind": "NoAnosov", "taut_foliation": True},
         factories=("argument", "traces"),
         changes={"slope": Slope(5, 2), "kind": "UniqueAnosov", "taut_foliation": False,
                  "argument": [], "traces": [ExclusionTrace("B0", Slope(7, 2), ())]}),
    case(Slope, {"q": 7, "p": 2}, "Slope(q=7, p=2)",
         hashing="value", frozen=True, slotted=True, minimal={"q": 7, "p": 2},
         changes={"q": 9, "p": 3}),
    case(AdmissibleSet, {"kind": "IntersectionWithAtLeast", "slope": Slope(0, 1), "count": 2},
         "AdmissibleSet(kind='IntersectionWithAtLeast', slope=Slope(q=0, p=1), count=2)",
         hashing="value", frozen=True, slotted=False, minimal={"kind": "AllRationals"},
         changes={"kind": "IntersectionWithMoreThan", "slope": Slope(1, 1), "count": 3}),
    case(Connector, {"id": "c1", "hexagon": "X", "positions": (0, 3)},
         "Connector(id='c1', hexagon='X', positions=(0, 3))",
         hashing="value", frozen=True, slotted=False,
         minimal={"id": "c1", "hexagon": "X", "positions": (0, 3)},
         changes={"id": "c2", "hexagon": "Y", "positions": (1, 4)}),
    case(Symmetry, {"name": "id", "side_map": {"a": "a"}, "edge_map": {}, "vertex_map": {}},
         "Symmetry(name='id', side_map={'a': 'a'}, edge_map={}, vertex_map={})",
         hashing="error", frozen=True, slotted=False,
         minimal={"name": "id", "side_map": {}, "edge_map": {}, "vertex_map": {}},
         changes={"name": "r", "side_map": {"a": "b"}, "edge_map": {"e": "f"},
                  "vertex_map": {"v": "w"}}),
    case(Branch, {"id": "b1", "klass": (1, 0), "loop": True},
         "Branch(id='b1', klass=(1, 0), loop=True)",
         hashing="value", frozen=True, slotted=False,
         changes={"id": "b2", "klass": (0, 1), "loop": False}),
    case(Switch, {"id": "s1", "one_fold": (("b1", "head"),),
                  "two_fold": (("b2", "tail"), ("b3", "tail"))},
         "Switch(id='s1', one_fold=(('b1', 'head'),), "
         "two_fold=(('b2', 'tail'), ('b3', 'tail')))",
         hashing="value", frozen=True, slotted=False,
         minimal={"id": "s1", "one_fold": (), "two_fold": ()},
         changes={"id": "s2", "one_fold": (("b1", "tail"),), "two_fold": (("b2", "tail"),)}),
    case(CarriedClasses, {"classes": {(1, 0): {"b1": 1}}, "null_witness": None},
         "CarriedClasses(classes={(1, 0): {'b1': 1}}, null_witness=None)",
         hashing=None, frozen=False, slotted=False, minimal={}, factories=("classes",),
         changes={"classes": {}, "null_witness": {"b1": 0}}),
    case(SlopeLaw, {"kind": "ANY_SLOPE", "surjective_height": 3},
         "SlopeLaw(kind='ANY_SLOPE', surjective_height=3)",
         hashing="value", frozen=True, slotted=False,
         changes={"kind": "FORMULA_MU_NU_OMEGA", "surjective_height": 4}),
    case(LawReport, {"family": "Q2", "law": SlopeLaw("ONLY_ZERO"), "bound": 5,
                     "realized": {Slope(0, 1)}, "violations": []},
         "LawReport(family='Q2', law=SlopeLaw(kind='ONLY_ZERO', surjective_height=None), "
         "bound=5, realized={Slope(q=0, p=1)}, violations=[])",
         hashing=None, frozen=False, slotted=False,
         minimal={"family": "Q2", "law": SlopeLaw("ONLY_ZERO"), "bound": 5, "realized": set(),
                  "violations": []},
         changes={"family": "Q4", "law": SlopeLaw("ANY_SLOPE"), "bound": 6, "realized": set(),
                  "violations": ["v"]}),
]


CASES = [pytest.param(c, id=c.cls.__name__) for c in RECORDS]
ENTRY_FIELDS = next(c.fields for c in RECORDS if c.cls is CatalogEntry)


def sample(c, **changes):
    return c.cls(**{**c.fields, **changes})


def test_every_record_class_has_a_case():
    assert len(CASES) == 18


@pytest.mark.parametrize("c", CASES)
def test_repr(c):
    assert repr(sample(c)) == c.text


@pytest.mark.parametrize("c", CASES)
def test_positional_and_keyword_construction_agree(c):
    record = c.cls(*c.fields.values())
    assert record == c.cls(**c.fields)
    assert [getattr(record, name) for name in c.fields] == list(c.fields.values())
    with pytest.raises(TypeError):
        c.cls(*c.fields.values(), None)
    with pytest.raises(TypeError):
        c.cls(**c.fields, no_such_field=None)


@pytest.mark.parametrize("c", CASES)
def test_defaults(c):
    record = c.cls(**c.minimal)
    defaults = {name: getattr(record, name) for name in c.fields if name not in c.minimal}
    assert record == c.cls(**c.minimal, **defaults)
    for name in c.factories:
        assert getattr(record, name) == type(c.fields[name])()
        assert getattr(record, name) is not getattr(c.cls(**c.minimal), name)


@pytest.mark.parametrize("c", CASES)
def test_equality_reads_every_field(c):
    record = sample(c)
    assert record == sample(c) and not record != sample(c)
    assert list(c.changes) == list(c.fields)
    for name, value in c.changes.items():
        other = sample(c, **{name: value})
        assert record != other and not record == other, name
    assert record.__eq__(object()) is NotImplemented
    assert record != SimpleNamespace(**c.fields)


@pytest.mark.parametrize("c", CASES)
def test_hash(c):
    record = sample(c)
    if c.hashing is None:
        assert c.cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(record)
    elif c.hashing == "error":
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
    else:
        assert hash(record) == hash(tuple(c.fields.values())) == hash(sample(c))


@pytest.mark.parametrize("c", CASES)
def test_assignment_and_deletion(c):
    record = sample(c)
    name, value = next(iter(c.changes.items()))
    if c.frozen:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) == c.fields[name]
    else:
        setattr(record, name, value)
        assert getattr(record, name) is value
        delattr(record, name)
        assert not hasattr(record, name)


@pytest.mark.parametrize("c", CASES)
def test_instance_dict(c):
    assert hasattr(sample(c), "__dict__") is not c.slotted


def test_a_catalog_entry_compares_and_shows_only_its_records():
    entry = CatalogEntry("B0", "Q1", "s", ALL, "DiskLeaf",
                         disk_sectors=[{"id": "D", "boundary": [{"direction": "in"}]}],
                         sector_pairs=[["a", "b"]])
    assert (entry.disk_sectors, entry.sector_pairs) == (
        ({"id": "D", "boundary": [{"direction": "in"}]},), (("a", "b"),))
    assert (entry.complement_pieces, entry.euler_characteristics, entry.orientation,
            entry.sink_disks) == ((), None, None, ("D",))
    other = CatalogEntry(*[getattr(entry, name) for name in ENTRY_FIELDS])
    object.__setattr__(other, "sink_disks", ())
    object.__setattr__(other, "complement_pieces", (ComplementComponent("Ball"),))
    assert other == entry and repr(other) == repr(entry)
    assert "sink_disks" not in repr(entry)
    for name in ("complement_pieces", "euler_characteristics", "orientation", "sink_disks"):
        with pytest.raises(TypeError):
            CatalogEntry("B0", "Q1", "s", ALL, "DiskLeaf", **{name: None})
        with pytest.raises(AttributeError):
            setattr(entry, name, None)


COPIED = [
    TraceStep("fenley/power-bound", {"power": 2, "slopes": [Slope(7, 2)]}),
    ExclusionTrace("B0", Slope(7, 2), (STEP, TraceStep("type-ii/core-power"))),
    Slope(7, 2),
    Slope(1, 0),
    Branch("b1", (1, 0), True),
    Switch("s1", (("b1", "head"),), (("b2", "tail"), ("b3", "tail"))),
    SlopeLaw("ANY_SLOPE", 3),
]


@pytest.mark.parametrize("record", COPIED, ids=repr)
def test_copy_and_pickle_round_trips(record):
    shallow, deep = copy.copy(record), copy.deepcopy(record)
    loaded = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (shallow, deep, *loaded):
        assert type(other) is type(record)
        assert other == record and repr(other) == repr(record)
    if isinstance(record, Slope):
        assert hash(deep) == hash(loaded[-1]) == hash((record.q, record.p))
    elif isinstance(record, TraceStep):
        # every copy is built from plain facts, which the constructor freezes again
        for other in (shallow, deep, *loaded):
            assert type(other.facts) is ReadOnlyDict and other.facts is not record.facts
            assert type(other.facts["slopes"]) is ReadOnlyList
    elif isinstance(record, ExclusionTrace):
        assert shallow.steps is record.steps and deep.steps[0] is not record.steps[0]
    else:
        assert hash(deep) == hash(loaded[-1]) == hash(record)


FROZEN = [pytest.param(c, id=c.cls.__name__) for c in RECORDS if c.frozen]


@pytest.mark.parametrize("c", FROZEN)
def test_a_frozen_record_is_copied_and_pickled_through_its_constructor(c, monkeypatch):
    record, built = sample(c), []
    init = c.cls.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(c.cls, "__init__", counting)
    clones = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    assert all(type(clone) is c.cls and clone == record for clone in clones)
    assert built == [tuple(c.fields.values())] * 3


# SlopeLaw("ANY_SLOPE", 3) at protocol 0, which names the constructor
SLOPE_LAW_PICKLE = b"canosurf._track\nSlopeLaw\np0\n(VANY_SLOPE\np1\nI3\ntp2\nRp3\n."


def test_an_edited_pickle_is_checked_by_the_constructor():
    assert pickle.dumps(SlopeLaw("ANY_SLOPE", 3), 0) == SLOPE_LAW_PICKLE
    with pytest.raises(ValueError, match="unknown slope law 'BOGUS'"):
        pickle.loads(SLOPE_LAW_PICKLE.replace(b"ANY_SLOPE", b"BOGUS"))


# TraceStep("core-orbit/da-surgery") at protocol 0, which names the constructor
TRACE_STEP_PICKLE = b"canosurf.classifier\nTraceStep\np0\n(Vcore-orbit/da-surgery\np1\n(dp2\ntp3\nRp4\n."


def test_an_edited_trace_step_pickle_is_checked_by_the_constructor():
    assert pickle.dumps(TraceStep("core-orbit/da-surgery"), 0) == TRACE_STEP_PICKLE
    with pytest.raises(KeyError, match="unknown rule 'core-orbit/no-surgery'"):
        pickle.loads(TRACE_STEP_PICKLE.replace(b"da-surgery", b"no-surgery"))
    # a step given a rule without the constructor is refused by its copies
    forged = object.__new__(TraceStep)
    for name, value in (("rule", "no/such-rule"), ("facts", {})):
        TraceStep.__dict__[name].__set__(forged, value)
    for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        with pytest.raises(KeyError, match="unknown rule 'no/such-rule'"):
            clone(forged)


def test_a_train_track_is_copied_and_pickled_through_its_constructor():
    track = TrainTrack([Branch("a", (1, 0)), Branch("b"), Branch("c", (0, 1), True)],
                       [Switch("s1", (("a", "head"),), (("b", "tail"),)),
                        Switch("s2", (("b", "head"),), (("a", "tail"),))], track_id="t")
    for clone in (copy.copy(track), copy.deepcopy(track), pickle.loads(pickle.dumps(track))):
        assert type(clone) is TrainTrack and clone is not track
        assert (clone.track_id, dict(clone.branches), dict(clone.switches)) == (
            "t", dict(track.branches), dict(track.switches))
        assert clone.switch_system() == track.switch_system()
    # a pickle whose second switch is renamed to the first one's id
    data = pickle.dumps(track, 0).replace(b"Vs2\n", b"Vs1\n")
    with pytest.raises(SwitchSystemError, match="duplicate switch id 's1'"):
        pickle.loads(data)


@pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_loaded_catalog_is_copied_and_pickled(clone):
    catalog = load_catalog()
    other = clone(catalog)
    assert other.entries == catalog.entries and other.entries["B1"] is not catalog.entries["B1"]
    assert other.tracks["Q4"].track is not catalog.tracks["Q4"].track
    assert (classify(Slope(7, 2), other).to_json(traces="full")
            == classify(Slope(7, 2), catalog).to_json(traces="full"))
    assert (slope_law_check(other, "Q4", bound=20).realized
            == slope_law_check(catalog, "Q4", bound=20).realized)


# Protocol 0 pickles written when the track records lived in
# anosurf.traintrack; that module still resolves the names they hold.
OLD_PICKLES = [
    (b"ccopy_reg\n_reconstructor\np0\n(canosurf.traintrack\nBranch\np1\nc__builtin__\n"
     b"object\np2\nNtp3\nRp4\n(dp5\nVid\np6\nVb1\np7\nsVklass\np8\n(I1\nI0\ntp9\n"
     b"sVloop\np10\nI01\nsb.", Branch("b1", (1, 0), True)),
    (b"ccopy_reg\n_reconstructor\np0\n(canosurf.traintrack\nSwitch\np1\nc__builtin__\n"
     b"object\np2\nNtp3\nRp4\n(dp5\nVid\np6\nVs1\np7\nsVone_fold\np8\n((Vb1\np9\n"
     b"Vhead\np10\ntp11\ntp12\nsVtwo_fold\np13\n((Vb2\np14\nVtail\np15\ntp16\ntp17\nsb.",
     Switch("s1", (("b1", "head"),), (("b2", "tail"),))),
    (b"ccopy_reg\n_reconstructor\np0\n(canosurf.traintrack\nSlopeLaw\np1\nc__builtin__\n"
     b"object\np2\nNtp3\nRp4\n(dp5\nVkind\np6\nVANY_SLOPE\np7\nsVsurjective_height\np8\n"
     b"I3\nsb.", SlopeLaw("ANY_SLOPE", 3)),
]


@pytest.mark.parametrize("data, record", OLD_PICKLES,
                         ids=[type(record).__name__ for _, record in OLD_PICKLES])
def test_a_pickle_naming_traintrack_still_loads(data, record):
    loaded = pickle.loads(data)
    assert type(loaded) is type(record) and loaded == record


@pytest.mark.parametrize("c", [pytest.param(c, id=c.cls.__name__) for c in RECORDS if c.frozen])
def test_a_frozen_record_takes_no_new_attribute(c):
    record = sample(c)
    with pytest.raises(AttributeError, match="cannot assign to field 'no_such_field'"):
        record.no_such_field = 1
    assert not hasattr(record, "no_such_field")


def test_replace_rebuilds_through_the_constructor():
    slope = Slope(7, 2)
    assert replace(slope, q=9) == Slope(9, 2)
    with pytest.raises(ValueError):
        replace(slope, p=7)
    with pytest.raises(TypeError):
        replace(slope, r=1)
    entry = CatalogEntry("B0", "Q1", "s", ALL, "DiskLeaf")
    changed = replace(entry, disk_sectors=[{"id": "D", "boundary": [{"direction": "in"}]}])
    assert changed.sink_disks == ("D",) and entry.sink_disks == ()
    with pytest.raises(TypeError):
        replace(entry, sink_disks=())


# The spine and a track, the records whose fields are a document or
# mappings by id: each, with its fields, built from the shipped catalog.
LOADED = {"Spine": (lambda c: c.spine, ("doc",)),
          "TrainTrack": (lambda c: c.tracks["Q4"].track, ("branches", "switches", "track_id"))}


@pytest.mark.parametrize("name", LOADED)
def test_the_spine_and_a_track_are_frozen_and_do_not_hash(catalog, name):
    pick, fields = LOADED[name]
    record = pick(catalog)
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(TypeError, match="unhashable type"):
        hash(record)
    assert repr(record).startswith(f"{name}({fields[0]}=")


@pytest.mark.parametrize("name", LOADED)
def test_the_spine_and_a_track_are_copied_and_pickled_through_their_constructors(
        catalog, name, monkeypatch):
    record = LOADED[name][0](catalog)
    cls, built = type(record), []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    clones = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    assert len(built) == 3 and all(map(operator.is_, built, clones))
    assert all(type(clone) is cls and clone == record for clone in clones)


@pytest.mark.parametrize("protocol", [0, 2, pickle.HIGHEST_PROTOCOL])
def test_a_spine_pickle_of_attributes_is_refused(catalog, protocol):
    # A pickle written when the spine was a plain class: at protocol 0 these
    # are the bytes it wrote, an object built without its __init__ and then
    # given the attributes that __init__ had read off the document, in the
    # plain class's types: dicts and lists.
    spine = catalog.spine
    state = {"hexagons": {h: list(word) for h, word in spine.hexagons.items()},
             "edge_of": dict(spine.edge_of),
             "corner_vertices": {h: list(corners) for h, corners in spine.corner_vertices.items()},
             "connectors": dict(spine.connectors),
             "symmetries": list(spine.symmetries)}

    class Written:
        def __reduce__(self):
            return copyreg._reconstructor, (Spine, object, None), state

    data = pickle.dumps(Written(), protocol)
    with pytest.raises(TypeError, match="unpickled from its document"):
        pickle.loads(data)


@pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_loaded_catalog_equals_its_copies(catalog, clone):
    other = clone(catalog)
    assert other == catalog and not other != catalog
    assert other.spine is not catalog.spine and other.spine == catalog.spine
    assert other.tracks == catalog.tracks


# designated roles that a bundle of the Q4 track refuses: the error and
# the start of its message
BAD_ROLES = {
    "misspelled-formula-role": ({"mu_": ["u.M1"], "nu": ["u.F2"], "omega": ["u.M1"]},
                                ValueError, "the FORMULA_THREE_PLUS law of Q4 has no role 'mu_'"),
    "unknown-branch": ({"mu": ["u.Z9"]}, SwitchSystemError,
                       "track 'Q4': designated role 'mu' must list branches"),
    "bool-branch": ({"nu": [False]}, SwitchSystemError,
                    "track 'Q4': designated role 'nu' must list branches"),
}


@pytest.mark.parametrize("name", BAD_ROLES)
def test_a_track_bundle_checks_its_roles_when_built_and_copied(catalog, name):
    designated, error, message = BAD_ROLES[name]
    q4 = catalog.tracks["Q4"]
    with pytest.raises(error, match=re.escape(message)):
        TrackBundle(q4.track, q4.law, designated)
    # a bundle given its fields without the constructor, as a pickle
    # written before the bundle checked its roles would give them
    forged = object.__new__(TrackBundle)
    vars(forged).update(track=q4.track, law=q4.law, designated=designated)
    for clone in (copy.copy, copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))):
        with pytest.raises(error, match=re.escape(message)):
            clone(forged)


def test_a_track_bundle_stores_its_lists_as_tuples():
    bundle = TrackBundle(LOOP, SlopeLaw("ONLY_ZERO"), {"mu": ["b"]})
    assert bundle.designated == {"mu": ("b",)}


def test_a_record_of_one_field():
    @record(frozen=True)
    class Single:
        def __init__(self, value):
            self.__dict__.update(value=value)

    single = Single(3)
    assert repr(single) == "test_a_record_of_one_field.<locals>.Single(value=3)"
    assert single == Single(3) and single != Single(4)
    assert hash(single) == hash((3,))
    assert single.__reduce__() == (Single, (3,))
