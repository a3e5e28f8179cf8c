"""The record classes of the package, pinned one by one: repr text,
equality, hashing, frozenness, instance layout, construction with
defaults, and copy and pickle of the slotted frozen records. The pins
read only the behaviour of the classes, so they hold whatever builds
their methods."""

import copy
import pickle
from types import SimpleNamespace

import pytest
from conftest import replace

from anosurf.branched_surface import ComplementComponent, OrientationResult
from anosurf.catalog import Catalog, CatalogEntry, CatalogReport, TrackBundle
from anosurf.classifier import ClassificationResult, ExclusionTrace, TraceStep
from anosurf.slopes import AdmissibleSet, Slope
from anosurf.spine import Connector, Symmetry
from anosurf.traintrack import Branch, CarriedClasses, LawReport, SlopeLaw, Switch

ALL = AdmissibleSet("AllRationals")
STEP = TraceStep("fenley/power-bound", {"power": 2})


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
         hashing=None, frozen=False, slotted=False,
         changes={"orientable": False, "coloring": {"a": -1}, "obstruction": ["e1"]}),
    case(ComplementComponent,
         {"kind": "Other", "vertical_annuli": 1, "annulus_wrap": (2,), "meridian_hits": 3,
          "exceptional": False, "genus": None, "description": "d"},
         "ComplementComponent(kind='Other', vertical_annuli=1, annulus_wrap=(2,), "
         "meridian_hits=3, exceptional=False, genus=None, description='d')",
         hashing="value", frozen=True, slotted=False,
         changes={"kind": "Handlebody", "vertical_annuli": 2, "annulus_wrap": (1,),
                  "meridian_hits": 4, "exceptional": True, "genus": 2, "description": "e"}),
    case(CatalogEntry,
         {"id": "B0", "family": "Q1", "summary": "s", "admissible": ALL,
          "exclusion_class": "DiskLeaf", "orientable": None, "orientation_graph": None,
          "disk_sectors": (), "complement": (), "euler": None, "sector_pairs": (),
          "vacant_annulus": None, "split_curves": (), "notes": {}},
         "CatalogEntry(id='B0', family='Q1', summary='s', admissible=AdmissibleSet("
         "kind='AllRationals', slope=None, count=None), exclusion_class='DiskLeaf', "
         "orientable=None, orientation_graph=None, disk_sectors=(), complement=(), "
         "euler=None, sector_pairs=(), vacant_annulus=None, split_curves=(), notes={})",
         hashing="error", frozen=True, slotted=False,
         minimal={"id": "B0", "family": "Q1", "summary": "s", "admissible": ALL,
                  "exclusion_class": "DiskLeaf"},
         factories=("notes",),
         changes={"id": "B1", "family": "Q2", "summary": "t",
                  "admissible": AdmissibleSet("IntegerDenominatorAtLeast2"),
                  "exclusion_class": "TypeI", "orientable": True,
                  "orientation_graph": {"nodes": ["a"], "edges": []},
                  "disk_sectors": ({"id": "D", "boundary": [{"direction": "in"}]},),
                  "complement": ({"kind": "Other"},),
                  "euler": {"surface_cw": {"vertices": 1}, "complement_cw": {"vertices": 2}},
                  "sector_pairs": (("a", "b"),), "vacant_annulus": "A",
                  "split_curves": ("c",), "notes": {"k": "v"}}),
    case(TrackBundle, {"track": "T", "law": SlopeLaw("ONLY_ZERO"), "designated": {},
                       "noncompact": ()},
         "TrackBundle(track='T', law=SlopeLaw(kind='ONLY_ZERO', surjective_height=None), "
         "designated={}, noncompact=())",
         hashing="error", frozen=True, slotted=False,
         minimal={"track": "T", "law": SlopeLaw("ONLY_ZERO"), "designated": {},
                  "noncompact": ()},
         changes={"track": "U", "law": SlopeLaw("ANY_SLOPE"), "designated": {"mu": ("b",)},
                  "noncompact": ("b",)}),
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
        assert shallow.facts is record.facts and deep.facts is not record.facts
    elif isinstance(record, ExclusionTrace):
        assert shallow.steps is record.steps and deep.steps[0] is not record.steps[0]
    else:
        assert hash(deep) == hash(loaded[-1]) == hash(record)


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
