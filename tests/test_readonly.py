"""A loaded catalog is read-only at every depth: each dict and list it
holds is a read-only twin made by anosurf._record.frozen, and each record
in it is frozen. A twin behaves as its plain container in every way but
an edit, and its copies and pickles are plain containers."""

import copy
import json
import pickle
from collections.abc import Mapping

import pytest
from conftest import edits

from anosurf import catalog as catalog_module
from anosurf._record import ReadOnlyDict, ReadOnlyList, frozen, plain
from anosurf.catalog import default_catalog, load_catalog, slope_law_check
from anosurf.classifier import classify
from anosurf.slopes import Slope

SCALARS = (str, int, float, bool, type(None))


def reachable(root):
    """Every object reachable from root that is not a scalar, each once:
    through the keys and values of a mapping, the items of a list, tuple
    or set, and the instance dict and slots of any other object."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, SCALARS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Mapping):
            todo.extend([*obj.keys(), *obj.values()])
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        else:
            todo.extend(getattr(obj, "__dict__", {}).values())
            todo.extend(getattr(obj, name) for cls in type(obj).__mro__
                        for name in getattr(cls, "__slots__", ()) if hasattr(obj, name))
        yield obj


def test_nothing_reachable_from_a_loaded_catalog_can_be_edited():
    catalog = load_catalog()
    # the first law check keeps the track's solve plan on it
    slope_law_check(catalog, "Q4", bound=2)
    containers = records = 0
    for obj in reachable(catalog):
        if isinstance(obj, (dict, list)):
            containers += 1
            for edit in edits(obj):
                with pytest.raises(TypeError):
                    edit()
        elif not isinstance(obj, (tuple, set, frozenset, Mapping)):
            records += 1
            with pytest.raises(AttributeError):
                obj.no_such_field = None
    # 386 dicts and 171 lists: the documents' 358 dicts and 171 lists, the
    # 26 maps by id of the spine and the tracks and the solve plan's 2; and
    # 412 records: the entries with their facts, the spine with its
    # connectors and symmetries, the bundles with their tracks and laws
    assert (containers, records) == (557, 412)
    assert catalog == load_catalog()


@pytest.fixture
def default_reloaded():
    """The default catalog, loaded again after the test, so that an edit
    the catalog does not refuse reaches no other test."""
    yield default_catalog()
    catalog_module._catalog_at.cache_clear()


EDITS = {
    "delete-entry": lambda c: c.entries.__delitem__("B2"),
    "set-orientation-graph": lambda c: c.get("B3").orientation_graph.__setitem__("edges", []),
    "set-edge-of": lambda c: c.spine.edge_of.__setitem__("a1", "b"),
    "update-symmetry": lambda c: c.spine.symmetries[1].edge_map.update(a="b"),
    "clear-spine-hexagons": lambda c: c.spine.doc["hexagons"].clear(),
    "pop-manifest-file": lambda c: c.manifest["files"].popitem(),
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
def test_an_edit_of_the_default_catalog_is_refused(default_reloaded, edit):
    with pytest.raises(TypeError, match="cannot be edited"):
        edit(default_reloaded)
    assert len(classify(Slope(7, 2)).traces) == 33
    assert default_reloaded == load_catalog()


TWINS = {"dict": {"a": [1, {"b": (2, [3])}], "c": {}}, "list": [{"a": 1}, [2, 3], (4,), "s"]}


@pytest.mark.parametrize("name", TWINS)
def test_a_twin_equals_shows_and_serializes_as_its_plain_container(name):
    plain = TWINS[name]
    twin = frozen(plain)
    assert type(twin) is {"dict": ReadOnlyDict, "list": ReadOnlyList}[name]
    assert twin == plain and not twin != plain
    assert repr(twin) == repr(plain) and str(twin) == str(plain)
    assert json.dumps(twin) == json.dumps(plain)
    assert json.dumps(twin, indent=1, sort_keys=True) == json.dumps(plain, indent=1,
                                                                   sort_keys=True)
    with pytest.raises(TypeError, match="unhashable type"):
        hash(twin)


@pytest.mark.parametrize("name", TWINS)
def test_copies_and_pickles_of_a_twin_are_plain(name):
    plain = TWINS[name]
    twin = frozen(plain)
    deep = [copy.deepcopy(twin), *(pickle.loads(pickle.dumps(twin, protocol))
                                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
    for clone in (copy.copy(twin), *deep):
        assert type(clone) is type(plain) and clone == plain
    for clone in deep:
        assert not any(isinstance(x, (ReadOnlyDict, ReadOnlyList)) for x in reachable(clone))
        clone.clear()
        assert twin == plain


@pytest.mark.parametrize("name", TWINS)
def test_plain_undoes_frozen_at_every_depth(name):
    value = TWINS[name]
    for source in (value, frozen(value)):
        copied = plain(source)
        assert copied == value and type(copied) is type(value)
        kept = {id(x) for x in reachable(source)}
        for x in reachable(copied):
            assert not isinstance(x, (ReadOnlyDict, ReadOnlyList))
            assert not isinstance(x, (dict, list)) or id(x) not in kept


def test_frozen_reaches_into_tuples_and_keeps_other_values():
    record = Slope(7, 2)
    value = frozen(({"a": [record]}, {1, 2}))
    assert type(value) is tuple and type(value[0]["a"]) is ReadOnlyList
    assert value[0]["a"][0] is record and type(value[1]) is set
    twin = frozen({"a": [1]})
    assert frozen(twin) == twin and type(frozen(twin)["a"]) is ReadOnlyList


def test_a_twin_refuses_each_edit():
    twin_dict, twin_list = frozen({"a": 1}), frozen([2, 1])
    refused = [
        lambda: twin_dict.pop("a"), twin_dict.popitem, lambda: twin_dict.setdefault("b", 2),
        lambda: twin_dict.update(b=2), lambda: twin_dict.__ior__({"b": 2}),
        lambda: twin_list.extend([3]), lambda: twin_list.insert(0, 3), twin_list.pop,
        lambda: twin_list.remove(2), twin_list.sort, twin_list.reverse,
        lambda: twin_list.__iadd__([3]), lambda: twin_list.__imul__(2),
        lambda: twin_list.__setitem__(slice(0, 1), [])]
    for edit in refused:
        with pytest.raises(TypeError, match="cannot be edited; edit a copy"):
            edit()
    assert (twin_dict, twin_list) == ({"a": 1}, [2, 1])
    # what builds a new container leaves the twin as it is
    assert twin_dict | {"b": 2} == {"a": 1, "b": 2} and twin_list + [3] == [2, 1, 3]
    assert type(twin_dict.copy()) is dict and type(twin_list[:1]) is list



# a second __init__ of a twin, which refilled it: the twin and the call
REINITS = {
    "dict": (lambda: frozen({"a": 1}), lambda twin: twin.__init__(b=2)),
    "dict-empty": (lambda: frozen({}), lambda twin: twin.__init__(x=1)),
    "dict-no-arguments": (lambda: frozen({"a": 1}), lambda twin: twin.__init__()),
    "list": (lambda: frozen([1, 2]), lambda twin: twin.__init__([])),
    "list-empty": (lambda: frozen([]), lambda twin: twin.__init__([3])),
    "catalog-manifest": (lambda: load_catalog().manifest["files"],
                         lambda twin: twin.__init__(x=1)),
    "catalog-disk-boundary": (lambda: load_catalog().get("B2").disk_sectors[0]["boundary"],
                              lambda twin: twin.__init__([])),
}


@pytest.mark.parametrize("name", REINITS)
def test_a_twin_refuses_a_second_init(name):
    make, reinit = REINITS[name]
    twin = make()
    plain = copy.deepcopy(twin)
    assert type(twin) is {dict: ReadOnlyDict, list: ReadOnlyList}[type(plain)]
    with pytest.raises(TypeError, match="cannot be edited; edit a copy"):
        reinit(twin)
    assert twin == plain
    # its copies are plain containers, which a second __init__ refills
    for clone in (copy.copy(twin), copy.deepcopy(twin), pickle.loads(pickle.dumps(twin))):
        assert type(clone) is type(plain) and clone == plain
        reinit(clone)
