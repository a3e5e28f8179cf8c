"""How tools/build_data.py states each track: shapes with their arc pairs,
whose dead arcs follow from their switches, and _bundle, which lifts the
pairs to connector copies."""

import importlib.util
import pathlib

import pytest

from anosurf.traintrack import TrainTrack, dead_branches

BUILDER = pathlib.Path(__file__).resolve().parent.parent / "tools" / "build_data.py"


@pytest.fixture(scope="module")
def builder():
    spec = importlib.util.spec_from_file_location("build_data", BUILDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shapes(builder):
    return {"q1": builder.q1_shape("u", (1, 0)), "shear": builder.shear_shape("u", 1),
            "dip": builder.dip_shape("u"), "gh": builder.gh_shape("u"),
            "circle2": builder.circle2("u", (0, 1)), "tri": builder.tri_shape("u")}


def test_each_shapes_pairs_partition_its_branches(builder):
    for name, (branches, _, pairs) in _shapes(builder).items():
        arcs = [arc for pair in pairs for arc in pair]
        assert sorted(arcs) == sorted(b["id"] for b in branches), name


def test_each_shape_has_the_dead_arcs_its_docstring_names(builder):
    dead = {name: dead_branches(TrainTrack.from_json(
        {"branches": branches, "switches": switches}), 3)
        for name, (branches, switches, _) in _shapes(builder).items()}
    assert dead == {"q1": {"u.X1", "u.X2"}, "shear": set(), "dip": set(), "gh": set(),
                    "circle2": set(), "tri": set()}


def test_copies_are_numbered_per_connector_in_lift_order(builder):
    bundle = builder._bundle(
        "Q7", [(builder.q1_shape("u", (0, 1)), ["s2", "s3", "md1"]),
               (builder.circle2("e", (0, 1)), ["md1"]),
               (builder.q1_shape("w", (0, 1)), ["s2", "md1", "s3"])],
        {"kind": "ONLY_INFINITY"}, {})
    assert [(r["connector"], r["copy"], r["arcs"]) for r in bundle["projection"]] == [
        ("s2", 1, ["u.A1", "u.B1"]), ("s3", 1, ["u.A2", "u.B2"]),
        ("md1", 1, ["u.X1", "u.X2"]), ("md1", 2, ["e.C1", "e.C2"]),
        ("s2", 2, ["w.A1", "w.B1"]), ("md1", 3, ["w.A2", "w.B2"]),
        ("s3", 2, ["w.X1", "w.X2"])]
    # the keys the track schema requires, and no list of dead arcs
    assert sorted(bundle) == ["designated", "id", "law", "projection", "track"]


@pytest.mark.parametrize("connectors", [["s1", "s4"], ["s1", "s4", "ly3", "s1"]],
                         ids=["short", "long"])
def test_a_connector_list_unlike_its_shape_is_refused_before_any_file_is_written(
        builder, monkeypatch, tmp_path, connectors):
    monkeypatch.setattr(builder, "build_bundles", lambda: {"Q1": builder._bundle(
        "Q1", [(builder.q1_shape("u", (1, 0)), connectors)], {"kind": "ONLY_ZERO"}, {})})
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer)"):
        builder.main([str(out)])
    assert not out.exists()
