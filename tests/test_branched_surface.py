import inspect

import pytest
from conftest import load_schema
from hypothesis import given, settings
from hypothesis import strategies as st

from anosurf.branched_surface import (
    ComplementComponent,
    admits_coherent_ibundle,
    detect_sink_disks,
    euler_characteristic,
    is_transversely_orientable,
    meridian_vertical_intersection,
)
from anosurf.catalog import CatalogEntry
from anosurf.errors import ComplementShapeError
from anosurf.slopes import AdmissibleSet
from oracles import verify_orientation_certificate


def torus_cw() -> dict:
    return {
        "vertices": 1,
        "edges": [{"id": "m", "ends": [0, 0]}, {"id": "l", "ends": [0, 0]}],
        "faces": [{"id": "F", "boundary": ["m", "l", "m", "l"]}],
    }


class TestEuler:
    def test_torus(self):
        assert euler_characteristic(torus_cw()) == 0

    def test_bigon_sphere(self):
        cw = {"vertices": 2,
              "edges": [{"id": "e1", "ends": [0, 1]}, {"id": "e2", "ends": [0, 1]}],
              "faces": [{"id": "F1", "boundary": ["e1", "e2"]},
                        {"id": "F2", "boundary": ["e1", "e2"]}]}
        assert euler_characteristic(cw) == 2

    def test_graph_without_faces(self):
        cw = {"vertices": 2, "edges": [{"id": "e", "ends": [0, 1]}], "faces": []}
        assert euler_characteristic(cw) == 1

    def test_vertex_count_required(self):
        with pytest.raises(ValueError):
            euler_characteristic({"vertices": 0, "edges": [], "faces": []})
        with pytest.raises(ValueError):
            euler_characteristic({"edges": [], "faces": []})

    def test_duplicate_edge_id(self):
        cw = torus_cw()
        cw["edges"].append({"id": "m", "ends": [0, 0]})
        with pytest.raises(ValueError):
            euler_characteristic(cw)

    def test_bad_endpoints(self):
        cw = torus_cw()
        cw["edges"][0]["ends"] = [0, 3]
        with pytest.raises(ValueError):
            euler_characteristic(cw)
        cw["edges"][0]["ends"] = [0]
        with pytest.raises(ValueError):
            euler_characteristic(cw)

    def test_an_edge_may_end_at_the_last_vertex_and_no_further(self):
        cw = {"vertices": 2, "edges": [{"id": "e", "ends": [1, 1]}], "faces": []}
        assert euler_characteristic(cw) == 1
        cw["edges"][0]["ends"] = [0, 2]
        with pytest.raises(ValueError, match="bad endpoints"):
            euler_characteristic(cw)

    def test_a_bool_vertex_count_is_refused(self):
        with pytest.raises(ValueError, match="positive vertex count"):
            euler_characteristic({"vertices": True, "edges": [], "faces": []})

    @pytest.mark.parametrize("ends", [[0.5, 1], [True, 0]], ids=["float", "bool"])
    def test_an_endpoint_that_is_no_int_is_refused(self, ends):
        cw = {"vertices": 2, "edges": [{"id": "e", "ends": ends}], "faces": []}
        with pytest.raises(ValueError, match="bad endpoints"):
            euler_characteristic(cw)

    def test_empty_face_boundary(self):
        cw = torus_cw()
        cw["faces"][0]["boundary"] = []
        with pytest.raises(ValueError):
            euler_characteristic(cw)

    def test_face_on_unknown_edge(self):
        cw = torus_cw()
        cw["faces"][0]["boundary"] = ["m", "ghost"]
        with pytest.raises(ValueError):
            euler_characteristic(cw)

    def test_duplicate_face_id(self):
        cw = torus_cw()
        cw["faces"].append({"id": "F", "boundary": ["m"]})
        with pytest.raises(ValueError):
            euler_characteristic(cw)


def graph(nodes, edges) -> dict:
    rows = []
    for i, (u, v, flip) in enumerate(edges):
        rows.append({"id": f"e{i}", "from": u, "to": v, "flip": flip})
    return {"nodes": list(nodes), "edges": rows}


class TestOrientability:
    def test_path_is_orientable(self):
        g = graph("ab", [("a", "b", True)])
        res = is_transversely_orientable(g)
        assert res.orientable
        assert res.coloring["a"] != res.coloring["b"]
        assert verify_orientation_certificate(g, res.orientable, res.coloring, res.obstruction)

    def test_flip_loop_is_not(self):
        g = graph("a", [("a", "a", True)])
        res = is_transversely_orientable(g)
        assert not res.orientable
        assert res.obstruction == ["e0"]
        assert verify_orientation_certificate(g, res.orientable, res.coloring, res.obstruction)

    def test_two_cycle_with_one_flip(self):
        g = graph("ab", [("a", "b", True), ("a", "b", False)])
        res = is_transversely_orientable(g)
        assert not res.orientable
        assert sorted(res.obstruction) == ["e0", "e1"]
        assert verify_orientation_certificate(g, res.orientable, res.coloring, res.obstruction)

    def test_even_flip_cycle_is_orientable(self):
        g = graph("abc", [("a", "b", True), ("b", "c", True), ("c", "a", False)])
        res = is_transversely_orientable(g)
        assert res.orientable
        assert verify_orientation_certificate(g, res.orientable, res.coloring, res.obstruction)

    def test_disconnected_components(self):
        g = graph("abcd", [("a", "b", False), ("c", "d", True),
                           ("d", "c", False)])
        res = is_transversely_orientable(g)
        assert not res.orientable
        assert verify_orientation_certificate(g, res.orientable, res.coloring, res.obstruction)

    def test_unknown_sector_rejected(self):
        g = graph("a", [("a", "ghost", False)])
        with pytest.raises(ValueError):
            is_transversely_orientable(g)

    @pytest.mark.parametrize("flip", [1, 0, "true", None])
    def test_a_flip_is_a_bool(self, flip):
        g = graph("ab", [("a", "b", flip)])
        with pytest.raises(ValueError, match=f"orientation edge 'e0': flip must be a bool, "
                                             f"not {flip!r}"):
            is_transversely_orientable(g)

    def test_tampered_coloring_fails_verification(self):
        g = graph("abc", [("a", "b", True), ("b", "c", True), ("c", "a", False)])
        res = is_transversely_orientable(g)
        coloring = dict(res.coloring)
        coloring["b"] = -coloring["b"]
        assert not verify_orientation_certificate(g, res.orientable, coloring, res.obstruction)

    def test_fake_obstruction_fails_verification(self):
        g = graph("ab", [("a", "b", True), ("a", "b", True)])
        # an even cycle, an unknown edge, and a walk that does not close
        assert not verify_orientation_certificate(g, False, None, ["e0", "e1"])
        assert not verify_orientation_certificate(g, False, None, ["e9"])
        assert not verify_orientation_certificate(g, False, None, ["e0"])

    def test_missing_certificate_fails_verification(self):
        g = graph("a", [("a", "a", False)])
        assert not verify_orientation_certificate(g, True, None, None)
        assert not verify_orientation_certificate(g, False, None, None)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.booleans()), max_size=12))
    def test_result_always_verifies(self, n, raw_edges):
        nodes = [f"n{i}" for i in range(n)]
        edges = [(f"n{u % n}", f"n{v % n}", flip) for u, v, flip in raw_edges]
        g = graph(nodes, edges)
        res = is_transversely_orientable(g)
        assert verify_orientation_certificate(g, res.orientable, res.coloring, res.obstruction)


class TestSinkDisks:
    def test_all_inward_is_a_sink(self):
        sectors = [
            {"id": "D1", "boundary": [{"curve": "c1", "direction": "in"},
                                      {"curve": "c2", "direction": "in"}]},
            {"id": "D2", "boundary": [{"curve": "c1", "direction": "in"},
                                      {"curve": "c3", "direction": "out"}]},
        ]
        assert detect_sink_disks(sectors) == ["D1"]

    def test_all_outward_is_not(self):
        sectors = [{"id": "D", "boundary": [{"curve": "c", "direction": "out"}]}]
        assert detect_sink_disks(sectors) == []

    def test_empty_boundary_rejected(self):
        with pytest.raises(ValueError):
            detect_sink_disks([{"id": "D", "boundary": []}])

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            detect_sink_disks(
                [{"id": "D", "boundary": [{"curve": "c", "direction": "sideways"}]}])


class TestComplementComponents:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ComplementComponent(kind="KleinBottle")

    def test_coherent_ibundle_table(self):
        def st_piece(wrap):
            return ComplementComponent(kind="SolidTorus", annulus_wrap=wrap)
        assert admits_coherent_ibundle(st_piece((1, 1)))
        assert admits_coherent_ibundle(st_piece((2,)))
        assert not admits_coherent_ibundle(st_piece((2, 2)))
        assert not admits_coherent_ibundle(st_piece((1,)))
        assert not admits_coherent_ibundle(st_piece((1, 1, 1)))
        assert not admits_coherent_ibundle(st_piece(()))
        assert admits_coherent_ibundle(ComplementComponent(kind="Ball", annulus_wrap=(1,)))
        assert not admits_coherent_ibundle(ComplementComponent(kind="Ball"))
        assert not admits_coherent_ibundle(ComplementComponent(kind="Ball", annulus_wrap=(1, 1)))
        assert not admits_coherent_ibundle(
            ComplementComponent(kind="TorusCrossInterval"))
        assert not admits_coherent_ibundle(
            ComplementComponent(kind="Handlebody", genus=2))

    def test_the_schema_keys_are_the_constructor_parameters(self):
        schema = load_schema("entry.schema.json")["$defs"]["complementComponent"]
        assert list(schema["properties"]) == list(
            inspect.signature(ComplementComponent).parameters)

    def test_an_unknown_key_is_refused(self):
        # a key the schema does not allow, in an entry built without from_json
        with pytest.raises(TypeError, match="core_power"):
            ComplementComponent.from_json({"kind": "Other", "core_power": 2})
        with pytest.raises(TypeError, match="core_power"):
            CatalogEntry("B0", "Q1", "s", AdmissibleSet("AllRationals"), "DiskLeaf",
                         complement=({"kind": "Other", "core_power": 2},))

    def test_vertical_annuli_count_the_wrap_numbers(self):
        piece = ComplementComponent(kind="SolidTorus", annulus_wrap=(2, 2))
        assert piece.vertical_annuli == 2
        assert ComplementComponent(kind="Handlebody", genus=2).vertical_annuli == 0
        # a property, not a field: the constructor takes no count, and a
        # piece shows, compares and copies by its fields only
        with pytest.raises(TypeError, match="vertical_annuli"):
            ComplementComponent(kind="Ball", vertical_annuli=1)
        with pytest.raises(AttributeError):
            piece.vertical_annuli = 3
        assert "vertical_annuli" not in repr(piece) and "vertical_annuli" not in vars(piece)

    def test_meridian_intersection(self):
        piece = ComplementComponent(kind="SolidTorus", annulus_wrap=(2,), meridian_hits=2)
        assert meridian_vertical_intersection(piece) == 2
        with pytest.raises(ComplementShapeError):
            meridian_vertical_intersection(ComplementComponent(kind="Ball", annulus_wrap=(1,)))
        with pytest.raises(ComplementShapeError):
            meridian_vertical_intersection(
                ComplementComponent(kind="SolidTorus", annulus_wrap=(1, 1)))
