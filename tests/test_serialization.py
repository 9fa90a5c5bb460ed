"""Formats: complex JSON round trips, generator ingestion, OBJ output."""

import json

import pytest

from skelforge.errors import NotIsometryError, ParseError
from skelforge.presets import build, finite_faced_chiral, square_tessellation
from skelforge.serialization import (
    complex_from_json,
    complex_to_json,
    complex_to_json_text,
    complex_to_obj,
    generators_to_json,
    generators_to_json_text,
    ingest_generators,
)


class TestComplexJson:
    def test_round_trip_byte_identical(self, built):
        for name in ("cube", "P:1,0", "K5_12"):
            patch = built(name)
            text = complex_to_json_text(patch)
            back = complex_from_json(json.loads(text))
            assert complex_to_json_text(back) == text

    def test_counts_in_dump(self, built):
        data = complex_to_json(built("cube"))
        assert data["counts"] == {
            "vertices": 8, "edges": 12, "faces": 6, "flags": 48,
        }

    def test_rational_scalars_as_strings(self, built):
        data = complex_to_json(built("hex63", 3))
        flat = [c for v in data["vertices"] for c in v]
        assert any("/" in c for c in flat)
        assert all(isinstance(c, str) for c in flat)

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            complex_from_json({"vertices": []})

    @pytest.mark.parametrize("edge", [[0, -1], [True, 2], [0], [0, 1, 2], [0, 3], [0, 1.0]])
    def test_bad_edge_entry_rejected(self, edge):
        # an edge is two ints indexing the vertex list: a negative index
        # must not wrap to the last vertex, nor a bool count as an index
        data = {
            "region": {"center": ["0", "0", "0"], "radius": "2"},
            "vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]],
            "edges": [[0, 1], [1, 2], edge],
            "faces": [],
        }
        with pytest.raises(ParseError, match="vertex indices"):
            complex_from_json(data)

    def test_self_loop_edge_rejected(self, built):
        # an edge from a vertex to itself is no edge of a polyhedron
        data = complex_to_json(built("cube"))
        data["edges"][0] = [0, 0]
        with pytest.raises(ParseError, match=r"\[0, 0\]"):
            complex_from_json(data)


class TestGeneratorJson:
    def test_round_trip_equals_preset(self):
        gen = finite_faced_chiral(1, 0)
        back = ingest_generators(generators_to_json_text(gen))
        assert back.generators == gen.generators
        assert back.base_vertex == gen.base_vertex
        assert back.base_edge_other == gen.base_edge_other
        assert back.face_word == gen.face_word

    def test_round_trip_builds_same_patch(self, built):
        from skelforge.complexes import Region
        from skelforge.orbit import wythoff_patch

        gen = ingest_generators(generators_to_json_text(finite_faced_chiral(1, 0)))
        patch = wythoff_patch(gen, Region((0, 0, 0), 2))
        direct = build("P:1,0", Region((0, 0, 0), 2))
        assert patch.vertices == direct.vertices
        assert [f.canonical_key() for f in patch.faces] == [
            f.canonical_key() for f in direct.faces
        ]

    def test_word_face_generator_round_trip(self):
        gen = square_tessellation()
        back = ingest_generators(generators_to_json_text(gen))
        assert back.face_word == ("R0", "R1")

    def test_non_orthogonal_matrix_rejected(self):
        data = generators_to_json(finite_faced_chiral(1, 0))
        data["generators"][0]["matrix"][0] = ["1", "1", "0"]
        with pytest.raises(NotIsometryError) as err:
            ingest_generators(data)
        assert "S1" in err.value.detail

    def test_coincident_base_edge_rejected(self):
        data = generators_to_json(finite_faced_chiral(1, 0))
        data["base_edge_other"] = data["base_vertex"]
        from skelforge.errors import InvalidParametersError

        with pytest.raises(InvalidParametersError):
            ingest_generators(data)

    def test_malformed_json_text(self):
        with pytest.raises(ParseError):
            ingest_generators("{not json")


class TestObj:
    def test_cube_faces_are_f_records(self, built):
        obj = complex_to_obj(built("cube"))
        assert obj.count("\nf ") == 6
        assert obj.count("\nv ") == 8

    def test_skew_faces_become_polylines(self, built):
        from skelforge.ops import petrie_dual

        obj = complex_to_obj(petrie_dual(built("cube")))
        assert obj.count("\nf ") == 0
        assert obj.count("\nl ") == 4

    def test_infinite_faces_emit_periods(self, built):
        obj = complex_to_obj(built("P2:1,0"), periods=3)
        line = next(l for l in obj.splitlines() if l.startswith("l "))
        assert len(line.split()) == 3 * 4 + 2  # three periods plus closing vertex

    @pytest.mark.parametrize("name", ["cube", "P2:1,0", "P:1,0"])
    def test_obj_independent_of_json_round_trip(self, built, name):
        patch = built(name)
        back = complex_from_json(complex_to_json(patch))
        assert complex_to_obj(back) == complex_to_obj(patch)

    def test_twelve_digit_floats(self, built):
        obj = complex_to_obj(built("hex63", 3))
        vline = next(l for l in obj.splitlines() if l.startswith("v "))
        assert all(len(tok.split(".")[1]) == 12 for tok in vline.split()[1:])
