"""Formats: complex JSON round trips, generator ingestion, OBJ output."""

import json
import re
from fractions import Fraction

import pytest

from skelforge.complexes import Region
from skelforge.errors import NotIsometryError, ParseError, SkelforgeError
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

from test_orbit import moved_preset
from test_presets import CATALOG_SWEEP

ROUND_TRIP = [name for name, _, _ in CATALOG_SWEEP] + [
    "P2:1/3,2/5", "P:5,3", "P:3,2", "P2:2,1", "P:1,-2",
    "petrie(P2:1/3,2/5)", "petrie(P:5,3)", "petrie(P:3,2)", "petrie(P2:2,1)", "petrie(P:1,-2)",
]
Z3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def _basis(patch):
    return None if patch.lattice is None else patch.lattice.basis


class TestComplexJson:
    def test_round_trip_byte_identical(self, built):
        for name in ("cube", "P:1,0", "K5_12"):
            patch = built(name)
            text = complex_to_json_text(patch)
            back = complex_from_json(json.loads(text))
            assert complex_to_json_text(back) == text

    @pytest.mark.parametrize("name", ["P:1,0", "K4_12", "hex63"])
    def test_scanned_lattice_is_the_built_one_at_every_radius(self, built, name):
        # the file states the reduced Hermite form, which is a function of
        # the lattice, and reading it gives the built basis back
        for radius in (3, 4):
            patch = built(name, radius)
            back = complex_from_json(complex_to_json(patch))
            assert back.lattice.basis == patch.lattice.basis, radius

    @pytest.mark.parametrize("radius", [Fraction(1, 2), 1, 3], ids=str)
    @pytest.mark.parametrize("name", ROUND_TRIP)
    def test_round_trip_is_exact(self, name, radius):
        # the file states the lattice, and the listed elements unrolled over
        # it by the patch rule are the patch: plain and moved off the grid
        for patch in (build(name, Region((0, 0, 0), radius)), moved_preset(name, radius)):
            back = complex_from_json(complex_to_json(patch))
            assert back.vertices == patch.vertices
            assert back.edge_points == patch.edge_points
            assert list(back.face_keys) == list(patch.face_keys)
            assert _basis(back) == _basis(patch)

    def test_lattice_key_is_the_reduced_basis(self, built):
        assert complex_to_json(built("cube"))["lattice"] == []
        assert complex_to_json(built("P:1,0", 2))["lattice"] == \
            [["1", "1", "1"], ["0", "2", "0"], ["0", "0", "2"]]
        assert complex_to_json(moved_preset("hex63"))["lattice"] == \
            [["1", "0", "-1"], ["0", "1", "-1"]]

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

    def test_old_window_margin_key_is_ignored(self, built):
        # files written before the patch lost its margin carry the key;
        # it is read past, and the patch reads to the same class table
        from test_orbit import class_table_text

        data = complex_to_json(built("P2:1,0", 3))
        assert "window_margin" not in data
        plain = complex_from_json(data)
        old = complex_from_json(dict(data, window_margin="5"))
        assert complex_to_json(old) == data
        assert class_table_text(old) == class_table_text(plain)

    def test_self_loop_edge_rejected(self, built):
        # an edge from a vertex to itself is no edge of a polyhedron
        data = complex_to_json(built("cube"))
        data["edges"][0] = [0, 0]
        with pytest.raises(ParseError, match=r"\[0, 0\]"):
            complex_from_json(data)


def _edge_text(data, e):
    p, q = (data["vertices"][i] for i in e)
    return f"({','.join(p)})-({','.join(q)})"


class TestComplexFileRefusals:
    """A file whose listed elements are not the patch of its stated lattice
    is refused with a ``SkelforgeError`` that names the first difference."""

    def test_a_lattice_vector_that_is_no_symmetry(self, built):
        # Z^3 holds the vertex set of P:1,0, whose lattice is bcc, but moves
        # its edges off the structure, and the ends of those outside the region
        data = complex_to_json(built("P:1,0", 2))
        data["lattice"] = Z3
        with pytest.raises(ParseError, match=re.escape(
                "the stated lattice gives vertex (-3,-3,-3), which the file does not list")):
            complex_from_json(data)

    def test_a_dropped_edge(self, built):
        data = complex_to_json(built("P:1,0", 2))
        dropped = data["edges"].pop(7)
        with pytest.raises(ParseError, match=re.escape(
                f"the stated lattice gives edge {_edge_text(data, dropped)}, "
                "which the file does not list")):
            complex_from_json(data)

    def test_a_stray_vertex(self, built):
        # a vertex of the structure, but far outside the region and on no
        # listed edge: the patch rule does not take it
        data = complex_to_json(built("P:1,0", 2))
        data["vertices"].append(["9", "9", "9"])
        with pytest.raises(ParseError, match=re.escape(
                "the file lists vertex (9,9,9), which the stated lattice does not give")):
            complex_from_json(data)

    @pytest.mark.parametrize("basis", [[["2", "0", "0"]], [["1", "1", "0"], ["2", "2", "0"]]])
    def test_a_rank_one_lattice(self, built, basis):
        data = complex_to_json(built("P:1,0", 2))
        data["lattice"] = basis
        with pytest.raises(ParseError, match="rank-1"):
            complex_from_json(data)

    @pytest.mark.parametrize("name,radius", [
        ("cube", Fraction(1, 2)), ("cube", 3), ("P:1,0", 2), ("P2:1,0", 2),
        ("blend(sq44,apeiro:1)", 2),
    ], ids=str)
    def test_a_file_without_a_lattice_is_refused(self, built, name, radius):
        # element lists alone cannot tell a finite structure from a patch of
        # a periodic one, so the file must say which
        data = complex_to_json(built(name, radius))
        del data["lattice"]
        with pytest.raises(ParseError, match="lattice"):
            complex_from_json(data)

    def test_an_apeirogon_over_the_trivial_lattice(self, built):
        data = complex_to_json(built("P2:1,0", 2))
        data["lattice"] = []
        with pytest.raises(SkelforgeError):
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
