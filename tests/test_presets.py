"""Catalog constructions and their headline numbers."""

from fractions import Fraction

import pytest

from skelforge.complexes import Region, graph_identify, validate
from skelforge.errors import InvalidParametersError, ParseError
from skelforge.geometry import LAMBDA_1, LAMBDA_2, LAMBDA_3, SET_V
from skelforge.presets import (
    build,
    chiral_t_map,
    finite_faced_chiral,
    helix_faced_chiral,
    instantiate,
)
from skelforge.serialization import complex_to_json_text

from lattice_oracle import detect_translation_lattice


class TestParameterValidation:
    def test_both_zero_rejected(self):
        with pytest.raises(InvalidParametersError):
            finite_faced_chiral(0, 0)
        with pytest.raises(InvalidParametersError):
            helix_faced_chiral(0, 0)

    def test_coprimality_required(self):
        with pytest.raises(InvalidParametersError):
            finite_faced_chiral(2, 4)
        finite_faced_chiral(2, 1)  # fine
        finite_faced_chiral(3, 0)  # zero exempts

    def test_unknown_preset(self):
        with pytest.raises(ParseError):
            instantiate("dodecahedron")

    def test_base_edge_data(self):
        gen = finite_faced_chiral(2, 1)
        assert gen.base_vertex == (0, 0, 0)
        assert gen.base_edge_other == (2, 0, 1)
        t = chiral_t_map(gen)
        assert t(gen.base_vertex) == gen.base_edge_other
        assert t(gen.base_edge_other) == gen.base_vertex


class TestPlatonic:
    @pytest.mark.parametrize(
        "name,counts",
        [("tet", (4, 6, 4)), ("cube", (8, 12, 6)), ("oct", (6, 12, 8))],
    )
    def test_counts_and_validity(self, built, name, counts):
        patch = built(name)
        assert patch.counts() == counts
        assert validate(patch, "polyhedron").passed


class TestHelixFamily:
    def test_cube_degeneration(self, built):
        # c = 0 collapses the screw to a rotation and the family to a cube
        cube = built("P2:0,1")
        assert cube.counts() == (8, 12, 6)
        assert validate(cube, "polyhedron").passed

    def test_helical_faces_for_nonzero_c(self, built):
        p = built("P2:1,0")
        assert any(f.period_vector is not None for f in p.faces)
        assert validate(p, "polyhedron").passed


class TestTwoSkeleton:
    def test_r4_and_octahedral_figure(self, built):
        skel = built("skel2cubic", 3)
        rep = validate(skel, "complex")
        assert rep.passed and rep.r == 4
        assert graph_identify(skel.vertex_figure((0, 0, 0))) == "octahedron"

    def test_faces_are_unit_squares(self, built):
        skel = built("skel2cubic", 3)
        assert all(len(f) == 4 and f.period_vector is None for f in skel.faces)


class TestKComplexes:
    def test_k1_row(self, built):
        k1 = built("K1_12", 3)
        rep = validate(k1, "complex")
        assert rep.passed and rep.r == 4
        assert graph_identify(k1.vertex_figure((0, 0, 0))) == "cuboctahedron"
        assert all(len(f) == 4 for f in k1.faces)

    def test_k4_row(self, built):
        k4 = built("K4_12", 3)
        rep = validate(k4, "complex")
        assert rep.passed and rep.r == 4
        assert graph_identify(k4.vertex_figure((0, 0, 0))) == "octahedron"
        assert len(k4.faces_at_vertex((0, 0, 0))) == 12
        assert all(len(f) == 6 for f in k4.faces)

    def test_k5_row(self, built):
        k5 = built("K5_12", 3)
        rep = validate(k5, "complex")
        assert rep.passed and rep.r == 4
        assert graph_identify(k5.vertex_figure((0, 0, 0))) == "double square"
        assert len(k5.faces_at_vertex((0, 0, 0))) == 8
        assert all(SET_V.member(v) for v in k5.vertices)

    def test_k4_hexagons_cover_cube_edges_twice(self, built):
        # the four Petrie hexagons of one occupied cube use each of its
        # twelve edges exactly twice; two occupied cubes per edge give r=4
        from preset_oracles import _cube_petrie_hexagons

        hexes = _cube_petrie_hexagons((0, 0, 0))
        assert len(hexes) == 4
        from collections import Counter

        count = Counter()
        for h in hexes:
            for i in range(6):
                count[frozenset((h.vertices[i], h.vertices[(i + 1) % 6]))] += 1
        assert len(count) == 12
        assert set(count.values()) == {2}

    def test_k5_uses_only_allowed_corners(self, built):
        # every chosen hexagon avoids exactly the excluded antipodal pair
        k5 = built("K5_12", 3)
        for f in k5.faces:
            assert all(SET_V.member(p) for p in f.vertices)

    @pytest.mark.parametrize("name,lattice", [
        ("skel2cubic", LAMBDA_1), ("K1_12", LAMBDA_2), ("K4_12", LAMBDA_2),
        ("K5_12", LAMBDA_3),
    ])
    def test_declared_lattice_matches_scan(self, built, name, lattice):
        patch = built(name, 4)
        assert patch.lattice is lattice
        found = detect_translation_lattice(patch.vertices, patch.edge_points,
                                           patch.faces, patch.region)
        assert found.sublattice_of(lattice) and lattice.sublattice_of(found)

    def test_build_entry_for_K_complexes(self):
        k1 = build("K1_12", Region((0, 0, 0), 2))
        assert k1.name == "K1(1,2)"
        with pytest.raises(ParseError):
            build("K9_12")

    @pytest.mark.parametrize("name", ["skel2cubic", "K1_12", "K4_12", "K5_12"])
    def test_class_literals_equal_the_oracle_builders(self, name):
        # the face classes unrolled give the faces the cube-by-cube builders
        # assemble, at radii that cut the cubes in every way
        from preset_oracles import ORACLES

        for r in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 4):
            region = Region((0, 0, 0), r)
            assert complex_to_json_text(build(name, region)) == \
                complex_to_json_text(ORACLES[name](region)), (name, r)


CATALOG_SWEEP = [
    ("tet", 4, "polyhedron"), ("cube", 4, "polyhedron"), ("oct", 4, "polyhedron"),
    ("sq44", 4, "polyhedron"), ("tri36", 3, "polyhedron"), ("hex63", 3, "polyhedron"),
    ("P:1,0", 4, "polyhedron"), ("P:1,1", 4, "polyhedron"),
    ("P:1,-1", 4, "polyhedron"), ("P:2,1", 4, "polyhedron"),
    ("P2:0,1", 4, "polyhedron"), ("P2:1,0", 4, "polyhedron"),
    ("P2:1,1", 6, "polyhedron"),
    ("skel2cubic", 4, "complex"), ("K1_12", 4, "complex"),
    ("K4_12", 4, "complex"), ("K5_12", 4, "complex"),
    ("petrie(cube)", 4, "polyhedron"), ("petrie(sq44)", 4, "polyhedron"),
    ("blend(sq44,seg:1)", 4, "polyhedron"),
    ("blend(sq44,apeiro:1)", 4, "polyhedron"),
]


class TestCatalogSweep:
    @pytest.mark.parametrize("name,radius,mode", CATALOG_SWEEP)
    def test_every_preset_validates(self, built, name, radius, mode):
        rep = validate(built(name, radius), mode)
        assert rep.passed, (name, rep.failed_axioms())

    def test_generic_parameters_are_chiral_with_both_skew(self, built):
        from skelforge.classify import classify_polygon, verdict
        from skelforge.complexes import FaceDescriptor
        from skelforge.presets import finite_faced_chiral

        for a, b in ((1, 0), (2, 1)):
            patch = built(f"P:{a},{b}")
            v = verdict(patch, finite_faced_chiral(a, b).isometries())
            assert v.kind == "chiral", (a, b)
            assert classify_polygon(patch.faces[0]).kind == "skew"
            vf = patch.vertex_figure((0, 0, 0))
            assert classify_polygon(FaceDescriptor(vf.cycle_order())).kind == "skew"


class TestDerivedNames:
    def test_aliases(self):
        gen = instantiate("{6,6|3}")
        assert gen.name == "P(1,1)"

    def test_petrie_wrapper(self, built):
        pc = build("petrie(cube)")
        assert pc.counts() == (8, 12, 4)

    def test_blend_wrappers(self):
        bs = build("blend(sq44,seg:1)", Region((0, 0, 0), 3))
        assert {v[2] for v in bs.vertices} == {1, -1}
        ba = build("blend(sq44,apeiro:1)", Region((0, 0, 0), 3))
        assert all(f.period_vector == (0, 0, 4) for f in ba.faces)


def _affine(f):
    """The isometry x -> f(x) of an affine map written on (x, y, z)."""
    from skelforge.geometry import Isometry, mat_transpose, vsub

    t = f(0, 0, 0)
    return Isometry(mat_transpose([vsub(f(*e), t) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]), t)


# a generator set per constructive preset, face word F: the base edge, then
# the generators as maps of (x, y, z)
CONSTRUCTIVE_GENERATORS = {
    "skel2cubic": (((0, 0, 0), (1, 0, 0)), {
        "F": lambda x, y, z: (1 - y, x, z),
        "G1": lambda x, y, z: (x, y, -z),
        "G2": lambda x, y, z: (x, z, y)}),
    "K1_12": (((0, 0, 0), (0, 1, 1)), {
        "F": lambda x, y, z: (z, 1 - y, 1 - x),
        "G1": lambda x, y, z: (x, z, -y)}),
    "K4_12": (((0, 0, 1), (0, 1, 1)), {
        "F": lambda x, y, z: (1 - z, 1 - x, 1 - y),
        "G1": lambda x, y, z: (x, -z, y + 1)}),
    "K5_12": (((0, 0, 0), (0, 1, 0)), {
        "F": lambda x, y, z: (z, 1 - x, y),
        "G1": lambda x, y, z: (x, y, -z),
        "G2": lambda x, y, z: (x, z + 1, y + 1)}),
}


class TestConstructiveGenerators:
    # the constructive presets are class literals; each has a generator set
    # that rebuilds it through wythoff_patch, lattice basis included, since
    # a lattice's basis does not depend on the vectors that generate it
    @pytest.mark.parametrize("radius", [3, 4])
    @pytest.mark.parametrize("name", list(CONSTRUCTIVE_GENERATORS))
    def test_generators_rebuild_the_literal(self, built, name, radius):
        from skelforge.orbit import GeneratorSet, wythoff_patch

        (a, b), maps = CONSTRUCTIVE_GENERATORS[name]
        gen = GeneratorSet({k: _affine(f) for k, f in maps.items()}, a, b, "F", name=name)
        patch = wythoff_patch(gen, Region((0, 0, 0), radius))
        literal = built(name, radius)
        assert patch.vertices == literal.vertices
        assert patch.edge_points == literal.edge_points
        assert set(patch.face_keys) == set(literal.face_keys)
        assert patch.lattice.basis == literal.lattice.basis
