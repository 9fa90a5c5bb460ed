"""Face descriptors, patch invariants, vertex figures, axiom validation."""

from fractions import Fraction

import pytest

from skelforge.classify import schlafli
from skelforge.complexes import (
    FaceDescriptor,
    Region,
    SkeletalComplex,
    graph_identify,
    validate,
    _CATALOG,
    _multigraph,
    _multigraph_isomorphic,
)
from skelforge.errors import (
    BoundaryError,
    DegenerateFaceError,
    NotEquivelarError,
    NotPolyhedronError,
)
from skelforge.geometry import LAMBDA_1, finite_lattice, vadd
from skelforge.ops import trace


SQUARE = FaceDescriptor([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
ZIGZAG = FaceDescriptor([(0, 0, 0), (1, 0, 0)], period_vector=(1, 1, 0))


class TestFaceDescriptor:
    def test_finite_needs_three_distinct(self):
        with pytest.raises(DegenerateFaceError):
            FaceDescriptor([(0, 0, 0), (1, 0, 0)])
        with pytest.raises(DegenerateFaceError):
            FaceDescriptor([(0, 0, 0), (1, 0, 0), (0, 0, 0)])

    def test_infinite_rejects_zero_period(self):
        with pytest.raises(DegenerateFaceError):
            FaceDescriptor([(0, 0, 0)], period_vector=(0, 0, 0))

    def test_infinite_rejects_repeats_under_translation(self):
        with pytest.raises(DegenerateFaceError):
            FaceDescriptor([(0, 0, 0), (1, 1, 0)], period_vector=(1, 1, 0))

    def test_walk_indexing(self):
        assert ZIGZAG.vertex(2) == (1, 1, 0)
        assert ZIGZAG.vertex(-1) == (0, -1, 0)
        assert SQUARE.vertex(5) == (1, 0, 0)

    def test_primitive_lists_one_least_period(self):
        # the zigzag walked over three periods, as a class of a coarser
        # lattice holds it, and over a half-integral period
        tripled = FaceDescriptor([ZIGZAG.vertex(i) for i in range(6)], (3, 3, 0))
        assert tripled.primitive().vertices == ZIGZAG.vertices
        assert tripled.primitive().period_vector == ZIGZAG.period_vector
        half = FaceDescriptor([(0, 0, 0), (Fraction(1, 2), 0, 0)], (1, 0, 0))
        assert half.primitive().vertices == ((0, 0, 0),)
        assert half.primitive().period_vector == (Fraction(1, 2), 0, 0)
        assert SQUARE.primitive() is SQUARE and ZIGZAG.primitive().vertices == ZIGZAG.vertices

    def test_canonical_key_rotation_reflection_invariant(self):
        rotations = [
            FaceDescriptor(SQUARE.vertices[i:] + SQUARE.vertices[:i])
            for i in range(4)
        ]
        rotations.append(SQUARE.reversed())
        keys = {f.canonical_key() for f in rotations}
        assert len(keys) == 1

    def test_canonical_key_infinite_anchor_and_direction(self):
        same = [
            ZIGZAG,
            FaceDescriptor([(1, 1, 0), (2, 1, 0)], period_vector=(1, 1, 0)),
            FaceDescriptor([(1, 0, 0), (0, 0, 0)], period_vector=(-1, -1, 0)),
            FaceDescriptor([(2, 2, 0), (3, 2, 0)], period_vector=(1, 1, 0)),
        ]
        keys = {f.canonical_key() for f in same}
        assert len(keys) == 1
        other = FaceDescriptor([(0, 0, 0), (0, 1, 0)], period_vector=(1, 1, 0))
        assert other.canonical_key() not in keys

    def test_window_covers_region(self):
        region = Region((0, 0, 0), 3)
        lo, hi = ZIGZAG.window(region)
        pts = [ZIGZAG.vertex(k) for k in range(lo, hi + 1)]
        inside = [p for p in pts if region.contains(p)]
        assert inside and region.contains(pts[1])
        assert not region.contains(ZIGZAG.vertex(lo - 1))
        assert not region.contains(ZIGZAG.vertex(hi + 1))

    def test_window_misses_region(self):
        far = Region((100, 100, 0), 2)
        assert SQUARE.window(far) is None
        aside = Region((10, -10, 0), 2)
        assert ZIGZAG.window(aside) is None


import itertools

from hypothesis import given, settings, strategies as st

from skelforge.geometry import Isometry, scalar
from skelforge.presets import build
from test_presets import CATALOG_SWEEP

_PERMS = [
    tuple(tuple(s[i] if j == p[i] else 0 for j in range(3)) for i in range(3))
    for p in itertools.permutations(range(3))
    for s in itertools.product((1, -1), repeat=3)
]
_FACES = [
    SQUARE,
    ZIGZAG,
    FaceDescriptor([(0, 0, 0), (0, 0, -1), (0, -1, -1), (1, -1, -1),
                    (1, -1, 0), (1, 0, 0)]),
    FaceDescriptor([(0, 0, 0), (0, 1, -1), (1, 2, -1), (1, 3, 0)],
                   period_vector=(0, 4, 0)),
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_FACES),
    st.sampled_from(_PERMS),
    st.tuples(*[st.integers(-3, 3)] * 3),
    st.integers(0, 7),
    st.booleans(),
)
def test_face_key_depends_only_on_the_point_set(face, m, t, rot, rev):
    # the canonical key must not see how the face was listed, only where it is
    g = Isometry(m, t, check=False)
    moved = face.transform(g)
    n = len(moved.vertices)
    relisted = FaceDescriptor(
        tuple(moved.vertex(rot % n + i) for i in range(n)),
        moved.period_vector,
        check=False,
    )
    if rev:
        relisted = relisted.reversed()
    assert relisted.canonical_key() == moved.canonical_key()


def _fresh_key(face):
    return FaceDescriptor(face.vertices, face.period_vector, check=False).canonical_key()


@pytest.mark.parametrize("name", [name for name, _, _ in CATALOG_SWEEP])
def test_face_translates_carry_the_canonical_key(name):
    # a finite face's key is computed once per class and moved with every
    # translate; it must be the key the translate would compute itself
    from skelforge.quotient import face_translates

    region = Region((0, 0, 0), 3)
    classes = build(name, region).classes
    for f in classes.faces.values():
        for face in face_translates(classes.lattice, f.primitive(), region):
            if face.period_vector is None:
                assert face._key is not None, name
            assert face.canonical_key() == _fresh_key(face), name


_RATIONAL_SHIFT = (Fraction(1, 3), Fraction(-1, 2), 0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FACES + [f.translate(_RATIONAL_SHIFT) for f in _FACES]),
       st.one_of(st.tuples(*[st.integers(-3, 3)] * 3),
                 st.tuples(*[st.fractions(-2, 2, max_denominator=3).map(scalar)] * 3)))
def test_translate_moves_a_known_key(face, v):
    face.canonical_key()
    moved = face.translate(v)
    assert moved.vertices == tuple(tuple(scalar(c) for c in vadd(p, v))
                                   for p in face.vertices)
    assert all(type(c) is int or c.denominator != 1
               for p in moved.vertices for c in p)
    assert moved.canonical_key() == _fresh_key(moved)


class TestSkeletalComplex:
    def test_face_edges_and_support_vertices_added(self):
        region = Region((0, 0, 0), 1)
        c = SkeletalComplex.from_classes(finite_lattice(), [SQUARE], region)
        assert c.counts() == (4, 4, 1)
        assert c.has_edge((0, 0, 0), (1, 0, 0))

    def test_duplicate_faces_collapse(self):
        region = Region((0, 0, 0), 2)
        c = SkeletalComplex.from_classes(finite_lattice(), [SQUARE, SQUARE.reversed()],
                                         region)
        assert c.counts()[2] == 1

    def test_bare_element_lists_are_no_way_in(self):
        # a patch is made from its lattice and classes, never from lists
        with pytest.raises(TypeError):
            SkeletalComplex([], [], [SQUARE], Region((0, 0, 0), 1))

    def test_vertex_figure_boundary_error(self, built):
        cube = built("cube")
        with pytest.raises(BoundaryError):
            cube.vertex_figure((9, 9, 9))

    def test_vertex_figure_anywhere_in_space(self, built):
        # figures are read from the vertex class: a vertex far outside the
        # region has the origin's figure and faces, moved with it
        p10 = built("P:1,0", 1)
        t = tuple(5 * c for c in p10.lattice.basis[0])
        near, far = p10.vertex_figure((0, 0, 0)), p10.vertex_figure(t)
        assert far.nodes == {vadd(p, t) for p in near.nodes}
        assert far.edges == {frozenset(vadd(p, t) for p in e): m
                             for e, m in near.edges.items()}
        assert ([f.canonical_key() for f in p10.faces_at_vertex(t)]
                == [f.translate(t).canonical_key() for f in p10.faces_at_vertex((0, 0, 0))])

    def test_cube_vertex_figure_is_a_triangle_cycle(self, built):
        cube = built("cube")
        vf = cube.vertex_figure((1, 1, 1))
        assert len(vf.nodes) == 3
        assert vf.is_single_cycle()
        # triangles are deliberately outside the naming catalog
        assert graph_identify(vf) == "unknown"

    def test_chiral_hexagon_vertex_figure_matches_formula(self, built):
        # the neighbor cycle at the origin for parameters (1, 0)
        p10 = built("P:1,0")
        vf = p10.vertex_figure((0, 0, 0))
        assert vf.nodes == frozenset(
            [(1, 0, 0), (0, -1, 0), (0, 0, 1), (-1, 0, 0), (0, 1, 0), (0, 0, -1)]
        )
        assert vf.is_single_cycle()
        listed = [(1, 0, 0), (0, -1, 0), (0, 0, 1), (-1, 0, 0), (0, 1, 0), (0, 0, -1)]
        expected_edges = {
            frozenset((listed[i], listed[(i + 1) % 6])) for i in range(6)
        }
        assert set(vf.edges) == expected_edges
        assert all(m == 1 for m in vf.edges.values())


class TestValidation:
    def test_cube_is_a_polyhedron(self, built):
        rep = validate(built("cube"), "polyhedron")
        assert rep.passed and rep.r == 2
        assert rep.discreteness == "finite"

    def test_two_skeleton_is_a_complex_with_r4(self, built):
        rep = validate(built("skel2cubic", 3), "complex")
        assert rep.passed and rep.r == 4

    def test_two_skeleton_fails_polyhedron_mode(self, built):
        rep = validate(built("skel2cubic", 3), "polyhedron")
        assert not rep.passed
        assert "c:faces-per-edge" in rep.failed_axioms()

    def test_removing_a_face_breaks_constancy(self, built):
        # the 2-skeleton without one of its three square classes: the edges
        # parallel to the missing squares keep 2 faces, the third kind 4
        skel = built("skel2cubic", 3)
        classes = list(skel.classes.faces.values())
        assert len(classes) == 3
        for gap in classes:
            broken = SkeletalComplex.from_classes(
                skel.classes.lattice, [f for f in classes if f is not gap], skel.region
            )
            rep = validate(broken, "complex")
            assert rep.failed_axioms() == ["c:faces-per-edge"]
            assert dict((a, d) for a, _, d in rep.entries)["c:faces-per-edge"] == \
                "nonconstant: {2: 2, 4: 1}"

    def test_details_count_classes(self, built):
        # at radius 1/2 the region holds no vertex of the cube; the axioms
        # are checked on its classes
        rep = validate(built("cube", Fraction(1, 2)))
        assert rep.entries[:3] == [
            ("a:edge-graph-connected", True, "8 vertex classes, 12 edge classes"),
            ("b:vertex-figures-connected", True, "0 disconnected of 8 vertex classes"),
            ("c:faces-per-edge", True, "r = 2 (need 2)"),
        ]

    def test_each_axiom_fails_on_its_own(self, built):
        # two cubes apart, two cubes sharing a vertex, a cube without a face
        faces = built("cube").faces

        def moved(t):
            return [f.translate(t) for f in faces]

        cases = [
            (faces + moved((4, 0, 0)), "a:edge-graph-connected",
             "16 vertex classes, 24 edge classes"),
            (faces + moved((2, 2, 2)), "b:vertex-figures-connected",
             "1 disconnected of 15 vertex classes"),
            (faces[1:], "c:faces-per-edge", "nonconstant: {1: 4, 2: 8}"),
        ]
        for fs, axiom, detail in cases:
            rep = validate(SkeletalComplex.from_classes(finite_lattice(), fs,
                                                        Region((0, 0, 0), 6)))
            assert rep.failed_axioms() == [axiom]
            assert dict((a, d) for a, _, d in rep.entries)[axiom] == detail

    def test_face_count_varying_by_edge_class_fails_c_alone(self):
        # the xy and xz unit squares of the cubic lattice: an x edge lies on
        # four faces, a y or z edge on two.  No region changes that, so the
        # quotient is built, (a) and (b) hold, and (c) names the counts
        xz = FaceDescriptor([(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)])
        c = SkeletalComplex.from_classes(LAMBDA_1, [SQUARE, xz], Region((0, 0, 0), 3))
        rep = validate(c)
        assert rep.entries[:3] == [
            ("a:edge-graph-connected", True, "1 vertex classes, 3 edge classes"),
            ("b:vertex-figures-connected", True, "0 disconnected of 1 vertex classes"),
            ("c:faces-per-edge", False, "nonconstant: {2: 2, 4: 1}"),
        ]
        with pytest.raises(NotEquivelarError):
            schlafli(c)
        with pytest.raises(NotPolyhedronError, match="faces per edge is not constant"):
            trace(c, "petrie")

    def test_periodic_discreteness_certificate(self, built):
        rep = validate(built("P:1,0"), "polyhedron")
        assert rep.passed
        assert rep.discreteness.startswith("periodic")

    @pytest.mark.parametrize(
        "name,discreteness", [("hex63", "periodic rank 2"), ("P2:0,1", "finite")]
    )
    def test_discreteness_comes_from_the_classes(self, built, name, discreteness):
        # at radius 1/2 the hexagon tiling's patch holds no face and the
        # cube's faces all poke out of the region
        for radius in (Fraction(1, 2), 3):
            assert validate(built(name, radius)).discreteness == discreteness


class TestGraphIdentify:
    def test_catalog_self_identification(self):
        for name, adj in _CATALOG.items():
            assert graph_identify(adj) == name

    def test_unknown_graph(self):
        assert graph_identify(_multigraph([(0, 1), (1, 2)])) == "unknown"
        # a single triangle is not in the catalog either
        assert graph_identify(_multigraph([(0, 1), (1, 2), (2, 0)])) == "unknown"

    def test_double_distinction(self):
        assert not _multigraph_isomorphic(
            _CATALOG["square"], _CATALOG["double square"]
        )

    def test_relabelled_cuboctahedron(self):
        adj = _CATALOG["cuboctahedron"]
        relabel = {n: f"x{n}" for n in adj}
        shuffled = {
            relabel[n]: {relabel[m]: c for m, c in nbrs.items()}
            for n, nbrs in adj.items()
        }
        assert graph_identify(shuffled) == "cuboctahedron"
