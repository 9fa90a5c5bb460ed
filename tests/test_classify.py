"""Polygon taxonomy, symmetry recovery, verdicts, Schlafli symbols, duality."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from skelforge.complexes import FaceDescriptor, Region
from skelforge.errors import (
    GeneratorsDoNotDescendError,
    NotAPolygonError,
    NotEquivelarError,
    NotInvolutionError,
    PatchTooSmallError,
    SkelforgeError,
    UnderdeterminedError,
)
from skelforge.classify import (
    base_flag,
    classify_polygon,
    dual_congruence_check,
    edge_stabilizer,
    find_flag_symmetries,
    flag_map_candidates,
    is_symmetry,
    mirror_vector,
    schlafli,
    verdict,
)
from skelforge.complexes import SkeletalComplex
from skelforge.geometry import (
    Isometry,
    Lattice,
    fixed_space_dim,
    half_turn,
    point_reflection,
    reflection_in_plane,
    spanning_indices,
    translation,
    vscale,
    vsub,
)
from skelforge.ops import petrie_dual
from skelforge.orbit import build_base_face
from skelforge.presets import build, finite_faced_chiral, helix_faced_chiral, instantiate
from polygon_oracle import classify_polygon_by_winding
from symmetry_oracle import is_symmetry_by_class_keys
from test_geometry import cayley_isometries
from test_orbit import moved_preset
from test_presets import CATALOG_SWEEP


def is_patch_symmetry(patch, iso, min_evidence=4):
    """Oracle: ``iso`` maps the patch onto itself wherever it can be seen.

    Every vertex, edge, or face whose image lies inside (or, for faces,
    touches) the region must land on a patch element, with at least
    ``min_evidence`` vertex images inside.
    """
    region = patch.region
    hits = 0
    for v in patch.vertices:
        w = iso(v)
        if region.contains(w):
            if w not in patch.vindex:
                return False
            hits += 1
    if hits < min_evidence:
        return False
    for p, q in patch.edge_points:
        gp, gq = iso(p), iso(q)
        if region.contains(gp) and region.contains(gq):
            if tuple(sorted((gp, gq))) not in patch.eindex:
                return False
    for f in patch.faces:
        img = f.transform(iso)
        if img.window(region) is not None:
            if img.canonical_key() not in patch.face_keys:
                return False
    return True


def flag_map_candidates_at_base(patch):
    """Every isometry candidate from the base flag to its 0-, 1- and
    2-adjacent flags and to every flag at the base vertex."""
    flag = base_flag(patch)
    targets = [g for i in range(3) for g in flag.adjacent(i)]
    targets += flag.closed.flags_at(flag.vertex_point())
    return [c for t in targets for c in flag_map_candidates(flag, t)]


class TestClassifyPolygon:
    def test_square_is_convex(self):
        f = FaceDescriptor([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        c = classify_polygon(f)
        assert (c.kind, c.p) == ("convex", 4)
        assert c.witness is not None

    def test_petriecoxeter_faces_convex(self):
        face = build_base_face(finite_faced_chiral(1, 1))
        assert classify_polygon(face).kind == "convex"

    def test_chiral_faces_skew(self):
        face = build_base_face(finite_faced_chiral(1, 0))
        c = classify_polygon(face)
        assert (c.kind, c.p) == ("skew", 6)

    def test_helix_over_square(self):
        face = build_base_face(helix_faced_chiral(1, 0))
        c = classify_polygon(face)
        assert (c.kind, c.k) == ("helical", 4)

    def test_helix_rational_parameters(self):
        face = build_base_face(helix_faced_chiral(Fraction(1, 2), 3))
        assert classify_polygon(face).kind == "helical"

    def test_zigzag(self):
        f = FaceDescriptor([(0, 0, 0), (1, 0, 0)], period_vector=(1, 1, 0))
        assert classify_polygon(f).kind == "zigzag"

    def test_linear(self):
        f = FaceDescriptor([(0, 0, 0)], period_vector=(1, 0, 0))
        assert classify_polygon(f).kind == "linear"

    def test_star_detection_on_winding_cycle(self):
        # a rational pentagon winding twice around its centre is no regular
        # polygon: no isometry cycles its vertices
        f = FaceDescriptor(
            [(4, 0, 0), (-3, -3, 0), (1, 4, 0), (1, -4, 0), (-3, 3, 0)]
        )
        with pytest.raises(NotAPolygonError):
            classify_polygon(f)

    @pytest.mark.parametrize("points", [
        [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
        [(0, 0, 0), (1, 1, 0), (3, 3, 0), (2, 2, 0)],
    ])
    def test_collinear_cycle_is_not_a_polygon(self, points):
        # the cycling isometry is underdetermined on a line, so collinear
        # vertices are rejected before it is sought
        face = FaceDescriptor(points)
        with pytest.raises(NotAPolygonError, match="collinear") as err:
            classify_polygon(face)
        assert err.value.code == "not-a-regular-polygon"
        with pytest.raises(UnderdeterminedError):
            classify_polygon_by_winding(face)

    def test_irregular_quadrilateral_rejected(self):
        f = FaceDescriptor([(0, 0, 0), (2, 0, 0), (2, 1, 0), (0, 1, 0)])
        with pytest.raises(NotAPolygonError):
            classify_polygon(f)

    def test_isometry_invariance(self):
        from skelforge.geometry import Isometry

        g = Isometry(((0, -1, 0), (0, 0, 1), (1, 0, 0)), (5, -2, 3))
        for face in (
            build_base_face(finite_faced_chiral(1, 0)),
            build_base_face(helix_faced_chiral(1, 2)),
        ):
            a = classify_polygon(face)
            b = classify_polygon(face.transform(g))
            assert (a.kind, a.p, a.k) == (b.kind, b.p, b.k)


def polygon_answer(classify, face):
    """(kind, p, k, witness) of a face, or the class of the error raised."""
    try:
        c = classify(face)
    except SkelforgeError as e:
        return type(e)
    return c if isinstance(c, tuple) else (c.kind, c.p, c.k, c.witness)


REGULAR_FACES = [
    FaceDescriptor([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]),
    FaceDescriptor([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    build_base_face(finite_faced_chiral(1, 0)),
    build_base_face(helix_faced_chiral(1, 0)),
    build_base_face(helix_faced_chiral(Fraction(1, 2), 3)),
    FaceDescriptor([(0, 0, 0), (1, 0, 0)], period_vector=(1, 1, 0)),
    FaceDescriptor([(0, 0, 0)], period_vector=(1, 2, 0)),
]
IRREGULAR_APEIROGONS = [
    FaceDescriptor([(0, 0, 0), (1, 0, 0), (1, 1, 0)], (0, 0, 1)),
    FaceDescriptor([(0, 0, 0), (2, 0, 1), (2, 1, 2), (0, 1, 3)], (0, 0, 4)),
    FaceDescriptor([(0, 0, 0), (1, 0, 1), (1, 1, 2), (0, 1, 4)], (0, 0, 4)),
    FaceDescriptor([(0, 0, 0), (1, 0, 1), (1, 1, 2), (0, 1, 3)], (0, 0, 8)),
    FaceDescriptor([(0, 0, 0), (1, 0, 0), (3, 0, 0)], (4, 0, 0)),
    FaceDescriptor([(0, 0, 0), (1, 1, 0), (2, 0, 0)], (3, 0, 0)),
]
small_point = st.tuples(*[st.integers(-2, 2)] * 3)


class TestClassifyPolygonAgainstWinding:
    """The taxonomy by the cycling isometry alone against the one that
    also counted windings and compared projections along the period."""

    def _agree(self, faces):
        assert faces
        for face in faces:
            got = polygon_answer(classify_polygon, face)
            assert got == polygon_answer(classify_polygon_by_winding, face), face

    def _patch_faces(self, patches):
        # the class faces and the first 20 patch faces of each
        return [f for p in patches
                for f in [g.primitive() for g in p.classes.faces.values()] + p.faces[:20]]

    @pytest.mark.parametrize("name,mode", [(name, mode) for name, _, mode in CATALOG_SWEEP])
    def test_catalog(self, built, name, mode):
        patches = [built(name, Fraction(1, 2)), built(name, 3), moved_preset(name)]
        if mode == "polyhedron":
            patches += [petrie_dual(p) for p in patches]
        self._agree(self._patch_faces(patches))

    @pytest.mark.parametrize("name", ["P2:1/3,2/5", "P:3,2", "P:5,3", "P2:2,1"])
    def test_more_members(self, built, name):
        patch = built(name, 3)
        self._agree(self._patch_faces([patch, petrie_dual(patch)]))

    def test_irregular_apeirogons(self):
        assert all(polygon_answer(classify_polygon, f) is NotAPolygonError
                   for f in IRREGULAR_APEIROGONS)
        self._agree(IRREGULAR_APEIROGONS)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(REGULAR_FACES), cayley_isometries())
    def test_moved_regular_faces(self, face, g):
        moved = face.transform(g)
        self._agree([moved])
        assert classify_polygon(moved).kind == classify_polygon(face).kind

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_point, min_size=3, max_size=6, unique=True))
    def test_small_cycles(self, points):
        face = FaceDescriptor(points)
        diffs = [vsub(p, points[0]) for p in points[1:]]
        assume(len(spanning_indices(diffs)) >= 2)
        self._agree([face])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_point, min_size=1, max_size=5), small_point)
    def test_small_apeirogons(self, points, t):
        try:
            face = FaceDescriptor(points, t)
        except SkelforgeError:
            assume(False)
        self._agree([face])


class TestMirrorVector:
    def test_coordinate_reflections(self):
        rs = [
            reflection_in_plane((1, 0, 0), (0, 0, 0)),
            reflection_in_plane((0, 1, 0), (0, 0, 0)),
            reflection_in_plane((0, 0, 1), (0, 0, 0)),
        ]
        assert mirror_vector(*rs) == (2, 2, 2)

    def test_half_turns_give_ones(self):
        rs = [
            half_turn((0, 0, 0), (1, 0, 0)),
            half_turn((0, 0, 0), (0, 1, 0)),
            half_turn((0, 0, 0), (0, 0, 1)),
        ]
        assert mirror_vector(*rs) == (1, 1, 1)

    def test_point_reflection_gives_zero(self):
        rs = [
            point_reflection((0, 0, 0)),
            reflection_in_plane((0, 1, 0), (0, 0, 0)),
            reflection_in_plane((0, 0, 1), (0, 0, 0)),
        ]
        assert mirror_vector(*rs) == (0, 2, 2)

    def test_non_involution_rejected(self):
        from skelforge.geometry import Isometry

        rot3 = Isometry(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
        with pytest.raises(NotInvolutionError):
            mirror_vector(rot3, rot3, rot3)


class TestFindFlagSymmetries:
    def test_cube_three_plane_reflections(self, built):
        fam = find_flag_symmetries(built("cube"))
        assert fam["family"] == "R"
        assert mirror_vector(fam["R0"], fam["R1"], fam["R2"]) == (2, 2, 2)

    def test_petrie_cube_halfturn_r0(self, built):
        from skelforge.ops import petrie_dual

        fam = find_flag_symmetries(petrie_dual(built("cube")))
        assert fam["family"] == "R"
        assert mirror_vector(fam["R0"], fam["R1"], fam["R2"]) == (1, 2, 2)

    def test_petriecoxeter_mirror_vector(self, built):
        fam = find_flag_symmetries(built("P:1,1"))
        assert fam["family"] == "R"
        assert mirror_vector(fam["R0"], fam["R1"], fam["R2"]) == (2, 1, 2)

    def test_skewfaced_regular_mirror_vector(self, built):
        fam = find_flag_symmetries(built("P:1,-1"))
        assert fam["family"] == "R"
        assert mirror_vector(fam["R0"], fam["R1"], fam["R2"]) == (1, 2, 1)

    def test_regular_helix_mirror_vector(self, built):
        fam = find_flag_symmetries(built("P2:1,0"))
        assert fam["family"] == "R"
        assert mirror_vector(fam["R0"], fam["R1"], fam["R2"]) == (1, 1, 1)

    def test_chiral_family_is_rotatory(self, built):
        fam = find_flag_symmetries(built("P:1,0"))
        assert fam["family"] == "S"
        for key in ("S1", "S2"):
            g = fam[key]
            assert g.det() == -1
            assert fixed_space_dim(g) == 0  # rotatory reflections fix a point
        t = fam["S1"].then(fam["S2"])
        assert t.then(t).is_identity

    def test_verified_symmetry_actually_preserves_patch(self, built):
        p10 = built("P:1,0")
        gen = finite_faced_chiral(1, 0)
        for name in ("S1", "S2"):
            assert is_symmetry(p10, gen.generators[name])
            assert is_patch_symmetry(p10, gen.generators[name])
        # a plane reflection through the origin is not a symmetry of P(1,0)
        bad = reflection_in_plane((1, 0, 0), (0, 0, 0))
        assert not is_symmetry(p10, bad)
        assert not is_patch_symmetry(p10, bad)
        fam = find_flag_symmetries(p10)
        assert fam["family"] == "S"


class TestIsSymmetry:
    @pytest.mark.parametrize(
        "name", ["cube", "sq44", "P:1,0", "P:1,1", "P2:1,0", "K4_12"]
    )
    def test_agrees_with_patch_oracle(self, built, name):
        patch = built(name, 3)
        verdicts = [
            (is_symmetry(patch, c), is_patch_symmetry(patch, c))
            for c in flag_map_candidates_at_base(patch)
        ]
        assert all(exact == oracle for exact, oracle in verdicts), name
        assert any(exact for exact, _ in verdicts), name

    def test_symmetry_not_normalizing_a_declared_sublattice(self, built):
        # sq44 declared with the index-2 lattice Z x 2Z: the quarter turn is
        # a symmetry of the tiling but maps (1,0,0) outside that lattice
        sq = built("sq44")
        thin = Lattice([(1, 0, 0), (0, 2, 0)])
        declared = SkeletalComplex.from_classes(
            thin,
            [FaceDescriptor(((0, y, 0), (1, y, 0), (1, y + 1, 0), (0, y + 1, 0)))
             for y in (0, 1)],
            sq.region,
        )
        assert declared.face_keys == sq.face_keys
        quarter = Isometry(((0, -1, 0), (1, 0, 0), (0, 0, 1)))
        assert not thin.member(quarter.apply_vec((1, 0, 0)))
        assert is_symmetry(declared, quarter)
        assert not is_symmetry(declared, translation((0, 0, 1)))
        # quarter turns about a square's centre and about a quarter point
        assert is_symmetry(declared, Isometry(quarter.m, (1, 0, 0)))
        assert not is_symmetry(declared, Isometry(quarter.m, (Fraction(1, 2), 0, 0)))

    def test_rotation_of_infinite_order_rejected(self, built):
        from fractions import Fraction as F

        turn = Isometry(((F(3, 5), F(-4, 5), 0), (F(4, 5), F(3, 5), 0), (0, 0, 1)))
        assert not is_symmetry(built("P:1,0"), turn)

    def test_large_denominator_rotation_fails_at_zero_shift(self, built, monkeypatch):
        # the shifts t are drawn lazily from t = 0, where this turn fails: no
        # BFS over the cosets of Lambda & L^-1 Lambda, whose index (about two
        # million here) grows with the denominators, reduces a point
        patch = built("P:1,0")
        c = 1000 ** 2 + 999 ** 2
        x, y = Fraction(1000 ** 2 - 999 ** 2, c), Fraction(2 * 1000 * 999, c)
        turn = Isometry(((x, -y, 0), (y, x, 0), (0, 0, 1)))
        calls = []
        real = Lattice.reduce_key

        def counted(self, p):
            calls.append(p)
            return real(self, p)

        monkeypatch.setattr(Lattice, "reduce_key", counted)
        assert not is_symmetry(patch, turn)
        assert len(calls) < 100

    def test_translation_of_finite_structure_rejected(self, built):
        assert not is_symmetry(built("cube"), translation((1, 0, 0)))

    def test_patch_without_faces_decides_nothing(self, built):
        # a patch given as bare lists scans its classes from its faces, and
        # this one has edges but no face
        oct_ = built("oct", Fraction(1, 2))
        bare = SkeletalComplex(oct_.vertices, oct_.edge_points, [], oct_.region)
        assert bare.faces == [] and bare.edges
        with pytest.raises(PatchTooSmallError):
            is_symmetry(bare, translation((1, 0, 0)))

    def test_quotient_of_a_patch_without_faces_is_too_small(self, built):
        # the same bare patch has no quotient: the Schläfli type and the
        # axioms (a) to (c) have nothing to decide on either
        from skelforge.complexes import validate
        from skelforge.orbit import build_quotient

        oct_ = built("oct", Fraction(1, 2))
        bare = SkeletalComplex(oct_.vertices, oct_.edge_points, [], oct_.region)
        detail = "the patch holds no face to decide on"
        for decide in (build_quotient, schlafli):
            with pytest.raises(PatchTooSmallError) as err:
                decide(bare)
            assert err.value.detail == detail
        rep = validate(bare)
        assert rep.entries[:3] == [
            (axiom, False, detail) for axiom in
            ("a:edge-graph-connected", "b:vertex-figures-connected", "c:faces-per-edge")
        ]

    def test_built_patch_without_faces_decides_on_its_classes(self, built):
        # no vertex of the hexagonal tiling lies in this region: edges, no
        # faces, but the patch keeps the classes it was built from
        empty = built("hex63", Fraction(1, 2))
        assert empty.faces == [] and empty.edges
        assert not is_symmetry(empty, translation((1, 0, 0)))
        assert is_symmetry(empty, reflection_in_plane((0, 1, -1), (0, 0, 0)))

    @pytest.mark.parametrize(
        "name,iso",
        [
            ("P:1,1", Isometry(((0, -1, 0), (-1, 0, 0), (0, 0, 1)), (-1, -1, 0))),
            ("P2:1,0", Isometry(((-1, 0, 0), (0, 1, 0), (0, 0, -1)), (-1, 0, 1))),
        ],
    )
    def test_symmetry_of_a_class_the_patch_misses(self, built, name, iso):
        # at radius 1/2 the patch holds 3 of the 4 face classes of P:1,1 and
        # 3 of the 6 of P2:1,0; the answer must not depend on that
        from skelforge.quotient import _face_class

        small = built(name, Fraction(1, 2))
        lattice = small.classes.lattice
        held = {_face_class(lattice, f)[0] for f in small.faces}
        assert len(held) < len(small.classes.faces)
        assert is_symmetry(built(name, 3), iso)
        assert is_symmetry(small, iso)


def candidates_at_base_vertex(patch):
    """Every isometry candidate from each flag at the base vertex to each
    flag there and to its own 0-adjacent flag."""
    flags = base_flag(patch).closed.flags_at(base_flag(patch).vertex_point())
    return [c for src in flags for target in flags + [src.step(0)]
            for c in flag_map_candidates(src, target)]


def declared_thin_sq44(sq):
    """sq44 declared with the index-2 lattice Z x 2Z, over sq's region."""
    return SkeletalComplex.from_classes(
        Lattice([(1, 0, 0), (0, 2, 0)]),
        [FaceDescriptor(((0, y, 0), (1, y, 0), (1, y + 1, 0), (0, y + 1, 0)))
         for y in (0, 1)],
        sq.region,
    )


def declared_doubled_p2(p2, i):
    """P2:1,0's class table declared over its lattice with basis vector i
    doubled (each class face and its translate by that vector), over the
    region of the P2:1,0 patch ``p2``."""
    lattice, _, _, classes, _ = p2.classes
    b = lattice.basis[i]
    basis = [vscale(2, v) if k == i else v for k, v in enumerate(lattice.basis)]
    faces = [g for f in classes.values() for g in (f.primitive(), f.primitive().translate(b))]
    return SkeletalComplex.from_classes(Lattice(basis), faces, p2.region)


class TestIsSymmetryAgainstClassKeys:
    """The dart-permutation test against the class-key test it replaced."""

    def _agree(self, patch):
        answers = [(is_symmetry(patch, c), is_symmetry_by_class_keys(patch, c))
                   for c in candidates_at_base_vertex(patch)]
        assert all(darts == keys for darts, keys in answers)
        assert any(darts for darts, _ in answers)
        return answers

    @pytest.mark.parametrize("radius", [Fraction(1, 2), 3])
    @pytest.mark.parametrize("name", [name for name, _, _ in CATALOG_SWEEP])
    def test_catalog(self, built, name, radius):
        self._agree(built(name, radius))

    def test_declared_thin_lattice(self, built):
        # the quarter turns do not normalize Z x 2Z: they are decided by
        # moving each class by (1, 0, 0) too
        patch = declared_thin_sq44(built("sq44"))
        lattice = patch.classes.lattice
        cands = candidates_at_base_vertex(patch)
        outside = [c for c in cands
                   if not all(lattice.member(c.apply_vec(b)) for b in lattice.basis)]
        assert outside
        assert any(is_symmetry(patch, c) for c in outside)
        self._agree(patch)

    @pytest.mark.parametrize("i", range(3))
    def test_declared_doubled_vector(self, built, i):
        # a quarter turn swapping the doubled axis with another maps a helix
        # whose lift closes after two periods onto one that closes after one
        p2 = built("P2:1,0")
        patch = declared_doubled_p2(p2, i)
        answers = self._agree(patch)
        assert all(darts for darts, _ in answers)
        assert len(answers) == sum(is_symmetry(p2, c) for c in candidates_at_base_vertex(p2))
        found = find_flag_symmetries(p2)
        gens = list(instantiate("P2:1,0").isometries())
        gens += [g for name, g in found.items() if name != "family"]
        assert all(is_symmetry(patch, g) for g in gens)

    def test_rational_member(self, built):
        self._agree(built("P2:1/3,2/5", 3))

    def test_scanned_moved_structure(self):
        from test_orbit import loaded_moved_patch

        self._agree(loaded_moved_patch("P:2,1", 4))


@pytest.mark.parametrize("name", ["P:1,1", "P:2,1", "P:1,-2", "P2:2,1", "P2:1/3,2/5"])
def test_symmetries_key_no_face(monkeypatch, name):
    # candidates that do not normalize the structure's lattice are decided
    # on the quotient modulo it: the search and the verdict build no cover
    from test_orbit import count_face_class_calls

    patch = build(name, Region((0, 0, 0), 3))
    calls = count_face_class_calls(monkeypatch)
    assert find_flag_symmetries(patch) is not None
    verdict(patch, instantiate(name).isometries())
    assert calls[0] == 0
    assert len(patch._quotient_cache) == 1


def _symmetry_answers(name, radius):
    """Generators and verdict of a polyhedron, or the edge stabilizer of a
    complex, read from a patch of the given radius."""
    patch = build(name, Region((0, 0, 0), radius))
    if name in ("skel2cubic", "K4_12"):
        g2 = edge_stabilizer(patch)
        return g2.name, g2.order
    fam = find_flag_symmetries(patch)
    v = verdict(patch, instantiate(name).isometries())
    return (tuple(sorted(fam.items())), v.kind, v.orbit_count,
            v.extra_symmetry is not None)


class TestRadiusIndependence:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("P:1,0", ("S", "chiral", 2, False)),
            ("P:1,1", ("R", "regular", 2, True)),
            ("P2:1,0", ("R", "regular", 2, True)),
            ("sq44", ("R", "regular", 1, False)),
            ("skel2cubic", ("D4", 8)),
            ("K4_12", ("D2", 4)),
        ],
    )
    def test_symmetry_answers_do_not_depend_on_radius(self, name, expected):
        radii = (Fraction(1, 2), 1, 2, 3, 4, 5, 6)
        answers = {r: _symmetry_answers(name, r) for r in radii}
        assert len(set(answers.values())) == 1, answers
        got = answers[2]
        if len(got) == 4:
            got = (dict(got[0])["family"],) + got[1:]
        assert got == expected

    def test_base_flag_needs_no_interior_vertex(self, built):
        # every vertex of the cube lies outside this region; the base flag
        # is taken at the structure vertex nearest the centre all the same
        cube = built("cube", Fraction(1, 2))
        assert not cube.interior_vertex_ids()
        assert cube.central_vertex() == (-1, -1, -1)
        assert find_flag_symmetries(cube) == find_flag_symmetries(built("cube", 3))

    def test_hexagon_tiling_reflections_from_a_unit_patch(self, built):
        # a radius-1 patch shows too few vertices for a patch-bound check to
        # accept the reflections of {6,3}; the class test needs none
        small = find_flag_symmetries(built("hex63", 1))
        assert small["family"] == "R"
        assert small == find_flag_symmetries(built("hex63", 3))


class TestVerdicts:
    def test_cube_regular(self, built):
        cube = built("cube")
        fam = find_flag_symmetries(cube)
        v = verdict(cube, [fam["R0"], fam["R1"], fam["R2"]])
        assert v.kind == "regular" and v.orbit_count == 1

    def test_chiral_p10(self, built):
        gen = finite_faced_chiral(1, 0)
        v = verdict(built("P:1,0"), gen.isometries())
        assert v.kind == "chiral"
        assert v.orbit_count == 2 and v.adjacent_always_split

    def test_regular_p11_from_rotations(self, built):
        gen = finite_faced_chiral(1, 1)
        v = verdict(built("P:1,1"), gen.isometries())
        assert v.kind == "regular"
        assert v.extra_symmetry is not None

    def test_regular_p1m1(self, built):
        gen = finite_faced_chiral(1, -1)
        v = verdict(built("P:1,-1"), gen.isometries())
        assert v.kind == "regular"

    def test_chiral_helix(self, built):
        gen = helix_faced_chiral(1, 1)
        v = verdict(built("P2:1,1", 6), gen.isometries())
        assert v.kind == "chiral"

    def test_regular_helix(self, built):
        gen = helix_faced_chiral(1, 0)
        v = verdict(built("P2:1,0"), gen.isometries())
        assert v.kind == "regular"

    def test_two_face_classes_is_neither(self, built):
        # break transitivity by probing the square tessellation with a
        # translation subgroup only: many orbits, adjacent flags not split
        from skelforge.geometry import translation

        sq = built("sq44")
        v = verdict(sq, [translation((1, 0, 0)), translation((0, 1, 0))])
        assert v.kind == "neither"

    def test_rectangle_tiling_is_neither(self):
        # edges of two different lengths: no symmetry can be flag-transitive
        from skelforge.complexes import FaceDescriptor, SkeletalComplex
        from skelforge.geometry import half_turn, reflection_in_plane, translation

        region = Region((0, 0, 0), 4)
        faces = []
        for i in range(-3, 3):
            for j in range(-4, 4):
                x = 2 * i
                faces.append(FaceDescriptor(
                    [(x, j, 0), (x + 2, j, 0), (x + 2, j + 1, 0), (x, j + 1, 0)]
                ))
        bricks = SkeletalComplex([], [], faces, region)
        gens = [
            translation((2, 0, 0)),
            translation((0, 1, 0)),
            reflection_in_plane((1, 0, 0), (0, 0, 0)),
            reflection_in_plane((0, 1, 0), (0, 0, 0)),
            half_turn((0, 0, 0), (0, 0, 1)),
        ]
        v = verdict(bricks, gens)
        assert v.kind == "neither"
        assert not v.adjacent_always_split

    def test_non_symmetry_generator_does_not_descend(self, built):
        from skelforge.geometry import translation

        shift = translation((1, 0, 0))
        with pytest.raises(GeneratorsDoNotDescendError) as err:
            verdict(built("cube"), [shift])
        assert repr(shift) in err.value.detail

    def test_scanned_helix_orbits_do_not_depend_on_the_scale(self, built):
        # read back from JSON, P2:1,0 scans a lattice that the generators'
        # translations 4Z^3 do not contain, so its flag orbits are counted
        # modulo 4Z^3 whatever scale is passed
        from skelforge.serialization import complex_from_json, complex_to_json

        patch = complex_from_json(complex_to_json(built("P2:1,0")))
        assert patch.lattice.basis == ((-2, -2, -2), (0, 4, 0), (0, 0, 4))
        gens = helix_faced_chiral(1, 0).isometries()
        for s in (1, 2, 3, 4):
            v = verdict(patch, gens, quotient_scale=s)
            assert (v.kind, v.orbit_count) == ("regular", 2), s

    def test_generators_without_translations_do_not_descend(self, built):
        # a vertex stabilizer has infinitely many flag orbits on P(1,0)
        gen = finite_faced_chiral(1, 0)
        with pytest.raises(GeneratorsDoNotDescendError):
            verdict(built("P:1,0"), [gen.generators["S2"]])

    def test_verdict_stable_across_scales(self, built):
        gen = finite_faced_chiral(1, 0)
        kinds = {
            verdict(built("P:1,0"), gen.isometries(), quotient_scale=s).kind
            for s in (2, 4)
        }
        assert kinds == {"chiral"}


class TestSchlafli:
    @pytest.mark.parametrize(
        "name,p,q,scale",
        [
            ("cube", 4, 3, 4),
            ("tet", 3, 3, 4),
            ("oct", 3, 4, 4),
            ("sq44", 4, 4, 4),
            ("tri36", 3, 6, 4),
            ("hex63", 6, 3, 4),
            ("P:1,0", 6, 6, 4),
            ("P:1,1", 6, 6, 2),
            ("P2:1,0", None, 3, 2),
        ],
    )
    def test_types(self, built, name, p, q, scale):
        # the type is read modulo the lattice; a scale-k cover has the same q
        from skelforge.orbit import build_quotient

        radius = 3 if name in ("tri36", "hex63") else 4
        st = schlafli(built(name, radius))
        assert (st.p, st.q) == (p, q)
        cover = build_quotient(built(name, radius), scale=scale)
        assert set(cover.faces_per_vertex()) == {q}

    def test_complex_mode_appends_r(self, built):
        st = schlafli(built("K1_12", 3), mode="complex")
        assert (st.p, st.q, st.r) == (4, 24, 4)
        assert st.face_class.symbol == "4_s"

    def test_mixed_faces_not_equivelar(self, built):
        from skelforge.complexes import SkeletalComplex

        sq = FaceDescriptor([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        tri = FaceDescriptor([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
        c = SkeletalComplex([], [], [sq, tri], Region((0, 0, 0), 2))
        with pytest.raises(NotEquivelarError):
            schlafli(c)


class TestDualCongruence:
    def test_self_duality_pair(self, built):
        ok, g = dual_congruence_check(built("P:1,0"), built("P:0,1"))
        assert ok and g is not None
        # the witness carries face centers onto vertices
        from skelforge.classify import face_center

        a, b = built("P:1,0"), built("P:0,1")
        inner = a.region.shrunk(2)
        for f in a.faces[:40]:
            c = face_center(f)
            if inner.contains(g(c)):
                assert b.has_vertex(g(c))

    def test_self_dual_same_parameters(self, built):
        ok, _ = dual_congruence_check(built("P:1,1"), built("P:1,1"))
        assert ok

    def test_finite_vs_infinite_false(self, built):
        ok, _ = dual_congruence_check(built("P:1,0"), built("cube"))
        assert not ok

    def test_regions_may_differ(self, built):
        # the answer reads only the classes, so the inputs need not share a
        # region
        mixed = dual_congruence_check(built("P:1,0", 4), built("P:0,1", 3))
        same = dual_congruence_check(built("P:1,0", 4), built("P:0,1", 4))
        assert mixed[0]
        assert mixed == same

    @pytest.mark.parametrize(
        "pair,ok", [(("cube", "oct"), True), (("tet", "tet"), False),
                    (("P:1,0", "P:0,1"), True)]
    )
    def test_decided_on_the_classes(self, built, pair, ok):
        # at radius 1/2 the solids' patches hold no face; the verdict and
        # the witness come from the classes
        small = dual_congruence_check(*(built(n, Fraction(1, 2)) for n in pair))
        large = dual_congruence_check(*(built(n, 3) for n in pair))
        assert small[0] == large[0] == ok
        if ok:
            assert (small[1].m, small[1].t) == (large[1].m, large[1].t)

    def test_scanned_patch_without_faces_is_too_small(self, built):
        oct_ = built("oct", Fraction(1, 2))
        bare = SkeletalComplex(oct_.vertices, oct_.edge_points, [], oct_.region)
        with pytest.raises(PatchTooSmallError):
            dual_congruence_check(bare, oct_)


class TestEdgeStabilizer:
    @pytest.mark.parametrize(
        "name,order,dname",
        [("K1_12", 4, "D2"), ("K4_12", 4, "D2"), ("K5_12", 4, "D2"),
         ("skel2cubic", 8, "D4")],
    )
    def test_table_rows(self, built, name, order, dname):
        g2 = edge_stabilizer(built(name, 3))
        assert (g2.order, g2.name, g2.r) == (order, dname, 4)


class TestVertexFigureCongruence:
    def test_regular_preset_figures_congruent(self, built):
        # sample a few interior vertices and map one figure onto another
        for name in ("P:1,1", "sq44"):
            patch = built(name)
            ids = patch.interior_vertex_ids()[:6]
            figs = [patch.vertex_figure(patch.vertices[i]) for i in ids]
            ref = figs[0]
            ref_cycle = ref.cycle_order()
            for fig in figs[1:]:
                cyc = fig.cycle_order()
                n = len(cyc)
                found = None
                from skelforge.classify import _cycling_isometry

                for s in range(n):
                    for seq in (cyc[s:] + cyc[:s], (cyc[s:] + cyc[:s])[::-1]):
                        src = ref_cycle + [ref.center]
                        dst = list(seq) + [fig.center]
                        cands = _cycling_isometry(src, dst)
                        if cands:
                            found = cands[0]
                            break
                    if found:
                        break
                assert found is not None
