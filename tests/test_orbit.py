"""Orbit enumeration, translation lattices, and quotients."""

from fractions import Fraction

import pytest

from skelforge.complexes import Region, SkeletalComplex, validate
from skelforge.errors import (
    DegenerateFaceError,
    ExplosionError,
    Not3PeriodicError,
    NotPeriodicError,
)
from skelforge.geometry import Isometry, Lattice, mat_det, mat_vec, vadd, vsub
from skelforge.nets import extract_net
from skelforge.orbit import (
    GeneratorSet,
    _coset_representatives,
    _translation_lattice,
    build_base_face,
    build_quotient,
    wythoff_patch,
)
from skelforge.presets import (
    CONSTRUCTIVE_PRESETS,
    build,
    finite_faced_chiral,
    helix_faced_chiral,
    instantiate,
    square_tessellation,
)
from skelforge.serialization import complex_from_json, complex_to_json

from lattice_oracle import detect_translation_lattice
from test_presets import CATALOG_SWEEP


def closed_under(patch, gens):
    """Oracle: each generator maps every element inside the region whose
    image also lies inside onto an element of the patch."""
    region = patch.region
    for g in gens:
        for v in patch.vertices:
            if not region.contains(v):
                continue
            w = g(v)
            if region.contains(w) and w not in patch.vindex:
                return False
        for p, q in patch.edge_points:
            if not (region.contains(p) and region.contains(q)):
                continue
            gp, gq = g(p), g(q)
            if region.contains(gp) and region.contains(gq):
                if tuple(sorted((gp, gq))) not in patch.eindex:
                    return False
        for f in patch.faces:
            if f.period_vector is None and all(region.contains(p) for p in f.vertices):
                img = f.transform(g)
                if all(region.contains(p) for p in img.vertices):
                    if img.canonical_key() not in patch.face_keys:
                        return False
    return True


# generator presets: neither constructive nor derived (petrie/blend) names
GENERATOR_SWEEP = [
    (name, radius) for name, radius, _ in CATALOG_SWEEP
    if name not in CONSTRUCTIVE_PRESETS and "(" not in name
]


class TestBaseFace:
    def test_chiral_hexagon_matches_formula(self):
        # a = 1, b = 0 in the parametrized face formula
        face = build_base_face(finite_faced_chiral(1, 0))
        assert face.period_vector is None
        assert face.vertices == (
            (0, 0, 0), (0, 0, -1), (0, -1, -1), (1, -1, -1), (1, -1, 0), (1, 0, 0),
        )

    def test_general_parameters(self):
        a, b = 2, 1
        face = build_base_face(finite_faced_chiral(a, b))
        assert face.vertices == (
            (0, 0, 0),
            (0, -b, -a),
            (b, -a - b, -a),
            (a + b, -a - b, -a + b),
            (a + b, -a, b),
            (a, 0, b),
        )

    def test_helix_base_face(self):
        face = build_base_face(helix_faced_chiral(1, 0))
        assert face.period_vector == (0, 4, 0)
        assert len(face.vertices) == 4
        assert face.vertices[0] == (0, 0, 0)

    def test_cube_degeneration_gives_square(self):
        face = build_base_face(helix_faced_chiral(0, 1))
        assert face.period_vector is None
        assert len(face.vertices) == 4

    def test_fixed_base_vertex_is_degenerate(self):
        gen = finite_faced_chiral(1, 0)
        bad = GeneratorSet(
            gen.generators, gen.base_vertex, gen.base_edge_other, "S2"
        )
        with pytest.raises(DegenerateFaceError):
            build_base_face(bad)


class TestWythoff:
    def test_cube_counts(self, built):
        assert built("cube").counts() == (8, 12, 6)

    def test_square_tessellation_lattice_points(self):
        for n in (2, 3):
            patch = wythoff_patch(square_tessellation(), Region((0, 0, 0), n))
            assert patch.region_counts()[0] == (2 * n + 1) ** 2

    def test_chiral_vertices_are_integral(self, built):
        p10 = built("P:1,0")
        assert all(
            all(isinstance(c, int) for c in v) for v in p10.vertices
        )

    def test_edge_lengths_all_equal(self, built):
        for name, d2 in (("P:1,0", 1), ("P:2,1", 5)):
            patch = built(name)
            lens = {
                sum(c * c for c in vsub(p, q)) for p, q in patch.edge_points
            }
            assert lens == {d2}

    def test_closure_property(self, built):
        for name, radius in GENERATOR_SWEEP:
            gens = instantiate(name).isometries()
            gens += [g.inverse() for g in gens]
            assert closed_under(built(name, radius), gens), name

    def test_orbit_determinism(self):
        gen = finite_faced_chiral(1, 0)
        a = wythoff_patch(gen, Region((0, 0, 0), 2))
        b = wythoff_patch(finite_faced_chiral(1, 0), Region((0, 0, 0), 2))
        assert a.vertices == b.vertices
        assert a.edges == b.edges
        assert [f.canonical_key() for f in a.faces] == [
            f.canonical_key() for f in b.faces
        ]
        assert a.lattice.basis == b.lattice.basis

    def test_vertices_rederivable_from_group_words(self):
        # independent oracle: breadth-first search over group elements,
        # not over points, then apply every element to the base vertex
        gen = finite_faced_chiral(1, 0)
        region = Region((0, 0, 0), 1)
        patch = wythoff_patch(gen, region)
        gens = list(gen.generators.values())
        gens += [g.inverse() for g in gens]
        elements = {gens[0].then(gens[0].inverse())}  # identity
        frontier = list(elements)
        for _ in range(8):
            nxt = []
            for w in frontier:
                for g in gens:
                    wg = w.then(g)
                    if wg not in elements:
                        elements.add(wg)
                        nxt.append(wg)
            frontier = nxt
        orbit_points = {w(gen.base_vertex) for w in elements}
        expected = {p for p in orbit_points if region.contains(p)}
        got = {v for v in patch.vertices if region.contains(v)}
        assert expected <= got

    def test_non_discrete_generators_explode(self):
        g = Isometry((
            (Fraction(3, 5), Fraction(-4, 5), 0),
            (Fraction(4, 5), Fraction(3, 5), 0),
            (0, 0, 1),
        ), (0, 0, 0))
        shift = Isometry(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 0, 0))
        gen = GeneratorSet(
            {"A": g, "B": shift}, (1, 0, 0), (2, 0, 0), "B"
        )
        with pytest.raises(ExplosionError):
            wythoff_patch(gen, Region((0, 0, 0), 2))

    # the base face is invariant under its face generator g, so the images by
    # the representatives r*g^j of one taken r are translates of r's image:
    # the cube's 48 images fall to 48/4, P:1,0's 24 to 4, P2:1,0's 24 to 6
    @pytest.mark.parametrize("name, keyed", [("cube", 12), ("P:1,0", 4), ("P2:1,0", 6)])
    def test_one_face_image_keyed_per_face_generator_coset(self, name, keyed, monkeypatch):
        from skelforge import quotient

        real, calls = quotient._face_class, []

        def spy(lattice, desc):
            calls.append(desc)
            return real(lattice, desc)

        monkeypatch.setattr(quotient, "_face_class", spy)
        wythoff_patch(instantiate(name), Region((0, 0, 0), 1))
        assert len(calls) == keyed

    @pytest.mark.parametrize("name", [
        "sq44", "tri36", "hex63", "tet", "cube", "oct", "P:1,0", "P:1,1", "P:1,-1",
        "P:2,1", "P:3,2", "P:5,3", "P2:1,0", "P2:1,1", "P2:1/3,2/5", "P2:2,1",
        "P2:0,1", "P2:1,-1",
    ])
    def test_skipped_face_images_change_no_class(self, name):
        # oracle: every representative's image of the base face, as given
        # before the skip; the classes, their order and counts must agree
        gen = instantiate(name)
        region = Region((0, 0, 0), 2)
        reps, products = _coset_representatives(gen.isometries())
        base = build_base_face(gen)
        every = SkeletalComplex.from_classes(
            _translation_lattice(reps, products),
            [base.transform(r) for r in reps.values()], region)
        patch = wythoff_patch(gen, region)
        assert list(patch.classes.faces) == list(every.classes.faces), name
        assert patch.classes.counts == every.classes.counts, name
        assert ([(f.vertices, f.period_vector) for f in patch.faces]
                == [(f.vertices, f.period_vector) for f in every.faces]), name

    def test_rank_one_translation_group_is_not_periodic(self):
        # a quarter-turn screw along z spans a single helix
        screw = Isometry(((0, -1, 0), (1, 0, 0), (0, 0, 1)), (0, 0, 1))
        gen = GeneratorSet({"S": screw}, (1, 0, 0), (0, 1, 1), "S")
        with pytest.raises(NotPeriodicError):
            wythoff_patch(gen, Region((0, 0, 0), 2))


class TestTranslationLattice:
    def test_p10_lattice_is_bcc(self, built):
        lat = built("P:1,0").lattice
        assert lat.rank == 3
        assert abs(mat_det(lat.basis)) == 4
        for v in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)):
            assert lat.member(v)
        assert not lat.member((1, 0, 0))

    def test_square_tessellation_rank_two(self, built):
        lat = built("sq44").lattice
        assert lat.rank == 2
        assert lat.member((1, 0, 0))
        assert lat.member((0, 1, 0))
        assert not lat.member((0, 0, 1))

    def test_finite_patch_has_no_lattice(self, built):
        assert built("cube").lattice is None

    def test_helix_lattice_is_the_generators_translation_group(self, built):
        # the preset lists only the rotation subgroup, whose translations
        # are 4Z^3, of index 2 in the structure's full translation group
        lat = built("P2:1,0").lattice
        assert lat.rank == 3 and abs(mat_det(lat.basis)) == 64
        for v in ((4, 0, 0), (0, 4, 0), (0, 0, 4)):
            assert lat.member(v)


def count_face_class_calls(monkeypatch):
    """Count the calls of ``quotient._face_class`` from now on, in a
    one-element list."""
    from skelforge import quotient

    calls = [0]
    real = quotient._face_class

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(quotient, "_face_class", counting)
    return calls


def walk_and_closure(face):
    """A class face as its walk and closure, the closure zero when finite."""
    return face.vertices, face.period_vector or (0, 0, 0)


def moved(gen, shift):
    """The generator set conjugated by the translation by ``shift``."""
    gens = {
        name: Isometry(g.m, vsub(vadd(g.t, shift), mat_vec(g.m, shift)))
        for name, g in gen.generators.items()
    }
    return GeneratorSet(gens, vadd(gen.base_vertex, shift),
                        vadd(gen.base_edge_other, shift), gen.face_word,
                        name=gen.name)


def loaded_moved_patch(name, radius):
    """A preset moved by a rational vector, built at the origin and read back
    from its JSON, which states its lattice."""
    shift = (Fraction(1, 3), Fraction(-1, 7), Fraction(1, 2))
    patch = wythoff_patch(moved(instantiate(name), shift), Region((0, 0, 0), radius))
    return complex_from_json(complex_to_json(patch))


class TestLatticeScan:
    def test_moved_cube_has_no_lattice(self):
        patch = loaded_moved_patch("cube", 3)
        assert patch.lattice is None
        with pytest.raises(Not3PeriodicError):
            extract_net(patch)

    def test_refuted_short_vector_rules_out_the_scan(self, built):
        # without its centre face, the 2-skeleton's unit steps are refuted,
        # yet long steps, checked only far from the gap, generate them: the
        # scan must show no lattice rather than Z^3
        skel = built("skel2cubic", 3)
        gap = next(f for f in skel.faces
                   if (0, 0, 0) in f.vertices and (1, 1, 0) in f.vertices)
        assert detect_translation_lattice(
            skel.vertices, skel.edge_points,
            [f for f in skel.faces if f is not gap], skel.region) is None

    def test_moved_p21_keeps_its_covolume(self):
        patch = loaded_moved_patch("P:2,1", 4)
        assert abs(mat_det(patch.lattice.basis)) == 4
        assert validate(patch, "polyhedron").passed

    def test_moved_p11_finds_only_symmetries(self, built):
        # the region shrunk by a lattice vector is too small here to hold
        # a whole edge and a face, so no lattice may be certified at all;
        # whatever is found must map the integer structure onto itself,
        # seen on a region that the radius-6 patch contains with its images
        loaded = loaded_moved_patch("P:1,1", 3)
        lat = detect_translation_lattice(loaded.vertices, loaded.edge_points,
                                         loaded.faces, loaded.region)
        big = built("P:1,1", 6)
        inner = Region((0, 0, 0), 3)
        for b in ([] if lat is None else lat.basis):
            assert max(abs(c) for c in b) <= 2
            for v in big.vertices:
                if inner.contains(v):
                    assert vadd(v, b) in big.vindex
            for p, q in big.edge_points:
                if inner.contains(p) and inner.contains(q):
                    assert big.has_edge(vadd(p, b), vadd(q, b))
            for f in big.faces:
                if all(inner.contains(p) for p in f.vertices):
                    assert big.has_face(f.translate(b))


def face_class_oracle(lattice, desc):
    """Oracle for ``quotient._face_class``: every start and both directions
    built in full, each start reduced on its own."""
    from skelforge.geometry import vscale
    from skelforge.quotient import _closure_multiple

    if desc.period_vector is None:
        seqs = [desc.vertices, tuple(reversed(desc.vertices))]
        m = len(desc.vertices)
        best = None
        for seq in seqs:
            for a in range(m):
                rot = seq[a:] + seq[:a]
                shift = vsub(lattice.reduce_point(rot[0]), rot[0])
                cand = tuple(vadd(p, shift) for p in rot)
                if best is None or cand < best:
                    best = cand
        return (("fin",) + best, best, (0, 0, 0))
    k = _closure_multiple(lattice, desc.period_vector)
    m = len(desc.vertices) * k
    best = None
    for d in (desc, desc.reversed()):
        closure = vscale(k, d.period_vector)
        for a in range(m):
            seq = tuple(d.vertex(a + i) for i in range(m))
            shift = vsub(lattice.reduce_point(seq[0]), seq[0])
            cand = (tuple(vadd(p, shift) for p in seq), vadd(closure, (0, 0, 0)))
            if best is None or cand < best:
                best = cand
    lift, closure = best
    return (("inf",) + lift + (closure,), lift, closure)


class TestQuotient:
    def test_square_mod_4(self, built):
        sq = built("sq44")
        q = build_quotient(sq, sublattice=Lattice([(4, 0, 0), (0, 4, 0)]))
        assert q.counts() == (16, 32, 16)
        assert q.euler_characteristic() == 0

    def test_square_mod_1(self, built):
        # one square whose four corners are one vertex class: the darts are
        # its slots, so the torus {4,4}_(1,0) is exact
        sq = built("sq44")
        q = build_quotient(sq, sublattice=Lattice([(1, 0, 0), (0, 1, 0)]))
        assert q.counts() == (1, 2, 1)
        assert q.euler_characteristic() == 0
        assert q.dart_count() == 8
        assert q.r == 2
        assert build_quotient(sq) is q

    def test_non_symmetry_sublattice_rejected(self, built):
        p10 = built("P:1,0")
        with pytest.raises(NotPeriodicError):
            build_quotient(p10, sublattice=Lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        with pytest.raises(NotPeriodicError):  # translations, but of rank 2
            build_quotient(p10, sublattice=Lattice([(4, 0, 0), (0, 4, 0)]))

    def test_finite_quotient_is_the_complex(self, built):
        closed = build_quotient(built("cube"))
        assert closed.counts() == (8, 12, 6)
        assert closed.dart_count() == 48
        assert closed.r == 2

    def test_quotient_independent_of_region(self, built):
        # the scale-4 cell of P:1,1 is 16 wide, far wider than either patch
        small, large = (
            build_quotient(built("P:1,1", r), scale=4) for r in (3, 5)
        )
        assert [walk_and_closure(f) for f in small.faces] == \
            [walk_and_closure(f) for f in large.faces]
        assert small.vreps == large.vreps
        assert small.darts == large.darts
        q2 = build_quotient(built("P:1,1", 3), scale=2)
        assert small.counts() == tuple(8 * c for c in q2.counts())

    def test_quotient_counts_scale_with_index(self, built):
        p10 = built("P:1,0")
        q2 = build_quotient(p10, scale=2)
        q4 = build_quotient(p10, scale=4)
        assert q4.counts() == tuple(8 * c for c in q2.counts())

    @pytest.mark.parametrize(
        "name,rank,count",
        [("cube", 0, 6), ("P:1,0", 3, 4), ("P2:1,0", 3, 6), ("K4_12", 3, 4),
         ("skel2cubic", 3, 3), ("K1_12", 3, 6), ("K5_12", 3, 4)],
    )
    def test_face_classes_partition_the_patch(self, built, name, rank, count):
        # every patch face keys to a class, whose held walk and closure are
        # the ones the face keys to
        from skelforge.quotient import _face_class

        patch = built(name, 3)
        classes = patch.classes
        assert classes.lattice.rank == rank
        assert len(classes.counts) == len(classes.faces) == count
        assert sum(classes.counts.values()) == len(patch.faces)
        for f in patch.faces:
            key, face = _face_class(classes.lattice, f)
            held = classes.faces[key]
            assert walk_and_closure(held) == walk_and_closure(face)

    @pytest.mark.parametrize(
        "name", ["cube", "petrie(cube)", "hex63", "P:1,0", "P2:1,0", "P2:2,1", "K5_12"]
    )
    def test_face_class_matches_the_oracle(self, built, name):
        # each patch face, also moved off the lattice, modulo the structure's
        # lattice and two of its multiples
        from skelforge.quotient import _face_class

        patch = built(name, 1)
        lattice = patch.classes.lattice
        moved = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))
        faces = patch.faces + [f.translate(moved) for f in patch.faces]
        for scale in (1, 2, 3):
            lat = Lattice([tuple(scale * c for c in b) for b in lattice.basis])
            for f in faces:
                key, face = _face_class(lat, f)
                assert (key, *walk_and_closure(face)) == face_class_oracle(lat, f), \
                    (name, scale, f)

    def test_quotient_faces_come_from_the_class_map(self, built):
        # modulo the class lattice the quotient holds the class table's
        # faces themselves; modulo 2 Lambda each class is keyed again
        from skelforge.quotient import _face_class

        p10 = built("P:1,0", 3)
        table = p10.classes.faces
        assert build_quotient(p10).faces == [table[k] for k in sorted(table)]
        q = build_quotient(p10, scale=2)
        reps = {_face_class(q.lattice, f.primitive())[1].vertices for f in table.values()}
        assert {f.vertices for f in q.faces} >= reps
        assert len(q.faces) == 8 * len(table)
        assert p10.classes is p10.classes

    @pytest.mark.parametrize("name", [name for name, _, _ in CATALOG_SWEEP])
    def test_class_table_does_not_depend_on_radius(self, built, name):
        # keys, walks and closures: the table is the structure's, not the
        # region's
        tables = [{k: walk_and_closure(f) for k, f in built(name, r).classes.faces.items()}
                  for r in (Fraction(1, 2), 3, 6)]
        assert tables[0] == tables[1] == tables[2]
        assert list(tables[0]) == list(tables[2])

    @pytest.mark.parametrize("name", ["P:1,0", "P2:1,0", "K4_12", "skel2cubic"])
    def test_quotient_and_net_key_no_face(self, monkeypatch, name):
        # the quotient modulo the class lattice and the net read the class
        # table as it is
        calls = count_face_class_calls(monkeypatch)
        patch = build(name, Region((0, 0, 0), 3))
        before = calls[0]
        closed = build_quotient(patch)
        net = extract_net(patch)
        assert calls[0] == before
        assert closed.dart_count() and net.edges

    @pytest.mark.parametrize("name", ["P:1,1", "K4_12"])
    def test_quotient_work_does_not_depend_on_radius(self, monkeypatch, name):
        # the quotient keys its classes, never the patch's faces, so a patch
        # of radius 6 costs as many face keys as one of radius 3
        calls = count_face_class_calls(monkeypatch)
        used = []
        for r in (3, 6):
            patch = build(name, Region((0, 0, 0), r))
            before = calls[0]
            build_quotient(patch, scale=2)
            used.append(calls[0] - before)
        assert used[0] == used[1] > 0

    @pytest.mark.parametrize("name", ["cube", "P:1,0", "P2:1,0", "skel2cubic", "K5_12"])
    def test_face_classes_key_no_patch_face(self, monkeypatch, name):
        # built patches count their classes while unrolling them: building
        # keys one face per class whatever the radius, reading keys none
        calls = count_face_class_calls(monkeypatch)
        used = []
        for r in (2, 5):
            before = calls[0]
            patch = build(name, Region((0, 0, 0), r))
            used.append(calls[0] - before)
            before = calls[0]
            assert sum(patch.classes.counts.values()) == len(patch.faces)
            assert calls[0] == before
        assert used[0] == used[1]

    def test_density_matches_patch_counts(self, built):
        # vertex classes per cell volume ~ in-region vertices per box volume
        p10 = built("P:1,0")
        q = build_quotient(p10, scale=4)
        cell_volume = abs(mat_det(q.lattice.basis))
        density = Fraction(q.counts()[0], cell_volume)
        nv = p10.region_counts()[0]
        r = p10.region.radius
        assert density * (2 * r - 1) ** 3 <= nv <= density * (2 * r + 1) ** 3


class TestFlagInvolutions:
    def test_rho_involutions_on_cube(self, built):
        closed = build_quotient(built("cube"))
        for d in range(closed.dart_count()):
            for i in (0, 1, 2):
                e = closed.adjacent_flag(d, i)
                assert closed.adjacent_flag(e, i) == d
                assert e != d

    def test_rho0_rho2_commute(self, built):
        for name, radius, mode in CATALOG_SWEEP:
            if mode != "polyhedron":
                continue
            closed = build_quotient(built(name, radius))
            for d in range(closed.dart_count()):
                a = closed.adjacent_flag(closed.adjacent_flag(d, 0), 2)
                b = closed.adjacent_flag(closed.adjacent_flag(d, 2), 0)
                assert a == b

    def test_orbit_bijections(self, built):
        # <rho0, rho1> orbits are the faces; <rho1, rho2> orbits the vertices
        closed = build_quotient(built("P:1,0"))
        parent = list(range(closed.dart_count()))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            parent[find(a)] = find(b)

        for d in range(closed.dart_count()):
            union(d, closed.adjacent_flag(d, 0))
            union(d, closed.adjacent_flag(d, 1))
        n_face_orbits = len({find(d) for d in range(closed.dart_count())})
        assert n_face_orbits == closed.counts()[2]

        parent = list(range(closed.dart_count()))
        for d in range(closed.dart_count()):
            union(d, closed.adjacent_flag(d, 1))
            union(d, closed.adjacent_flag(d, 2))
        n_vertex_orbits = len({find(d) for d in range(closed.dart_count())})
        assert n_vertex_orbits == closed.counts()[0]

    def test_complex_mode_rho2_sets(self, built):
        closed = build_quotient(built("skel2cubic", 3))
        assert closed.r == 4
        for d in range(0, closed.dart_count(), 7):
            others = closed.adjacent(d, 2)
            assert len(others) == 3
            for e in others:
                assert d in closed.adjacent(e, 2)


# ---------------------------------------------------------------------------
# one integer grid per structure

SHIFT = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))
GRID_RADIUS = 2


def moved_preset(name, radius=GRID_RADIUS, shift=SHIFT):
    """The catalog preset ``name`` moved by ``shift``, over the region moved
    with it: generator sets conjugated, constructive classes translated and
    derived names built on their moved input."""
    import re

    from skelforge import ops

    region = Region(shift, radius)
    m = re.fullmatch(r"petrie\((.+)\)", name)
    if m:
        return ops.petrie_dual(moved_preset(m.group(1), radius, shift))
    m = re.fullmatch(r"blend\((.+),(seg|apeiro):(-?\d+)\)", name)
    if m:
        blend = ops.blend_with_segment if m.group(2) == "seg" else ops.blend_with_apeirogon
        return blend(moved_preset(m.group(1), radius, shift), int(m.group(3)))
    if name in CONSTRUCTIVE_PRESETS:
        from skelforge.complexes import FaceDescriptor

        label, lattice, cycles = CONSTRUCTIVE_PRESETS[name]
        faces = [FaceDescriptor(c).translate(shift) for c in cycles]
        return SkeletalComplex.from_classes(lattice, faces, region, name=label)
    return wythoff_patch(moved(instantiate(name), shift), region, name=name)


def class_table_text(classes):
    """A class table as text, every scalar as ``p/q``: the lattice basis,
    the vertex and edge classes, then each face class's key, walk, closure
    and patch count, in table order."""
    from skelforge.geometry import vec_str

    def points(ps):
        return " ".join(vec_str(p) for p in ps)

    lines = ["lattice " + points(classes.lattice.basis),
             "vertices " + points(classes.vertices),
             "edges " + " ".join(points(e) for e in classes.edges)]
    for key, f in classes.faces.items():
        walk, closure = walk_and_closure(f)
        lines.append(f"{key[0]} {points(key[1:])} | {points(walk)} | "
                     f"{vec_str(closure)} | {classes.counts.get(key)}")
    return "\n".join(lines) + "\n"


def class_table_digest(classes):
    import hashlib

    return hashlib.sha256(class_table_text(classes).encode()).hexdigest()[:16]


# sha256 prefixes of ``class_table_text`` of each preset and of its moved
# copy, at GRID_RADIUS, as the library printed them before it worked on
# the grid
CLASS_TABLES = {
    'tet': ('44f9227ccd734bbb',
     '7352cabcf216f086'),
    'cube': ('2c00213922fe00a6',
     'a2b9bec8c8da0296'),
    'oct': ('a3e618d2c585837a',
     '1a171f04608ce190'),
    'sq44': ('12ad64b9e4dc8549',
     'b2ae4f64df2bb270'),
    'tri36': ('9281282e5c1ee8cb',
     '41a61a5deec37669'),
    'hex63': ('bd759ab3ca07e125',
     '7ad3bab004fc700d'),
    'P:1,0': ('a528ad7055f3242b',
     '403bfce0ad0b003b'),
    'P:1,1': ('9c340edd2ec244c0',
     'dec50a6dcfbbb6b1'),
    'P:1,-1': ('cd4a12d28ce7ae26',
     'f85ec50f17fbd64e'),
    'P:2,1': ('d39129e6036ab25b',
     '057a2d19fa56f707'),
    'P2:0,1': ('3800b8e1d3633ec5',
     'bb7f95a970636532'),
    'P2:1,0': ('26951ce093fcb333',
     '4e6dc56e7fe98942'),
    'P2:1,1': ('8be43579bdc8d0a7',
     '598e5cfd6396340f'),
    'skel2cubic': ('b98d9ee6d10fd8bc',
     '4bd8b2d0b91f7038'),
    'K1_12': ('3353da53f152c299',
     '43dd58191657998c'),
    'K4_12': ('3d95200a8ecb16ae',
     'a95165285a11a394'),
    'K5_12': ('a4a9877006ff6e5a',
     '1be5a24e995d1fc8'),
    'petrie(cube)': ('d1648be68bb8fd6d',
     'fdb7c940d603ca0f'),
    'petrie(sq44)': ('2c848ebc1a790b75',
     '6b9d97e95de86a79'),
    'blend(sq44,seg:1)': ('b5affb7ad3653f5c',
     '39ee0d8107f0fd19'),
    'blend(sq44,apeiro:1)': ('07c5bb666b17afc5',
     '8e5e8e38e1da41b5'),
}


def conjugated(g, shift):
    """x -> g(x - shift) + shift: the isometry moved with the structure."""
    return Isometry(g.m, vsub(vadd(g.t, shift), mat_vec(g.m, shift)))


def _grid_coordinates(grid):
    yield from grid.lattice.basis
    yield from grid.vertices
    for e in grid.edges:
        yield from e
    for f in grid.faces.values():
        walk, closure = walk_and_closure(f)
        yield from walk
        yield closure


def _integral_coordinates_are_ints(classes):
    # an integral Fraction compares equal to the int, so check the type
    return all(type(c) is int or c.denominator != 1
               for p in _grid_coordinates(classes) for c in p)


PRESET_NAMES = [name for name, _, _ in CATALOG_SWEEP]
# the blends are left out: see test_moved_preset_is_integral_on_its_grid
POLYHEDRA = [name for name, _, mode in CATALOG_SWEEP
             if mode == "polyhedron" and "blend(" not in name]


class TestGrid:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_integer_presets_are_their_own_grid(self, built, name):
        # D is the lcm of the denominators given to from_classes: 1 for
        # every integer preset, whose grid table is its class table; the
        # hexagon tiling's vertices are thirds
        patch = built(name, GRID_RADIUS)
        if name == "hex63":
            assert patch.scale == 3
            assert patch.grid is not patch.classes
        else:
            assert patch.scale == 1
            assert patch.grid is patch.classes

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_moved_preset_is_integral_on_its_grid(self, built, name):
        patch = moved_preset(name)
        assert patch.scale % 105 == 0
        assert all(type(c) is int for p in _grid_coordinates(patch.grid) for c in p)
        if "blend(" in name:
            # a blend colours from its least vertex class, which the shift
            # may change: it is then the integer blend mirrored, and moved
            return
        # the tables are the integer preset's, moved
        base = built(name, GRID_RADIUS)
        assert patch.vertices == [vadd(p, SHIFT) for p in base.vertices]
        assert patch.edge_points == [(vadd(p, SHIFT), vadd(q, SHIFT))
                                     for p, q in base.edge_points]
        assert len(patch.faces) == len(base.faces)
        assert patch.flag_count == base.flag_count
        # and so are the vertex figure and the faces at the central vertex
        centre = base.central_vertex()
        assert patch.central_vertex() == vadd(centre, SHIFT)
        figure, moved_figure = base.vertex_figure(centre), patch.vertex_figure(vadd(centre, SHIFT))
        assert moved_figure.nodes == {vadd(p, SHIFT) for p in figure.nodes}
        assert moved_figure.edges == {frozenset(vadd(p, SHIFT) for p in e): m
                                      for e, m in figure.edges.items()}
        assert [f.canonical_key() for f in patch.faces_at_vertex(vadd(centre, SHIFT))] == \
            sorted(f.translate(SHIFT).canonical_key() for f in base.faces_at_vertex(centre))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_class_tables_are_unchanged(self, built, name):
        # keys, lifts, closures and counts, in table order, in input units
        got = (class_table_digest(built(name, GRID_RADIUS).classes),
               class_table_digest(moved_preset(name).classes))
        assert got == CLASS_TABLES[name]

    @pytest.mark.parametrize("name,radius", [(n, r) for n, r, _ in CATALOG_SWEEP])
    def test_class_table_coordinates_are_ints_when_integral(self, built, name, radius):
        # the lifts of a class table are sums of Fractions, which Python
        # leaves as Fraction(n, 1) when integral; a copy read back from its
        # file is on the built patch's grid
        patch = moved_preset(name)
        written = moved_preset(name, radius)
        scanned = complex_from_json(complex_to_json(written))
        assert scanned.scale == written.scale
        for table in (built(name, GRID_RADIUS).classes, patch.classes, scanned.classes):
            assert _integral_coordinates_are_ints(table)

    def test_rational_helix_classes_are_ints_when_integral(self):
        # 5 of the 72 lift coordinates of this one were Fraction(n, 1)
        shift = (Fraction(1, 3), Fraction(-1, 7), Fraction(1, 2))
        patch = moved_preset("P2:1/3,2/5", 3, shift)
        assert _integral_coordinates_are_ints(patch.classes)
        scanned = complex_from_json(complex_to_json(patch))
        assert _integral_coordinates_are_ints(scanned.classes)

    @pytest.mark.parametrize("name", POLYHEDRA)
    def test_symmetries_move_with_the_structure(self, built, name):
        # verdict, the flag-symmetry family and is_symmetry of the moved
        # structure are those of the integer preset conjugated by the shift
        from skelforge.classify import find_flag_symmetries, is_symmetry, verdict

        from test_classify import candidates_at_base_vertex

        base, patch = built(name, GRID_RADIUS), moved_preset(name)
        back = tuple(-c for c in SHIFT)
        fam, moved_fam = find_flag_symmetries(base), find_flag_symmetries(patch)
        assert (fam is None) == (moved_fam is None)
        if fam is None:
            return
        assert moved_fam["family"] == fam["family"]
        gens = [g for k, g in fam.items() if k != "family"]
        moved_gens = [g for k, g in moved_fam.items() if k != "family"]
        assert all(is_symmetry(patch, conjugated(g, SHIFT)) for g in gens)
        assert all(is_symmetry(base, conjugated(g, back)) for g in moved_gens)
        if "(" not in name and name not in CONSTRUCTIVE_PRESETS:
            gens = instantiate(name).isometries()
        v = verdict(base, gens)
        w = verdict(patch, [conjugated(g, SHIFT) for g in gens])
        assert (w.kind, w.orbit_count, w.adjacent_always_split) == \
            (v.kind, v.orbit_count, v.adjacent_always_split)
        assert (w.extra_symmetry is None) == (v.extra_symmetry is None)
        if v.extra_symmetry is not None:
            assert w.extra_symmetry == conjugated(v.extra_symmetry, SHIFT)
        cands = candidates_at_base_vertex(base)
        assert [is_symmetry(patch, conjugated(c, SHIFT)) for c in cands] == \
            [is_symmetry(base, c) for c in cands]

    @pytest.mark.parametrize("name", POLYHEDRA)
    def test_traces_move_with_the_structure(self, built, name):
        # a period vector is a translation, which the shift leaves alone;
        # its sign follows the walk, which may start elsewhere
        from skelforge.ops import trace

        def lengths(patch):
            return sorted((t.length, t.closed_up, t.period_vector and
                           max(t.period_vector, tuple(-c for c in t.period_vector)))
                          for t in trace(patch, "petrie"))

        assert lengths(moved_preset(name)) == lengths(built(name, GRID_RADIUS))

    def test_moved_cube_and_octahedron_are_dual(self):
        from skelforge.classify import dual_congruence_check, face_center

        cube, oct_ = moved_preset("cube"), moved_preset("oct")
        ok, g = dual_congruence_check(cube, oct_)
        assert ok
        assert {g(face_center(f)) for f in cube.faces} == set(oct_.vertices)
