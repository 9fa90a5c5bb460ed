"""Petrie duals, word traces, blends, and covering checks."""

from fractions import Fraction

import pytest

from skelforge.complexes import Region, validate
from skelforge.errors import (
    NotBipartiteError,
    NotPolyhedronError,
    ZeroParameterError,
)
from skelforge.ops import (
    blend_with_apeirogon,
    blend_with_segment,
    covering_check,
    petrie_dual,
    trace,
)
from skelforge.classify import classify_polygon

from patch_oracles import edge_faces_of
from test_presets import CATALOG_SWEEP

POLYHEDRA = [name for name, _, mode in CATALOG_SWEEP if mode == "polyhedron"]
RADIUS = {name: radius for name, radius, _ in CATALOG_SWEEP}


class TestPetrieDual:
    def test_cube_dual_counts(self, built):
        pc = petrie_dual(built("cube"))
        assert pc.counts() == (8, 12, 4)
        assert all(classify_polygon(f).kind == "skew" for f in pc.faces)
        assert all(len(f) == 6 for f in pc.faces)

    def test_involution_on_cube_byte_identical(self, built):
        from skelforge.serialization import complex_to_json_text

        cube = built("cube")
        back = petrie_dual(petrie_dual(cube))
        a = complex_to_json_text(back).replace("petrie(petrie({4,3}))", "{4,3}")
        b = complex_to_json_text(cube)
        assert a == b

    def test_edge_and_vertex_sets_preserved(self, built):
        for name in ("cube", "tet", "oct"):
            patch = built(name)
            dual = petrie_dual(patch)
            assert dual.vertices == patch.vertices
            assert dual.edges == patch.edges

    def test_involution_on_infinite_presets(self, built):
        # support vertices outside the region are construction artifacts, so
        # the involution is asserted on everything the region pins down
        for name in ("sq44", "P:1,0"):
            patch = built(name)
            back = petrie_dual(petrie_dual(patch))
            region = patch.region
            assert {v for v in back.vertices if region.contains(v)} == {
                v for v in patch.vertices if region.contains(v)
            }
            assert {
                e for e in back.edge_points
                if region.contains(e[0]) and region.contains(e[1])
            } == {
                e for e in patch.edge_points
                if region.contains(e[0]) and region.contains(e[1])
            }
            safe = Region(region.center, region.radius - 2)
            orig = {f.canonical_key() for f in patch.faces if f.window(safe)}
            twice = {f.canonical_key() for f in back.faces if f.window(safe)}
            assert orig == twice

    def test_square_tessellation_dual_is_zigzag(self, built):
        psq = petrie_dual(built("sq44"))
        assert validate(psq, "polyhedron").passed
        kinds = {classify_polygon(f).kind for f in psq.faces}
        assert kinds == {"zigzag"}
        assert len(psq.faces_at_vertex((0, 0, 0))) == 4

    def test_complex_input_rejected(self, built):
        with pytest.raises(NotPolyhedronError):
            petrie_dual(built("skel2cubic", 3))

    def test_helix_faced_input_permitted(self, built):
        # traces through helical faces are periodic, so the dual exists
        p = built("P2:1,0")
        circuits = trace(p, "petrie")
        assert circuits and all(not t.closed_up and t.length == 3 for t in circuits)
        dual = petrie_dual(p)
        assert validate(dual, "polyhedron").passed
        assert {classify_polygon(f).kind for f in dual.faces} == {"helical"}

    @pytest.mark.parametrize("name", [
        "tet", "cube", "oct", "sq44", "tri36", "hex63", "P:1,0", "P:1,1",
        "P:1,-1", "P:2,1", "P2:0,1", "P2:1,0", "P2:1,1", "petrie(cube)",
        "petrie(sq44)",
    ])
    def test_dual_classes_do_not_depend_on_the_radius(self, built, name):
        # a radius-1/2 patch shows no face count per edge, but the
        # quotient is built from the classes
        small = petrie_dual(built(name, Fraction(1, 2)))
        large = petrie_dual(built(name, 3))
        assert small.classes.faces.keys() == large.classes.faces.keys()
        assert small.classes.lattice.basis == large.classes.lattice.basis

    def test_helix_dual_independent_of_quotient_scale(self, built):
        # Petrie helices close only after several periods modulo the
        # quotient lattice; their translates must still all be found
        p = built("P2:1,0")
        keys = [
            {f.canonical_key() for f in petrie_dual(p, quotient_scale=s).faces}
            for s in (1, 2)
        ]
        assert keys[0] == keys[1]


class TestTraces:
    def test_cube_petrie_length_six(self, built):
        circuits = trace(built("cube"), "petrie")
        assert len(circuits) == 4
        assert all(t.closed_up and t.length == 6 for t in circuits)

    def test_petrie_dual_of_cube_closes_after_four(self, built):
        pc = petrie_dual(built("cube"))
        circuits = trace(pc, "petrie")
        assert len(circuits) == 6
        assert all(t.closed_up and t.length == 4 for t in circuits)

    def test_petriecoxeter_holes_close_after_three(self, built):
        circuits = trace(built("P:1,1"), "hole")
        assert circuits and all(t.closed_up and t.length == 3 for t in circuits)

    def test_skewfaced_regular_petrie_length_four(self, built):
        circuits = trace(built("P:1,-1"), "petrie")
        assert circuits and all(t.closed_up and t.length == 4 for t in circuits)

    @pytest.mark.parametrize("name", ["P:1,0", "P2:1,0", "cube", "hex63"])
    def test_traces_do_not_depend_on_the_radius(self, built, name):
        # a radius-1/2 patch shows no face count per edge, but the
        # quotient is built from the classes
        small = trace(built(name, Fraction(1, 2)), "petrie")
        assert small and small == trace(built(name, 3), "petrie")

    def test_zigzag_traces_report_periods(self, built):
        circuits = trace(built("sq44"), "petrie")
        assert circuits
        for t in circuits:
            assert not t.closed_up
            assert t.length == 2
            assert t.period_vector is not None

    def test_two_zigzag_word_runs(self, built):
        circuits = trace(built("cube"), "two_zigzag")
        assert circuits
        assert all(t.closed_up for t in circuits)

    def test_every_edge_lies_in_two_petrie_circuits(self, built):
        # Petrie circuits cover every quotient edge exactly twice
        from collections import Counter
        from skelforge.orbit import build_quotient
        from skelforge.ops import WORDS, _walk_circuit

        closed = build_quotient(built("cube"))
        counts = Counter()
        seen = set()
        for start in range(closed.dart_count()):
            if start in seen:
                continue
            steps, disp, orbit, _, edge_ids = _walk_circuit(
                closed, start, WORDS["petrie"]
            )
            seen.update(orbit)
            sig = frozenset(edge_ids)
            counts[sig] += 1
        per_edge = Counter()
        for sig, n in counts.items():
            for e in sig:
                per_edge[e] += 1  # both directions hit the same signature
        assert set(per_edge.values()) == {2}


class TestFlags:
    @pytest.mark.parametrize("name", POLYHEDRA)
    def test_each_step_is_an_involution(self, built, name):
        # on the quotient modulo the structure's own lattice, where a face
        # may meet a vertex or edge class more than once
        from skelforge.orbit import build_quotient
        from skelforge.ops import GeomFlag

        closed = build_quotient(built(name, RADIUS[name]))
        for dart in range(closed.dart_count()):
            flag = GeomFlag(closed, dart)
            for i in (0, 1, 2):
                back = flag.step(i).step(i)
                assert back.dart == dart, (name, dart, i)
                assert back.vertex_point() == flag.vertex_point(), (name, dart, i)

    @pytest.mark.parametrize("name", POLYHEDRA + ["P2:1/3,2/5"])
    def test_each_step_matches_the_face_walk_rule(self, built, name):
        # the flag's vertex read from its face walk, and the step rule on it:
        # rho0 keeps the shift, rho1 and rho2 move the new dart onto the vertex
        from skelforge.geometry import vadd, vsub
        from skelforge.orbit import build_quotient
        from skelforge.ops import GeomFlag

        closed = build_quotient(built(name, RADIUS.get(name, 3)))

        def walked(dart, shift):
            _, _, fid, j, side = closed.darts[dart]
            return vadd(closed.faces[fid].vertex(j + side), shift)

        for shift in [(0, 0, 0)] + list(closed.lattice.basis[:1]):
            for dart in range(closed.dart_count()):
                flag = GeomFlag(closed, dart, shift)
                p = walked(dart, shift)
                assert flag.vertex_point() == p, (name, dart)
                for i in (0, 1, 2):
                    other = closed.adjacent_flag(dart, i)
                    want = shift if i == 0 else vsub(p, walked(other, (0, 0, 0)))
                    got = flag.step(i)
                    assert (got.dart, got.shift) == (other, want), (name, dart, i)
        # the structure's grid is integral, so its vertex classes key by ints
        assert all(type(c) is int for key in closed.vkeys for c in key), name


class TestBlends:
    def test_segment_blend_lifts_to_two_planes(self, built):
        bs = blend_with_segment(built("sq44"), 1)
        assert {v[2] for v in bs.vertices} == {1, -1}
        assert validate(bs, "polyhedron").passed
        assert all(classify_polygon(f).kind == "skew" for f in bs.faces)

    def test_segment_blend_projections_recover_components(self, built):
        sq = built("sq44")
        bs = blend_with_segment(sq, 1)
        assert {(v[0], v[1], 0) for v in bs.vertices} == set(sq.vindex)
        assert {(0, 0, v[2]) for v in bs.vertices} == {(0, 0, 1), (0, 0, -1)}

    def test_apeirogon_blend_is_helical(self, built):
        ba = blend_with_apeirogon(built("sq44"), 1)
        assert validate(ba, "polyhedron").passed
        kinds = {classify_polygon(f).kind for f in ba.faces}
        assert kinds == {"helical"}
        assert {classify_polygon(f).k for f in ba.faces} == {4}

    def test_adjacent_helices_share_every_fourth_edge(self, built):
        ba = blend_with_apeirogon(built("sq44"), 1)
        edge_faces = edge_faces_of(ba)
        for edge in ba.edge_points:
            fids = sorted({f for f, _ in edge_faces.get(edge, ())})
            if len(fids) != 2:
                continue
            f = ba.faces[fids[0]]
            slots_here = sorted(
                s for s, p, q in f.edge_slots(ba.region)
                if tuple(sorted((p, q))) in {
                    e for e in ba.edge_points
                    if sorted({g for g, _ in edge_faces.get(e, ())}) == fids
                }
            )
            gaps = {slots_here[i + 1] - slots_here[i] for i in range(len(slots_here) - 1)}
            assert gaps == {4}
            break

    def test_triangle_segment_blend_not_bipartite(self, built):
        with pytest.raises(NotBipartiteError):
            blend_with_segment(built("tri36", 3), 1)

    def test_hexagon_apeirogon_blend_not_bipartite(self, built):
        with pytest.raises(NotBipartiteError):
            blend_with_apeirogon(built("hex63", 3), 1)

    def test_zero_parameters_rejected(self, built):
        with pytest.raises(ZeroParameterError):
            blend_with_segment(built("sq44"), 0)
        with pytest.raises(ZeroParameterError):
            blend_with_apeirogon(built("sq44"), 0)

    def test_other_valid_blends(self, built):
        # at radius 6 the tri36 blend once showed no lattice to its scan
        for blend, name, radius in ((blend_with_segment, "hex63", 3),
                                    (blend_with_apeirogon, "tri36", 3),
                                    (blend_with_apeirogon, "tri36", 6)):
            assert validate(blend(built(name, radius), 1), "polyhedron").passed, \
                (name, radius)

    def test_apeirogon_blend_does_not_depend_on_radius(self, built):
        # heights are anchored on the classes, not on the least patch vertex
        region = Region((0, 0, 0), 3)
        inside = [{v for v in blend_with_apeirogon(built("sq44", r), 1).vertices
                   if region.contains(v)} for r in (3, 4)]
        assert len(inside[0]) == 89 and inside[0] == inside[1]


class TestCovering:
    def test_helix_compresses_onto_cube(self, built):
        # the index of the covering comes from the dart counts, not from the
        # vertices a patch shows, so a patch of radius 1/2 covers as well
        target = built("P2:0,1")
        for radius in (Fraction(1, 2), 6):
            ok, witness = covering_check(built("P2:1,1", radius), target)
            assert ok, radius
            assert witness["kind"] == "compress"
            assert len(witness["class_map"]) == 8

    def test_regular_helix_also_covers(self, built):
        target = built("P2:0,1")
        ok, _ = covering_check(built("P2:1,0", 6), target)
        assert ok

    def test_identity_covering(self, built):
        cube = built("P2:0,1")
        ok, witness = covering_check(cube, cube)
        assert ok
        assert witness["kind"] == "compress"

    @pytest.mark.parametrize("radius", [Fraction(1, 2), 1, 3, 6])
    def test_plane_tiling_does_not_compress_onto_a_solid(self, built, radius):
        # a rank-2 lattice has sublattices of every index too
        for target in ("cube", "P2:0,1"):
            assert covering_check(built("sq44", radius), built(target)) == (False, None)

    def test_unrelated_structures_do_not_cover(self, built):
        ok, _ = covering_check(built("P:1,0"), built("P2:0,1"))
        assert not ok
