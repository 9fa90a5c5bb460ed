"""Acceptance criteria, one test per criterion.

Each test prints a single [criterion N] PASS line on success (run with -s
to see them); every expected value here is exact, no tolerances anywhere.
"""

import json
import random

from skelforge import classify, nets, ops
from skelforge.complexes import FaceDescriptor, Region, graph_identify, validate
from skelforge.geometry import (
    Isometry,
    compose,
    fixed_space_dim,
    order_or_translation,
)
from skelforge.orbit import build_base_face, build_quotient, wythoff_patch
from skelforge.presets import finite_faced_chiral, helix_faced_chiral
from skelforge.serialization import complex_to_json

from patch_oracles import edge_faces_of


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS - {text}")


def nameless_dump(patch):
    data = complex_to_json(patch)
    data.pop("name")
    return json.dumps(data, sort_keys=True)


def test_criterion_01_petrie_dual_of_cube(built):
    cube = built("cube")
    dual = ops.petrie_dual(cube)
    assert dual.counts() == (8, 12, 4)
    for f in dual.faces:
        c = classify.classify_polygon(f)
        assert (c.kind, c.p) == ("skew", 6)
    circuits = ops.trace(dual, "petrie")
    assert circuits and all(t.closed_up and t.length == 4 for t in circuits)
    assert nameless_dump(ops.petrie_dual(dual)) == nameless_dump(cube)
    report(1, "petrie(cube): 8v 12e 4 skew hexagons, petrie length 4, involution")


def test_criterion_02_chiral_p10(built):
    patch = built("P:1,0")
    face = build_base_face(finite_faced_chiral(1, 0))
    assert face.vertices == (
        (0, 0, 0), (0, 0, -1), (0, -1, -1), (1, -1, -1), (1, -1, 0), (1, 0, 0),
    )
    listed = [(1, 0, 0), (0, -1, 0), (0, 0, 1), (-1, 0, 0), (0, 1, 0), (0, 0, -1)]
    vf = patch.vertex_figure((0, 0, 0))
    assert vf.nodes == frozenset(listed)
    assert set(vf.edges) == {
        frozenset((listed[i], listed[(i + 1) % 6])) for i in range(6)
    }
    fc = classify.classify_polygon(face)
    assert (fc.kind, fc.p) == ("skew", 6)
    vf_face = FaceDescriptor(listed)
    vc = classify.classify_polygon(vf_face)
    assert (vc.kind, vc.p) == ("skew", 6)
    st = classify.schlafli(patch)
    assert (st.p, st.q) == (6, 6)
    v = classify.verdict(patch, finite_faced_chiral(1, 0).isometries())
    assert v.kind == "chiral" and v.orbit_count == 2 and v.adjacent_always_split
    report(2, "P(1,0): paper base face and vertex figure, skew {6,6}, chiral")


def test_criterion_03_degenerations(built):
    p11 = built("P:1,1")
    v = classify.verdict(p11, finite_faced_chiral(1, 1).isometries())
    assert v.kind == "regular"
    assert all(classify.classify_polygon(f).kind == "convex" for f in p11.faces[:20])
    holes = ops.trace(p11, "hole")
    assert holes and all(t.closed_up and t.length == 3 for t in holes)

    p1m1 = built("P:1,-1")
    v = classify.verdict(p1m1, finite_faced_chiral(1, -1).isometries())
    assert v.kind == "regular"
    assert all(classify.classify_polygon(f).kind == "skew" for f in p1m1.faces[:20])
    vf = p1m1.vertex_figure((0, 0, 0))
    vc = classify.classify_polygon(FaceDescriptor(vf.cycle_order()))
    assert vc.kind == "convex"
    petries = ops.trace(p1m1, "petrie")
    assert petries and all(t.closed_up and t.length == 4 for t in petries)
    report(3, "P(1,1) regular convex with holes of length 3; "
              "P(1,-1) regular skew with petrie length 4")


def test_criterion_04_self_duality(built):
    ok, witness = classify.dual_congruence_check(built("P:1,0"), built("P:0,1"))
    assert ok and isinstance(witness, Isometry)
    inner = built("P:1,0").region.shrunk(2)
    moved = 0
    for f in built("P:1,0").faces:
        c = classify.face_center(f)
        img = witness(c)
        if inner.contains(img):
            assert built("P:0,1").has_vertex(img)
            moved += 1
    assert moved > 20
    report(4, "face centers of P(1,0) land on vertices of P(0,1) "
              f"under {witness!r}")


def test_criterion_05_helix_family(built):
    cube = built("P2:0,1")
    assert cube.counts() == (8, 12, 6)
    assert validate(cube, "polyhedron").passed

    p2_10 = built("P2:1,0")
    fam = classify.find_flag_symmetries(p2_10)
    assert fam["family"] == "R"
    assert classify.mirror_vector(fam["R0"], fam["R1"], fam["R2"]) == (1, 1, 1)
    v = classify.verdict(p2_10, helix_faced_chiral(1, 0).isometries())
    assert v.kind == "regular"
    for f in p2_10.faces[:10]:
        c = classify.classify_polygon(f)
        assert (c.kind, c.k) == ("helical", 4)
    power = order_or_translation(helix_faced_chiral(1, 0).generators["S1"], 8)
    assert (power.kind, power.n, power.vector) == ("translation", 4, (0, 4, 0))

    p2_11 = built("P2:1,1", 6)
    v = classify.verdict(p2_11, helix_faced_chiral(1, 1).isometries())
    assert v.kind == "chiral"
    ok, _ = ops.covering_check(p2_11, cube)
    assert ok
    report(5, "P2(0,1) is a cube; P2(1,0) regular (1,1,1) with S1^4 = "
              "(0,4,0); P2(1,1) chiral and covers the cube")


REGULAR_PRESETS = [
    ("tet", 4), ("cube", 4), ("oct", 4), ("sq44", 4), ("tri36", 3),
    ("hex63", 3), ("P:1,1", 4), ("P:1,-1", 4), ("P2:1,0", 4), ("P2:0,1", 4),
    ("blend(sq44,seg:1)", 4), ("blend(sq44,apeiro:1)", 4),
]
CHIRAL_PRESETS = [
    ((1, 0), None), ((2, 1), None), ((1, -2), None),
    (None, (1, 1)), (None, (2, 1)), (None, (1, "3/2")),
]


def test_criterion_06_relation_suites(built):
    for name, radius in REGULAR_PRESETS:
        patch = built(name, radius)
        fam = classify.find_flag_symmetries(patch)
        assert fam is not None and fam["family"] == "R", name
        r0, r1, r2 = fam["R0"], fam["R1"], fam["R2"]
        st = classify.schlafli(patch)
        for g in (r0, r1, r2):
            assert g.is_involution(), name
        r01 = r0.then(r1)
        if st.p is None:
            assert order_or_translation(r01, 24).kind != "order", name
        else:
            assert order_or_translation(r01, st.p + 1) == \
                order_or_translation(r01, st.p), name
            assert (order_or_translation(r01, st.p).kind,
                    order_or_translation(r01, st.p).n) == ("order", st.p), name
        r12 = r1.then(r2)
        assert (order_or_translation(r12, st.q).kind,
                order_or_translation(r12, st.q).n) == ("order", st.q), name
        assert r0.then(r2).is_involution(), name

    for ab, cd in CHIRAL_PRESETS:
        if ab is not None:
            gen = finite_faced_chiral(*ab)
            p, q = 6, 6
        else:
            from skelforge.geometry import scalar

            gen = helix_faced_chiral(scalar(cd[0]), scalar(cd[1]))
            p, q = None, 3
        s1, s2 = gen.generators["S1"], gen.generators["S2"]
        if p is None:
            assert order_or_translation(s1, 24).kind == "translation"
        else:
            assert (order_or_translation(s1, p).kind,
                    order_or_translation(s1, p).n) == ("order", p)
        assert (order_or_translation(s2, q).kind,
                order_or_translation(s2, q).n) == ("order", q)
        t = s1.then(s2)
        assert t.then(t).is_identity
        assert t(gen.base_vertex) == gen.base_edge_other
        assert t(gen.base_edge_other) == gen.base_vertex
    report(6, f"Coxeter relations hold for {len(REGULAR_PRESETS)} regular and "
              f"{len(CHIRAL_PRESETS)} chiral generator sets")


def test_criterion_07_table_rows(built):
    rows = {
        "K1_12": ("4_s", "cuboctahedron", "Lambda2", "fcu", None),
        "K4_12": ("6_s", "octahedron", "Lambda1", "pcu", 12),
        "K5_12": ("6_s", "double square", "V", "nbo", 8),
        "skel2cubic": ("4_c", "octahedron", "Lambda1", "pcu", None),
    }
    for name, (face_sym, vf_name, vset, net_name, at_vertex) in rows.items():
        patch = built(name)
        rep = validate(patch, "complex")
        assert rep.passed and rep.r == 4, name
        sym = classify.classify_polygon(patch.faces[0]).symbol
        assert sym == face_sym, (name, sym)
        assert graph_identify(patch.vertex_figure((0, 0, 0))) == vf_name, name
        assert nets.identify_vertex_set(patch) == vset, name
        assert nets.identify_net(nets.extract_net(patch)) == net_name, name
        if at_vertex is not None:
            assert len(patch.faces_at_vertex((0, 0, 0))) == at_vertex, name
        if name != "skel2cubic":
            g2 = classify.edge_stabilizer(patch)
            assert (g2.name, g2.order) == ("D2", 4), name
    report(7, "K1(1,2), K4(1,2), K5(1,2) and the cubic 2-skeleton reproduce "
              "their table rows (r, faces, vertex figures, vertex sets, nets)")


def test_criterion_08_blends(built):
    sq = built("sq44")
    seg = ops.blend_with_segment(sq, 1)
    assert {v[2] for v in seg.vertices} == {1, -1}
    for f in seg.faces[:20]:
        c = classify.classify_polygon(f)
        assert (c.kind, c.p) == ("skew", 4)
    assert {(v[0], v[1], 0) for v in seg.vertices} == set(sq.vindex)
    assert {(0, 0, v[2]) for v in seg.vertices} == {(0, 0, 1), (0, 0, -1)}

    helix = ops.blend_with_apeirogon(sq, 1)
    assert validate(helix, "polyhedron").passed
    for f in helix.faces[:20]:
        c = classify.classify_polygon(f)
        assert (c.kind, c.k) == ("helical", 4)
    # adjacent helices share every fourth edge
    edge_faces = edge_faces_of(helix)
    interior = [e for e in helix.edge_points
                if helix.region.contains(e[0]) and helix.region.contains(e[1])]
    for e in interior:
        fids = sorted({f for f, _ in edge_faces.get(e, ())})
        assert len(fids) == 2
    f0 = helix.faces[0]
    partners = {}
    for slot, p, q in f0.edge_slots(helix.region):
        others = [f for f, _ in edge_faces[tuple(sorted((p, q)))] if f != 0]
        if others:
            partners.setdefault(others[0], []).append(slot)
    multi = 0
    for slots in partners.values():
        gaps = {slots[i + 1] - slots[i] for i in range(len(slots) - 1)}
        assert gaps <= {4}
        multi += bool(gaps)
    assert multi >= 2
    report(8, "{4,4}#{segment} lifts to z = +-1 with skew tetragons and "
              "recovers both components; {4,4}#{apeirogon} helices share "
              "every fourth edge")


def test_criterion_09_net_oracles():
    from test_nets import EXPECTED_SEQUENCES, bfs_shells, oracle_patch

    refs = nets.reference_nets()
    shell1 = []
    for name in ("pcu", "fcu", "bcu", "dia", "nbo"):
        ref = refs[name]
        pts, edges, src = oracle_patch(name)
        assert bfs_shells(pts, edges, src, 6) == ref.coordination_sequence(6), name
        assert ref.coordination_sequence(10) == EXPECTED_SEQUENCES[name], name
        assert nets.identify_net(ref) == name
        shell1.append(ref.coordination_sequence(1)[0])
    assert shell1 == [6, 12, 8, 4, 4]
    report(9, "pcu/fcu/bcu/dia/nbo quotient sequences equal the patch-BFS "
              "oracle; shell-1 values 6,12,8,4,4; identification correct")


def test_criterion_10_planar_family(built):
    expected = {"sq44": (4, 4), "tri36": (3, 6), "hex63": (3, 3)}
    for name, (radius, q) in expected.items():
        patch = built(name, radius)
        dual = ops.petrie_dual(patch)
        kinds = {classify.classify_polygon(f).kind for f in dual.faces}
        assert kinds == {"zigzag"}, name
        center = min(
            (dual.vertices[i] for i in dual.interior_vertex_ids()),
            key=lambda v: (max(abs(c) for c in v), v),
        )
        assert len(dual.faces_at_vertex(center)) == q, name
        fam = classify.find_flag_symmetries(dual)
        assert fam["family"] == "R", name
        gens = [fam["R0"], fam["R1"], fam["R2"]]
        v = classify.verdict(dual, gens)
        assert v.kind == "regular", name
    report(10, "petrie duals of {4,4}, {3,6}, {6,3} are zigzag-faced with "
               "4, 6, 3 faces per vertex and regular")


def test_criterion_11_property_suite(built):
    rng = random.Random(20260809)
    import itertools

    perms = [
        tuple(tuple(s[i] if j == p[i] else 0 for j in range(3)) for i in range(3))
        for p in itertools.permutations(range(3))
        for s in itertools.product((1, -1), repeat=3)
    ]

    def rand_iso():
        m = rng.choice(perms)
        t = tuple(rng.randint(-3, 3) for _ in range(3))
        return Isometry(m, t, check=False)

    for _ in range(60):
        g, h, k = rand_iso(), rand_iso(), rand_iso()
        assert compose(compose(g, h), k) == compose(g, compose(h, k))
        assert compose(g, g.inverse()).is_identity
        assert g.det() in (1, -1)
        conj = compose(compose(h, g), h.inverse())
        assert fixed_space_dim(conj) == fixed_space_dim(g)

    # orbit determinism: two fresh builds serialize identically
    gen = finite_faced_chiral(1, 0)
    a = wythoff_patch(gen, Region((0, 0, 0), 2), name="x")
    b = wythoff_patch(gen, Region((0, 0, 0), 2), name="x")
    assert nameless_dump(a) == nameless_dump(b)

    # flag involutions and rho0/rho2 commutation on sampled darts
    for name, scale in (("cube", 4), ("P:1,0", 2)):
        closed = build_quotient(built(name), scale=scale)
        darts = rng.sample(range(closed.dart_count()), 40)
        for d in darts:
            for i in (0, 1, 2):
                assert closed.adjacent_flag(closed.adjacent_flag(d, i), i) == d
            ab = closed.adjacent_flag(closed.adjacent_flag(d, 0), 2)
            ba = closed.adjacent_flag(closed.adjacent_flag(d, 2), 0)
            assert ab == ba

    # petrie duality is an involution on every finite-faced preset
    for name in ("tet", "cube", "oct"):
        patch = built(name)
        assert nameless_dump(ops.petrie_dual(ops.petrie_dual(patch))) == \
            nameless_dump(patch)
    for name in ("sq44", "P:1,0"):
        patch = built(name)
        back = ops.petrie_dual(ops.petrie_dual(patch))
        region = patch.region
        assert {v for v in back.vertices if region.contains(v)} == \
            {v for v in patch.vertices if region.contains(v)}
        safe = region.shrunk(2)
        assert {f.canonical_key() for f in back.faces if f.window(safe)} == \
            {f.canonical_key() for f in patch.faces if f.window(safe)}

    # verdict stability across two quotient scales
    assert {
        classify.verdict(built("P:1,0"), finite_faced_chiral(1, 0).isometries(),
                         quotient_scale=s).kind
        for s in (2, 4)
    } == {"chiral"}
    assert {
        classify.verdict(built("P2:1,0"), helix_faced_chiral(1, 0).isometries(),
                         quotient_scale=s).kind
        for s in (1, 2)
    } == {"regular"}
    report(11, "seeded property suite: isometry algebra, determinism, flag "
               "involutions, petrie involution, verdict scale stability")
