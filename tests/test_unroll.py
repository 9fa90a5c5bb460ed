"""Patch construction against the old constructor (``patch_oracles``).

A patch keeps its vertex and edge lists, faces and flag count, and builds
its index tables on first read; an apeirogon's translates are unrolled
once per translate modulo the face's closure period.  Every table must be
the one the old two-walk constructor built from the old unroll, in the
same order, for generator and constructive presets, their Petrie duals and
JSON round trips.  A rational structure gives its constructor lists on its
integer grid, so the oracle's tables are mapped back to input units before
they are compared.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skelforge import quotient
from skelforge.complexes import FaceDescriptor, Region, SkeletalComplex
from skelforge.geometry import Lattice, dilate, vadd
from skelforge.ops import petrie_dual
from skelforge.orbit import wythoff_patch
from skelforge.presets import build, instantiate
from skelforge.serialization import complex_from_json, complex_to_json

import patch_oracles
from test_orbit import moved, moved_preset
from test_presets import CATALOG_SWEEP

RADII = [Fraction(1, 2), 3, 4]


@pytest.fixture
def recorded(monkeypatch):
    """Every patch made while active carries ``oracle``: the old tables
    of the element lists its constructor was given."""
    real = SkeletalComplex.__init__

    def init(self, *, vertices, edges, faces, region, **rest):
        vertices, edges, faces = list(vertices), list(edges), list(faces)
        real(self, vertices=vertices, edges=edges, faces=faces, region=region, **rest)
        self.oracle = patch_oracles.eager_tables(vertices, edges, faces, region)

    monkeypatch.setattr(SkeletalComplex, "__init__", init)
    return monkeypatch


def _in_input_units(old, scale):
    """The oracle's tables of the lists that a patch of the given scale gave
    its constructor, which are on the grid x -> scale x, mapped back to input
    units as the patch maps its own."""
    if scale == 1:
        return old
    k = Fraction(1, scale)

    def key(face_key):
        return face_key[:1] + tuple(dilate(p, k) for p in face_key[1:])

    out = dict(old)
    out["vertices"] = [dilate(p, k) for p in old["vertices"]]
    out["edge_points"] = [(dilate(p, k), dilate(q, k)) for p, q in old["edge_points"]]
    out["faces"] = [f.dilated(k) for f in old["faces"]]
    out["vindex"] = {dilate(p, k): i for p, i in old["vindex"].items()}
    out["eindex"] = {(dilate(p, k), dilate(q, k)): i for (p, q), i in old["eindex"].items()}
    out["face_keys"] = {key(f): i for f, i in old["face_keys"].items()}
    return out


def _assert_tables(patch, old, what):
    old = _in_input_units(old, patch.scale)
    assert patch.vertices == old["vertices"], what
    assert patch.edge_points == old["edge_points"], what
    assert [(f.vertices, f.period_vector) for f in patch.faces] == \
        [(f.vertices, f.period_vector) for f in old["faces"]], what
    assert patch.flag_count == old["flags"], what
    assert patch.counts() == (len(old["vertices"]), len(old["edges"]),
                              len(old["faces"])), what
    for table in ("vindex", "edges", "eindex", "face_keys"):
        assert getattr(patch, table) == old[table], (what, table)
    assert patch.interior_vertex_ids() == \
        [i for i, ok in enumerate(old["in_region"]) if ok], what


def _variants(patch, mode):
    """The patch, its JSON round trip and, for polyhedra, its Petrie dual."""
    out = {"patch": patch, "json": complex_from_json(complex_to_json(patch))}
    if mode == "polyhedron":
        out["petrie"] = petrie_dual(patch)
    return out


@pytest.mark.parametrize("radius", RADII, ids=str)
@pytest.mark.parametrize("name,mode", [(n, m) for n, _, m in CATALOG_SWEEP])
def test_patch_tables_match_the_old_constructor(recorded, name, mode, radius):
    region = Region((0, 0, 0), radius)
    new = _variants(build(name, region), mode)
    recorded.setattr(quotient, "face_translates", patch_oracles.face_translates)
    old = _variants(build(name, region), mode)
    assert new.keys() == old.keys()
    for kind in new:
        _assert_tables(new[kind], old[kind].oracle, (name, radius, kind))


def _two_period_zigzag():
    """A zigzag listed over two periods: its period vector (4, 0, 0) is
    twice its least one, so translates by (2, 0, 0) repeat the face."""
    face = FaceDescriptor([(0, 0, 0), (1, 1, 0), (2, 0, 0), (3, 1, 0)], (4, 0, 0))
    lattice = Lattice([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    return face, lattice


def test_key_dedupe_keeps_the_old_translates_of_a_non_primitive_period():
    face, lattice = _two_period_zigzag()
    region = Region((0, 0, 0), 3)
    new = quotient.face_translates(lattice, face, region)
    old = patch_oracles.face_translates(lattice, face, region)
    assert [(f.vertices, f.period_vector) for f in new] == \
        [(f.vertices, f.period_vector) for f in old]
    # the translates distinct modulo the period vector outnumber the faces:
    # only the canonical keys tell the repeats apart
    period = face.period_vector
    classes = {(t[0] % period[0], t[1], t[2])
               for t in quotient.lattice_translates(lattice, face.vertices, region)}
    assert len(classes) > len(new)


def test_two_period_patch_matches_the_old_constructor(recorded):
    face, lattice = _two_period_zigzag()
    region = Region((0, 0, 0), 3)
    new = SkeletalComplex.from_classes(lattice, [face], region)
    recorded.setattr(quotient, "face_translates", patch_oracles.face_translates)
    old = SkeletalComplex.from_classes(lattice, [face], region)
    _assert_tables(new, old.oracle, "two-period zigzag")


def test_index_tables_are_built_once(built):
    # the lattice scan reads them once per candidate edge and face
    patch = built("P:1,0", 3)
    for table in ("vindex", "edges", "eindex", "face_keys"):
        assert getattr(patch, table) is getattr(patch, table), table


def _window_by_walk(face, region, reach=60):
    inside = [k for k in range(-reach, reach) if region.contains(face.vertex(k))]
    return (inside[0] - 1, inside[-1] + 1) if inside else None


@pytest.mark.parametrize("centre,radius", [
    ((0, 0, 0), 3), ((0, 0, 0), Fraction(1, 2)),
    ((Fraction(1, 3), Fraction(-2, 5), 1), Fraction(7, 3)),
])
def test_window_is_the_walk_inside_the_region(centre, radius):
    region = Region(centre, radius)
    faces = [
        FaceDescriptor([(0, 0, 0), (1, 1, 0)], (2, 0, 0)),
        FaceDescriptor([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)], (2, 2, 2)),
        FaceDescriptor([(Fraction(1, 3), 0, 0), (1, Fraction(1, 2), 0)], (0, -2, 1)),
        FaceDescriptor([(5, 5, 5), (6, 5, 5)], (-2, -1, 0)),
        FaceDescriptor([(9, 9, 9), (9, 10, 9)], (0, 0, 3)),
    ]
    for face in faces:
        assert face.window(region) == _window_by_walk(face, region), face


# ---------------------------------------------------------------------------
# a patch is what touches its region, however its generators are written

MOVED_PRESETS = ["P2:1,0", "P2:1,1", "P:1,0", "P:1,1", "hex63", "P2:1/3,2/5"]
RATIONAL_SHIFT = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))
POLYHEDRA = [name for name, _, mode in CATALOG_SWEEP if mode == "polyhedron"]


def _element_sets(patch, shift=(0, 0, 0)):
    """The patch's vertices, edges and face keys, moved by ``shift``."""
    return (
        {vadd(p, shift) for p in patch.vertices},
        {tuple(sorted((vadd(p, shift), vadd(q, shift)))) for p, q in patch.edge_points},
        {f.translate(shift).canonical_key() for f in patch.faces},
    )


@settings(max_examples=24, deadline=None)
@given(
    name=st.sampled_from(MOVED_PRESETS),
    shift=st.one_of(st.tuples(*[st.integers(-4, 4)] * 3), st.just(RATIONAL_SHIFT)),
)
def test_moving_generators_and_region_moves_the_patch(name, shift):
    # the generators conjugated by the translation, and the region moved by
    # it, give the patch and the Petrie dual moved by it
    patch = build(name, Region((0, 0, 0), 3))
    moved_patch = wythoff_patch(moved(instantiate(name), shift), Region(shift, 3))
    assert _element_sets(moved_patch) == _element_sets(patch, shift)
    assert _element_sets(petrie_dual(moved_patch)) == \
        _element_sets(petrie_dual(patch), shift)


# ---------------------------------------------------------------------------
# the patch rule, and the Petrie dual under it

EXTRA_PRESETS = ["P2:1/3,2/5", "P:5,3", "P:3,2", "P2:2,1", "P:1,-2"]
RULE_PRESETS = [name for name, _, _ in CATALOG_SWEEP] + EXTRA_PRESETS + ["petrie(P2:1/3,2/5)"]
RULE_RADII = [Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 4]
PETRIE_PRESETS = POLYHEDRA + EXTRA_PRESETS
PETRIE_RADII = [Fraction(1, 2), 1, 3, 4]


def _preset(name, radius, moved_copy):
    """The preset over the radius-``radius`` region, or its copy moved by
    ``test_orbit.SHIFT`` with the region moved with it."""
    if moved_copy:
        return moved_preset(name, radius)
    return build(name, Region((0, 0, 0), radius))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(RULE_PRESETS), radius=st.sampled_from(RULE_RADII),
       moved_copy=st.booleans())
@example(name="P:2,1", radius=1, moved_copy=False)
@example(name="petrie(P2:1/3,2/5)", radius=1, moved_copy=False)
def test_a_patch_is_what_the_rule_takes(name, radius, moved_copy):
    # the library's unroll against the rule applied by brute force to the
    # patch's own classes: no edge whose ends both miss the region unless a
    # finite face brings it, no apeirogon slot between two runs
    patch = _preset(name, radius, moved_copy)
    vertices, edges, keys = patch_oracles.patch_by_rule(patch.classes, patch.region)
    assert set(patch.edge_points) == edges
    assert set(patch.vertices) == vertices
    assert {f.primitive().canonical_key() for f in patch.faces} == keys


def _on_finite_faces(patch):
    return {tuple(sorted((p, q))) for f in patch.faces if f.is_finite
            for _, p, q in f.edge_slots()}


# each polyhedron preset, plain and moved, at each radius; a plain case is
# named "<name>-<radius>", a moved one "<name>-<radius>-moved"
PETRIE_CASES = [
    pytest.param(name, radius, moved_copy,
                 id=f"{name}-{radius}" + ("-moved" if moved_copy else ""))
    for name in PETRIE_PRESETS for radius in PETRIE_RADII for moved_copy in (False, True)
]


@pytest.mark.parametrize("name,radius,moved_copy", PETRIE_CASES)
def test_petrie_dual_has_the_parents_vertices_and_edges(name, radius, moved_copy):
    # in the region: every edge with an end there lies on a Petrie slot
    # through that end.  Any other edge of the dual is an edge of a finite
    # Petrie polygon, which comes whole
    patch = _preset(name, radius, moved_copy)
    dual = petrie_dual(patch)
    contains = patch.region.contains

    def touching(p):
        return ({v for v in p.vertices if contains(v)},
                {e for e in p.edge_points if contains(e[0]) or contains(e[1])})

    assert touching(dual) == touching(patch)
    assert set(dual.edge_points) - touching(dual)[1] <= _on_finite_faces(dual)


@pytest.mark.parametrize("name,radius,moved_copy", PETRIE_CASES)
def test_petrie_dual_is_an_involution_on_patches(name, radius, moved_copy):
    patch = _preset(name, radius, moved_copy)
    back = petrie_dual(petrie_dual(patch))
    assert back.vertices == patch.vertices
    assert back.edge_points == patch.edge_points
    assert list(back.face_keys) == list(patch.face_keys)
