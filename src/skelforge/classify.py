"""Geometric and symmetry classification.

Polygon taxonomy follows one rule: a face is regular exactly when an
isometry moves each vertex of its walk to the next, and its kind is then
read from the span of its vertices (and, for a helix, the number of their
projections along the period).  Symmetries are discovered by solving
exact point correspondences between flag walks, and a candidate is decided
on the structure's quotient modulo its own lattice by where it sends each
face class (:func:`is_symmetry`); no cover is built for it.

The quotient and the flags lie on the structure's integer grid
x -> D x (``SkeletalComplex.scale``); an isometry crosses between input
units and the grid as ``(M, t) <-> (M, D t)``, at :func:`is_symmetry`,
:func:`flag_map_candidates`, :func:`find_flag_symmetries` and
:func:`verdict`.  :func:`classify_polygon` moves a face to its first vertex
and scales it to ints the same way, and maps its witness back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    GeneratorsDoNotDescendError,
    NoFixedPointError,
    NotAPolygonError,
    NotEquivelarError,
    NotInvolutionError,
    NotPolyhedronError,
    PatchTooSmallError,
    UnderdeterminedError,
)
from .complexes import FaceDescriptor
from .geometry import (
    Isometry,
    Lattice,
    common_denominator,
    dilate,
    fixed_space_dim,
    lattice_intersection,
    order_or_translation,
    scalar,
    solve_isometry,
    spanning_indices,
    to_grid,
    translation,
    vadd,
    vcross,
    vdot,
    vneg,
    vscale,
    vsub,
)
from .orbit import _coset_representatives, _translation_lattice, build_quotient
from .quotient import GeomFlag, _coset_vectors, _edge_key


# ---------------------------------------------------------------------------
# polygon taxonomy


class PolygonClass(NamedTuple):
    kind: str  # convex | skew | linear | zigzag | helical
    p: int | None = None       # vertices per cycle (finite kinds)
    k: int | None = None       # base k-gon (zigzag and helical)
    witness: Isometry | None = None

    @property
    def symbol(self):
        if self.kind == "convex":
            return f"{self.p}_c"
        if self.kind == "skew":
            return f"{self.p}_s"
        if self.kind == "linear":
            return "inf_1"
        if self.kind == "zigzag":
            return "inf_2"
        return f"inf_{self.k}"

    @property
    def is_finite(self):
        return self.kind in ("convex", "skew")


def _cycling_isometry(src, dst, first=False):
    """Isometries realizing the ordered correspondence src -> dst (0 to 2),
    or with ``first`` only the first one found."""
    pairs = list(zip(src, dst))
    try:
        iso = solve_isometry(pairs)
        return [iso] if iso is not None else []
    except UnderdeterminedError:
        pass
    p0, q0 = pairs[0]
    dsrc = [vsub(p, p0) for p, _ in pairs[1:]]
    kept = spanning_indices(dsrc)
    if len(kept) < 2:
        raise UnderdeterminedError("correspondence sources are collinear")
    i, j = kept
    n_src = vcross(dsrc[i], dsrc[j])
    n_dst = vcross(vsub(pairs[i + 1][1], q0), vsub(pairs[j + 1][1], q0))
    out = []
    for sign in (1, -1):
        aug = pairs + [(vadd(p0, n_src), vadd(q0, vscale(sign, n_dst)))]
        iso = solve_isometry(aug)
        if iso is not None:
            out.append(iso)
            if first:
                break
    return out


def classify_polygon(face):
    """Exact classification of a (regular) polygon face.

    A face is regular exactly when an isometry (its witness) moves each
    vertex of its walk to the next; a face admitting none, or with fewer
    than 3 vertices or collinear ones, raises NotAPolygonError.  The kind
    then follows from the vertices: a finite face is skew when it spans
    3-space, else convex (a rational rotation has order 1, 2, 3, 4 or 6,
    so no regular star polygon has rational vertices); an infinite one is
    linear, zigzag (on two lines along its period), or helical over the
    k-gon its vertices project to along the period.

    The class is a similarity invariant, so a face off the integers is
    moved to its first vertex and scaled to ints first, and its witness
    mapped back.
    """
    pts, t = face.vertices, face.period_vector
    if {type(c) for v in (pts if t is None else pts + (t,)) for c in v} <= {int}:
        return _classify_polygon(face)
    v0 = pts[0]
    moved = [vsub(p, v0) for p in pts]
    d = common_denominator(moved if t is None else moved + [t])
    grid = FaceDescriptor._of(tuple(to_grid(p, d) for p in moved),
                              None if t is None else to_grid(t, d))
    found = _classify_polygon(grid)
    if found.witness is None:
        return found
    return found._replace(witness=translation(vneg(v0)).then(
        found.witness.dilated(Fraction(1, d))).then(translation(v0)))


def _classify_polygon(face):
    pts = face.vertices
    n = len(pts)
    if face.period_vector is None:
        if n < 3:
            raise NotAPolygonError("fewer than 3 vertices")
        kept = spanning_indices([vsub(p, pts[0]) for p in pts[1:]])
        if len(kept) < 2:
            raise NotAPolygonError("vertices are collinear")
        kind = "skew" if len(kept) == 3 else "convex"
        witnesses = _cycling_isometry(pts, pts[1:] + pts[:1], first=True)
        if not witnesses:
            shape = "skew" if kind == "skew" else "planar"
            raise NotAPolygonError(f"{shape} cycle admits no cycling isometry")
        return PolygonClass(kind, p=n, witness=witnesses[0])

    # infinite face
    t = face.period_vector
    walk = [face.vertex(k) for k in range(max(2 * n, 4) + 1)]
    d0 = vsub(walk[1], walk[0])
    if all(vcross(vsub(p, walk[0]), d0) == (0, 0, 0) for p in walk):
        steps = {vsub(walk[k + 1], walk[k]) for k in range(len(walk) - 1)}
        if len(steps) != 1:
            raise NotAPolygonError("linear apeirogon with uneven steps")
        return PolygonClass("linear", witness=translation(d0))
    shifted = walk[1:] + [face.vertex(len(walk))]
    witnesses = _cycling_isometry(walk, shifted, first=True)
    even_anchor, odd_anchor = walk[0], walk[1]
    on_two_lines = all(
        vcross(vsub(walk[k], even_anchor if k % 2 == 0 else odd_anchor), t)
        == (0, 0, 0)
        for k in range(len(walk))
    )
    shape = "zigzag" if on_two_lines else "helix"
    if not witnesses:
        raise NotAPolygonError(f"{shape} admits no cycling isometry")
    if on_two_lines:
        return PolygonClass("zigzag", k=2, witness=witnesses[0])
    # a planar walk with a witness lies on one line or two, so this one
    # spans 3-space: the witness commutes with the translation by t, fixes
    # t and turns the plane across it, and the period projects along t
    # onto a k-gon, k in {3, 4, 6} dividing n
    t2 = vdot(t, t)
    k = len({vsub(vscale(t2, p), vscale(vdot(p, t), t)) for p in pts})
    return PolygonClass("helical", k=k, witness=witnesses[0])


# ---------------------------------------------------------------------------
# mirror vectors


def mirror_vector(r0, r1, r2):
    dims = []
    for name, g in (("R0", r0), ("R1", r1), ("R2", r2)):
        if not g.is_involution():
            raise NotInvolutionError(f"{name} is not an involution")
        d = fixed_space_dim(g)
        if d is None:
            raise NoFixedPointError(f"{name} has an empty fixed set")
        dims.append(d)
    return tuple(dims)


# ---------------------------------------------------------------------------
# flags of the structure, and symmetry discovery


def base_flag(patch):
    """The flag at the structure vertex nearest the region centre, along
    its least edge, in the face with the least key, on the patch's grid."""
    return build_quotient(patch).flags_at(patch._grid_central_vertex())[0]


def _walk_length(flag):
    # a walk along a finite face stops at its length
    face = flag.face()
    return 6 if face.is_finite else max(6, len(face) + 2)


def is_symmetry(patch, iso):
    """Is ``iso`` a symmetry of the whole structure the patch shows?

    Decided on the patch's grid (:func:`_is_symmetry`).
    """
    return _is_symmetry(patch, iso.dilated(patch.scale))


def _is_symmetry(patch, iso):
    """Is ``iso``, on the patch's grid, a symmetry of the structure?

    Decided on the quotient modulo the structure's lattice Lambda, which a
    symmetry need not normalize: ``iso`` must map each face class, moved by
    one t per coset of S = Lambda & L^-1 Lambda (L its linear part), onto a
    face; moving by s in S more moves the image by L s in Lambda.  S = Lambda
    when L normalizes Lambda; S of lower rank rules ``iso`` out.  The cosets
    come lazily from t = 0, where a non-symmetry normally fails already.
    """
    closed = build_quotient(patch)
    lattice = common = closed.lattice
    if not all(lattice.member(iso.apply_vec(b)) for b in lattice.basis):
        pulled = Lattice([iso.inverse().apply_vec(b) for b in lattice.basis])
        common = lattice_intersection([lattice, pulled])
    return common is not None and all(
        closed._face_image(iso, f, t) is not None
        for t in _coset_vectors(lattice, common) for f in closed.faces
    )


def flag_map_candidates(flag, target):
    """Isometry candidates sending one flag's walk onto another's, in input
    units."""
    k = Fraction(1, flag.closed.scale)
    return [c.dilated(k) for c in _flag_map_candidates(flag, target)]


def _flag_map_candidates(flag, target):
    count = max(_walk_length(flag), _walk_length(target))
    try:
        return _cycling_isometry(flag.walk(count), target.walk(count))
    except UnderdeterminedError:
        return []


def _symmetries(patch, flag, targets, keep=None):
    """The symmetries of the structure, on its grid, sending the flag's
    walk onto a target's walk that pass ``keep``, target by target."""
    for target in targets:
        for cand in _flag_map_candidates(flag, target):
            if (keep is None or keep(cand)) and _is_symmetry(patch, cand):
                yield cand


def find_flag_symmetries(patch):
    """Recover distinguished generators from the base flag, if any exist.

    Returns {"family": "R", "R0": ..., "R1": ..., "R2": ...} when symmetries
    to all three adjacent flags exist (the regular case), otherwise
    {"family": "S", "S1": ..., "S2": ...} when face and vertex rotations
    exist (the chiral case), otherwise None.
    """
    found = _flag_symmetries(patch)
    if found is not None:
        k = Fraction(1, patch.scale)
        found = {name: g if name == "family" else g.dilated(k)
                 for name, g in found.items()}
    return found


def _flag_symmetries(patch):
    flag = base_flag(patch)
    rs = {"family": "R"}
    for i in range(3):
        r = next(_symmetries(patch, flag, flag.adjacent(i), keep=Isometry.is_involution), None)
        if r is None:
            break
        rs[f"R{i}"] = r
    else:
        return rs

    # S1 moves the base flag one step along its face
    s1 = next(_symmetries(patch, flag, [flag.step(0).step(1)]), None)
    if s1 is None:
        return None
    closed = flag.closed
    q = closed.faces_per_vertex()[closed.darts[flag.dart][0]]

    def order_q(g):
        power = order_or_translation(g, q + 1)
        return (power.kind, power.n) == ("order", q)

    vertex, other_end = flag.walk(2)
    for cand in _symmetries(patch, flag, closed.flags_at(vertex), keep=order_q):
        for s1_try in (s1, s1.inverse()):
            for s2_try in (cand, cand.inverse()):
                t = s1_try.then(s2_try)
                if t.then(t).is_identity and t(vertex) == other_end:
                    return {"family": "S", "S1": s1_try, "S2": s2_try}
    return None


# ---------------------------------------------------------------------------
# the regular / chiral verdict


class SymmetryVerdict(NamedTuple):
    kind: str  # regular | chiral | neither
    orbit_count: int
    adjacent_always_split: bool
    extra_symmetry: Isometry | None = None

    def __str__(self):
        return (
            f"{self.kind} ({self.orbit_count} flag orbit"
            f"{'s' if self.orbit_count != 1 else ''})"
        )


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _orbit_lattice(patch, generators):
    """The translations to count the generated group's flag orbits modulo:
    the lattice common to the structure and the group's translations
    (Schreier's lemma), which is the structure's own when the group's
    translations contain it."""
    lattice = patch.grid.lattice
    if not lattice.rank:
        return lattice
    own = _translation_lattice(*_coset_representatives(generators))
    common = lattice_intersection([lattice, own])
    if common is None:
        raise GeneratorsDoNotDescendError(
            "the generators' translations do not span the structure's lattice"
        )
    return common


def verdict(patch, generators, quotient_scale=None):
    """Regular, chiral, or neither, from flag orbits plus a certificate.

    Orbits of the generated group are counted on the quotient modulo the
    translations it shares with the structure (see ``_orbit_lattice``).
    One orbit means regular outright.  Two orbits with every adjacent pair
    split means chiral only if no symmetry to an adjacent flag exists; if
    one does, the generators were merely a rotation subgroup of a regular
    structure.  ``quotient_scale`` is accepted and ignored: the quotient is
    fixed by the structure and the generators.
    """
    generators = list(generators)
    on_grid = [g.dilated(patch.scale) for g in generators]
    closed = build_quotient(patch, sublattice=_orbit_lattice(patch, on_grid))
    if closed.r != 2:
        raise NotPolyhedronError("verdict requires a polyhedron (r = 2)")
    n = closed.dart_count()
    uf = _UnionFind(n)
    for g, h in zip(generators, on_grid):
        perm = closed.dart_permutation(h)
        if perm is None:
            raise GeneratorsDoNotDescendError(
                f"generator {g!r} is not a symmetry of the structure"
            )
        for d in range(n):
            uf.union(d, perm[d])
    orbits = {uf.find(d) for d in range(n)}
    count = len(orbits)

    split = True
    for d in range(n):
        neighbors = [closed.rho0[d], closed.rho1[d], *closed.rho2_sets[d]]
        if any(uf.find(d) == uf.find(x) for x in neighbors):
            split = False
            break

    if count == 1:
        return SymmetryVerdict("regular", 1, split)
    if count == 2 and split:
        flag = base_flag(patch)
        adjacent = [g for i in range(3) for g in flag.adjacent(i)]
        extra = next(_symmetries(patch, flag, adjacent), None)
        if extra is None:
            return SymmetryVerdict("chiral", 2, True)
        return SymmetryVerdict("regular", 2, True,
                               extra_symmetry=extra.dilated(Fraction(1, patch.scale)))
    return SymmetryVerdict("neither", count, split)


# ---------------------------------------------------------------------------
# Schlafli symbols


class SchlafliType(NamedTuple):
    p: int | None  # None encodes infinity
    q: int
    r: int | None = None
    face_class: PolygonClass | None = None

    def __str__(self):
        p = "inf" if self.p is None else str(self.p)
        body = f"{{{p},{self.q}}}"
        return body if self.r is None else f"{body} r={self.r}"


def schlafli(patch, mode="polyhedron", quotient_scale=None):
    """The basic type {p, q}, with the face count r appended in complex mode.

    One polygon per face class is classified, and the face counts per edge
    and per vertex are read from the quotient modulo the structure's
    lattice.  ``quotient_scale`` is accepted and ignored.
    """
    closed = build_quotient(patch)
    if closed.r is None:
        raise NotEquivelarError("face count per edge is not constant")
    classes = [classify_polygon(f.primitive()) for f in patch.classes.faces.values()]
    kinds = {(c.kind, c.p, c.k) for c in classes}
    if len(kinds) != 1:
        raise NotEquivelarError(f"faces fall into {len(kinds)} classes")
    face_class = classes[0]
    p = face_class.p if face_class.is_finite else None

    degrees = set(closed.faces_per_vertex())
    if len(degrees) != 1:
        raise NotEquivelarError(f"vertex face-degrees vary: {sorted(degrees)}")
    q = degrees.pop()
    r = closed.r if mode == "complex" else None
    return SchlafliType(p, q, r, face_class)


# ---------------------------------------------------------------------------
# geometric duality check


_SIGNED_PERMS = None


def _signed_perms():
    global _SIGNED_PERMS
    if _SIGNED_PERMS is None:
        import itertools

        _SIGNED_PERMS = [
            tuple(
                tuple(s[i] if j == p[i] else 0 for j in range(3)) for i in range(3)
            )
            for p in itertools.permutations(range(3))
            for s in itertools.product((1, -1), repeat=3)
        ]
    return _SIGNED_PERMS


def face_center(face):
    n = len(face.vertices)
    return tuple(
        scalar(Fraction(sum(Fraction(p[i]) for p in face.vertices), n))
        for i in range(3)
    )


def _centre_adjacency(patch):
    """Centres of faces sharing an edge: one pair per class modulo the
    patch's class lattice, read from the quotient's rho2, in input units."""
    closed = build_quotient(patch)
    k = Fraction(1, patch.scale)
    pairs = {}
    for d in range(closed.dart_count()):
        flag = GeomFlag(closed, d)
        face = flag.face()
        for other in flag.adjacent(2):
            if other.face().canonical_key() != face.canonical_key():
                c, c2 = face_center(face), face_center(other.face())
                pairs.setdefault(_edge_key(closed.lattice, c, c2), (c, c2))
    return [(dilate(c, k), dilate(c2, k)) for c, c2 in pairs.values()]


def dual_congruence_check(a, b):
    """Is b congruent to the face-center dual of a?

    Looks for a signed-permutation isometry (plus translation) sending the
    face-centre classes of a bijectively onto the vertex classes of b, and
    the classes of centre pairs of faces sharing an edge onto the edge
    classes of b.  Classes are taken modulo the translations common to b's
    lattice and the image of a's (whole sets when finite).  One anchor per
    vertex class of b suffices: a witness moved by a translation of b is
    another.  The anchors are reduced class points, so neither the answer
    nor the witness depends on the radius of a or b.  Returns (ok,
    witness); raises PatchTooSmallError when the classes of a or b hold no
    face.
    """
    if not (a.classes.faces and b.classes.faces):
        raise PatchTooSmallError("the patch holds no face to decide on")
    if any(f.period_vector is not None for x in (a, b) for f in x.classes.faces.values()):
        return False, None
    if a.is_finite != b.is_finite:
        return False, None

    lat_a, lat_b = a.classes.lattice, b.classes.lattice
    centres = {}
    for f in a.classes.faces.values():
        c = face_center(f)
        centres.setdefault(lat_a.reduce_key(c), c)
    centres = list(centres.values())
    adjacency = _centre_adjacency(a)
    b_verts, b_edges = {}, {}
    for f in b.classes.faces.values():
        for _, p, q in f.edge_slots():
            b_verts.setdefault(lat_b.reduce_key(p), p)
            b_edges.setdefault(_edge_key(lat_b, p, q), (p, q))

    anchor_src = min(lat_a.reduce_point(c) for c in centres)
    anchors = sorted(lat_b.reduce_point(p) for p in b_verts.values())

    for m in _signed_perms():
        lin = Isometry(m, check=False)
        common = lattice_intersection(
            [lat_b, Lattice([lin.apply_vec(v) for v in lat_a.basis])]
        )
        if common is None:
            continue
        pulled = Lattice([lin.inverse().apply_vec(v) for v in common.basis])
        shifts_a = list(_coset_vectors(lat_a, pulled))
        shifts_b = list(_coset_vectors(lat_b, common))
        want_v = {common.reduce_key(vadd(p, s))
                  for p in b_verts.values() for s in shifts_b}
        want_e = {_edge_key(common, vadd(p, s), vadd(q, s))
                  for p, q in b_edges.values() for s in shifts_b}
        for w in anchors:
            g = Isometry(m, vsub(w, lin(anchor_src)), check=False)
            got_v = {common.reduce_key(g(vadd(c, t)))
                     for c in centres for t in shifts_a}
            if got_v != want_v:
                continue
            got_e = {_edge_key(common, g(vadd(c1, t)), g(vadd(c2, t)))
                     for c1, c2 in adjacency for t in shifts_a}
            if got_e == want_e:
                return True, g
    return False, None


# ---------------------------------------------------------------------------
# edge stabilizers (the G2 column of the complex tables)


class EdgeStabilizer(NamedTuple):
    order: int
    dihedral: bool
    r: int

    @property
    def name(self):
        if self.dihedral:
            half = self.order // 2
            return f"D{half}"
        return f"C{self.order}"


def edge_stabilizer(patch):
    """The pointwise stabilizer of the base flag's edge, acting on its faces.

    Such a symmetry sends the base flag to a flag at the same vertex and
    edge.  The walk correspondence to that flag determines it, up to the
    reflection in the plane of a planar face, which the correspondence
    tries as well; so the symmetries to those flags are the whole
    stabilizer.  Dihedral means some element reverses the orientation of
    the perpendicular plane.
    """
    flag = base_flag(patch)
    at_edge = [flag] + flag.adjacent(2)
    group = set(_symmetries(patch, flag, at_edge))
    dihedral = any(g.det() == -1 for g in group)
    return EdgeStabilizer(len(group), dihedral, len(at_edge))
