"""Structural operations: Petrie duals, word traces, blends, coverings.

Word traces and Petrie duals walk flags geometrically on the finite quotient
modulo the structure's lattice while tracking the actual translation picked
up in 3-space, so a circuit that closes combinatorially but not
geometrically is reported with its period vector instead of pretending to
be finite.

Every operation reads the structure's quotient on its integer grid
x -> D x (``SkeletalComplex.scale``) and hands what it makes, with D, to
``SkeletalComplex._unroll``; only the period vectors of traces and the
covering witness are mapped back to input units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import FaceDescriptor, SkeletalComplex, _primitive_walk, least_rotation
from .errors import (
    InvalidParametersError,
    NotBipartiteError,
    NotPolyhedronError,
    ZeroParameterError,
)
from .geometry import (
    ZERO3,
    Lattice,
    dilate,
    scalar,
    sublattices_of_index,
    translation,
    vadd,
    vcross,
    vdot,
    vscale,
    vsub,
)
from .orbit import build_quotient
from .quotient import GeomFlag

WORDS = {
    "petrie": (0, 1, 2),
    "hole": (0, 1, 2, 1),
    "two_zigzag": (0, 1, 2, 1, 2),
}


@dataclass
class WordTrace:
    """One circuit of a flag word: its edge length and geometric closure."""

    word: str
    length: int
    closed_up: bool
    period_vector: tuple | None = None
    edge_cycle: tuple = ()


def trace_report(traces):
    """JSON-ready summary of a trace run: word, circuit count, lengths."""
    from .geometry import scalar_str

    out = {"word": traces[0].word if traces else None, "circuits": len(traces)}
    entries = []
    for t in traces:
        entry = {"length": t.length, "closed": t.closed_up}
        if t.period_vector is not None:
            entry["period_vector"] = [scalar_str(c) for c in t.period_vector]
        entries.append(entry)
    out["lengths"] = entries
    return out


def _walk_circuit(closed, start_dart, word):
    """Follow a word from a dart until the quotient flag recurs.

    Returns (steps, displacement, dart_orbit, vertex_path, edge_ids).
    """
    cur = GeomFlag(closed, start_dart)
    v0 = cur.vertex_point()
    orbit = [start_dart]
    vertices = [v0]
    edge_ids = []
    for _ in range(closed.dart_count() + 1):
        edge_ids.append(closed.darts[cur.dart][1])
        cur = cur.apply_word(word)
        if cur.dart == start_dart:
            return len(orbit), vsub(cur.vertex_point(), v0), orbit, vertices, edge_ids
        orbit.append(cur.dart)
        vertices.append(cur.vertex_point())
    raise NotPolyhedronError("word orbit failed to close on the quotient")


def _require_polyhedron(closed):
    """Raise unless every edge of the quotient lies on exactly two faces."""
    if closed.r is None:
        raise NotPolyhedronError("faces per edge is not constant")
    if closed.r != 2:
        raise NotPolyhedronError(f"faces per edge is {closed.r}, not 2")


def _circuits(patch, word_name):
    """One ``_walk_circuit`` per orbit of a flag word on the patch's
    quotient, which must have r = 2."""
    if word_name not in WORDS:
        raise InvalidParametersError(f"unknown trace word {word_name!r}")
    closed = build_quotient(patch)
    _require_polyhedron(closed)
    seen = set()
    for start in range(closed.dart_count()):
        if start not in seen:
            circuit = _walk_circuit(closed, start, WORDS[word_name])
            seen.update(circuit[2])
            yield circuit


def trace(patch, word_name, quotient_scale=None):
    """All distinct circuits of a flag word, with lengths or periods.

    One circuit is walked per orbit of the word on the darts modulo the
    structure's lattice Lambda, so each circuit stands for all its
    Lambda-translates.  A circuit that closes geometrically reports its
    edge length; one that only closes on the quotient reports its
    primitive step count and the translation it picks up per period, whose
    sign follows the direction of the walk.  ``quotient_scale`` is accepted
    and ignored.
    """
    out = []
    sigs = set()
    k = Fraction(1, patch.scale)
    for steps, disp, _, vertices, edge_ids in _circuits(patch, word_name):
        closed_up = disp == (0, 0, 0)
        if closed_up:
            length, period = steps, None
        else:
            pts, period = _primitive_walk(vertices, disp)
            length = len(pts)
        cycle = least_rotation(edge_ids)
        sig = (cycle, closed_up,
               None if period is None else min(period, vscale(-1, period)))
        if sig not in sigs:
            sigs.add(sig)
            out.append(WordTrace(word_name, length, closed_up,
                                 None if period is None else dilate(period, k), cycle))
    out.sort(key=lambda t: (not t.closed_up, t.length))
    return out


# ---------------------------------------------------------------------------
# Petrie dual


def petrie_dual(patch, quotient_scale=None):
    """Same vertices and edges; the faces become the Petrie polygons.

    Requires r = 2 on the quotient.  On infinite structures the Petrie
    polygons are found as word circuits on the quotient, unrolled into
    concrete (possibly zigzag or helical) faces, and translated around the
    region by the structure's lattice.  The dual's patch is its own faces
    unrolled by the patch rule (see :mod:`skelforge.complexes`).  Every edge
    with an end in the region lies on a Petrie slot through that end, so
    the dual has its parent's vertices in the region and edges with an end
    in it, and the dual of the dual is the parent's patch.
    ``quotient_scale`` is accepted and ignored.
    """
    circuit_faces = []
    for _, disp, _, vertices, _ in _circuits(patch, "petrie"):
        if disp == (0, 0, 0):
            circuit_faces.append(FaceDescriptor(vertices))
        else:
            circuit_faces.append(FaceDescriptor(*_primitive_walk(vertices, disp)))

    return SkeletalComplex._unroll(
        patch.grid.lattice,
        circuit_faces,
        patch.region,
        name=f"petrie({patch.name})",
        scale=patch.scale,
    )


# ---------------------------------------------------------------------------
# blends


def _primitive_int_vector(v):
    denoms = [c.denominator if isinstance(c, Fraction) else 1 for c in v]
    d = math.lcm(*denoms)
    ints = [int(c * d) for c in v]
    g = math.gcd(*(abs(c) for c in ints))
    ints = [c // g for c in ints]
    for c in ints:
        if c != 0:
            if c < 0:
                ints = [-x for x in ints]
            break
    return tuple(ints)


def _plane_normal(closed):
    """Primitive integer normal of the one plane holding every face class of
    the quotient and its lattice."""
    points = [p for f in closed.faces for p in f.vertices]
    vectors = list(closed.lattice.basis) + [vsub(p, points[0]) for p in points]
    n = next((c for u in vectors for w in vectors
              for c in [vcross(u, w)] if c != ZERO3), None)
    if n is None:
        raise InvalidParametersError("vertices are collinear")
    if any(vdot(n, v) for v in vectors):
        raise InvalidParametersError("input complex is not planar")
    return _primitive_int_vector(n)


def _two_coloring(nodes, neighbors, what):
    """Alternating 0/1 coloring of a graph, each component starting at 0."""
    color = {}
    for start in nodes:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    raise NotBipartiteError(
                        f"no alternating 2-coloring of the {what} exists"
                    )
    return color


def _even_part(basis, odd):
    """Generators of the vectors of the lattice on ``basis`` whose
    coordinates on the basis vectors flagged ``odd`` have an even sum: the
    translations that keep a 2-coloring, when ``odd`` flags those that swap
    it."""
    swaps = [b for b, o in zip(basis, odd) if o]
    gens = [b for b, o in zip(basis, odd) if not o]
    if swaps:
        gens += [vscale(2, swaps[0])] + [vadd(b, swaps[0]) for b in swaps[1:]]
    return gens


def blend_with_segment(patch, length):
    """Lift a planar polyhedron to two parallel planes, faces turning skew.

    Vertices move off the plane alternately by +-length along the primitive
    normal; the alternation is the 2-coloring forced by requiring every
    face to alternate, and its absence is an error, not patched over.  A
    translation keeps the coloring or swaps it, so the coloring is taken on
    the vertex classes modulo 2 Lambda, from the least one; the blend's
    lattice is the part of Lambda that keeps it.
    """
    length = scalar(length)
    if length == 0:
        raise ZeroParameterError("segment blend with zero length degenerates")
    rise = scalar(patch.scale * length)
    closed = build_quotient(patch, scale=2)
    n = _plane_normal(closed)
    neighbors = [[] for _ in closed.vreps]
    for p, q in closed.edge_reps:
        a, b = closed.vertex_class_of(p), closed.vertex_class_of(q)
        neighbors[a].append(b)
        neighbors[b].append(a)
    order = sorted(range(len(closed.vreps)), key=closed.vreps.__getitem__)
    color = _two_coloring(order, neighbors.__getitem__, "vertices")

    def lift(p):
        sign = 1 - 2 * color[closed.vertex_class_of(p)]
        return vadd(p, vscale(sign * rise, n))

    faces = [FaceDescriptor([lift(p) for p in f.vertices], f.period_vector,
                            check=False).primitive()
             for f in closed.faces]
    basis = patch.grid.lattice.basis
    v0 = closed.vreps[0]
    swaps = [color[closed.vertex_class_of(vadd(v0, b))] != color[0] for b in basis]
    return SkeletalComplex._unroll(
        Lattice(_even_part(basis, swaps)),
        faces,
        patch.region,
        vertices=[lift(p) for p in closed.vreps],
        edges=[(lift(p), lift(q)) for p, q in closed.edge_reps],
        name=f"blend({patch.name},seg:{length})",
        scale=patch.scale,
    )


def _ccw(points, normal):
    """Does the polygon run counterclockwise about ``normal``?"""
    area2 = ZERO3
    for i, p in enumerate(points):
        area2 = vadd(area2, vcross(p, points[(i + 1) % len(points)]))
    s = vdot(area2, normal)
    if s == 0:
        raise InvalidParametersError("degenerate face orientation")
    return s > 0


def blend_with_apeirogon(patch, step):
    """Helical faces rising over the faces of a planar tessellation.

    Faces 2-color by adjacency; helices over one color wind one way, over
    the other color the opposite way, all ascending by ``step`` per edge.
    Adjacent helices then share every p-th edge.  The face coloring is
    taken on the face classes modulo 2 Lambda, from the least one.  Heights
    modulo p are found from the least vertex of those classes, at height 0,
    modulo 2p Lambda: a translation of Lambda that keeps the coloring moves
    every height by one constant, so 2p Lambda keeps both.  The blend's
    lattice is spanned by the period p step n of the helices and by each
    coloring-keeping translation of Lambda, lifted by its height shift.
    """
    step = scalar(step)
    if step == 0:
        raise ZeroParameterError("apeirogon blend with zero step degenerates")
    closed = build_quotient(patch, scale=2)
    n = _plane_normal(closed)
    if any(f.period_vector is not None for f in closed.faces):
        raise InvalidParametersError("apeirogon blend needs finite faces")
    sizes = {len(f) for f in closed.faces}
    if len(sizes) != 1:
        raise InvalidParametersError("apeirogon blend needs equal face sizes")
    p = sizes.pop()
    _require_polyhedron(closed)

    def neighbors(fid):
        for d in range(closed.first[fid], closed.first[fid] + 2 * p):
            for e in closed.rho2_sets[d]:
                yield closed.darts[e][2]

    color = _two_coloring(range(len(closed.faces)), neighbors, "faces")
    # each face ascends along its walk (+1) or against it (-1): color-0
    # faces counterclockwise about n, color-1 faces clockwise
    ascent = [(1 if _ccw(f.vertices, n) else -1) * (1 - 2 * color[fid])
              for fid, f in enumerate(closed.faces)]

    fine = closed.lattice.scaled(p)
    height = {}
    for start in sorted(f.vertices[0] for f in closed.faces):
        if fine.reduce_key(start) in height:
            continue
        height[fine.reduce_key(start)] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            hu = height[fine.reduce_key(u)]
            for fid, j, t in closed.face_slots_at(u):
                f = closed.faces[fid]
                for dh in (1, -1):
                    w = vadd(f.vertex(j + dh * ascent[fid]), t)
                    key = fine.reduce_key(w)
                    if key not in height:
                        height[key] = (hu + dh) % p
                        stack.append(w)
                    elif (height[key] - hu - dh) % p:
                        raise NotBipartiteError("height labeling inconsistent")

    lift_step = vscale(scalar(patch.scale * step), n)
    faces = []
    for f, d in zip(closed.faces, ascent):
        h0 = height[fine.reduce_key(f.vertices[0])]
        pts = [vadd(f.vertex(d * i), vscale(h0 + i, lift_step)) for i in range(p)]
        faces.append(FaceDescriptor(pts, vscale(p, lift_step), check=False))

    basis = patch.grid.lattice.basis
    f0, v0 = closed.faces[0], closed.faces[0].vertices[0]
    swaps = [color[closed._face_image(translation(b), f0)[0]] != color[0] for b in basis]
    gens = [vscale(p, lift_step)]
    for b in _even_part(basis, swaps):
        rise = height[fine.reduce_key(vadd(v0, b))] - height[fine.reduce_key(v0)]
        gens.append(vadd(b, vscale(rise % p, lift_step)))
    return SkeletalComplex._unroll(
        Lattice(gens),
        faces,
        patch.region,
        name=f"blend({patch.name},apeiro:{step})",
        scale=patch.scale,
    )


# ---------------------------------------------------------------------------
# coverings


def covering_check(patch, target):
    """Does the structure cover the target polyhedron?

    The structure is compressed: quotiented by a sublattice of its
    translations and matched flag system to flag system with the target,
    each helical face winding onto a finite face of the target.  Returns
    (ok, witness).
    """
    target_closed = build_quotient(target)
    if patch.is_finite:
        candidates = [build_quotient(patch)]
    else:
        lat = patch.grid.lattice
        # the full translation lattice can over-fold (extra symmetries of a
        # regular structure add translations).  The lattice acts freely on
        # darts, so a quotient by an index-k sublattice has k times the
        # darts modulo the lattice: the target's dart count fixes k
        k, rest = divmod(target_closed.dart_count(), build_quotient(patch).dart_count())
        candidates = []
        for sub in sublattices_of_index(lat, k) if k and not rest else ():
            closed = build_quotient(patch, sublattice=sub)
            if closed.counts() == target_closed.counts():
                candidates.append(closed)
    for source_closed in candidates:
        iso = _flag_system_isomorphism(source_closed, target_closed)
        if iso is None:
            continue
        vmap = {}
        ks, kt = Fraction(1, patch.scale), Fraction(1, target.scale)
        for did, (v, e, f, j, side) in enumerate(source_closed.darts):
            tv = target_closed.darts[iso[did]][0]
            vmap[dilate(source_closed.vreps[v], ks)] = dilate(target_closed.vreps[tv], kt)
        witness = {
            "kind": "compress",
            "lattice": [dilate(b, ks) for b in source_closed.lattice.basis],
            "class_map": sorted(vmap.items()),
        }
        return True, witness
    return False, None


def _flag_system_isomorphism(a, b):
    """Dart bijection commuting with rho0, rho1, rho2 (r = 2 both sides)."""
    if a.dart_count() != b.dart_count() or a.counts() != b.counts():
        return None
    if a.r != 2 or b.r != 2:
        raise NotPolyhedronError("flag-system matching requires polyhedra")
    n = a.dart_count()
    for seed in range(n):
        mapping = {0: seed}
        stack = [0]
        ok = True
        while stack and ok:
            d = stack.pop()
            for i in (0, 1, 2):
                da = a.adjacent_flag(d, i)
                db = b.adjacent_flag(mapping[d], i)
                if da in mapping:
                    if mapping[da] != db:
                        ok = False
                        break
                else:
                    mapping[da] = db
                    stack.append(da)
        if ok and len(mapping) == n and len(set(mapping.values())) == n:
            return [mapping[i] for i in range(n)]
    return None
