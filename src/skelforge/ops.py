"""Structural operations: Petrie duals, word traces, blends, coverings.

Word traces and Petrie duals walk flags geometrically on the finite quotient
modulo the structure's lattice while tracking the actual translation picked
up in 3-space, so a circuit that closes combinatorially but not
geometrically is reported with its period vector instead of pretending to
be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import FaceDescriptor, SkeletalComplex, least_rotation
from .errors import (
    InvalidParametersError,
    NotBipartiteError,
    NotPolyhedronError,
    ProjectionError,
    ZeroParameterError,
)
from .geometry import (
    norm_inf,
    scalar,
    sublattices_of_index,
    vadd,
    vcross,
    vdot,
    vscale,
    vsub,
)
from .orbit import build_quotient
from .quotient import GeomFlag, _primitive_walk

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


def _circuits(patch, word_name):
    """One ``_walk_circuit`` per orbit of a flag word on the patch's
    quotient, which must have r = 2."""
    if word_name not in WORDS:
        raise InvalidParametersError(f"unknown trace word {word_name!r}")
    closed = build_quotient(patch)
    if closed.r != 2:
        raise NotPolyhedronError(f"faces per edge is {closed.r}, not 2")
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
            out.append(WordTrace(word_name, length, closed_up, period, cycle))
    out.sort(key=lambda t: (not t.closed_up, t.length))
    return out


# ---------------------------------------------------------------------------
# Petrie dual


def petrie_dual(patch, quotient_scale=None):
    """Same vertices and edges; the faces become the Petrie polygons.

    Requires r = 2 on the quotient.  On infinite structures the Petrie
    polygons are found as word circuits on the quotient, unrolled into
    concrete (possibly zigzag or helical) faces, and translated around the
    region by the structure's lattice.  ``quotient_scale`` is accepted and
    ignored.
    """
    circuit_faces = []
    for _, disp, _, vertices, _ in _circuits(patch, "petrie"):
        if disp == (0, 0, 0):
            circuit_faces.append(FaceDescriptor(vertices))
        else:
            circuit_faces.append(FaceDescriptor(*_primitive_walk(vertices, disp)))

    margin = patch.window.radius - patch.region.radius
    return SkeletalComplex.from_classes(
        patch.classes.lattice,
        circuit_faces,
        patch.region,
        window_margin=margin,
        name=f"petrie({patch.name})",
        skeleton=patch,
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


def _patch_plane(patch):
    """Primitive integer normal of the plane containing all patch vertices."""
    vs = patch.vertices
    if len(vs) < 3:
        raise InvalidParametersError("too few vertices to determine a plane")
    p0 = vs[0]
    n = None
    for p in vs[1:]:
        for q in vs[1:]:
            n_try = vcross(vsub(p, p0), vsub(q, p0))
            if n_try != (0, 0, 0):
                n = n_try
                break
        if n is not None:
            break
    if n is None:
        raise InvalidParametersError("vertices are collinear")
    n = _primitive_int_vector(n)
    off = vdot(n, p0)
    for p in vs:
        if vdot(n, p) != off:
            raise InvalidParametersError("input complex is not planar")
    return n


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


def _vertex_neighbors(patch, u):
    for eid in patch.vertex_edges[patch.vindex[u]]:
        a, b = patch.edge_points[eid]
        yield b if a == u else a


def blend_with_segment(patch, length):
    """Lift a planar polyhedron to two parallel planes, faces turning skew.

    Vertices move off the plane alternately by +-length along the primitive
    normal; the alternation is the 2-coloring forced by requiring every
    face to alternate, and its absence is an error, not patched over.
    """
    length = scalar(length)
    if length == 0:
        raise ZeroParameterError("segment blend with zero length degenerates")
    n = _patch_plane(patch)
    color = _two_coloring(
        patch.vertices, lambda u: _vertex_neighbors(patch, u), "vertices"
    )

    def lift(p):
        sign = 1 if color[p] == 0 else -1
        return vadd(p, vscale(sign * length, n))

    faces = []
    for f in patch.faces:
        pv = f.period_vector
        if pv is None:
            faces.append(FaceDescriptor([lift(p) for p in f.vertices], check=False))
        else:
            probe = f.vertices[0]
            shifted = vadd(probe, pv)
            if shifted in color and color[shifted] != color[probe]:
                doubled = list(f.vertices) + [vadd(p, pv) for p in f.vertices]
                faces.append(
                    FaceDescriptor([lift(p) for p in doubled], vscale(2, pv),
                                   check=False)
                )
            else:
                faces.append(
                    FaceDescriptor([lift(p) for p in f.vertices], pv, check=False)
                )
    verts = [lift(p) for p in patch.vertices]
    edges = [(lift(p), lift(q)) for p, q in patch.edge_points]
    margin = patch.window.radius - patch.region.radius + abs(length) * norm_inf(n)
    return SkeletalComplex(
        verts, edges, faces, patch.region, window_margin=margin,
        name=f"blend({patch.name},seg:{length})",
    )


def _orient_ccw(face, normal):
    area2 = (0, 0, 0)
    vs = face.vertices
    for i in range(len(vs)):
        area2 = vadd(area2, vcross(vs[i], vs[(i + 1) % len(vs)]))
    s = vdot(area2, normal)
    if s == 0:
        raise InvalidParametersError("degenerate face orientation")
    return face if s > 0 else face.reversed()


def _face_adjacency(patch):
    adjacency = [[] for _ in patch.faces]
    for slots in patch.edge_faces:
        fids = sorted({fid for fid, _ in slots})
        if len(fids) == 2:
            adjacency[fids[0]].append(fids[1])
            adjacency[fids[1]].append(fids[0])
        elif len(fids) > 2:
            raise NotPolyhedronError("blend input has more than 2 faces at an edge")
    return adjacency


def blend_with_apeirogon(patch, step):
    """Helical faces rising over the faces of a planar tessellation.

    Faces 2-color by adjacency; helices over one color wind one way, over
    the other color the opposite way, all ascending by ``step`` per edge.
    Adjacent helices then share every p-th edge.
    """
    step = scalar(step)
    if step == 0:
        raise ZeroParameterError("apeirogon blend with zero step degenerates")
    n = _patch_plane(patch)
    if any(f.period_vector is not None for f in patch.faces):
        raise InvalidParametersError("apeirogon blend needs finite faces")
    sizes = {len(f) for f in patch.faces}
    if len(sizes) != 1:
        raise InvalidParametersError("apeirogon blend needs equal face sizes")
    p = sizes.pop()

    oriented = [_orient_ccw(f, n) for f in patch.faces]
    nf = len(patch.faces)
    colors = _two_coloring(range(nf), _face_adjacency(patch).__getitem__, "faces")
    fcolor = [colors[i] for i in range(nf)]

    # each edge ascends by one step in the direction its color-0 face
    # traverses it (equal to the direction the color-1 face descends)
    direction = {}
    for f, c in zip(oriented, fcolor):
        vs = f.vertices
        for i in range(len(vs)):
            u, w = vs[i], vs[(i + 1) % len(vs)]
            key = frozenset((u, w))
            d = (u, w) if c == 0 else (w, u)
            if key in direction and direction[key] != d:
                raise NotBipartiteError("inconsistent helix directions")
            direction[key] = d

    height = {}
    for start in sorted(patch.vertices):
        if start in height:
            continue
        height[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in _vertex_neighbors(patch, u):
                d = direction.get(frozenset((u, w)))
                if d is None:
                    continue
                hw = height[u] + (1 if d == (u, w) else -1)
                if w in height:
                    if (height[w] - hw) % p != 0:
                        raise NotBipartiteError("height labeling inconsistent")
                else:
                    height[w] = hw
                    stack.append(w)

    lift_step = vscale(step, n)

    def lifted(v, h):
        return vadd(v, vscale(h, lift_step))

    faces = []
    for f, c in zip(oriented, fcolor):
        cyc = f.vertices if c == 0 else tuple(reversed(f.vertices))
        h0 = height[cyc[0]]
        pts = [lifted(cyc[i % p], h0 + i) for i in range(p)]
        faces.append(FaceDescriptor(pts, vscale(p, lift_step), check=False))

    region = patch.region
    verts = []
    per_height = norm_inf(lift_step)
    hmax = max(abs(height[v]) for v in height)
    span = region.radius + norm_inf(region.center) + hmax * per_height
    kmax = math.ceil(Fraction(span, p * per_height)) + 1
    for v in patch.vertices:
        for k in range(-kmax, kmax + 1):
            w = lifted(v, height[v] + k * p)
            if region.contains(w):
                verts.append(w)
    margin = patch.window.radius - patch.region.radius
    return SkeletalComplex(
        verts, [], faces, region, window_margin=margin,
        name=f"blend({patch.name},apeiro:{step})",
    )


# ---------------------------------------------------------------------------
# coverings


def covering_check(patch, target, projection="compress"):
    """Does the structure cover the target polyhedron?

    ``projection`` is either "compress", meaning quotient the structure by
    its full translation lattice and match flag systems (each helical face
    winding onto a finite face of the target), or a callable point map
    inducing the vertex map directly.  Returns (ok, witness).
    """
    target_closed = build_quotient(target)
    if callable(projection):
        return _covering_by_point_map(patch, target, projection)
    if projection != "compress":
        raise InvalidParametersError("projection must be callable or 'compress'")
    if patch.is_finite:
        candidates = [build_quotient(patch)]
    else:
        lat = patch.lattice
        if lat is None:
            raise ProjectionError("no translation lattice to compress by")
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
        for did, (v, e, f, j, side) in enumerate(source_closed.darts):
            tv = target_closed.darts[iso[did]][0]
            vmap[source_closed.vreps[v]] = target_closed.vreps[tv]
        witness = {
            "kind": "compress",
            "lattice": list(source_closed.lattice.basis),
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


def _covering_by_point_map(patch, target, point_map):
    tverts = set(target.vindex)
    vmap = {}
    for v in patch.vertices:
        if not patch.region.contains(v):
            continue
        w = tuple(point_map(v))
        if w not in tverts:
            raise ProjectionError(f"image of {v} is not a target vertex")
        vmap[v] = w
    for vid in patch.interior_vertex_ids():
        v = patch.vertices[vid]
        nbrs = set()
        for eid in patch.vertex_edges[vid]:
            a, b = patch.edge_points[eid]
            nbrs.add(b if a == v else a)
        images = set()
        for u in nbrs:
            w = tuple(point_map(u))
            if not target.has_edge(vmap[v], w):
                return False, None
            images.add(w)
        if len(images) != len(nbrs):
            return False, None
        tdeg = len(target.vertex_edges[target.vindex[vmap[v]]])
        if len(images) != tdeg:
            return False, None
    for f in patch.faces:
        if f.period_vector is None:
            seq = [tuple(point_map(p)) for p in f.vertices]
            cyclic = True
        else:
            win = f.window(patch.region)
            if win is None:
                continue
            seq = [tuple(point_map(f.vertex(k))) for k in range(win[0], win[1] + 1)]
            cyclic = False
        if not _maps_onto_some_face(target, seq, cyclic):
            return False, None
    return True, {"kind": "point-map", "vertex_map": sorted(vmap.items())}


def _maps_onto_some_face(target, seq, cyclic):
    for tf in target.faces:
        if tf.period_vector is not None:
            continue
        cyc = tf.vertices
        m = len(cyc)
        if seq[0] not in cyc:
            continue
        i0 = cyc.index(seq[0])
        for direction in (1, -1):
            if all(cyc[(i0 + direction * k) % m] == p for k, p in enumerate(seq)):
                if cyclic and len(seq) % m != 0:
                    continue
                if set(seq) == set(cyc):
                    return True
    return False
