"""The translation lattice of element lists, found by scanning them: a test
oracle.

:func:`detect_translation_lattice` reads nothing but vertex, edge and face
lists over a region, so the tests use it to check the lattices that the
library builds or reads against what a patch shows.  It tries every vertex
difference from a central vertex as a translation, and verifies each on the
region shrunk by that vector's length.
"""

from skelforge.geometry import Lattice, lattice_basis_from, norm_inf, vsub


def detect_translation_lattice(vertices, edges, faces, region):
    """Translation symmetries of the elements, as a lattice (None when none).

    ``vertices``, ``edges`` (point pairs) and ``faces`` lie over ``region``;
    each face's edges in the region and their ends are added to them, as a
    patch holds them.  Candidate vectors are differences from a central
    vertex; each candidate is verified against the vertex, edge and face
    sets on a region shrunk by the candidate's own length.  Each vertex's
    distance from the centre is taken once, so the shrunk region is a bound
    on those distances.
    The shrunk region must hold a vertex, a whole edge and a face to check:
    a vector that maps a lone vertex onto a vertex proves nothing.  A long
    vector is verified on little of the elements, so a lattice that holds a
    refuted candidate shows no lattice at all.
    """
    faces = {f.canonical_key(): f for f in faces}
    eset = {tuple(sorted(e)) for e in edges}
    eset.update(tuple(sorted((p, q))) for f in faces.values()
                for _, p, q in f.edge_slots(region))
    vertices = sorted({*vertices, *(p for e in eset for p in e)})
    if not vertices:
        return None
    depth = {v: norm_inf(vsub(v, region.center)) for v in vertices}
    origin = min(vertices, key=depth.get)
    lengths = {}
    for v in vertices:
        tau = vsub(v, origin)
        n = norm_inf(tau)
        if 0 < n <= region.radius - 1:
            lengths.setdefault(tau, n)
    face_depth = {
        key: None if f.period_vector is not None else max(depth[p] for p in f.vertices)
        for key, f in faces.items()
    }
    tables = set(vertices), eset, faces
    inside = {}
    verified, refuted = [], []
    for tau, n in lengths.items():
        if n not in inside:
            inside[n] = _inside(tables, region, depth, face_depth, n)
        if all(inside[n]):
            ok = _is_translation_symmetry(tables, tau, *inside[n])
            (verified if ok else refuted).append(tau)
    basis = lattice_basis_from(verified)
    if len(basis) < 2:
        return None
    lattice = Lattice(basis)
    return None if any(lattice.member(tau) for tau in refuted) else lattice


def _inside(tables, region, depth, face_depth, margin):
    """Vertices, edges and faces of ``tables`` on ``region`` shrunk by
    ``margin``; ``depth`` holds each vertex's distance from the centre and
    ``face_depth`` each finite face's largest one.
    """
    vset, eset, faces = tables
    bound = region.radius - margin
    verts = [v for v in vset if depth[v] <= bound]
    edges = [(p, q) for p, q in eset if depth[p] <= bound and depth[q] <= bound]
    safe = region.shrunk(margin)
    inner = [
        f for key, f in faces.items()
        if (f.window(safe) is not None if face_depth[key] is None
            else face_depth[key] <= bound)
    ]
    return verts, edges, inner


def _is_translation_symmetry(tables, tau, verts, edges, faces):
    """Does tau map the given vertices, edges and faces into ``tables``?"""
    vset, eset, face_keys = tables
    for v in verts:
        if (v[0] + tau[0], v[1] + tau[1], v[2] + tau[2]) not in vset:
            return False
    for p, q in edges:
        sp = (p[0] + tau[0], p[1] + tau[1], p[2] + tau[2])
        sq = (q[0] + tau[0], q[1] + tau[1], q[2] + tau[2])
        if tuple(sorted((sp, sq))) not in eset:
            return False
    for f in faces:
        if f.translate(tau).canonical_key() not in face_keys:
            return False
    return True
