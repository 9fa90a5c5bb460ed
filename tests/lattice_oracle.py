"""The translation lattice of a patch, found by scanning it: a test oracle.

:func:`detect_translation_lattice` reads nothing but the patch's vertex,
edge and face tables, so the tests use it to check the lattices that the
library builds or reads against what a patch shows.  It tries every vertex
difference from a central vertex as a translation, and verifies each on the
region shrunk by that vector's length.
"""

from skelforge.geometry import Lattice, lattice_basis_from, norm_inf, vsub


def detect_translation_lattice(patch):
    """Translation symmetries of the patch, as a lattice (None when none).

    Candidate vectors are differences from a central vertex; each candidate
    is verified against the vertex, edge and face sets on a region shrunk by
    the candidate's own length.  Each vertex's distance from the centre is
    taken once, so the shrunk region is a bound on those distances.
    The shrunk region must hold a vertex, a whole edge and a face to check:
    a vector that maps a lone vertex onto a vertex proves nothing.  A long
    vector is verified on little of the patch, so a lattice that holds a
    refuted candidate shows no lattice at all.
    """
    if not patch.vertices:
        return None
    region = patch.region
    depth = [norm_inf(vsub(v, region.center)) for v in patch.vertices]
    origin = patch.vertices[min(range(len(depth)), key=lambda i: (depth[i], i))]
    lengths = {}
    for v in patch.vertices:
        tau = vsub(v, origin)
        n = norm_inf(tau)
        if 0 < n <= region.radius - 1:
            lengths.setdefault(tau, n)
    face_depth = [
        None if f.period_vector is not None
        else max(depth[patch.vindex[p]] for p in f.vertices)
        for f in patch.faces
    ]
    inside = {}
    verified, refuted = [], []
    for tau, n in lengths.items():
        if n not in inside:
            inside[n] = _inside(patch, depth, face_depth, n)
        if all(inside[n]):
            ok = _is_translation_symmetry(patch, tau, *inside[n])
            (verified if ok else refuted).append(tau)
    basis = lattice_basis_from(verified)
    if len(basis) < 2:
        return None
    lattice = Lattice(basis)
    return None if any(lattice.member(tau) for tau in refuted) else lattice


def _inside(patch, depth, face_depth, margin):
    """Vertices, edges and faces of the patch on its region shrunk by
    ``margin``; ``depth`` holds each vertex's distance from the centre and
    ``face_depth`` each finite face's largest one.
    """
    bound = patch.region.radius - margin
    verts = [v for v, d in zip(patch.vertices, depth) if d <= bound]
    edges = [
        patch.edge_points[e] for e, (a, b) in enumerate(patch.edges)
        if depth[a] <= bound and depth[b] <= bound
    ]
    safe = patch.region.shrunk(margin)
    faces = [
        f for f, d in zip(patch.faces, face_depth)
        if (f.window(safe) is not None if d is None else d <= bound)
    ]
    return verts, edges, faces


def _is_translation_symmetry(patch, tau, verts, edges, faces):
    """Does tau map the given vertices, edges and faces into the patch?"""
    for v in verts:
        if (v[0] + tau[0], v[1] + tau[1], v[2] + tau[2]) not in patch.vindex:
            return False
    for p, q in edges:
        sp = (p[0] + tau[0], p[1] + tau[1], p[2] + tau[2])
        sq = (q[0] + tau[0], q[1] + tau[1], q[2] + tau[2])
        if tuple(sorted((sp, sq))) not in patch.eindex:
            return False
    for f in faces:
        if f.translate(tau).canonical_key() not in patch.face_keys:
            return False
    return True
