"""Patch construction as it was before the one-walk constructor: oracles.

``face_translates`` translates, windows and keys every lattice translate of
a face, apeirogons included, and keeps one face per canonical key.
``eager_tables`` builds every table the old constructor built eagerly,
walking each face's slots twice: the vertex and edge lists, the index
dicts, ``edge_faces`` (the (face, slot) pairs on each edge),
``vertex_edges`` and ``in_region``.  Tests compare the library's patches
with these, and read ``edge_faces_of`` where they need the faces on an
edge.
"""

from skelforge.quotient import _closure_multiple, lattice_translates


def face_translates(lattice, desc, region):
    points = desc.vertices
    if desc.period_vector is None:
        desc.canonical_key()
    else:
        m = _closure_multiple(lattice, desc.period_vector)
        points = [desc.vertex(i) for i in range(m * len(desc.vertices))]
    out = {}
    for t in lattice_translates(lattice, points, region):
        moved = desc.translate(t)
        if not lattice.rank or moved.window(region) is not None:
            out.setdefault(moved.canonical_key(), moved)
    return list(out.values())


def eager_tables(vertices, edges, faces, region, window):
    """The old constructor's tables for the given element lists; ``window``
    is the region the faces' slots are enumerated over."""
    vset = {tuple(p) for p in vertices}
    eset = {frozenset((tuple(p), tuple(q))) for p, q in edges}
    face_map = {}
    for f in faces:
        face_map.setdefault(f.canonical_key(), f)
    faces = [face_map[k] for k in sorted(face_map)]
    for f in faces:
        for _, p, q in f.edge_slots(window):
            eset.add(frozenset((p, q)))
    for e in eset:
        vset.update(e)

    out = {"vertices": sorted(vset), "faces": faces}
    out["vindex"] = vindex = {p: i for i, p in enumerate(out["vertices"])}
    epairs = sorted(tuple(sorted(e)) for e in eset)
    out["edges"] = [(vindex[p], vindex[q]) for p, q in epairs]
    out["edge_points"] = epairs
    out["eindex"] = eindex = {e: i for i, e in enumerate(epairs)}
    out["face_keys"] = {f.canonical_key(): i for i, f in enumerate(faces)}
    out["edge_faces"] = edge_faces = [[] for _ in epairs]
    out["vertex_edges"] = vertex_edges = [[] for _ in out["vertices"]]
    for i, (a, b) in enumerate(out["edges"]):
        vertex_edges[a].append(i)
        vertex_edges[b].append(i)
    for fi, f in enumerate(faces):
        for slot, p, q in f.edge_slots(window):
            edge_faces[eindex[tuple(sorted((p, q)))]].append((fi, slot))
    out["in_region"] = [region.contains(p) for p in out["vertices"]]
    out["flags"] = 2 * sum(len(s) for s in edge_faces)
    return out


def edge_faces_of(patch):
    """{edge as a sorted point pair: [(face index, slot), ...]} over the
    patch's faces, for the edges some face's slots hold."""
    found = {}
    for fi, f in enumerate(patch.faces):
        for slot, p, q in f.edge_slots(patch.window):
            found.setdefault(tuple(sorted((p, q))), []).append((fi, slot))
    return found
