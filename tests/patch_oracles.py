"""Patch construction by other means: oracles.

``patch_by_rule`` builds a patch from its classes and region by brute force
from the patch rule of :mod:`skelforge.complexes`, with no window: every
lattice translate in a box that holds all that can reach the region is tried
on every class.  ``face_translates`` is the unroll as it was before the
one-walk constructor: it translates, windows and keys every lattice
translate of a face, apeirogons included, and keeps one face per canonical
key.  ``eager_tables`` builds every table the old constructor built eagerly,
walking each face's slots twice: the vertex and edge lists, the index
dicts, ``edge_faces`` (the (face, slot) pairs on each edge),
``vertex_edges`` and ``in_region``.  Tests compare the library's patches
with these, and read ``edge_faces_of`` where they need the faces on an
edge.
"""

import math
from itertools import product

from skelforge.complexes import FaceDescriptor
from skelforge.geometry import ZERO3, vadd, vscale, vsub
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


def eager_tables(vertices, edges, faces, region):
    """The old constructor's tables for the given element lists, the faces'
    slots enumerated over ``region``."""
    vset = {tuple(p) for p in vertices}
    eset = {frozenset((tuple(p), tuple(q))) for p, q in edges}
    face_map = {}
    for f in faces:
        face_map.setdefault(f.canonical_key(), f)
    faces = [face_map[k] for k in sorted(face_map)]
    for f in faces:
        for _, p, q in f.edge_slots(region):
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
        for slot, p, q in f.edge_slots(region):
            edge_faces[eindex[tuple(sorted((p, q)))]].append((fi, slot))
    out["in_region"] = [region.contains(p) for p in out["vertices"]]
    out["flags"] = 2 * sum(len(s) for s in edge_faces)
    return out


def edge_faces_of(patch):
    """{edge as a sorted point pair: [(face index, slot), ...]} over the
    patch's faces, for the edges some face's slots hold."""
    found = {}
    for fi, f in enumerate(patch.faces):
        for slot, p, q in f.edge_slots(patch.region):
            found.setdefault(tuple(sorted((p, q))), []).append((fi, slot))
    return found


def _box_translates(lattice, points, region):
    """Every lattice vector t with p + t in the region for some p in
    ``points``, and more: the lattice coordinates of c - p over the
    region's corners c bound those of each such t."""
    if not lattice.rank:
        return [ZERO3]
    coords = [lattice.coords(vsub(c, p))[:lattice.rank]
              for c in product(*region.intervals()) for p in points]
    ranges = [range(math.floor(min(x[i] for x in coords)),
                    math.ceil(max(x[i] for x in coords)) + 1)
              for i in range(lattice.rank)]
    out = []
    for n in product(*ranges):
        t = ZERO3
        for ni, b in zip(n, lattice.basis):
            t = vadd(t, vscale(ni, b))
        out.append(t)
    return out


def patch_by_rule(classes, region):
    """The patch of ``classes`` (a ``StructureClasses`` in input units) over
    ``region``, as sets: vertices, edges as sorted point pairs, and the
    canonical keys of the faces listed by one least period.

    A finite structure is taken whole.  Otherwise each class is moved by
    every box translate.  A finite face with a vertex in the region comes
    with all its edges.  An apeirogon's class face is one closure period,
    and its closure is a lattice vector, so its slots are those of that
    period moved by every translate; the face is in the patch when one of
    them has an end in the region, and brings those that do.
    """
    lattice = classes.lattice
    faces = list(classes.faces.values())
    points = [*classes.vertices, *(p for e in classes.edges for p in e)]
    for f in faces:
        points += f.vertices
        if f.period_vector is not None:
            points.append(vadd(f.vertices[0], f.period_vector))
    whole = not lattice.rank

    def keeps(*ends):
        return whole or any(region.contains(p) for p in ends)

    vertices, edges, keys = set(), set(), set()
    for t in _box_translates(lattice, points, region):
        vertices.update(q for p in classes.vertices for q in [vadd(p, t)] if keeps(q))
        for p, q in classes.edges:
            p, q = vadd(p, t), vadd(q, t)
            if keeps(p, q):
                edges.add(tuple(sorted((p, q))))
        for f in faces:
            walk = [vadd(p, t) for p in f.vertices]
            n = len(walk)
            if f.period_vector is None:
                if keeps(*walk):
                    keys.add(FaceDescriptor(walk).canonical_key())
                    edges.update(tuple(sorted((walk[i], walk[(i + 1) % n])))
                                 for i in range(n))
                continue
            ends = walk + [vadd(walk[0], f.period_vector)]
            slots = [(ends[i], ends[i + 1]) for i in range(n) if keeps(ends[i], ends[i + 1])]
            if slots:
                keys.add(FaceDescriptor(walk, f.period_vector).primitive().canonical_key())
                edges.update(tuple(sorted(s)) for s in slots)
    for e in edges:
        vertices.update(e)
    return vertices, edges, keys
