"""Nets: periodic edge graphs, coordination sequences, identification.

A net is the 1-skeleton of a 3-periodic structure, stored as a quotient
graph with integer translation labels on the edges (one node per vertex
class modulo the translation lattice, numbered in the order of the classes'
reduced representatives).  It is read from the structure's edge classes,
never from a patch, so it does not depend on the region.  The five
reference nets the catalog produces are built here from their lattices and
nearest-neighbor rules, except nbo, which is taken as the edge graph of the
K5_12 face classes and pinned by the coordination-sequence oracle in the
tests.
"""

from __future__ import annotations

from collections import deque

from .complexes import FaceDescriptor
from .errors import Not3PeriodicError, NotUninodalError, ParseError
from .geometry import (
    LAMBDA_1,
    LAMBDA_2,
    LAMBDA_3,
    SET_V,
    SET_W,
    scalar,
    vadd,
    vsub,
)
from .quotient import _face_class


class PeriodicGraph:
    """Quotient graph with integer translation labels (a voltage graph)."""

    def __init__(self, basis, nodes, edges, name=""):
        self.basis = tuple(tuple(b) for b in basis)
        self.nodes = list(nodes)  # representative points
        self.name = name
        canon = set()
        for i, j, t in edges:
            t = tuple(t)
            if i == j and all(c == 0 for c in t):
                raise Not3PeriodicError("self-loop with zero voltage")
            flipped = (j, i, tuple(-c for c in t))
            canon.add(min((i, j, t), flipped))
        self.edges = sorted(canon)

    def node_count(self):
        return len(self.nodes)

    def degree(self, i):
        d = 0
        for a, b, t in self.edges:
            if a == i:
                d += 1
            if b == i:
                d += 1
        return d

    def neighbors(self):
        """Adjacency in the infinite cover: node -> [(node, offset)]."""
        adj = {i: [] for i in range(len(self.nodes))}
        for a, b, t in self.edges:
            adj[a].append((b, t))
            adj[b].append((a, tuple(-c for c in t)))
        return adj

    def is_connected_cover(self):
        """Connectivity of the infinite periodic graph, not just the quotient."""
        if not self.nodes:
            return False
        adj = self.neighbors()
        # quotient connectivity with potentials; cycle voltages must span Z^3
        seen = {0: (0, 0, 0)}
        voltages = []
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v, t in adj[u]:
                pot = vadd(seen[u], t)
                if v not in seen:
                    seen[v] = pot
                    queue.append(v)
                else:
                    voltages.append(vsub(pot, seen[v]))
        if len(seen) != len(self.nodes):
            return False
        from .geometry import Lattice, lattice_basis_from

        basis = lattice_basis_from([v for v in voltages if v != (0, 0, 0)])
        if len(basis) < 3:
            return False
        lat = Lattice(basis)
        return all(lat.member(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def shells(self, source, depth):
        """BFS shell sizes 1..depth around (source, origin) in the cover."""
        start = (source, (0, 0, 0))
        seen = {start}
        frontier = [start]
        adj = self.neighbors()
        sizes = []
        for _ in range(depth):
            nxt = []
            for u, off in frontier:
                for v, t in adj[u]:
                    node = (v, vadd(off, t))
                    if node not in seen:
                        seen.add(node)
                        nxt.append(node)
            sizes.append(len(nxt))
            frontier = nxt
        return sizes

    def coordination_sequence(self, depth=10):
        """Common shell sequence from every node; uninodal graphs only."""
        if not self.nodes:
            raise NotUninodalError("empty graph")
        seqs = {tuple(self.shells(i, depth)) for i in range(len(self.nodes))}
        if len(seqs) != 1:
            raise NotUninodalError(
                "shell sequences differ between quotient nodes"
            )
        return list(seqs.pop())

    # -- serialization ("e i j t1 t2 t3" per edge) ---------------------------

    def to_text(self):
        from .geometry import scalar_str

        lines = [
            "# periodic graph; basis rows follow",
            *(
                "b " + " ".join(scalar_str(c) for c in row)
                for row in self.basis
            ),
        ]
        for i, j, t in self.edges:
            lines.append(f"e {i} {j} {t[0]} {t[1]} {t[2]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text, name=""):
        basis, edges = [], []
        max_node = -1
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "b":
                if len(parts) != 4:
                    raise ParseError(f"bad basis line: {line!r}")
                basis.append(tuple(scalar(p) for p in parts[1:]))
            elif parts[0] == "e":
                if len(parts) != 6:
                    raise ParseError(f"bad edge line: {line!r}")
                i, j = int(parts[1]), int(parts[2])
                t = tuple(int(p) for p in parts[3:])
                edges.append((i, j, t))
                max_node = max(max_node, i, j)
            else:
                raise ParseError(f"unknown record {parts[0]!r}")
        if len(basis) != 3:
            raise ParseError("periodic graph needs 3 basis rows")
        return cls(basis, [None] * (max_node + 1), edges, name=name)

    def __repr__(self):
        return (
            f"<PeriodicGraph {self.name}: {len(self.nodes)} nodes, "
            f"{len(self.edges)} labeled edges>"
        )


def periodic_graph_from_edges(lattice, edge_points, name=""):
    """Quotient the straight-edge set by a rank-3 lattice.

    Nodes are the vertex classes, numbered in sorted order of their reduced
    representatives, so the graph depends only on the edge classes given.
    """
    if lattice is None or lattice.rank != 3:
        raise Not3PeriodicError("structure has no rank-3 translation lattice")
    reps = sorted({lattice.reduce_point(x) for e in edge_points for x in e})
    nodes = {lattice.reduce_key(x): i for i, x in enumerate(reps)}
    edges = []
    for p, q in edge_points:
        ki, kj = lattice.reduce_key(p), lattice.reduce_key(q)
        i, j = nodes[ki], nodes[kj]
        off_p = [c for c in lattice.coords(vsub(p, reps[i]))][: lattice.rank]
        off_q = [c for c in lattice.coords(vsub(q, reps[j]))][: lattice.rank]
        t = tuple(int(b - a) for a, b in zip(off_p, off_q))
        if i == j and all(c == 0 for c in t):
            raise Not3PeriodicError("lattice identifies the ends of an edge")
        edges.append((i, j, t))
    return PeriodicGraph(lattice.basis, reps, edges, name=name)


def _face_edges(lattice, faces):
    """The edges of the given faces, one per class modulo the lattice."""
    out = []
    for f in faces:
        _, lift, closure = _face_class(lattice, f)
        ends = lift[1:] + (vadd(lift[0], closure),)
        out.extend(zip(lift, ends))
    return out


def extract_net(complex_):
    """The edge graph of a 3-periodic complex as a periodic quotient graph,
    read from its edge classes: those of its face classes and the others
    it was given."""
    lat = complex_.lattice
    if lat is None or lat.rank != 3:
        raise Not3PeriodicError(
            "only 3-periodic structures have nets (finite and planar "
            "polyhedra do not)"
        )
    classes = complex_.classes
    edges = classes.edges + _face_edges(classes.lattice, classes.faces.values())
    net = periodic_graph_from_edges(lat, edges, name=f"net({complex_.name})")
    if not net.is_connected_cover():
        raise Not3PeriodicError("edge graph does not connect the periodic cover")
    return net


# ---------------------------------------------------------------------------
# reference nets


def _points_in_box(radius):
    rng = range(-radius, radius + 1)
    return [(x, y, z) for x in rng for y in rng for z in rng]


def _edges_by_offsets(points, offsets):
    pts = set(points)
    out = []
    for p in points:
        for d in offsets:
            q = vadd(p, d)
            if q in pts:
                out.append((p, q))
    return out


def _reference_pcu():
    pts = _points_in_box(2)
    edges = _edges_by_offsets(pts, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return periodic_graph_from_edges(LAMBDA_1, edges, name="pcu")


def _reference_fcu():
    pts = [p for p in _points_in_box(3) if LAMBDA_2.member(p)]
    offs = [
        d
        for d in _points_in_box(1)
        if sum(abs(c) for c in d) == 2 and sum(c * c for c in d) == 2
    ]
    offs = [d for d in offs if d > tuple(-c for c in d)]
    edges = _edges_by_offsets(pts, offs)
    return periodic_graph_from_edges(LAMBDA_2, edges, name="fcu")


def _reference_bcu():
    pts = [p for p in _points_in_box(3) if LAMBDA_3.member(p)]
    offs = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
    edges = _edges_by_offsets(pts, offs)
    return periodic_graph_from_edges(LAMBDA_3, edges, name="bcu")


def _reference_dia():
    pts = [p for p in _points_in_box(4) if SET_W.member(p)]
    offs = [
        d for d in _points_in_box(1) if sum(c * c for c in d) == 3
    ]
    offs = [d for d in offs if d > tuple(-c for c in d)]
    edges = [e for e in _edges_by_offsets(pts, offs)]
    from .geometry import LAMBDA_2_DOUBLED

    return periodic_graph_from_edges(LAMBDA_2_DOUBLED, edges, name="dia")


def _reference_nbo():
    from .presets import CONSTRUCTIVE_PRESETS

    _, lattice, cycles = CONSTRUCTIVE_PRESETS["K5_12"]
    faces = [FaceDescriptor(c) for c in cycles]
    return periodic_graph_from_edges(lattice, _face_edges(lattice, faces), name="nbo")


_REFERENCES = None
_REFERENCE_SEQUENCES = {}  # name -> coordination sequence to depth 10


def reference_nets():
    global _REFERENCES
    if _REFERENCES is None:
        _REFERENCES = {
            "pcu": _reference_pcu(),
            "fcu": _reference_fcu(),
            "bcu": _reference_bcu(),
            "dia": _reference_dia(),
            "nbo": _reference_nbo(),
        }
    return _REFERENCES


def identify_net(net):
    """Name the net by its coordination sequence to depth 10 against the
    five references, or "unknown".  The references' sequences already
    differ at depth 3, so at most one matches.
    """
    try:
        seq = net.coordination_sequence(10)
    except NotUninodalError:
        return "unknown"
    if not _REFERENCE_SEQUENCES:
        for name, ref in reference_nets().items():
            _REFERENCE_SEQUENCES[name] = ref.coordination_sequence(10)
    return next((n for n, s in _REFERENCE_SEQUENCES.items() if s == seq), "unknown")


# ---------------------------------------------------------------------------
# vertex-set identification


_VERTEX_SETS = [
    ("Lambda1", LAMBDA_1.member),
    ("Lambda2", LAMBDA_2.member),
    ("Lambda3", LAMBDA_3.member),
    ("V", SET_V.member),
    ("W", SET_W.member),
]


def identify_vertex_set(complex_):
    """Match the vertex set exactly against the catalog sets.

    The test is two-sided inside the region: every structure vertex lies in
    the candidate set and every candidate point in the region is a vertex.
    One-sided containment reports subset-of(name); no match reports other.
    """
    import math

    region = complex_.region
    verts = [v for v, ok in zip(complex_.vertices, complex_.in_region) if ok]
    if not verts:
        return "other"
    lo = [math.ceil(iv[0]) for iv in region.intervals()]
    hi = [math.floor(iv[1]) for iv in region.intervals()]
    integral = all(isinstance(c, int) for v in verts for c in v)
    vset = set(verts)
    forward_only = []
    for name, member in _VERTEX_SETS:
        if not all(member(v) for v in verts):
            continue
        if not integral:
            forward_only.append(name)
            continue
        full = True
        for x in range(lo[0], hi[0] + 1):
            for y in range(lo[1], hi[1] + 1):
                for z in range(lo[2], hi[2] + 1):
                    p = (x, y, z)
                    if region.contains(p) and member(p) and p not in vset:
                        full = False
                        break
                if not full:
                    break
            if not full:
                break
        if full:
            return name
        forward_only.append(name)
    if forward_only:
        return f"subset-of({forward_only[0]})"
    return "other"
