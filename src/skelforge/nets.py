"""Nets: periodic edge graphs, coordination sequences, identification.

A net is the 1-skeleton of a 3-periodic structure, stored as a quotient
graph with integer translation labels on the edges (one node per vertex
class modulo the translation lattice, numbered in the order of the classes'
reduced representatives).  It is read from the structure's edge classes,
never from a patch, so it does not depend on the region.  The five
reference nets the catalog produces are built here the same way, from a
lattice and its edge classes: the bonds from the origin for pcu, fcu, bcu
and dia, and the edges of the K5_12 face classes for nbo.  The tests pin
each against a box of points joined by its nearest-neighbor rule.
Coordination sequences come from a breadth-first search in the cover with
one int per cover node, and each graph keeps the sequences it computed.
A structure's vertex set is named against the catalog sets, each a union
of cosets of one lattice, by comparing cosets of a common lattice.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from .errors import InvalidParametersError, Not3PeriodicError, NotUninodalError, ParseError
from .geometry import (
    LAMBDA_1,
    LAMBDA_2,
    LAMBDA_2_DOUBLED,
    LAMBDA_3,
    SET_V,
    SET_W,
    ZERO3,
    VertexSetSpec,
    dilate,
    lattice_basis_from,
    lattice_intersection,
    mat_det,
    scalar,
    vadd,
    vsub,
)
from .quotient import _coset_vectors


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
        self._sequences = {}  # depth -> the common shell sequence, or None

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
        """Connectivity of the infinite periodic graph, not just the quotient:
        the quotient is connected and its cycle voltages generate Z^rank,
        whose reduced Hermite normal form is the unit rows."""
        if not self.nodes:
            return False
        adj = self.neighbors()
        # quotient connectivity with potentials
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
        units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)][:len(self.basis)]
        return len(seen) == len(self.nodes) and lattice_basis_from(voltages) == units

    def shells(self, source, depth):
        """BFS shell sizes 1..depth around (source, origin) in the cover.

        A cover node (v, x) is the int v + n*code(x), where code(x) =
        (x1+R) + B(x2+R) + B^2(x3+R), R = depth*max(1, max |voltage|) bounds
        every offset within depth steps and B = 2R+1, so a step along an
        edge adds a fixed int and the node is the key modulo n.  Every
        neighbour of shell k lies in shell k-1, k or k+1.
        """
        n = len(self.nodes)
        r = depth * max(1, max((abs(c) for _, _, t in self.edges for c in t), default=0))
        b = 2 * r + 1
        steps = [[] for _ in range(n)]
        for i, j, t in self.edges:
            d = n * (t[0] + b * t[1] + b * b * t[2])
            steps[i].append(j - i + d)
            steps[j].append(i - j - d)
        prev, shell = set(), {source + n * r * (1 + b + b * b)}
        sizes = []
        for _ in range(depth):
            nxt = {u + d for u in shell for d in steps[u % n]}
            nxt -= shell
            nxt -= prev
            sizes.append(len(nxt))
            prev, shell = shell, nxt
        return sizes

    def coordination_sequence(self, depth=10):
        """Common shell sequence from every node; uninodal graphs only.

        The all-node shells are computed once per depth and kept: the
        common sequence, or None when the nodes' sequences differ.
        """
        if depth < 0:
            raise InvalidParametersError(f"shell depth must be >= 0, got {depth}")
        if not self.nodes:
            raise NotUninodalError("empty graph")
        if depth not in self._sequences:
            seqs = {tuple(self.shells(i, depth)) for i in range(len(self.nodes))}
            self._sequences[depth] = seqs.pop() if len(seqs) == 1 else None
        seq = self._sequences[depth]
        if seq is None:
            raise NotUninodalError(
                "shell sequences differ between quotient nodes"
            )
        return list(seq)

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
                # two node indices and three integer voltages
                try:
                    i, j, *t = map(int, parts[1:])
                    ok = len(t) == 3 and i >= 0 and j >= 0
                except ValueError:
                    ok = False
                if not ok:
                    raise ParseError(f"bad edge line: {line!r}")
                edges.append((i, j, tuple(t)))
                max_node = max(max_node, i, j)
            else:
                raise ParseError(f"unknown record {parts[0]!r}")
        if len(basis) != 3:
            raise ParseError("periodic graph needs 3 basis rows")
        unused = set(range(max_node + 1)).difference(*((i, j) for i, j, _ in edges))
        if unused:
            raise ParseError(f"node {min(unused)} is on no edge line")
        return cls(basis, [None] * (max_node + 1), edges, name=name)

    def __repr__(self):
        return (
            f"<PeriodicGraph {self.name}: {len(self.nodes)} nodes, "
            f"{len(self.edges)} labeled edges>"
        )


def periodic_graph_from_edges(lattice, edge_points, name=""):
    """Quotient the straight-edge set by a lattice of rank 0, 2 or 3; the
    voltages are padded with zeros past the lattice's rank.

    Nodes are the vertex classes, numbered in sorted order of their reduced
    representatives, so the graph depends only on the edge classes given.
    """
    reps = sorted({lattice.reduce_point(x) for e in edge_points for x in e})
    nodes = {lattice.reduce_key(x): i for i, x in enumerate(reps)}
    edges = []
    for p, q in edge_points:
        ki, kj = lattice.reduce_key(p), lattice.reduce_key(q)
        i, j = nodes[ki], nodes[kj]
        off_p = [c for c in lattice.coords(vsub(p, reps[i]))][: lattice.rank]
        off_q = [c for c in lattice.coords(vsub(q, reps[j]))][: lattice.rank]
        t = tuple(int(b - a) for a, b in zip(off_p, off_q)) + (0,) * (3 - lattice.rank)
        if i == j and all(c == 0 for c in t):
            raise Not3PeriodicError("lattice identifies the ends of an edge")
        edges.append((i, j, t))
    return PeriodicGraph(lattice.basis, reps, edges, name=name)


def quotient_graph(classes, name=""):
    """The labelled quotient graph of a structure's edge classes: those of
    its face classes' walks and the others it was given."""
    edges = classes.edges + [(f.vertex(j), f.vertex(j + 1))
                             for f in classes.faces.values() for j in range(len(f))]
    return periodic_graph_from_edges(classes.lattice, edges, name=name)


def extract_net(complex_):
    """The edge graph of a 3-periodic complex as a periodic quotient graph,
    read from its edge classes."""
    lat = complex_.lattice
    if lat is None or lat.rank != 3:
        raise Not3PeriodicError(
            "only 3-periodic structures have nets (finite and planar "
            "polyhedra do not)"
        )
    net = quotient_graph(complex_.classes, name=f"net({complex_.name})")
    if not net.is_connected_cover():
        raise Not3PeriodicError("edge graph does not connect the periodic cover")
    return net


# ---------------------------------------------------------------------------
# reference nets


# the lattice and the bonds from the origin of four reference nets
_BONDS = {
    "pcu": (LAMBDA_1, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "fcu": (LAMBDA_2, [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]),
    "bcu": (LAMBDA_3, [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]),
    # those of the other W point, (1, -1, 1), are their negatives
    "dia": (LAMBDA_2_DOUBLED, [(1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)]),
}


def _reference_nbo():
    from .presets import CONSTRUCTIVE_PRESETS

    _, lattice, cycles = CONSTRUCTIVE_PRESETS["K5_12"]
    edges = [(c[i - 1], c[i]) for c in cycles for i in range(len(c))]
    return periodic_graph_from_edges(lattice, edges, name="nbo")


_REFERENCES = None


def reference_nets():
    global _REFERENCES
    if _REFERENCES is None:
        _REFERENCES = {
            name: periodic_graph_from_edges(lattice, [(ZERO3, d) for d in bonds], name=name)
            for name, (lattice, bonds) in _BONDS.items()
        }
        _REFERENCES["nbo"] = _reference_nbo()
    return _REFERENCES


def identify_net(net):
    """Name the net by its coordination sequence to depth 10 against the
    five references, or "unknown".  The references' sequences already
    differ at depth 3, so node 0's first three shells pick the one
    candidate, if any, before the all-node check to depth 10.
    """
    if not net.nodes:
        return "unknown"
    head = net.shells(0, 3)
    for name, ref in reference_nets().items():
        if ref.coordination_sequence(3) == head:
            try:
                seq = net.coordination_sequence(10)
            except NotUninodalError:
                return "unknown"
            return name if seq == ref.coordination_sequence(10) else "unknown"
    return "unknown"


# ---------------------------------------------------------------------------
# vertex-set identification


_VERTEX_SETS = [
    VertexSetSpec("Lambda1", LAMBDA_1),
    VertexSetSpec("Lambda2", LAMBDA_2),
    VertexSetSpec("Lambda3", LAMBDA_3),
    SET_V,
    SET_W,
]


def identify_vertex_set(complex_):
    """Match the vertex set exactly against the catalog sets.

    The vertex set X is the union of the cosets v + Lambda of its vertex
    classes, and a catalog set S the union of its cosets o + M.  For a
    rank-3 Lambda, the cosets of X modulo C = Lambda & M are the points
    v + t, t one vector per coset of C in Lambda; X lies in S when they all
    do, and is S when they are also as many as the len(offsets) [M : C]
    cosets of C in S.  A structure of lower rank can only be contained; its
    points are tested modulo N Lambda, for an N that puts N Lambda inside M.
    No containment reports other, as does at once a vertex class or lattice
    vector off Z^3, where every catalog set lies.  The sets are named in
    fixed coordinates, so the vertex classes are mapped back from the grid
    to input units.
    """
    from .orbit import build_quotient

    k = Fraction(1, complex_.scale)
    vreps = [dilate(p, k) for p in build_quotient(complex_).vreps]
    lattice = complex_.classes.lattice
    if any(Fraction(c).denominator != 1 for p in (*vreps, *lattice.basis) for c in p):
        return "other"
    contained = []
    for s in _VERTEX_SETS:
        if lattice.rank == 3:
            common = lattice_intersection([lattice, s.lattice])
        else:
            n = math.lcm(1, *(Fraction(c).denominator
                              for b in lattice.basis for c in s.lattice.coords(b)))
            common = lattice.scaled(n)
        cosets = list(_coset_vectors(lattice, common))
        points = [vadd(v, t) for v in vreps for t in cosets]
        if not all(map(s.member, points)):
            continue
        if lattice.rank == 3:
            index = abs(mat_det(common.basis) / mat_det(s.lattice.basis))
            if len({common.reduce_key(p) for p in points}) == len(s.offsets) * index:
                return s.name
        contained.append(s.name)
    return f"subset-of({contained[0]})" if contained else "other"
