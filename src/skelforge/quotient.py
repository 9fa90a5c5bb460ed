"""Closed incidence structures: finite complexes and periodic quotients.

Reducing a periodic patch modulo a sublattice of its translation lattice
yields a finite complex of translation classes on which every flag operation
is total.  Finite complexes use the same machinery with the trivial lattice.
Infinite faces wind up into closed cycles: the face's lift is a concrete
point path in 3-space whose last step returns to the start shifted by a
lattice vector (the closure), so all incidence stays exact and geometric.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from .errors import (
    GeneratorsDoNotDescendError,
    NotPeriodicError,
    SelfIdentificationError,
)
from .geometry import ZERO3, is_integer, lattice_basis_from, vadd, vscale, vsub


class QuotientFace:
    """One face class: a lift path of M points closing up to a lattice shift."""

    __slots__ = ("lift", "closure", "vclasses", "eclasses", "source")

    def __init__(self, lift, closure, source):
        self.lift = tuple(lift)
        self.closure = tuple(closure)
        self.vclasses = None
        self.eclasses = None
        self.source = source  # a FaceDescriptor of the class

    def __len__(self):
        return len(self.lift)

    def point(self, pos):
        """Walk point at integer position (wraps by the closure vector)."""
        m = len(self.lift)
        q, r = divmod(pos, m)
        p = self.lift[r]
        return p if q == 0 else vadd(p, vscale(q, self.closure))


def _edge_key(lattice, p, q):
    best = None
    for x, y in ((p, q), (q, p)):
        shift = vsub(lattice.reduce_point(x), x)
        cand = (vadd(x, shift), vadd(y, shift))
        if best is None or cand < best:
            best = cand
    return best


def _closure_multiple(lattice, t):
    """Least k >= 1 with k*t in the lattice; NotPeriodicError if none is."""
    c = lattice.coords(t)
    if lattice.rank == 0 or any(c[i] != 0 for i in range(lattice.rank, 3)):
        raise NotPeriodicError(
            "face period vector does not close modulo the lattice"
        )
    k = 1
    for ci in c[:lattice.rank]:
        if not is_integer(ci):
            k = math.lcm(k, Fraction(ci).denominator)
    return k


def lattice_translates(lattice, points, region):
    """Lattice vectors t for which the bounding box of ``points + t`` meets
    the region.

    The vectors are enumerated along an echelon basis, one pivot coordinate
    at a time, so a full-rank lattice yields no candidate outside the box.
    A finite structure (the trivial lattice) is unrolled whole: [0].
    """
    if not lattice.rank:
        return [ZERO3]
    ivals = region.intervals()
    lo = [ivals[i][0] - max(p[i] for p in points) for i in range(3)]
    hi = [ivals[i][1] - min(p[i] for p in points) for i in range(3)]
    found = [(0, 0, 0)]
    for b in lattice_basis_from(lattice.basis):
        c = next(i for i in range(3) if b[i] != 0)
        grown = []
        for v in found:
            ends = sorted((Fraction(lo[c] - v[c]) / b[c], Fraction(hi[c] - v[c]) / b[c]))
            for n in range(math.ceil(ends[0]), math.floor(ends[1]) + 1):
                grown.append(vadd(v, vscale(n, b)))
        found = grown
    return [v for v in found if all(lo[i] <= v[i] <= hi[i] for i in range(3))]


def face_translates(lattice, desc, region):
    """The distinct translates of a face by the lattice that touch the region,
    or the face itself under the trivial lattice: a finite structure is kept
    whole.

    An infinite face is its own translate by m periods, m the closure
    multiple, so every translate touching the region is also one that moves
    a point of the face's first m periods into it.
    """
    points = desc.vertices
    if desc.period_vector is not None:
        m = _closure_multiple(lattice, desc.period_vector)
        points = [desc.vertex(i) for i in range(m * len(desc.vertices))]
    out = {}
    for t in lattice_translates(lattice, points, region):
        moved = desc.translate(t)
        if not lattice.rank or moved.window(region) is not None:
            out.setdefault(moved.canonical_key(), moved)
    return list(out.values())


def _coset_vectors(lattice, sublattice):
    """One lattice vector per coset of the sublattice, by a BFS over +-basis."""
    found = {sublattice.reduce_key(ZERO3): ZERO3}
    queue = deque(found.values())
    while queue:
        v = queue.popleft()
        for b in lattice.basis:
            for w in (vadd(v, b), vsub(v, b)):
                key = sublattice.reduce_key(w)
                if key not in found:
                    found[key] = w
                    queue.append(w)
    return list(found.values())


def _face_class(lattice, desc):
    """Canonical (key, lift, closure) of a face modulo the lattice.

    The lift is the least walk of one closure period over every start and
    both directions, moved so that it starts at a reduced point; only a
    start whose reduced point is least can give it.  A finite face closes
    after one cycle, with closure zero.
    """
    t = desc.period_vector
    if t is None:
        m, closure = len(desc.vertices), ZERO3
    else:
        k = _closure_multiple(lattice, t)
        m, closure = k * len(desc.vertices), vscale(k, t)
    points = [desc.vertex(i) for i in range(m)]
    reduced = [lattice.reduce_point(p) for p in points]
    least = min(reduced)
    lift, closure = min(
        (tuple(vadd(desc.vertex(a + d * i), shift) for i in range(m)), vscale(d, closure))
        for a in range(m) if reduced[a] == least
        for shift in [vsub(least, points[a])]
        for d in (1, -1)
    )
    key = ("fin",) + lift if t is None else ("inf",) + lift + (closure,)
    return key, lift, closure


class ClosedComplex:
    """Finite incidence model; all flag operations are total."""

    def __init__(self, lattice, classes, name=""):
        self.lattice = lattice
        self.name = name
        # classes maps each face class key to its QuotientFace
        self.fkeys = {k: i for i, k in enumerate(sorted(classes))}
        self.faces = faces = [classes[k] for k in self.fkeys]

        vkeys = {}
        vreps = []
        for f in faces:
            for p in f.lift:
                k = lattice.reduce_key(p)
                if k not in vkeys:
                    vkeys[k] = len(vreps)
                    vreps.append(lattice.reduce_point(p))
        self.vkeys = vkeys
        self.vreps = vreps

        ekeys = {}
        ereps = []
        eends = []
        for f in faces:
            m = len(f.lift)
            for j in range(m):
                p, q = f.point(j), f.point(j + 1)
                k = _edge_key(lattice, p, q)
                if k not in ekeys:
                    ekeys[k] = len(ereps)
                    ereps.append(k)
                    a = vkeys[lattice.reduce_key(p)]
                    b = vkeys[lattice.reduce_key(q)]
                    if a == b:
                        raise SelfIdentificationError(
                            "lattice identifies the endpoints of an edge"
                        )
                    eends.append((a, b))
        self.ekeys = ekeys
        self.edge_reps = ereps
        self.edge_ends = eends

        for f in faces:
            m = len(f.lift)
            vcl = tuple(vkeys[lattice.reduce_key(p)] for p in f.lift)
            if len(set(vcl)) != m:
                raise SelfIdentificationError(
                    "lattice identifies a face with itself"
                )
            f.vclasses = vcl
            f.eclasses = tuple(
                ekeys[_edge_key(lattice, f.point(j), f.point(j + 1))]
                for j in range(m)
            )

        # darts: one per (face, slot, side); indexed by the (v, e, f) triple
        self.edge_slots = [[] for _ in ereps]
        darts = []
        self.dart_index = {}
        for fid, f in enumerate(faces):
            m = len(f.lift)
            for j in range(m):
                eid = f.eclasses[j]
                self.edge_slots[eid].append((fid, j))
                for side in (0, 1):
                    v = f.vclasses[(j + side) % m]
                    did = len(darts)
                    darts.append((v, eid, fid, j, side))
                    self.dart_index[(v, eid, fid)] = did
        self.darts = darts

        n = len(darts)
        self.rho0 = [0] * n
        self.rho1 = [0] * n
        self.rho2_sets = [()] * n
        for did, (v, eid, fid, j, side) in enumerate(darts):
            f = faces[fid]
            m = len(f.lift)
            # 0-adjacent: the other end of the same edge slot
            other_v = f.vclasses[(j + 1 - side) % m]
            self.rho0[did] = self.dart_index[(other_v, eid, fid)]
            # 1-adjacent: the other edge of this face at the same vertex
            j2 = (j + 1) % m if side == 1 else (j - 1) % m
            self.rho1[did] = self.dart_index[(v, f.eclasses[j2], fid)]
        for eid, slots in enumerate(self.edge_slots):
            for fid, j in slots:
                f = faces[fid]
                m = len(f.lift)
                for side in (0, 1):
                    v = f.vclasses[(j + side) % m]
                    did = self.dart_index[(v, eid, fid)]
                    others = tuple(
                        sorted(
                            self.dart_index[(v, eid, fid2)]
                            for fid2, j2 in slots
                            if fid2 != fid
                        )
                    )
                    self.rho2_sets[did] = others

        rcounts = {len(s) for s in self.edge_slots}
        self.r = rcounts.pop() if len(rcounts) == 1 else None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_patch(cls, patch, sublattice):
        """Quotient of a patch by a full-rank sublattice of its class
        lattice: each face class moved by one vector per coset, so only the
        classes are read, never the patch's elements.
        """
        lattice, vertices, edges, faces, _ = patch.classes
        classes = {}
        for t in _coset_vectors(lattice, sublattice):
            for desc in faces.values():
                moved = desc.translate(t)
                key, lift, closure = _face_class(sublattice, moved)
                if key not in classes:
                    classes[key] = QuotientFace(lift, closure, moved)
        closed = cls(sublattice, classes, name=patch.name)
        # every vertex and edge class must lie on a face class
        for p in vertices:
            if sublattice.reduce_key(p) not in closed.vkeys:
                raise NotPeriodicError("patch vertex misses all face classes")
        for p, q in edges:
            if _edge_key(sublattice, p, q) not in closed.ekeys:
                raise NotPeriodicError("patch edge misses all face classes")
        return closed

    # -- queries -------------------------------------------------------------

    def counts(self):
        return len(self.vreps), len(self.edge_reps), len(self.faces)

    def euler_characteristic(self):
        nv, ne, nf = self.counts()
        return nv - ne + nf

    def dart_count(self):
        return len(self.darts)

    def vertex_class_of(self, p):
        return self.vkeys.get(self.lattice.reduce_key(p))

    def edge_class_of(self, p, q):
        return self.ekeys.get(_edge_key(self.lattice, p, q))

    def faces_per_vertex(self):
        counts = [0] * len(self.vreps)
        for f in self.faces:
            for v in f.vclasses:
                counts[v] += 1
        return counts

    def adjacent(self, did, i):
        """i-adjacent dart(s): single dart for i in (0, 1), tuple for i = 2."""
        if i == 0:
            return self.rho0[did]
        if i == 1:
            return self.rho1[did]
        if i == 2:
            return self.rho2_sets[did]
        raise ValueError(f"adjacency rank must be 0, 1 or 2, got {i}")

    def adjacent_flag(self, did, i):
        """Polyhedron-mode rho_i as a single dart (requires r = 2 for i = 2)."""
        if i == 2:
            others = self.rho2_sets[did]
            if len(others) != 1:
                raise SelfIdentificationError(
                    f"rho2 is not an involution: edge has {len(others) + 1} faces"
                )
            return others[0]
        return self.adjacent(did, i)

    # -- symmetry action ----------------------------------------------------

    def vertex_permutation(self, iso):
        perm = []
        for p in self.vreps:
            vid = self.vertex_class_of(iso(p))
            if vid is None:
                return None
            perm.append(vid)
        return perm

    def dart_permutation(self, iso):
        """How ``iso`` permutes darts, or None if it does not act here.

        The isometry must normalize the lattice (so it descends to classes)
        and map every class to an existing class.
        """
        lat = self.lattice
        for b in lat.basis:
            if not lat.member(iso.apply_vec(b)):
                raise GeneratorsDoNotDescendError(
                    "isometry does not normalize the quotient lattice"
                )
        pv = self.vertex_permutation(iso)
        if pv is None:
            return None
        pe = []
        for p, q in self.edge_reps:
            eid = self.edge_class_of(iso(p), iso(q))
            if eid is None:
                return None
            pe.append(eid)
        pf = []
        for f in self.faces:
            key, _, _ = _face_class(lat, f.source.transform(iso))
            fid = self.fkeys.get(key)
            if fid is None:
                return None
            pf.append(fid)
        perm = []
        for v, e, fidx, _, _ in self.darts:
            did = self.dart_index.get((pv[v], pe[e], pf[fidx]))
            if did is None:
                return None
            perm.append(did)
        return perm

    def __repr__(self):
        nv, ne, nf = self.counts()
        return f"<ClosedComplex {self.name}: {nv}v {ne}e {nf}f, {len(self.darts)} darts>"
