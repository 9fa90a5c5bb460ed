"""Closed incidence structures: finite complexes and periodic quotients.

Reducing a periodic structure modulo its translation lattice, or a
sublattice of it, yields a finite complex of translation classes on which
every flag operation is total: the labelled quotient graph of Chung, Hahn
and Klee taken up to flags.  Finite complexes use the same machinery with
the trivial lattice.  Infinite faces wind up into closed cycles: a face
class is a concrete walk in 3-space whose last step returns to the start
shifted by a lattice vector (the closure), so all incidence stays exact
and geometric.  A dart is a face slot and side, not a class triple:
a face may meet one vertex or edge class several times, at different
lattice translates, and the quotient modulo the structure's own lattice is
still exact.  A flag of the structure is a dart moved by a lattice
vector (:class:`GeomFlag`), so flag walks and symmetry searches read the
quotient alone: an isometry is a symmetry exactly when it sends each face
class, moved by one lattice vector per coset of those it keeps in the
lattice, onto a face (:meth:`ClosedComplex._face_image`).

A structure's class table holds each face class once, as a
:class:`FaceDescriptor` whose vertices are the class's canonical walk of one
closure period and whose period vector is the closure, None for a finite
face (:func:`_face_class`).  The quotient modulo the
structure's own lattice takes that table as it is; only a proper
sublattice keys the translates of each class.  Quotients are built from
the table on the structure's integer grid x -> D x (``patch.grid``), so
their points, lattices and flag walks are in grid units, and
``ClosedComplex.scale`` records D.  Callers map what they print back to
input units; with D = 1 the grid is the input.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from .complexes import FaceDescriptor, Region, class_key
from .errors import (
    GeneratorsDoNotDescendError,
    NotPeriodicError,
    NotPolyhedronError,
)
from .geometry import (
    ZERO3, is_integer, lattice_basis_from, norm_inf, scalar, vadd, vscale, vsub,
)


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
            # n from ceil(a / b) to floor(e / b), by exact floor division
            a, e = (lo[c] - v[c], hi[c] - v[c]) if b[c] > 0 else (hi[c] - v[c], lo[c] - v[c])
            for n in range(-(-a // b[c]), e // b[c] + 1):
                grown.append(vadd(v, vscale(n, b)))
        found = grown
    return [v for v in found if all(lo[i] <= v[i] <= hi[i] for i in range(3))]


def face_translates(lattice, desc, region):
    """The distinct translates of a face by the lattice that touch the region,
    or the face itself under the trivial lattice: a finite structure is kept
    whole.

    An infinite face is its own translate by P = m periods, m the closure
    multiple, so every translate touching the region is also one that moves
    a point of the face's first m periods into it, and a translate congruent
    modulo P to one already seen is the same face: it is skipped before it
    is built.  The canonical keys remain the final guard, for a face whose
    listed period is a multiple of its least one.  A finite face's key is
    computed once and moved with each translate
    (``FaceDescriptor.translate``).
    """
    points, period, seen = desc.vertices, None, set()
    if desc.period_vector is None:
        desc.canonical_key()
    else:
        m = _closure_multiple(lattice, desc.period_vector)
        points = [desc.vertex(i) for i in range(m * len(desc.vertices))]
        period = vscale(m, desc.period_vector)
        c = next(i for i in range(3) if period[i] != 0)
    out = {}
    for t in lattice_translates(lattice, points, region):
        if period is not None:
            # t reduced modulo P along P's first nonzero coordinate
            k = t[c] // period[c]
            reduced = (t[0] - k * period[0], t[1] - k * period[1], t[2] - k * period[2])
            if reduced in seen:
                continue
            seen.add(reduced)
        moved = desc.translate(t)
        if not lattice.rank or moved.window(region) is not None:
            out.setdefault(moved.canonical_key(), moved)
    return list(out.values())


def _coset_vectors(lattice, sublattice):
    """One lattice vector per coset of the sublattice, zero first, by a lazy BFS over +-basis."""
    found = {sublattice.reduce_key(ZERO3)}
    queue = deque([ZERO3])
    while queue:
        v = queue.popleft()
        yield v
        for b in lattice.basis:
            for w in (vadd(v, b), vsub(v, b)):
                key = sublattice.reduce_key(w)
                if key not in found:
                    found.add(key)
                    queue.append(w)


def _face_class(lattice, desc):
    """Canonical (key, face) of a face modulo the lattice.

    The class face is the least walk of one closure period over every start
    and both directions, moved so that it starts at a reduced point; only a
    start whose reduced point is least can give it.  Its period vector is
    the closure, or None for a finite face, which closes after one cycle.
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
    walk, closure = min(
        (tuple(vadd(desc.vertex(a + d * i), shift) for i in range(m)), vscale(d, closure))
        for a in range(m) if reduced[a] == least
        for shift in [vsub(least, points[a])]
        for d in (1, -1)
    )
    # sums of Fractions are not normalized: keep integral coordinates ints
    if {type(c) for p in walk + (closure,) for c in p} != {int}:
        walk = tuple(tuple(scalar(c) for c in p) for p in walk)
        closure = tuple(scalar(c) for c in closure)
    face = FaceDescriptor._of(walk, None if t is None else closure)
    return class_key(face), face


class ClosedComplex:
    """Finite incidence model; all flag operations are total.

    Darts are numbered face by face: face class f at slot j (the edge from
    its walk point j to j + 1) gives dart ``first[f] + 2 j + side``, whose
    vertex is the slot's start (side 0) or end (side 1).  A dart is a flag
    of the structure modulo the lattice, which acts freely on flags, so the
    numbering holds even where a face meets a vertex or edge class twice.
    """

    def __init__(self, lattice, classes, name="", scale=1):
        self.lattice = lattice
        self.name = name
        self.scale = scale  # the grid x -> scale x its points lie on
        # classes maps each face class key to its face
        self.faces = faces = [classes[k] for k in sorted(classes)]

        self.vkeys, self.vreps, self.ekeys, self.edge_reps = {}, [], {}, []
        self.first, self.darts = [], []
        self.slots_at = []  # per vertex class: the (face, slot) starting there
        ends = []  # per edge class: the darts at each end of its key
        for fid, f in enumerate(faces):
            self.first.append(len(self.darts))
            for j in range(len(f)):
                p, q = f.vertex(j), f.vertex(j + 1)
                v = self._vertex_class(p)
                key = _edge_key(lattice, p, q)
                e = self.ekeys.setdefault(key, len(self.edge_reps))
                if e == len(self.edge_reps):
                    self.edge_reps.append(key)
                    ends.append(([], []))
                # the slot runs from key[0] to key[1], or the other way
                start = 0 if vsub(key[1], key[0]) == vsub(q, p) else 1
                d = len(self.darts)
                ends[e][start].append(d)
                ends[e][1 - start].append(d + 1)
                self.slots_at[v].append((fid, j))
                self.darts.append((v, e, fid, j, 0))
                self.darts.append((self._vertex_class(q), e, fid, j, 1))

        n = len(self.darts)
        self.rho0 = [d ^ 1 for d in range(n)]
        self.rho1 = [0] * n
        self.rho2_sets = [()] * n
        for d, (_, _, fid, j, side) in enumerate(self.darts):
            # the other edge of the face at the dart's vertex
            self.rho1[d] = self.dart(fid, j + 1, 0) if side else self.dart(fid, j - 1, 1)
        for at_ends in ends:
            for darts in at_ends:
                for d in darts:
                    self.rho2_sets[d] = tuple(x for x in darts if x != d)

        rcounts = set(self.faces_per_edge())
        self.r = rcounts.pop() if len(rcounts) == 1 else None

    def _vertex_class(self, p):
        k = self.lattice.reduce_key(p)
        v = self.vkeys.get(k)
        if v is None:
            v = self.vkeys[k] = len(self.vreps)
            self.vreps.append(self.lattice.reduce_point(p))
            self.slots_at.append([])
        return v

    def dart(self, fid, j, side):
        """The dart of face class ``fid`` at slot j (taken modulo the face's
        length) and side."""
        return self.first[fid] + 2 * (j % len(self.faces[fid])) + side

    # -- construction -------------------------------------------------------

    @classmethod
    def from_patch(cls, patch, sublattice):
        """Quotient of a patch by a full-rank sublattice of its class
        lattice, read from the classes on the patch's grid, never from the
        patch's elements.
        Modulo the class lattice itself the face classes are taken as they
        are; a proper sublattice keys each class moved by one vector per
        coset.
        """
        lattice, vertices, edges, faces, _ = patch.grid
        classes = faces
        if sublattice.basis != lattice.basis:
            classes, cosets = {}, list(_coset_vectors(lattice, sublattice))
            for f in faces.values():
                for t in cosets:
                    key, face = _face_class(sublattice, f.translate(t))
                    classes.setdefault(key, face)
        closed = cls(sublattice, classes, name=patch.name, scale=patch.scale)
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

    def faces_per_vertex(self):
        return [len(slots) for slots in self.slots_at]

    def faces_per_edge(self):
        counts = [0] * len(self.edge_reps)
        for d, (_, e, _, _, _) in enumerate(self.darts):
            counts[e] = len(self.rho2_sets[d]) + 1
        return counts

    def face_slots_at(self, p):
        """(fid, j, t) for each face through the point p: face class fid
        moved by the lattice vector t has p at walk point j.  Empty when p
        is no vertex of the structure."""
        v = self.vertex_class_of(p)
        return [(fid, j, vsub(p, self.faces[fid].vertex(j)))
                for fid, j in (self.slots_at[v] if v is not None else ())]

    def flags_at(self, p):
        """The flags at the vertex p, two per face slot there, sorted by
        edge and then by face key."""
        flags = []
        for fid, j, _ in self.face_slots_at(p):
            flags += [GeomFlag.at(self, self.dart(fid, j, 0), p),
                      GeomFlag.at(self, self.dart(fid, j - 1, 1), p)]
        return sorted(flags, key=lambda g: (g.edge(), g.face().canonical_key()))

    def nearest_vertex(self, centre):
        """The structure vertex nearest ``centre`` in the max norm, the
        least point on ties.

        Each class representative reduced next to the centre bounds the
        distance, so only the translates in the box of that half-width
        are compared.
        """
        lat = self.lattice
        bound = min(norm_inf(lat.reduce_point(vsub(p, centre))) for p in self.vreps)
        if not bound:
            return centre
        box = Region(centre, bound)
        return min(
            (vadd(p, t) for p in self.vreps for t in lattice_translates(lat, [p], box)),
            key=lambda x: (norm_inf(vsub(x, centre)), x),
        )

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
                raise NotPolyhedronError(
                    f"rho2 is not an involution: edge has {len(others) + 1} faces"
                )
            return others[0]
        return self.adjacent(did, i)

    # -- symmetry action ----------------------------------------------------

    def _face_image(self, iso, f, shift=ZERO3):
        """(g, a, d): ``iso`` maps walk point i of f moved by ``shift`` onto
        point a + d i of face class g, moved by one lattice vector; None when
        no class fits.  Walks of m and n points agree once m + n - gcd(m, n)
        + 1 walk points do (Fine and Wilf), so ``iso`` may change a length."""
        image = f.translate(shift).transform(iso)
        start = image.vertices[0]
        v = self.vertex_class_of(start)
        for g, a in self.slots_at[v] if v is not None else ():
            face = self.faces[g]
            m, n = len(f), len(face)
            t = vsub(face.vertex(a), start)
            for d in (1, -1):
                if all(vadd(image.vertex(i), t) == face.vertex(a + d * i)
                       for i in range(1, m + n - math.gcd(m, n) + 1)):
                    return g, a, d
        return None

    def dart_permutation(self, iso):
        """How ``iso`` permutes darts, or None if it does not act here.

        The isometry must normalize the lattice (so it descends to classes)
        and map every face class onto a class.  Dart (f, j, side) goes to
        the image class's slot and side that carry the image of its vertex
        and edge.
        """
        lat = self.lattice
        for b in lat.basis:
            if not lat.member(iso.apply_vec(b)):
                raise GeneratorsDoNotDescendError(
                    "isometry does not normalize the quotient lattice"
                )
        perm = []
        for f in self.faces:
            image = self._face_image(iso, f)
            if image is None:
                return None
            g, a, d = image
            for j in range(len(f)):
                if d == 1:
                    perm += [self.dart(g, a + j, 0), self.dart(g, a + j, 1)]
                else:
                    perm += [self.dart(g, a - j - 1, 1), self.dart(g, a - j - 1, 0)]
        return perm

    def __repr__(self):
        nv, ne, nf = self.counts()
        return f"<ClosedComplex {self.name}: {nv}v {ne}e {nf}f, {len(self.darts)} darts>"


class GeomFlag:
    """A flag of the structure: a quotient dart moved by a lattice vector."""

    __slots__ = ("closed", "dart", "shift")

    def __init__(self, closed, dart, shift=ZERO3):
        self.closed = closed
        self.dart = dart
        self.shift = shift

    @classmethod
    def at(cls, closed, dart, p):
        """The flag of ``dart`` moved so that its vertex is the point p."""
        return cls(closed, dart, vsub(p, cls(closed, dart).vertex_point()))

    def walk(self, count):
        """``count`` points along the face, from the flag's vertex through
        the other end of its edge; a finite face gives at most its length."""
        _, _, fid, j, side = self.closed.darts[self.dart]
        f = self.closed.faces[fid]
        if f.period_vector is None:
            count = min(count, len(f))
        d = 1 - 2 * side
        return [vadd(f.vertex(j + side + d * i), self.shift) for i in range(count)]

    def vertex_point(self):
        return self.walk(1)[0]

    def edge(self):
        """The flag's edge as its sorted point pair."""
        return tuple(sorted(self.walk(2)))

    def face(self):
        """The flag's face: its vertex cycle, or one primitive period of an
        apeirogon with its period vector."""
        fid = self.closed.darts[self.dart][2]
        return self.closed.faces[fid].primitive().translate(self.shift)

    def step(self, i):
        """The i-adjacent flag (polyhedra only for i = 2)."""
        dart = self.closed.adjacent_flag(self.dart, i)
        if i == 0:
            return GeomFlag(self.closed, dart, self.shift)
        # rho1 and rho2 keep the vertex: move the new dart onto it
        return GeomFlag.at(self.closed, dart, self.vertex_point())

    def adjacent(self, i):
        """The i-adjacent flags: one for i = 0 and 1, one per other face at
        the edge for i = 2, sorted by face key."""
        if i < 2:
            return [self.step(i)]
        p = self.vertex_point()
        others = [GeomFlag.at(self.closed, d, p) for d in self.closed.rho2_sets[self.dart]]
        return sorted(others, key=lambda g: g.face().canonical_key())

    def apply_word(self, word):
        g = self
        for i in word:
            g = g.step(i)
        return g
