"""Skeletal complexes: vertices, edges, polygonal faces, vertex figures.

A structure is its translation lattice plus finitely many vertex, edge and
face classes modulo it (a finite structure has the trivial lattice).  A
patch (:class:`SkeletalComplex`) is the view of those classes unrolled over
a bounded region.  It keeps the classes it was made from
(:attr:`SkeletalComplex.classes`), and every structural answer reads them,
not the patch: its lattice and whether it is finite, quotients, nets,
symmetry tests, the face count per edge of Schläfli types and traces, the
axiom checks, vertex figures and vertex sets.  Each face class is held
once, as a face whose vertices are the class's canonical walk of one
closure period modulo the lattice and whose period vector is the closure
(``StructureClasses.faces``), whatever the region, so the quotient and the
net read it as it is.

The patch rule.  The region shapes only the patch's own elements: what
``build`` and ``export`` print and the per-patch face counts.

- A face is in the patch when it has a vertex in the region.  A finite
  face comes whole, with all its edges.  An apeirogon carries one period
  plus its period vector, and brings only its edge slots that have an end
  in the region (``FaceDescriptor.edge_slots``).
- An edge translate is in the patch when it has an end in the region.  An
  edge that crosses the region with both ends outside does not count.
- A vertex is in the patch when it is in the region, or when it is an end
  of a patch edge.
- A finite structure's patch is all of it, at any region.

So the patch depends on the structure and the region alone: moving a
structure and its region by one vector moves the patch by it, however the
structure's generators are written.  Every patch is made this one way, from
its lattice and classes (:meth:`SkeletalComplex.from_classes`).

A structure is held on one integer grid: its scale D is the lcm of the
denominators of the classes it is made from, and the classes are keyed,
quotiented and unrolled as the structure dilated by x -> D x
(``SkeletalComplex.grid``).  A positive dilation keeps every floor, least
rotation and sort order the library decides by, so no answer changes.
Points cross back to input units only at the public API: the element
tables (each distinct point once), ``classes`` and ``lattice`` (on first
read), ``central_vertex``, ``vertex_figure`` and ``faces_at_vertex``; with
D = 1, as for every integer structure, each crossing is the identity.

A patch holds its classes and its region, and builds each element table
on first read: the sorted vertices, the edges as sorted point pairs
(``edge_points``), the faces in canonical-key order and the flag count
from one unroll and one walk over the face slots, then the index tables.
Only output and the ``has_*`` tests read them: ``validate``, ``net``,
``trace``, ``classify`` and ``petrie``'s input build none.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    BoundaryError,
    DegenerateFaceError,
    InvalidParametersError,
    NotPeriodicError,
    PatchTooSmallError,
)
from .geometry import (
    Lattice, _ratio, common_denominator, dilate, scalar,
    scalar_str, to_grid, vadd, vdot, vec_str, vneg, vscale, vsub,
)


# ---------------------------------------------------------------------------
# regions


class Region:
    """Axis-aligned cube |x - center|_inf <= radius."""

    __slots__ = ("center", "radius")

    def __init__(self, center=(0, 0, 0), radius=4):
        if radius <= 0:
            raise InvalidParametersError(
                f"region radius must be positive, got {scalar_str(radius)}"
            )
        self.center = center
        self.radius = radius

    def __eq__(self, other):
        return (isinstance(other, Region) and self.center == other.center
                and self.radius == other.radius)

    def __hash__(self):
        return hash((self.center, self.radius))

    def __repr__(self):
        return f"Region(center={self.center!r}, radius={self.radius!r})"

    def contains(self, p):
        c = self.center
        r = self.radius
        return (
            abs(p[0] - c[0]) <= r and abs(p[1] - c[1]) <= r and abs(p[2] - c[2]) <= r
        )

    def shrunk(self, margin):
        return Region(self.center, self.radius - margin)

    def intervals(self):
        c, r = self.center, self.radius
        return tuple((c[i] - r, c[i] + r) for i in range(3))


def _lex_positive(v):
    for c in v:
        if c != 0:
            return c > 0
    return False


def least_rotation(seq):
    """The least rotation of a cyclic sequence or of its reversal."""
    seq = tuple(seq)
    return min(s[k:] + s[:k] for s in (seq, seq[::-1]) for k in range(len(seq)))


class FaceDescriptor:
    """A polygonal face: finite vertex cycle, or one period of an apeirogon.

    For infinite faces ``vertices`` lists one period in walk order and
    ``period_vector`` translates the walk onto the rest of the face; the
    k-th vertex of the full walk is ``vertices[k % n] + (k // n) * t``.
    """

    __slots__ = ("vertices", "period_vector", "_key")

    def __init__(self, vertices, period_vector=None, check=True):
        vertices = tuple(tuple(scalar(c) for c in p) for p in vertices)
        if period_vector is not None:
            period_vector = tuple(scalar(c) for c in period_vector)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "period_vector", period_vector)
        object.__setattr__(self, "_key", None)
        if check:
            self._validate()

    def __setattr__(self, *a):
        raise AttributeError("FaceDescriptor is immutable")

    def _validate(self):
        n = len(self.vertices)
        t = self.period_vector
        if t is None:
            if n < 3:
                raise DegenerateFaceError(f"finite face with {n} vertices")
            if len(set(self.vertices)) != n:
                raise DegenerateFaceError("repeated vertex in face cycle")
        else:
            if t == (0, 0, 0):
                raise DegenerateFaceError("zero period vector")
            if n < 1:
                raise DegenerateFaceError("empty period")
            # all translates of the listed period must be distinct points
            t2 = vdot(t, t)
            for i in range(n):
                for j in range(i + 1, n):
                    d = vsub(self.vertices[i], self.vertices[j])
                    lam = Fraction(vdot(d, t), t2)
                    if lam.denominator == 1 and vscale(lam, t) == d:
                        raise DegenerateFaceError("period vertices repeat under translation")

    @property
    def is_finite(self):
        return self.period_vector is None

    def __len__(self):
        return len(self.vertices)

    def vertex(self, k):
        """k-th vertex of the (bi-infinite or cyclic) walk."""
        n = len(self.vertices)
        if self.period_vector is None:
            return self.vertices[k % n]
        q, r = divmod(k, n)
        v = self.vertices[r]
        return v if q == 0 else vadd(v, vscale(q, self.period_vector))

    @classmethod
    def _of(cls, vertices, period_vector, key=None):
        """A face of vertex tuples and a period that are already normalized,
        with its canonical key when it is known."""
        face = object.__new__(cls)
        object.__setattr__(face, "vertices", vertices)
        object.__setattr__(face, "period_vector", period_vector)
        object.__setattr__(face, "_key", key)
        return face

    def transform(self, iso):
        # an isometry's images are normalized scalars already
        pv = None if self.period_vector is None else iso.apply_vec(self.period_vector)
        return FaceDescriptor._of(tuple(iso(p) for p in self.vertices), pv)

    def translate(self, v):
        """The face moved by v.  A finite face's known key moves with it: the
        least rotation of a translated cycle is the translated least rotation,
        since adding one vector to every point keeps their order."""
        x, y, z = v
        if type(x) is int and type(y) is int and type(z) is int:
            # a non-integral Fraction plus an int stays non-integral, so
            # the sums need no normalizing
            vertices = tuple((p[0] + x, p[1] + y, p[2] + z) for p in self.vertices)
        else:
            vertices = tuple(tuple(scalar(c) for c in vadd(p, v)) for p in self.vertices)
        key = None
        if self._key is not None and self.period_vector is None:
            moved = dict(zip(self.vertices, vertices))
            key = ("fin",) + tuple(moved[p] for p in self._key[1:])
        return FaceDescriptor._of(vertices, self.period_vector, key)

    def dilated(self, k):
        """The face moved by the dilation x -> k x."""
        pv = None if self.period_vector is None else dilate(self.period_vector, k)
        return FaceDescriptor._of(tuple(dilate(p, k) for p in self.vertices), pv)

    def primitive(self):
        """The same face with one least period listed: itself when finite."""
        if self.period_vector is None:
            return self
        return FaceDescriptor(*_primitive_walk(self.vertices, self.period_vector), check=False)

    def reversed(self):
        if self.period_vector is None:
            return FaceDescriptor(tuple(reversed(self.vertices)), None, check=False)
        return FaceDescriptor(
            tuple(reversed(self.vertices)), vneg(self.period_vector), check=False
        )

    def canonical_form(self):
        """Equivalent descriptor with a deterministic start and direction."""
        if self.period_vector is None:
            return FaceDescriptor(least_rotation(self.vertices), None, check=False)
        face = self if _lex_positive(self.period_vector) else self.reversed()
        t = face.period_vector
        t2 = vdot(t, t)
        n = len(face.vertices)
        reduced = []
        for j, v in enumerate(face.vertices):
            k = vdot(v, t) // t2
            reduced.append((vsub(v, vscale(k, t)), j, k))
        anchor_pt, j0, k0 = min(reduced)
        shift = vscale(-k0, t)
        verts = tuple(vadd(face.vertex(j0 + i), shift) for i in range(n))
        return FaceDescriptor(verts, t, check=False)

    def canonical_key(self):
        if self._key is None:
            form = self.canonical_form()
            if form.period_vector is None:
                key = ("fin",) + form.vertices
            else:
                key = ("inf", form.period_vector) + form.vertices
            object.__setattr__(self, "_key", key)
        return self._key

    def window(self, region):
        """Walk-index interval [lo, hi] covering every vertex inside region.

        Returns None when the face misses the region entirely.  For finite
        faces the window is the whole cycle (0 .. n-1) whenever any vertex
        lies inside.  The interval for infinite faces is padded by one step
        on each side so the in-region part is bracketed by its exits.
        """
        n = len(self.vertices)
        if self.period_vector is None:
            if any(region.contains(p) for p in self.vertices):
                return (0, n - 1)
            return None
        t = self.period_vector
        ivals = region.intervals()
        lo_k = hi_k = None
        for i, v in enumerate(self.vertices):
            klo, khi = None, None  # range of period counts keeping v + k t inside
            feasible = True
            for c in range(3):
                lo, hi = ivals[c]
                if t[c] == 0:
                    if not (lo <= v[c] <= hi):
                        feasible = False
                        break
                    continue
                # k from ceil(a / t) to floor(b / t), by exact floor division
                a, b = (lo - v[c], hi - v[c]) if t[c] > 0 else (hi - v[c], lo - v[c])
                a, b = -(-a // t[c]), b // t[c]
                klo = a if klo is None else max(klo, a)
                khi = b if khi is None else min(khi, b)
            if not feasible or (klo is not None and klo > khi):
                continue
            if klo is None:
                raise DegenerateFaceError("period vector is zero")
            jlo, jhi = i + klo * n, i + khi * n
            lo_k = jlo if lo_k is None else min(lo_k, jlo)
            hi_k = jhi if hi_k is None else max(hi_k, jhi)
        if lo_k is None:
            return None
        return (lo_k - 1, hi_k + 1)

    def edge_slots(self, region=None):
        """Yield (slot_index, p, q) for the face's edges in a patch.

        Finite faces yield all n edges (slot i joins vertex i to i+1 mod n);
        infinite faces yield the slots j, from walk vertex j to j + 1, that
        have an end in ``region``, all of which lie in the window.
        """
        n = len(self.vertices)
        if self.period_vector is None:
            for i in range(n):
                yield i, self.vertices[i], self.vertices[(i + 1) % n]
        else:
            if region is None:
                raise ValueError("infinite faces need a region to enumerate edges")
            win = self.window(region)
            if win is None:
                return
            lo, hi = win
            contains = region.contains
            p = self.vertex(lo)
            p_in = contains(p)
            for j in range(lo, hi):
                q = self.vertex(j + 1)
                q_in = contains(q)
                if p_in or q_in:
                    yield j, p, q
                p, p_in = q, q_in

    def __repr__(self):
        kind = "fin" if self.period_vector is None else f"inf:{vec_str(self.period_vector)}"
        pts = " ".join(vec_str(p) for p in self.vertices)
        return f"Face[{kind}; {pts}]"


def _primitive_walk(vertices, disp):
    """Reduce a closed circuit of a walk to its primitive geometric period.

    ``vertices`` is one circuit of the walk and ``disp`` the translation
    after the full circuit; the walk extends by v[i+L] = v[i] + disp.
    Returns (period_vertices, period_vector), possibly the whole circuit
    when it is already primitive.
    """
    length = len(vertices)
    for k in range(1, length + 1):
        if length % k:
            continue
        tau = vsub(vertices[k], vertices[0]) if k < length else disp
        ok = True
        for i in range(length):
            j = i + k
            w = vertices[j] if j < length else vadd(vertices[j - length], disp)
            if w != vadd(vertices[i], tau):
                ok = False
                break
        if ok:
            return vertices[:k], tau
    return vertices, disp


def class_key(face):
    """The key of a face class held as ``face``: its walk, and its closure
    when it is infinite."""
    if face.period_vector is None:
        return ("fin",) + face.vertices
    return ("inf",) + face.vertices + (face.period_vector,)


# ---------------------------------------------------------------------------
# the complex


class StructureClasses(NamedTuple):
    """A structure modulo its class lattice, as a patch holds it."""

    lattice: object  # the translation lattice, or the trivial one when finite
    vertices: list  # one point per vertex class given besides the faces'
    edges: list  # one point pair per edge class given besides the faces'
    faces: dict  # class key -> its face: the canonical walk of one closure period


def _unscaled_classes(grid, d):
    """A class table on the grid x -> d x, mapped back to input units: the
    same classes, in the same order, keyed by their mapped walks."""
    k = Fraction(1, d)
    lattice = grid.lattice
    if lattice.rank:
        lattice = Lattice([dilate(b, k) for b in lattice.basis], name=lattice.name)
    faces = [f.dilated(k) for f in grid.faces.values()]
    return StructureClasses(
        lattice, [dilate(p, k) for p in grid.vertices],
        [(dilate(p, k), dilate(q, k)) for p, q in grid.edges],
        {class_key(f): f for f in faces},
    )


def _vertex_figure(closed, p, slots):
    """The vertex figure at p from the face slots through it, all on the
    quotient's grid."""
    edges = Counter()
    for fid, j, t in slots:
        f = closed.faces[fid]
        edges[frozenset((vadd(f.vertex(j - 1), t), vadd(f.vertex(j + 1), t)))] += 1
    return VertexFigureGraph(p, frozenset(x for e in edges for x in e), dict(edges))


class SkeletalComplex:
    """An immutable patch of a (possibly infinite) polyhedral structure.

    A structure is a lattice plus finitely many vertex, edge and face
    classes modulo it; :meth:`from_classes` keys and keeps the classes,
    which the patch unrolls over its region by the patch rule (see
    :mod:`skelforge.complexes`).  It is the only way in.

    Held: the class table, the face each class is unrolled from, ``region``,
    ``scale`` and ``name``.  Built on first read, then kept: ``vertices``
    (sorted points), ``edge_points`` (sorted point pairs, each pair
    sorted), ``faces`` (sorted by canonical key), ``flag_count`` (two flags
    per face slot over the region), ``face_counts`` (patch faces per
    class), ``vindex`` (point -> vertex index), ``edges`` (vertex index
    pairs), ``eindex`` (point pair -> edge index) and ``face_keys``.

    ``scale`` is the structure's common denominator D: the classes are
    held, quotiented and unrolled on the grid x -> D x (``grid``, the
    :class:`StructureClasses` kept by :meth:`from_classes`), where a
    rational structure has integer coordinates.  The element tables,
    ``region`` and ``classes`` are in input units.
    """

    def __init__(self, *, grid, first, region, scale, name=""):
        """The patch over ``region`` of the classes ``grid`` on the grid
        x -> ``scale`` x, each face class unrolled from its face in ``first``
        (class key -> face): called by :meth:`_unroll` alone."""
        self.name = name
        self.region = region
        self.scale = scale
        self.grid = grid
        self._first = first

    # -- tables built on first read ------------------------------------------

    def _grid_region(self):
        d, region = self.scale, self.region
        return region if d == 1 else Region(dilate(region.center, d), scalar(d * region.radius))

    @cached_property
    def _translates(self):
        """Per class, in class order, the translates on the grid of the face
        it is unrolled from that touch the region."""
        from .quotient import face_translates

        region = self._grid_region()
        return [face_translates(self.grid.lattice, f, region) for f in self._first.values()]

    @cached_property
    def face_counts(self):
        """Class key, as in ``classes.faces`` -> its faces in the patch, if any."""
        return {key: len(fs) for key, fs in zip(self.classes.faces, self._translates) if fs}

    def _unrolled(self):
        """The patch's vertex, edge and face translates and region, on the
        grid.  ``lattice_translates`` tests bounding boxes, a superset: of an
        edge's translates only those with an end in the region are kept."""
        from .quotient import lattice_translates

        lattice, vclasses, eclasses, _ = self.grid
        region = self._grid_region()
        vertices = [vadd(p, t) for p in vclasses
                    for t in lattice_translates(lattice, [p], region)]
        edges = [e for p, q in eclasses
                 for t in lattice_translates(lattice, (p, q), region)
                 for e in [(vadd(p, t), vadd(q, t))]
                 if not lattice.rank or region.contains(e[0]) or region.contains(e[1])]
        return vertices, edges, [g for fs in self._translates for g in fs], region

    @cached_property
    def _tables(self):
        """``vertices``, ``edge_points``, ``faces`` and ``flag_count``: one
        walk over the face slots on the grid collects the edges and counts
        two flags per slot, then each distinct point is mapped back to input
        units once, which keeps the sorted tables sorted."""
        vertices, edges, faces, region = self._unrolled()
        slots = [(p, q) for f in faces for _, p, q in f.edge_slots(region)]
        eset = {(p, q) if p < q else (q, p) for p, q in edges + slots}
        vset = set(vertices).union(*eset)
        # the classes are distinct modulo the lattice, so the faces are too
        faces.sort(key=FaceDescriptor.canonical_key)
        vertices, edge_points = sorted(vset), sorted(eset)
        d = self.scale
        if d > 1:
            back = {}

            def point(p):
                q = back.get(p)
                if q is None:
                    q = back[p] = (_ratio(p[0], d), _ratio(p[1], d), _ratio(p[2], d))
                return q

            vertices = [point(p) for p in vertices]
            edge_points = [(point(p), point(q)) for p, q in edge_points]
            faces = [FaceDescriptor._of(
                tuple(point(p) for p in f.vertices),
                None if f.period_vector is None else point(f.period_vector),
            ) for f in faces]
        return vertices, edge_points, faces, 2 * len(slots)

    vertices = property(lambda self: self._tables[0])
    edge_points = property(lambda self: self._tables[1])
    faces = property(lambda self: self._tables[2])
    flag_count = property(lambda self: self._tables[3])

    @cached_property
    def vindex(self):
        return {p: i for i, p in enumerate(self.vertices)}

    @cached_property
    def edges(self):
        vindex = self.vindex
        return [(vindex[p], vindex[q]) for p, q in self.edge_points]

    @cached_property
    def eindex(self):
        return {e: i for i, e in enumerate(self.edge_points)}

    @cached_property
    def face_keys(self):
        return {f.canonical_key(): i for i, f in enumerate(self.faces)}

    # -- basic queries ------------------------------------------------------

    def interior_vertex_ids(self):
        contains = self.region.contains
        return [i for i, p in enumerate(self.vertices) if contains(p)]

    def _grid_central_vertex(self):
        from .orbit import build_quotient

        return build_quotient(self).nearest_vertex(dilate(self.region.center, self.scale))

    def central_vertex(self):
        """The structure vertex nearest the region centre, the least on
        ties, found from the vertex classes: the region need hold none."""
        return dilate(self._grid_central_vertex(), Fraction(1, self.scale))

    def counts(self):
        return len(self.vertices), len(self.edge_points), len(self.faces)

    def region_counts(self):
        """Counts of elements whose vertex sets intersect the region proper.

        The raw tables also hold support vertices that faces drag in from
        just outside; those are excluded here.
        """
        contains = self.region.contains
        nv = sum(1 for p in self.vertices if contains(p))
        ne = sum(1 for p, q in self.edge_points if contains(p) or contains(q))
        return nv, ne, len(self.faces)

    def has_vertex(self, p):
        return tuple(p) in self.vindex

    def has_edge(self, p, q):
        return tuple(sorted((tuple(p), tuple(q)))) in self.eindex

    def has_face(self, descriptor):
        return descriptor.canonical_key() in self.face_keys

    @classmethod
    def from_classes(cls, lattice, faces, region, vertices=(), edges=(), name=""):
        """The patch over ``region`` of the structure made of the translates
        by ``lattice`` of ``faces``, ``vertices`` and ``edges``, one element
        per class (the trivial lattice for a finite structure).

        The structure's scale D is the lcm of the denominators of what is
        given; the classes are keyed, kept and unrolled on the grid
        x -> D x (see :meth:`_unroll`).
        """
        return cls._unroll(lattice, faces, region, vertices, edges, name)

    @classmethod
    def _unroll(cls, lattice, faces, region, vertices=(), edges=(), name="", scale=1):
        """:meth:`from_classes` of classes given on the grid x -> scale x:
        ``lattice``, ``faces``, ``vertices`` and ``edges`` are scale times
        their values in input units, and ``region`` is in input units.  What
        is not integral there moves on to the grid of its common denominator
        k first, so the patch's scale is scale k.

        Each face is keyed once, and each class kept as its canonical walk
        of one closure period and as its first given face, which the patch
        unrolls on first read: an apeirogon's walk lists m closure periods,
        whose translates would key differently.
        """
        from .quotient import _edge_key, _face_class

        faces, vertices, edges = list(faces), list(vertices), list(edges)
        k = common_denominator(
            [*lattice.basis, *vertices, *(p for e in edges for p in e),
             *(p for f in faces for p in f.vertices),
             *(f.period_vector for f in faces if f.period_vector is not None)]
        )
        if k > 1:
            if lattice.rank:
                lattice = Lattice([to_grid(b, k) for b in lattice.basis], name=lattice.name)
            faces = [FaceDescriptor._of(
                tuple(to_grid(p, k) for p in f.vertices),
                None if f.period_vector is None else to_grid(f.period_vector, k),
            ) for f in faces]
            vertices = [to_grid(p, k) for p in vertices]
            edges = [(to_grid(p, k), to_grid(q, k)) for p, q in edges]

        classes, first, vclasses, eclasses = {}, {}, {}, {}
        for f in faces:
            key, face = _face_class(lattice, f)
            if key not in classes:
                classes[key], first[key] = face, f
        for p in vertices:
            vclasses.setdefault(lattice.reduce_key(p), p)
        for e in edges:
            eclasses.setdefault(_edge_key(lattice, *e), e)
        return cls(
            grid=StructureClasses(lattice, list(vclasses.values()),
                                  list(eclasses.values()), classes),
            first=first, region=region, scale=scale * k, name=name,
        )

    @cached_property
    def classes(self):
        """The structure modulo its lattice in input units: ``grid`` itself
        when the scale is 1, else ``grid`` mapped back on first read."""
        return self.grid if self.scale == 1 else _unscaled_classes(self.grid, self.scale)

    @property
    def lattice(self):
        """The translation lattice, or None when the structure is finite."""
        return self.classes.lattice if self.grid.lattice.rank else None

    @property
    def is_finite(self):
        return not self.grid.lattice.rank

    # -- vertex figures -----------------------------------------------------

    def _face_slots_at(self, p):
        """The quotient and the face slots through the vertex p of the
        structure, anywhere in space, on the grid; BoundaryError when p is
        no vertex."""
        from .orbit import build_quotient

        closed = build_quotient(self)
        slots = closed.face_slots_at(dilate(p, self.scale))
        if not slots:
            raise BoundaryError(f"{vec_str(p)} is not a vertex of the structure")
        return closed, slots

    def vertex_figure(self, p):
        """Graph on the neighbors of p, one edge per face passing through p,
        read from p's vertex class."""
        p = tuple(p)
        closed, slots = self._face_slots_at(p)
        figure = _vertex_figure(closed, p, slots)
        if self.scale == 1:
            return figure
        k = Fraction(1, self.scale)
        return VertexFigureGraph(
            p, frozenset(dilate(x, k) for x in figure.nodes),
            {frozenset(dilate(x, k) for x in e): m for e, m in figure.edges.items()},
        )

    def faces_at_vertex(self, p):
        """The faces through the vertex p, in face-key order."""
        from .quotient import GeomFlag

        closed, slots = self._face_slots_at(tuple(p))
        faces = [GeomFlag(closed, closed.dart(fid, j, 0), t).face() for fid, j, t in slots]
        if self.scale != 1:
            faces = [f.dilated(Fraction(1, self.scale)) for f in faces]
        return sorted(faces, key=FaceDescriptor.canonical_key)

    # -- serialization hook (full formats live in serialization.py) ---------

    def summary(self):
        nv, ne, nf = self.counts()
        return f"{self.name or 'complex'}: {nv} vertices, {ne} edges, {nf} faces"

    def __repr__(self):
        return f"<SkeletalComplex {self.summary()}>"


# ---------------------------------------------------------------------------
# vertex figures and the small catalog used to name them


class VertexFigureGraph:
    """Multigraph on the neighbors of a vertex; edges weighted by face count."""

    def __init__(self, center, nodes, edges):
        self.center = center
        self.nodes = frozenset(nodes)
        self.edges = dict(edges)  # frozenset({u, w}) -> multiplicity

    def adjacency(self):
        adj = {n: Counter() for n in self.nodes}
        for e, m in self.edges.items():
            u, w = tuple(e)
            adj[u][w] += m
            adj[w][u] += m
        return adj

    def is_connected(self):
        if not self.nodes:
            return False
        adj = self.adjacency()
        seen = set()
        stack = [next(iter(self.nodes))]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u])
        return len(seen) == len(self.nodes)

    def is_single_cycle(self):
        adj = self.adjacency()
        return (
            self.is_connected()
            and all(sum(c.values()) == 2 for c in adj.values())
            and all(m == 1 for m in self.edges.values())
            and len(self.nodes) >= 3
        )

    def cycle_order(self):
        """Node sequence of the cycle (single-cycle figures only)."""
        if not self.is_single_cycle():
            raise ValueError("vertex figure is not a single cycle")
        adj = self.adjacency()
        start = min(self.nodes)
        order = [start]
        prev, cur = None, start
        while True:
            nxt = min(n for n in adj[cur] if n != prev)
            if nxt == start:
                break
            order.append(nxt)
            prev, cur = cur, nxt
        return order


def _multigraph(edge_list):
    """Adjacency-counter multigraph from (u, v) or (u, v, mult) tuples."""
    adj = {}
    for e in edge_list:
        u, v, m = e if len(e) == 3 else (*e, 1)
        adj.setdefault(u, Counter())[v] += m
        adj.setdefault(v, Counter())[u] += m
    return adj


def _cycle_graph(n, mult=1):
    return _multigraph([(i, (i + 1) % n, mult) for i in range(n)])


def _complete_graph(n, mult=1):
    return _multigraph([(i, j, mult) for i in range(n) for j in range(i + 1, n)])


def _cube_graph(mult=1):
    return _multigraph(
        [(u, u ^ b, mult) for u in range(8) for b in (1, 2, 4) if u < (u ^ b)]
    )


def _octahedron_graph(mult=1):
    # K_{2,2,2}: all pairs except the three antipodal ones
    pairs = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if not (i % 2 == 0 and j == i + 1)
    ]
    return _multigraph([(u, v, mult) for u, v in pairs])


def _cuboctahedron_graph():
    coords = []
    for a in (-1, 1):
        for b in (-1, 1):
            coords += [(a, b, 0), (a, 0, b), (0, a, b)]
    edges = [
        (i, j)
        for i in range(12)
        for j in range(i + 1, 12)
        if vdot(vsub(coords[i], coords[j]), vsub(coords[i], coords[j])) == 2
    ]
    return _multigraph(edges)


_CATALOG = {
    "square": _cycle_graph(4),
    "hexagon": _cycle_graph(6),
    "double square": _cycle_graph(4, 2),
    "tetrahedron": _complete_graph(4),
    "double tetrahedron": _complete_graph(4, 2),
    "cube": _cube_graph(),
    "double cube": _cube_graph(2),
    "octahedron": _octahedron_graph(),
    "double octahedron": _octahedron_graph(2),
    "cuboctahedron": _cuboctahedron_graph(),
}


def _degree_signature(adj):
    return sorted(
        (sum(c.values()), sorted(c.values())) for c in adj.values()
    )


def _multigraph_isomorphic(a, b):
    if len(a) != len(b):
        return False
    if _degree_signature(a) != _degree_signature(b):
        return False
    nodes_a = sorted(a, key=lambda n: (sum(a[n].values()), str(n)))
    nodes_b = list(b)

    def extend(mapping, used):
        if len(mapping) == len(nodes_a):
            return True
        u = nodes_a[len(mapping)]
        for v in nodes_b:
            if v in used:
                continue
            ok = True
            for u2, v2 in mapping.items():
                if a[u].get(u2, 0) != b[v].get(v2, 0):
                    ok = False
                    break
            if ok and sum(a[u].values()) == sum(b[v].values()):
                mapping[u] = v
                used.add(v)
                if extend(mapping, used):
                    return True
                del mapping[u]
                used.remove(v)
        return False

    return extend({}, set())


def graph_identify(figure):
    """Name a vertex figure by multigraph isomorphism against the catalog.

    Accepts a VertexFigureGraph or a raw adjacency dict; returns the catalog
    name or "unknown".  The non-standard cuboctahedron realization has the
    same underlying graph as the cuboctahedron and is reported as such.
    """
    adj = figure.adjacency() if isinstance(figure, VertexFigureGraph) else figure
    for name, ref in _CATALOG.items():
        if _multigraph_isomorphic(adj, ref):
            return name
    return "unknown"


# ---------------------------------------------------------------------------
# axiom validation


class ValidationReport:
    __slots__ = ("mode", "entries", "r", "discreteness")

    def __init__(self, mode, entries=None, r=None, discreteness=""):
        self.mode = mode
        self.entries = [] if entries is None else entries  # (axiom, ok, detail)
        self.r = r
        self.discreteness = discreteness

    def add(self, axiom, ok, detail=""):
        self.entries.append((axiom, bool(ok), detail))

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.entries)

    def failed_axioms(self):
        return [a for a, ok, _ in self.entries if not ok]

    def __str__(self):
        lines = [f"validation ({self.mode}): {'pass' if self.passed else 'FAIL'}"]
        for axiom, ok, detail in self.entries:
            lines.append(f"  [{'ok' if ok else 'XX'}] {axiom}: {detail}")
        return "\n".join(lines)


def validate(complex_, mode="polyhedron"):
    """Check the defining axioms on the structure's classes; failures are
    report entries, never exceptions.

    (a) the edge graph connects the periodic cover: its labelled quotient
    graph is connected and its cycle voltages span the lattice, (b) the
    vertex figure of every vertex class is connected, (c) the quotient has
    a constant number r of faces per edge (r = 2 in polyhedron mode), (d)
    discreteness, certified by finiteness or by exhibiting the translation
    lattice.  When the quotient cannot be built (classes that hold no face,
    or a vertex or edge class on none), (a) to (c) fail with the reason.
    """
    from .nets import quotient_graph
    from .orbit import build_quotient

    report = ValidationReport(mode)
    try:
        closed = build_quotient(complex_)
    except (NotPeriodicError, PatchTooSmallError) as exc:
        for axiom in ("a:edge-graph-connected", "b:vertex-figures-connected",
                      "c:faces-per-edge"):
            report.add(axiom, False, exc.detail)
    else:
        graph = quotient_graph(complex_.grid)
        nv = len(closed.vreps)
        report.add(
            "a:edge-graph-connected",
            graph.is_connected_cover(),
            f"{nv} vertex classes, {len(graph.edges)} edge classes",
        )
        bad = sum(not _vertex_figure(closed, p, closed.face_slots_at(p)).is_connected()
                  for p in closed.vreps)
        report.add("b:vertex-figures-connected", not bad,
                   f"{bad} disconnected of {nv} vertex classes")
        r = report.r = closed.r
        if r is None:
            counts = sorted(Counter(closed.faces_per_edge()).items())
            report.add("c:faces-per-edge", False, f"nonconstant: {dict(counts)}")
        elif mode == "polyhedron":
            report.add("c:faces-per-edge", r == 2, f"r = {r} (need 2)")
        else:
            report.add("c:faces-per-edge", r >= 2, f"r = {r}")

    # (d) discreteness certificate
    if complex_.is_finite:
        report.discreteness = "finite"
        report.add("d:discrete", True, "finite complex")
    else:
        lat = complex_.lattice
        report.discreteness = f"periodic rank {lat.rank}"
        basis = ", ".join(vec_str(b) for b in lat.basis)
        report.add("d:discrete", True, f"translation lattice [{basis}]")

    return report
