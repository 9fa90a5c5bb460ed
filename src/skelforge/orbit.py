"""Orbit enumeration: the chiral variant of Wythoff's construction.

A generator set carries named isometries plus a base flag seed (base vertex,
the other end of the base edge, and the word stabilizing the base face).
The base face is the orbit of the base vertex under that word.

The group the generators span is enumerated exactly.  Its linear parts form
the point group, finite for discrete input, with one coset representative
per matrix; Schreier's lemma then gives the translation lattice.  Vertex,
edge and face orbits are finitely many classes modulo that lattice, one
image of the base element per representative, and the patch unrolls every
class over the bounded region.  A generator-built patch therefore knows its
lattice: the translation group of the given generators.
"""

from __future__ import annotations

from collections import deque

from .errors import (
    DegenerateFaceError,
    ExplosionError,
    InvalidParametersError,
    NotPeriodicError,
    PatchTooSmallError,
)
from .complexes import FaceDescriptor, SkeletalComplex
from .geometry import (
    IDENTITY3,
    ZERO3,
    Lattice,
    identity,
    lattice_basis_from,
    mat_mul,
    order_or_translation,
    vec_str,
)
from .quotient import ClosedComplex

# The largest finite group of rational orthogonal 3x3 matrices (the cube's).
POINT_GROUP_BOUND = 48


class GeneratorSet:
    """Named isometries plus the base-flag data driving the construction."""

    def __init__(self, generators, base_vertex, base_edge_other, face_word,
                 name=""):
        self.generators = dict(generators)
        self.base_vertex = tuple(base_vertex)
        self.base_edge_other = tuple(base_edge_other)
        if isinstance(face_word, str):
            face_word = tuple(face_word.split("*"))
        self.face_word = tuple(face_word)
        self.name = name
        if self.base_vertex == self.base_edge_other:
            raise InvalidParametersError("base edge endpoints coincide")
        for w in self.face_word:
            if w not in self.generators:
                raise InvalidParametersError(f"unknown face generator {w!r}")

    def face_generator(self):
        g = None
        for w in self.face_word:
            h = self.generators[w]
            g = h if g is None else g.then(h)
        return g

    def isometries(self):
        return list(self.generators.values())

    def __repr__(self):
        names = ",".join(self.generators)
        return f"<GeneratorSet {self.name or names} face={'*'.join(self.face_word)}>"


def build_base_face(gen):
    """Orbit of the base vertex under the face word, as a face descriptor."""
    g = gen.face_generator()
    v = gen.base_vertex
    if g(v) == v:
        raise DegenerateFaceError("base vertex is fixed by the face generator")
    power = order_or_translation(g, 48)
    if power.kind == "order":
        pts, p = [], v
        for _ in range(power.n):
            pts.append(p)
            p = g(p)
            if p == v:
                break
        if len(pts) < 3:
            raise DegenerateFaceError(f"face orbit has only {len(pts)} points")
        return FaceDescriptor(pts)
    if power.kind == "translation":
        pts, p = [], v
        for _ in range(power.n):
            pts.append(p)
            p = g(p)
        return FaceDescriptor(pts, power.vector)
    raise DegenerateFaceError("face generator has no finite order or translation power")


def _coset_representatives(isometries):
    """One element of the group the isometries generate per linear part,
    {matrix: isometry}, and the products r*g of every representative r, in
    search order, with every generator g, in the given order.

    A breadth-first search over the linear parts, which form the point
    group.  A finite group of rational orthogonal matrices has at most 48
    elements, so a larger point group means the generators are not discrete.
    """
    reps = {IDENTITY3: identity()}
    products = []
    queue = deque(reps.values())
    while queue:
        r = queue.popleft()
        for g in isometries:
            h = r.then(g)
            products.append(h)
            if h.m in reps:
                continue
            if len(reps) == POINT_GROUP_BOUND:
                raise ExplosionError(
                    f"point group exceeds {POINT_GROUP_BOUND} elements; the "
                    "generators are not discrete"
                )
            reps[h.m] = h
            queue.append(h)
    return reps, products


def _translation_lattice(reps, products):
    """The translation subgroup of the group the isometries generate, by
    Schreier's lemma, from the representatives and products of
    :func:`_coset_representatives`.

    It is generated by the translations r*g*rep(r*g)^-1 over coset
    representatives r and generators g.  With h = r*g and rep = rep(h),
    which share their linear part M, that translation is M^T (t_h - t_rep),
    the image of t_h under rep^-1: one inverse per representative, not
    two isometries per pair.
    """
    inverses = {m: r.inverse() for m, r in reps.items()}
    vectors = []
    for h in products:
        t = inverses[h.m](h.t)
        if t != ZERO3:
            vectors.append(t)
    basis = lattice_basis_from(vectors)
    if len(basis) == 1:
        raise NotPeriodicError(
            f"translation group has rank 1, generated by {vec_str(basis[0])}"
        )
    return Lattice(basis)


def wythoff_patch(gen, region, name=None):
    """All vertex/edge/face orbit elements whose vertex sets touch the region.

    Each orbit is a finite set of classes modulo the translation lattice,
    one image of the base element per coset representative; the patch keeps
    the classes and the lattice, and unrolls every class over the region.
    What it holds depends on the structure and the region alone, not on how
    the generators are written (see :mod:`skelforge.complexes`).

    The base face is invariant under its face generator g, so a
    representative whose linear part is M_r M_g^j, for a representative r
    taken before it, maps the face to a translate of r's image: only the
    others are given, which keeps the classes and their order.
    """
    reps, products = _coset_representatives(gen.isometries())
    lattice = _translation_lattice(reps, products)
    base_face = build_base_face(gen)
    edges = [(r(gen.base_vertex), r(gen.base_edge_other)) for r in reps.values()]
    g = gen.face_generator().m
    powers, m = [IDENTITY3], g
    while m != IDENTITY3:
        powers.append(m)
        m = mat_mul(m, g)
    faces, covered = [], set()
    for r in reps.values():
        if r.m not in covered:
            covered.update(mat_mul(r.m, p) for p in powers)
            faces.append(base_face.transform(r))
    return SkeletalComplex.from_classes(
        lattice,
        faces,
        region,
        vertices=[p for p, _ in edges],
        edges=edges,
        name=name or gen.name,
    )


# ---------------------------------------------------------------------------
# quotients


def build_quotient(patch, sublattice=None, scale=1):
    """Finite quotient modulo the structure's own lattice Lambda.

    Every answer reads this quotient.  A ``scale`` k or an explicit
    sublattice of Lambda gives a larger cover, modulo k Lambda or that
    sublattice, as coverings and Euler characteristics need.  Finite
    patches quotient by the trivial lattice, so the result is just the
    closed form of the patch.  Classes that hold no face have nothing to
    decide on.  The quotient, and a given sublattice, lie on the patch's
    grid x -> D x (``patch.scale``, ``patch.grid``), which is the input
    itself when D is 1.
    """
    lat, _, _, faces = patch.grid
    if not faces:
        raise PatchTooSmallError("the patch holds no face to decide on")
    if not lat.rank:
        sublattice = lat
    elif sublattice is None:
        sublattice = lat if scale == 1 else lat.scaled(scale)
    elif sublattice.rank != lat.rank or not sublattice.sublattice_of(lat):
        raise NotPeriodicError(
            "requested sublattice is not a full-rank sublattice of translations"
        )
    cache = vars(patch).setdefault("_quotient_cache", {})
    if sublattice.basis not in cache:
        cache[sublattice.basis] = ClosedComplex.from_patch(patch, sublattice)
    return cache[sublattice.basis]
