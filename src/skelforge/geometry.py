"""Exact rational linear algebra for 3-space.

Scalars are Python ints or ``fractions.Fraction``; a value that is integral
is kept as an int (ints hash/compare equal to the same Fraction, and integer
arithmetic is an order of magnitude faster).  Points and vectors are plain
3-tuples of scalars; isometries pair an exactly orthogonal 3x3 matrix with a
translation vector.  Nothing in this module ever rounds.

The kernels that run on every point keep rational data as integers over one
common denominator: an :class:`Isometry` holds ``A``, ``b`` and ``D`` with
``M = A / D`` and ``t = b / D``, a :class:`Lattice` the integer adjugate of
its basis.  That basis is the reduced Hermite normal form of whatever
vectors generate the lattice, so it is a function of the lattice alone.  A point is scaled to integers by the lcm of its denominators,
multiplied by the integer matrix and divided back by ``divmod``, so no
``Fraction`` is built on the way and each result is an int when integral, a
Fraction otherwise.  :func:`solve_isometry` solves through an integer
adjugate the same way.

A structure takes one common denominator too: its patch works on the
integer grid ``x -> D x`` (:func:`common_denominator`, :func:`to_grid`),
where an isometry ``(M, t)`` reads ``(M, D t)`` (:meth:`Isometry.dilated`).
Structures are classified up to similarity, and the floors, least
rotations and orders the library decides by all commute with a positive
dilation, so no answer changes.

The catalog's vertex sets, the lattices Lambda1-Lambda3 and the sets V and
W, are each a union of cosets o + M of one lattice M
(:class:`VertexSetSpec`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NotIsometryError,
    ParseError,
    UnderdeterminedError,
)

# ---------------------------------------------------------------------------
# scalars


def scalar(x):
    """Normalize to int when integral, Fraction otherwise.

    Accepts ints, Fractions, and strings like ``"-3/4"`` or ``"7"``.
    Floats are rejected: this library has no tolerances to hide behind.
    So are booleans, which Python counts as ints but JSON does not.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, str):
        try:
            f = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {x!r}") from exc
        return f.numerator if f.denominator == 1 else f
    if isinstance(x, float):
        raise ParseError(f"floats are not exact: {x!r}")
    raise ParseError(f"cannot interpret {x!r} as a rational scalar")


def scalar_str(x):
    """Serialize as ``p/q``, omitting ``/q`` when the denominator is 1."""
    if isinstance(x, int):
        return str(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def is_integer(x):
    return isinstance(x, int) or x.denominator == 1


def _ratio(n, d):
    """The rational n/d for ints n and d > 0: an int when integral."""
    q, r = divmod(n, d)
    return q if r == 0 else Fraction(n, d)


def _integers(v):
    """Ints (x, y, z) and q > 0 with v = (x, y, z) / q, q the lcm of the
    denominators of v."""
    x, y, z = v
    q = math.lcm(x.denominator, y.denominator, z.denominator)
    return to_grid(v, q), q


def common_denominator(vectors):
    """The lcm of the denominators of the coordinates of ``vectors``: 1
    when every coordinate is an int."""
    return math.lcm(1, *{c.denominator for v in vectors for c in v})


def to_grid(v, d):
    """``d v`` as ints, for a d that is a multiple of every denominator of
    v (see :func:`common_denominator`)."""
    x, y, z = v
    return (x.numerator * (d // x.denominator), y.numerator * (d // y.denominator),
            z.numerator * (d // z.denominator))


def dilate(v, k):
    """``k v``, normalized: the image of v under the dilation x -> k x."""
    if k == 1:
        return v
    x, y, z = v
    return (scalar(k * x), scalar(k * y), scalar(k * z))


def _integer_rows(rows):
    """Integer rows and q > 0 with ``rows = integer rows / q``, q the lcm of
    every denominator."""
    q = common_denominator(rows)
    return tuple(to_grid(row, q) for row in rows), q


# ---------------------------------------------------------------------------
# vectors (plain 3-tuples)

ZERO3 = (0, 0, 0)


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vneg(a):
    return (-a[0], -a[1], -a[2])


def vscale(k, a):
    return (k * a[0], k * a[1], k * a[2])


def vdot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vcross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm_inf(a):
    return max(abs(a[0]), abs(a[1]), abs(a[2]))


def vec_str(a):
    return "(" + ",".join(scalar_str(c) for c in a) + ")"


# ---------------------------------------------------------------------------
# 3x3 matrices as row triples


def mat_vec(m, v):
    return (
        m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
        m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
        m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
    )


def mat_mul(a, b):
    b0, b1, b2 = b
    return tuple(
        (r[0] * b0[0] + r[1] * b1[0] + r[2] * b2[0],
         r[0] * b0[1] + r[1] * b1[1] + r[2] * b2[1],
         r[0] * b0[2] + r[1] * b1[2] + r[2] * b2[2])
        for r in a
    )


def mat_transpose(m):
    return tuple(zip(*m))


def mat_det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _adjugate(m):
    """The adjugate of m: m times it is det(m) times the identity."""
    return (
        (m[1][1] * m[2][2] - m[1][2] * m[2][1],
         m[0][2] * m[2][1] - m[0][1] * m[2][2],
         m[0][1] * m[1][2] - m[0][2] * m[1][1]),
        (m[1][2] * m[2][0] - m[1][0] * m[2][2],
         m[0][0] * m[2][2] - m[0][2] * m[2][0],
         m[0][2] * m[1][0] - m[0][0] * m[1][2]),
        (m[1][0] * m[2][1] - m[1][1] * m[2][0],
         m[0][1] * m[2][0] - m[0][0] * m[2][1],
         m[0][0] * m[1][1] - m[0][1] * m[1][0]),
    )


def mat_inverse(m):
    """Exact inverse via the adjugate; raises ZeroDivisionError if singular."""
    d = mat_det(m)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    inv = Fraction(1, 1) / d if not isinstance(d, int) else Fraction(1, d)
    return tuple(tuple(scalar(inv * e) for e in row) for row in _adjugate(m))


IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _is_orthogonal(m):
    mt = mat_transpose(m)
    return mat_mul(mt, m) == IDENTITY3


# ---------------------------------------------------------------------------
# isometries


class Isometry:
    """Affine isometry ``p -> M p + t`` with exactly orthogonal M.

    Immutable and hashable.  The linear part is validated at construction;
    the determinant is therefore +1 or -1 automatically.  ``m`` and ``t``
    hold normalized scalars; equality, hashing and ``repr`` read only them.

    The kernels read a private integer form, computed once on first use:
    ``A``, ``b`` and ``D > 0``, the least common denominator of M and t,
    with ``M = A / D`` and ``t = b / D``.  A point is scaled to integers
    (``x / q``), so its image is ``(A x + q b) / (D q)``: one integer
    product, then ``divmod``.  When ``D`` is 1 and the point is integral no
    division is needed.  Every image, vector and composed entry is an int
    when integral and a Fraction otherwise, the same values and types as
    :func:`scalar` gives.
    """

    __slots__ = ("m", "t", "_int")

    def __init__(self, m, t=ZERO3, check=True):
        m = tuple(tuple(scalar(e) for e in row) for row in m)
        t = tuple(scalar(e) for e in t)
        if check and not _is_orthogonal(m):
            raise NotIsometryError(f"linear part is not orthogonal: {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_int", None)

    @classmethod
    def _of(cls, m, t):
        """The isometry of an orthogonal matrix and a translation that are
        already tuples of normalized scalars."""
        iso = object.__new__(cls)
        object.__setattr__(iso, "m", m)
        object.__setattr__(iso, "t", t)
        object.__setattr__(iso, "_int", None)
        return iso

    def __setattr__(self, *a):
        raise AttributeError("Isometry is immutable")

    def _form(self):
        """``(A, b, D, integral)``: the integer form, and whether M itself
        is integral."""
        m, t = self.m, self.t
        entries = m[0] + m[1] + m[2] + t
        if all(type(e) is int for e in entries):
            form = (m, t, 1, True)
        else:
            d = math.lcm(*(e.denominator for e in entries))
            a = tuple(tuple(e.numerator * (d // e.denominator) for e in row) for row in m)
            b = tuple(e.numerator * (d // e.denominator) for e in t)
            form = (a, b, d, all(type(e) is int for e in entries[:9]))
        object.__setattr__(self, "_int", form)
        return form

    def __call__(self, p):
        a, b, d, _ = self._int or self._form()
        x, y, z = p
        if type(x) is int and type(y) is int and type(z) is int:
            if d == 1:
                return (
                    a[0][0] * x + a[0][1] * y + a[0][2] * z + b[0],
                    a[1][0] * x + a[1][1] * y + a[1][2] * z + b[1],
                    a[2][0] * x + a[2][1] * y + a[2][2] * z + b[2],
                )
            q = 1
        else:
            (x, y, z), q = _integers(p)
        dq = d * q
        return (
            _ratio(a[0][0] * x + a[0][1] * y + a[0][2] * z + q * b[0], dq),
            _ratio(a[1][0] * x + a[1][1] * y + a[1][2] * z + q * b[1], dq),
            _ratio(a[2][0] * x + a[2][1] * y + a[2][2] * z + q * b[2], dq),
        )

    def apply_vec(self, v):
        """Apply the linear part only (directions, period vectors)."""
        a, _, d, integral = self._int or self._form()
        x, y, z = v
        if integral and type(x) is int and type(y) is int and type(z) is int:
            return mat_vec(self.m, v)
        (x, y, z), q = _integers(v)
        dq = d * q
        return (
            _ratio(a[0][0] * x + a[0][1] * y + a[0][2] * z, dq),
            _ratio(a[1][0] * x + a[1][1] * y + a[1][2] * z, dq),
            _ratio(a[2][0] * x + a[2][1] * y + a[2][2] * z, dq),
        )

    def then(self, g):
        """The isometry 'self first, then g' (= g o self)."""
        if (self._int or self._form())[3] and (g._int or g._form())[3]:
            m = mat_mul(g.m, self.m)
        else:
            m = mat_transpose([g.apply_vec(col) for col in mat_transpose(self.m)])
        return Isometry._of(m, g(self.t))

    def inverse(self):
        """``p -> M^T p - M^T t``; M^T t is ``A^T b / D^2``."""
        a, b, d, _ = self._int or self._form()
        n = mat_vec(mat_transpose(a), b)
        dd = d * d
        return Isometry._of(mat_transpose(self.m),
                            (_ratio(-n[0], dd), _ratio(-n[1], dd), _ratio(-n[2], dd)))

    def dilated(self, k):
        """This isometry conjugated by the dilation x -> k x: ``(M, k t)``,
        which maps k p to k times the image of p."""
        return self if k == 1 else Isometry._of(self.m, dilate(self.t, k))

    def det(self):
        return mat_det(self.m)

    @property
    def is_identity(self):
        return self.m == IDENTITY3 and self.t == ZERO3

    def is_involution(self):
        return compose(self, self).is_identity

    def __eq__(self, other):
        return isinstance(other, Isometry) and self.m == other.m and self.t == other.t

    def __hash__(self):
        return hash((self.m, self.t))

    def __repr__(self):
        rows = "; ".join(" ".join(scalar_str(e) for e in row) for row in self.m)
        return f"Isometry([{rows}] + {vec_str(self.t)})"


def identity():
    return Isometry(IDENTITY3, ZERO3, check=False)


def translation(v):
    return Isometry(IDENTITY3, v, check=False)


def compose(g, h):
    """g o h: apply h first."""
    return h.then(g)


def word(isometries):
    """Product in left-to-right application order (first element acts first)."""
    acc = identity()
    for g in isometries:
        acc = acc.then(g)
    return acc


def reflection_in_plane(normal, point):
    """Reflection in the plane through ``point`` with rational ``normal``."""
    n2 = vdot(normal, normal)
    if n2 == 0:
        raise NotIsometryError("zero normal")
    two = Fraction(2, 1)
    m = tuple(
        tuple(
            scalar((1 if i == j else 0) - two * normal[i] * normal[j] / n2)
            for j in range(3)
        )
        for i in range(3)
    )
    iso_lin = Isometry(m, ZERO3, check=False)
    t = vsub(point, iso_lin(point))
    return Isometry(m, t, check=False)


def half_turn(point, direction):
    """Rotation by a half turn about the line ``point + R direction``."""
    d2 = vdot(direction, direction)
    if d2 == 0:
        raise NotIsometryError("zero axis direction")
    two = Fraction(2, 1)
    m = tuple(
        tuple(
            scalar(two * direction[i] * direction[j] / d2 - (1 if i == j else 0))
            for j in range(3)
        )
        for i in range(3)
    )
    iso_lin = Isometry(m, ZERO3, check=False)
    t = vsub(point, iso_lin(point))
    return Isometry(m, t, check=False)


def point_reflection(center):
    m = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
    return Isometry(m, vscale(2, center), check=False)


# ---------------------------------------------------------------------------
# linear solving


def matrix_rank(rows):
    """The rank of a list of 3-vectors."""
    return len(spanning_indices(rows))


def fixed_space_dim(g):
    """Dimension of the fixed-point set of ``g``, or None when it is empty.

    The fixed points solve (M - I) x = -t: there are none when t leaves
    the span of the columns of M - I, else a (3 - rank)-dimensional set.
    Screw motions and glide reflections fix nothing; the distinct None
    return keeps them apart from point reflections (dimension 0).
    """
    cols = [tuple(g.m[i][j] - (1 if i == j else 0) for i in range(3)) for j in range(3)]
    kept = spanning_indices(cols + [g.t])
    if 3 in kept:
        return None
    return 3 - len(kept)


@dataclass(frozen=True)
class PowerResult:
    """Outcome of iterating an isometry: finite order, a translation, or neither."""

    kind: str  # "order" | "translation" | "exceeded"
    n: int = 0
    vector: tuple = ZERO3


def order_or_translation(g, max_n=48):
    """Smallest n <= max_n with g^n = 1, else with g^n a pure translation.

    Returns a :class:`PowerResult`; ``kind == "exceeded"`` when neither
    happens within ``max_n`` steps.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    acc = g
    for n in range(1, max_n + 1):
        if acc.m == IDENTITY3:
            if acc.t == ZERO3:
                return PowerResult("order", n)
            return PowerResult("translation", n, acc.t)
        acc = acc.then(g)
    return PowerResult("exceeded")


def spanning_indices(vectors):
    """Indices of the vectors, in order, that are independent of the ones
    kept before them, at most three: the rows a row reduction of the
    growing list would keep.  The test is a nonzero vector, then a nonzero
    cross product with the first, then a nonzero determinant."""
    kept, first, normal = [], None, None
    for i, v in enumerate(vectors):
        if first is None:
            if v != ZERO3:
                kept.append(i)
                first = v
        elif normal is None:
            c = vcross(first, v)
            if c != ZERO3:
                kept.append(i)
                normal = c
        elif vdot(normal, v) != 0:
            kept.append(i)
            break
    return kept


def solve_isometry(pairs):
    """The unique isometry mapping each source point to its target, or None.

    ``pairs`` is a sequence of (source, target) points; at least 4 pairs are
    required and the sources must affinely span 3-space, otherwise
    :class:`UnderdeterminedError` is raised.  Returns None when no exact
    isometry fits (the affine solution is non-orthogonal, or some pair
    disagrees).

    With B the columns of three independent source differences and C those
    of their images, M = C B^-1.  Both are scaled to integers (B = Bi / qb,
    C = Ci / qc), so M = N / d with N = qb Ci adj(Bi) and d = qc det(Bi),
    and M is orthogonal exactly when N^T N = d^2 I.
    """
    pairs = list(pairs)
    if len(pairs) < 4:
        raise UnderdeterminedError("need at least 4 point pairs")
    p0, q0 = pairs[0]
    diffs = [vsub(p, p0) for p, _ in pairs[1:]]
    kept = spanning_indices(diffs)
    if len(kept) < 3:
        raise UnderdeterminedError("source points do not affinely span 3-space")
    basis, qb = _integer_rows([diffs[i] for i in kept])
    images, qc = _integer_rows([vsub(pairs[i + 1][1], q0) for i in kept])
    b_cols = mat_transpose(basis)
    d = qc * mat_det(b_cols)
    n = mat_mul(mat_transpose(images), _adjugate(b_cols))
    if d < 0:
        d, qb = -d, -qb
    n = tuple(tuple(qb * e for e in row) for row in n)
    dd = d * d
    if mat_mul(mat_transpose(n), n) != ((dd, 0, 0), (0, dd, 0), (0, 0, dd)):
        return None
    m = tuple(tuple(_ratio(e, d) for e in row) for row in n)
    # t = q0 - M p0, with p0 = x / q and q0 = y / q
    (x, y), q = _integer_rows([p0, q0])
    mx = mat_vec(n, x)
    dq = d * q
    t = tuple(_ratio(d * yi - mi, dq) for yi, mi in zip(y, mx))
    iso = Isometry._of(m, t)
    for src, dst in pairs:
        if iso(src) != tuple(dst):
            return None
    return iso


# ---------------------------------------------------------------------------
# lattices


def _hnf(rows):
    """The reduced Hermite normal form of the integer row span: echelon
    rows, each pivot positive and each entry above a pivot reduced into
    [0, pivot).  It is unique for each lattice (Cohen, *A Course in
    Computational Algebraic Number Theory*, 1993, section 2.4)."""
    work = [list(r) for r in rows if any(r)]
    basis = []
    for c in range(3):
        pool = [r for r in work if r[c] != 0]
        rest = [r for r in work if r[c] == 0]
        if not pool:
            work = rest
            continue
        while len(pool) > 1:
            pool.sort(key=lambda r: abs(r[c]))
            piv = pool[0]
            new_pool = [piv]
            for r in pool[1:]:
                q = r[c] // piv[c]
                rr = [a - q * b for a, b in zip(r, piv)]
                if rr[c] != 0:
                    new_pool.append(rr)
                elif any(rr):
                    rest.append(rr)
            pool = new_pool
        row = pool[0] if pool[0][c] > 0 else [-a for a in pool[0]]
        for above in basis:
            q = above[c] // row[c]
            if q:
                above[:] = [a - q * b for a, b in zip(above, row)]
        basis.append(row)
        work = rest
    return [tuple(r) for r in basis]


def lattice_basis_from(vectors):
    """The reduced Hermite normal form of the lattice generated by rational
    ``vectors`` (rank <= 3): the same rows for every generating set of one
    lattice."""
    if not vectors:
        return []
    d = common_denominator(vectors)
    basis = _hnf([to_grid(v, d) for v in vectors])
    return [tuple(_ratio(c, d) for c in row) for row in basis]


class Lattice:
    """The lattice generated by any rational vectors, of rank 0, 2 or 3.

    ``basis`` is its reduced Hermite normal form (:func:`lattice_basis_from`),
    so two lattices are equal exactly when their bases are.  Coordinates
    are taken in the extended basis: the basis itself, plus
    ``b0 x b1`` for rank 2, whose coordinate (the transverse offset) stays
    absolute.  The inverse of the extended basis is held as an integer
    matrix ``A`` (``_adj``) over one positive common denominator ``D``
    (``_den``), so the coordinates of an integer point v are ``A v / D``.  A rational point is
    first scaled to integers by q, the lcm of its denominators, and divided
    by ``D q``.  Each of :meth:`coords`, :meth:`member`, :meth:`reduce_key`
    and :meth:`reduce_point` is therefore one integer matrix-vector product
    followed by ``divmod``, and returns the same values and types as exact
    rational coordinates: an int when integral, a Fraction otherwise.
    """

    __slots__ = ("basis", "name", "rank", "_adj", "_den")

    def __init__(self, vectors, name=None):
        basis = lattice_basis_from([tuple(scalar(c) for c in v) for v in vectors])
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rank", len(basis))
        ext = list(basis)
        if len(ext) == 2:
            ext.append(vcross(ext[0], ext[1]))
        elif len(ext) == 1:
            raise ValueError("rank-1 lattices are not supported")
        adj = den = None
        if ext:
            inv = mat_inverse(mat_transpose(tuple(ext)))
            den = common_denominator(inv)
            adj = tuple(to_grid(row, den) for row in inv)
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    def _image(self, v):
        """Integers (n0, n1, n2) and d > 0 with coordinates n_i / d."""
        x, y, z = v
        d = self._den
        if not (type(x) is int and type(y) is int and type(z) is int):
            (x, y, z), q = _integers(v)
            d *= q
        a0, a1, a2 = self._adj
        return (
            a0[0] * x + a0[1] * y + a0[2] * z,
            a1[0] * x + a1[1] * y + a1[2] * z,
            a2[0] * x + a2[1] * y + a2[2] * z,
        ), d

    def coords(self, v):
        """Coordinates of v in the (extended) basis; lattice axes first."""
        if self.rank == 0:
            return ()
        (n0, n1, n2), d = self._image(v)
        return (_ratio(n0, d), _ratio(n1, d), _ratio(n2, d))

    def member(self, v):
        if self.rank == 0:
            return v == ZERO3
        (n0, n1, n2), d = self._image(v)
        last = n2 % d if self.rank == 3 else n2
        return n0 % d == 0 and n1 % d == 0 and last == 0

    def reduce_key(self, p):
        """Translation-class key of point p modulo this lattice.

        The key is exact and identical for points differing by a lattice
        vector; for rank < 3 the transverse coordinates stay absolute.
        """
        if self.rank == 0:
            return p
        (n0, n1, n2), d = self._image(p)
        last = n2 % d if self.rank == 3 else n2
        return (_ratio(n0 % d, d), _ratio(n1 % d, d), _ratio(last, d))

    def reduce_point(self, p):
        """The canonical representative of p's class: p minus the floors of
        its lattice coordinates times the basis (the key mapped back to E3).
        """
        if self.rank == 0:
            return p
        n, d = self._image(p)
        x, y, z = p
        for ni, b in zip(n, self.basis):
            k = ni // d
            if k:
                x, y, z = x - k * b[0], y - k * b[1], z - k * b[2]
        if type(x) is int and type(y) is int and type(z) is int:
            return (x, y, z)
        return (scalar(x), scalar(y), scalar(z))

    def scaled(self, k):
        return Lattice([vscale(k, b) for b in self.basis], name=self.name)

    def sublattice_of(self, other):
        return all(other.member(b) for b in self.basis)

    def __repr__(self):
        return f"Lattice({[vec_str(b) for b in self.basis]}, name={self.name!r})"


def _dual_basis(lattice):
    """Vectors d_i in the lattice's span with d_i . b_j = [i == j]."""
    return [tuple(_ratio(a, lattice._den) for a in row)
            for row in lattice._adj[:lattice.rank]]


def lattice_intersection(lattices):
    """The vectors common to all the given lattices, as a lattice, or None
    when their ranks or spans differ.

    Rational lattices of one span are commensurable, and the dual of their
    intersection is the sum of their duals, so no coset is enumerated.
    """
    first = lattices[0]
    for lat in lattices[1:]:
        if lat.rank != first.rank or any(
            any(first.coords(b)[first.rank:]) for b in lat.basis
        ):
            return None
    if first.rank == 0:
        return first
    duals = [d for lat in lattices for d in _dual_basis(lat)]
    return Lattice(_dual_basis(Lattice(duals)))


def finite_lattice():
    """Rank-0 lattice: the trivial translation group of a finite structure."""
    return Lattice([], name="trivial")


def sublattices_of_index(lattice, k):
    """All sublattices of index k, each once, as Hermite normal forms.

    Row i of a form is d_i b_i plus c_ij b_j over the earlier basis vectors,
    with d_1 ... d_n = k and 0 <= c_ij < d_j.
    """
    b = lattice.basis
    forms = [((), ())]  # the rows so far and their diagonal entries
    for i in range(lattice.rank):
        grown = []
        for rows, diag in forms:
            for d in range(1, k + 1):
                if k % (math.prod(diag) * d):
                    continue
                for cs in itertools.product(*map(range, diag)):
                    row = vscale(d, b[i])
                    for c, bj in zip(cs, b):
                        row = vadd(row, vscale(c, bj))
                    grown.append((rows + (row,), diag + (d,)))
        forms = grown
    return [Lattice(rows) for rows, diag in forms if math.prod(diag) == k]


LAMBDA_1 = Lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)], name="cubic")
LAMBDA_2 = Lattice([(1, 1, 0), (-1, 1, 0), (0, -1, 1)], name="fcc")
LAMBDA_3 = Lattice([(2, 0, 0), (0, 2, 0), (1, 1, 1)], name="bcc")


# ---------------------------------------------------------------------------
# vertex-set predicates


class VertexSetSpec:
    """A vertex set of the catalog: the union of the cosets o + M of one
    lattice M, one offset o per coset, the offsets distinct modulo M."""

    def __init__(self, name, lattice, offsets=(ZERO3,)):
        self.name = name
        self.lattice = lattice
        self.offsets = tuple(offsets)

    def member(self, v):
        return any(self.lattice.member(vsub(v, o)) for o in self.offsets)

    def __repr__(self):
        return f"VertexSetSpec({self.name})"


LAMBDA_2_DOUBLED = Lattice([(2, 2, 0), (-2, 2, 0), (0, -2, 2)], name="2fcc")

# Z^3 minus the coset (0,0,1) + bcc
SET_V = VertexSetSpec("V", LAMBDA_3, [ZERO3, (1, 0, 0), (0, 1, 0)])
SET_W = VertexSetSpec("W", LAMBDA_2_DOUBLED, [ZERO3, (1, -1, 1)])
