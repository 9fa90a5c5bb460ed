"""Exact linear algebra: algebra laws, fixed spaces, lattices."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from skelforge.errors import NotIsometryError, ParseError, UnderdeterminedError
from skelforge.geometry import (
    LAMBDA_1,
    LAMBDA_2,
    LAMBDA_2_DOUBLED,
    LAMBDA_3,
    SET_V,
    SET_W,
    ZERO3,
    Isometry,
    Lattice,
    compose,
    fixed_space_dim,
    half_turn,
    identity,
    lattice_basis_from,
    lattice_intersection,
    mat_det,
    mat_inverse,
    mat_transpose,
    mat_vec,
    matrix_rank,
    order_or_translation,
    point_reflection,
    reflection_in_plane,
    scalar,
    scalar_str,
    solve_isometry,
    sublattices_of_index,
    translation,
    vadd,
    vcross,
    vscale,
    vsub,
    word,
)
import linear_oracle

# the S1, S2, T maps of the {6,6}-family polyhedra, used widely as fixtures
def s1_66(a, b):
    return Isometry(((0, -1, 0), (0, 0, 1), (1, 0, 0)), (0, -b, -a))


def s2_66():
    return Isometry(((0, 0, -1), (-1, 0, 0), (0, -1, 0)))


def t_66(a, b):
    return Isometry(((-1, 0, 0), (0, 1, 0), (0, 0, -1)), (a, 0, b))


def s1_helix(c, d):
    return Isometry(((0, 0, -1), (0, 1, 0), (1, 0, 0)), (d, c, -c))


def s2_helix():
    return Isometry(((0, 1, 0), (0, 0, 1), (1, 0, 0)))


class TestScalars:
    def test_parse_and_format(self):
        assert scalar("3/6") == Fraction(1, 2)
        assert scalar("-7") == -7
        assert isinstance(scalar(Fraction(4, 2)), int)
        assert scalar_str(Fraction(1, 2)) == "1/2"
        assert scalar_str(Fraction(8, 4)) == "2"
        assert scalar_str(-3) == "-3"

    def test_rejects_floats(self):
        with pytest.raises(ParseError):
            scalar(0.5)


class TestIsometryAlgebra:
    def test_compose_identity(self):
        g = s1_66(1, 0)
        assert compose(identity(), g) == g
        assert compose(g, identity()) == g

    def test_s2_squared_is_even_cycle(self):
        # squaring the order-6 rotatory reflection gives the plain 3-cycle
        g = compose(s2_66(), s2_66())
        assert g.m == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        assert g.t == (0, 0, 0)

    def test_t_is_involution(self):
        assert compose(t_66(1, 0), t_66(1, 0)).is_identity
        assert t_66(2, 1).is_involution()

    def test_t_equals_s1_then_s2(self):
        a, b = 2, 1
        assert s1_66(a, b).then(s2_66()) == t_66(a, b)

    def test_word_order_matters(self):
        s1, s2 = s1_66(1, 0), s2_66()
        assert word([s1, s2]) == s1.then(s2)
        assert word([s1, s2]) != word([s2, s1])

    def test_inverse(self):
        for g in (s1_66(3, 2), s2_66(), t_66(1, -1), translation((1, 2, 3))):
            assert compose(g, g.inverse()).is_identity
            assert compose(g.inverse(), g).is_identity

    def test_non_orthogonal_rejected(self):
        with pytest.raises(NotIsometryError):
            Isometry(((1, 1, 0), (0, 1, 0), (0, 0, 1)))


class TestOrderOrTranslation:
    def test_identity_is_order_one(self):
        assert order_or_translation(identity(), 4).kind == "order"
        assert order_or_translation(identity(), 4).n == 1

    def test_s2_has_order_six(self):
        res = order_or_translation(s2_66(), 10)
        assert (res.kind, res.n) == ("order", 6)

    def test_helix_screw_power_is_translation(self):
        res = order_or_translation(s1_helix(1, 0), 10)
        assert (res.kind, res.n, res.vector) == ("translation", 4, (0, 4, 0))

    def test_helix_screw_general_c(self):
        res = order_or_translation(s1_helix(Fraction(1, 2), 3), 10)
        assert (res.kind, res.n, res.vector) == ("translation", 4, (0, 2, 0))

    def test_cube_case_has_finite_order(self):
        res = order_or_translation(s1_helix(0, 1), 10)
        assert (res.kind, res.n) == ("order", 4)

    def test_exceeded(self):
        # rational rotation of infinite order: Pythagorean 3-4-5 angle
        g = Isometry((
            (Fraction(3, 5), Fraction(-4, 5), 0),
            (Fraction(4, 5), Fraction(3, 5), 0),
            (0, 0, 1),
        ))
        assert order_or_translation(g, 50).kind == "exceeded"

    def test_twisted_translation_matches_direct_iteration(self):
        g = s2_66()
        v = (1, Fraction(1, 2), -2)
        h = compose(g, translation(v))
        res = order_or_translation(h, 12)
        assert res.kind in ("order", "translation")
        # oracle: iterate h directly on a probe point
        p = (Fraction(1, 3), 5, -1)
        q = p
        for _ in range(res.n):
            q = h(q)
        expect = vadd(p, res.vector) if res.kind == "translation" else p
        assert q == expect


class TestFixedSpaces:
    def test_identity(self):
        assert fixed_space_dim(identity()) == 3

    def test_point_reflection(self):
        assert fixed_space_dim(point_reflection((0, 0, 0))) == 0
        assert fixed_space_dim(point_reflection((1, Fraction(1, 2), 0))) == 0

    def test_plane_reflection(self):
        r = reflection_in_plane((1, -1, 0), (Fraction(1, 2), Fraction(-1, 2), 0))
        assert fixed_space_dim(r) == 2
        assert r.is_involution()

    def test_half_turn(self):
        h = half_turn((0, 0, 0), (1, 1, 0))
        assert fixed_space_dim(h) == 1

    def test_screw_motion_has_empty_fixed_set(self):
        g = s1_helix(1, 0)
        assert fixed_space_dim(g) is None

    def test_pure_translation_empty(self):
        assert fixed_space_dim(translation((1, 0, 0))) is None

    def test_conjugation_invariance(self):
        gs = [point_reflection((1, 0, 0)), half_turn((0, 1, 0), (0, 0, 1)),
              reflection_in_plane((0, 0, 1), (0, 0, 2)), s1_helix(1, 2), s2_66()]
        hs = [s1_66(1, 0), t_66(2, 1), translation((1, 1, Fraction(1, 3)))]
        for g in gs:
            for h in hs:
                conj = word([h.inverse(), g, h])
                assert fixed_space_dim(conj) == fixed_space_dim(g)


class TestSolveIsometry:
    SPAN = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_identity_from_fixed_points(self):
        iso = solve_isometry([(p, p) for p in self.SPAN])
        assert iso is not None and iso.is_identity

    def test_recovers_known_map(self):
        g = s1_66(2, 1)
        iso = solve_isometry([(p, g(p)) for p in self.SPAN])
        assert iso == g

    def test_cube_flag_swap_is_plane_reflection(self):
        # cube (+-1)^3: swapping two 2-adjacent flags fixes vertex and edge
        # and exchanges the faces x=1 and y=1, i.e. reflects in x=y
        pairs = [
            ((1, 1, 1), (1, 1, 1)),
            ((1, 1, -1), (1, 1, -1)),
            ((1, -1, 1), (-1, 1, 1)),
            ((-1, -1, -1), (-1, -1, -1)),
        ]
        iso = solve_isometry(pairs)
        assert iso is not None
        assert fixed_space_dim(iso) == 2
        assert iso == reflection_in_plane((1, -1, 0), (0, 0, 0))

    def test_planar_sources_are_underdetermined(self):
        # all four points of a cube-face flag walk lie in one plane, so the
        # walk alone cannot separate a map from its mirror through that plane
        flat = [(1, 1, 1), (1, 1, -1), (1, -1, -1), (1, -1, 1)]
        with pytest.raises(UnderdeterminedError):
            solve_isometry([(p, p) for p in flat])

    def test_distance_mismatch_returns_none(self):
        pairs = [
            ((0, 0, 0), (0, 0, 0)),
            ((1, 0, 0), (2, 0, 0)),
            ((0, 1, 0), (0, 1, 0)),
            ((0, 0, 1), (0, 0, 1)),
        ]
        assert solve_isometry(pairs) is None

    def test_inconsistent_extra_pair_returns_none(self):
        g = s2_66()
        pairs = [(p, g(p)) for p in self.SPAN]
        pairs.append(((2, 2, 2), vadd(g((2, 2, 2)), (1, 0, 0))))
        assert solve_isometry(pairs) is None

    def test_underdetermined(self):
        flat = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
        with pytest.raises(UnderdeterminedError):
            solve_isometry([(p, p) for p in flat])


class TestLattices:
    def test_membership_examples(self):
        assert LAMBDA_2.member((1, 1, 0))
        assert not LAMBDA_2.member((1, 0, 0))
        assert LAMBDA_3.member((1, 1, 1))
        assert LAMBDA_3.member((2, 0, 0))
        assert not LAMBDA_3.member((1, 1, 0))
        assert not SET_V.member((0, 0, 1))
        assert SET_V.member((0, 0, 0))
        assert SET_V.member((1, 0, 0))
        assert SET_W.member((0, 0, 0))
        assert SET_W.member((1, -1, 1))
        assert SET_W.member((-1, 1, 1))
        assert not SET_W.member((1, 1, 1))

    def test_vertex_sets_agree_with_their_definitions(self):
        # oracle: V is Z^3 minus the coset (0,0,1) + bcc, W the union of the
        # cosets 0 and (1,-1,1) of 2fcc (Pellicer & Schulte 2010)
        def in_v(p):
            return LAMBDA_1.member(p) and not LAMBDA_3.member(vsub(p, (0, 0, 1)))

        def in_w(p):
            return any(LAMBDA_2_DOUBLED.member(vsub(p, o)) for o in (ZERO3, (1, -1, 1)))

        halves = [scalar(Fraction(k, 2)) for k in range(-6, 7)]
        for p in itertools.product(halves, repeat=3):
            assert SET_V.member(p) == in_v(p), p
            assert SET_W.member(p) == in_w(p), p

    def test_membership_agrees_with_bruteforce(self):
        # oracle: enumerate small integer combinations of the basis
        for lat in (LAMBDA_2, LAMBDA_3):
            span = set()
            for c1, c2, c3 in itertools.product(range(-15, 16), repeat=3):
                p = vadd(
                    vadd(
                        tuple(c1 * x for x in lat.basis[0]),
                        tuple(c2 * x for x in lat.basis[1]),
                    ),
                    tuple(c3 * x for x in lat.basis[2]),
                )
                if max(abs(x) for x in p) <= 6:
                    span.add(p)
            for p in itertools.product(range(-6, 7), repeat=3):
                assert lat.member(p) == (p in span), (lat.name, p)

    def test_even_coordinate_sum_characterization(self):
        for p in itertools.product(range(-3, 4), repeat=3):
            assert LAMBDA_2.member(p) == (sum(p) % 2 == 0)

    def test_reduce_key_mod_lattice(self):
        lat = LAMBDA_2.scaled(2)
        p = (3, 5, -2)
        for b in lat.basis:
            assert lat.reduce_key(vadd(p, b)) == lat.reduce_key(p)
        assert lat.reduce_key((1, 0, 0)) != lat.reduce_key((0, 1, 0))

    def test_rank2_reduce_keeps_transverse_offset(self):
        flat = Lattice([(1, 1, 0), (1, -1, 0)])
        assert flat.reduce_key((0, 0, 1)) != flat.reduce_key((0, 0, -1))
        assert flat.reduce_key((2, 0, 1)) == flat.reduce_key((0, 0, 1))

    def test_intersection_membership(self):
        # fcc meets bcc in 2Z^3, and (1/2)Z x Z meets Z x 2Z in Z x 2Z
        both = lattice_intersection([LAMBDA_2, LAMBDA_3])
        for p in itertools.product(range(-2, 3), repeat=3):
            assert both.member(p) == (LAMBDA_2.member(p) and LAMBDA_3.member(p))
        half = Lattice([(Fraction(1, 2), 0, 0), (0, 1, 0)])
        thin = lattice_intersection([half, Lattice([(1, 0, 0), (0, 2, 0)])])
        assert thin.rank == 2
        for p in itertools.product(range(-3, 4), repeat=2):
            assert thin.member((*p, 0)) == (p[1] % 2 == 0)
        assert not thin.member((0, 0, 2))

    def test_intersection_of_different_spans_is_none(self):
        flat = Lattice([(1, 0, 0), (0, 1, 0)])
        assert lattice_intersection([flat, Lattice([(1, 0, 0), (0, 0, 1)])]) is None
        assert lattice_intersection([flat, LAMBDA_2]) is None

    @pytest.mark.parametrize("lat,counts", [
        (Lattice([(1, 1, 0), (1, -1, 0)]), [1, 3, 4, 7, 6, 12]),
        (LAMBDA_2, [1, 7, 13, 35, 31, 91]),
    ], ids=["rank2", "rank3"])
    def test_sublattices_of_index_are_all_there_once(self, lat, counts):
        # Z^2 has sigma(k) sublattices of index k, Z^3 the sum of d sigma(d)
        # over the divisors d of k
        for k, count in enumerate(counts, start=1):
            subs = sublattices_of_index(lat, k)
            assert len(subs) == count, k
            for i, a in enumerate(subs):
                rows = [lat.coords(b) for b in a.basis]
                rows += [(0, 0, 1)] * (3 - lat.rank)
                assert abs(mat_det(rows)) == k
                assert not any(a.sublattice_of(b) for b in subs[i + 1:]), k

    def test_basis_from_generators(self):
        basis = lattice_basis_from([(2, 0, 0), (0, 2, 0), (1, 1, 1), (3, 1, 1)])
        lat = Lattice(basis)
        assert lat.rank == 3
        for v in [(2, 0, 0), (0, 2, 0), (1, 1, 1), (3, 1, 1), (1, 1, -1)]:
            assert lat.member(v)
        assert not lat.member((1, 0, 0))
        assert not lat.member((1, 1, 0))

    def test_basis_from_rational_generators(self):
        basis = lattice_basis_from([(Fraction(1, 2), 0, 0), (0, 1, 0)])
        lat = Lattice(basis)
        assert lat.member((Fraction(3, 2), 4, 0))
        assert not lat.member((Fraction(1, 4), 0, 0))


SIGNED_PERMS = [
    tuple(tuple(s[i] if j == p[i] else 0 for j in range(3)) for i in range(3))
    for p in itertools.permutations(range(3))
    for s in itertools.product((1, -1), repeat=3)
]

small_rat = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).map(scalar)
vec3 = st.tuples(small_rat, small_rat, small_rat)
iso_strategy = st.builds(
    lambda m, t: Isometry(m, t, check=False),
    st.sampled_from(SIGNED_PERMS),
    vec3,
)


@settings(max_examples=80, deadline=None)
@given(iso_strategy, iso_strategy, iso_strategy)
def test_compose_associative(g, h, k):
    assert compose(compose(g, h), k) == compose(g, compose(h, k))


@settings(max_examples=80, deadline=None)
@given(iso_strategy)
def test_inverse_roundtrip(g):
    assert compose(g, g.inverse()).is_identity
    assert g.det() in (1, -1)


@settings(max_examples=40, deadline=None)
@given(iso_strategy, vec3, vec3)
def test_application_is_affine_isometry(g, p, q):
    dp, dq = vsub(p, q), vsub(g(p), g(q))
    assert sum(x * x for x in dp) == sum(x * x for x in dq)


def test_rank_helpers():
    assert matrix_rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert matrix_rank([]) == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(vec3, max_size=3), st.lists(st.tuples(small_rat, small_rat), max_size=3))
def test_matrix_rank_matches_gauss_oracle(drawn, mixes):
    # the drawn vectors, then combinations of the first two of them
    rows = list(drawn)
    if len(drawn) >= 2:
        rows += [vadd(vscale(a, drawn[0]), vscale(b, drawn[1])) for a, b in mixes]
    assert matrix_rank(rows) == linear_oracle.matrix_rank(rows)


# -- the integer lattice kernel against the exact rational formula ----------


def oracle_coords(basis, v):
    """Coordinates through the Fraction inverse of the extended basis."""
    ext = list(basis)
    if len(ext) == 2:
        ext.append(vcross(ext[0], ext[1]))
    if not ext:
        return ()
    inv = mat_inverse(mat_transpose(tuple(ext)))
    return tuple(scalar(c) for c in mat_vec(inv, v))


def oracle_member(basis, v):
    if not basis:
        return v == (0, 0, 0)
    c = oracle_coords(basis, v)
    return all(
        Fraction(c[i]).denominator == 1 if i < len(basis) else c[i] == 0
        for i in range(3)
    )


def oracle_reduce_key(basis, p):
    if not basis:
        return p
    c = oracle_coords(basis, p)
    return tuple(
        scalar(c[i] - math.floor(c[i])) if i < len(basis) else c[i]
        for i in range(3)
    )


def oracle_reduce_point(basis, p):
    if not basis:
        return p
    key = oracle_reduce_key(basis, p)
    ext = list(basis)
    if len(ext) == 2:
        ext.append(vcross(ext[0], ext[1]))
    return tuple(scalar(sum(k * b[i] for k, b in zip(key, ext))) for i in range(3))


def _types(x):
    return [type(c) for c in x] if isinstance(x, tuple) else type(x)


@st.composite
def lattices(draw):
    rank = draw(st.sampled_from((0, 2, 3)))
    entry = small_rat if draw(st.booleans()) else st.integers(-3, 3)
    basis = draw(st.lists(st.tuples(entry, entry, entry), min_size=rank, max_size=rank))
    assume(matrix_rank(basis) == rank)
    return Lattice(basis)


points = st.one_of(st.tuples(*[st.integers(-9, 9)] * 3), vec3)


@st.composite
def full_bases(draw):
    """Independent integer or rational vectors, two or three of them."""
    rank = draw(st.sampled_from((2, 3)))
    entry = small_rat if draw(st.booleans()) else st.integers(-3, 3)
    basis = draw(st.lists(st.tuples(entry, entry, entry), min_size=rank, max_size=rank))
    assume(matrix_rank(basis) == rank)
    return basis


def _is_reduced_echelon(rows):
    pivots = [next(c for c in range(3) if row[c]) for row in rows]
    return pivots == sorted(set(pivots)) and all(
        row[c] > 0 and all(0 <= above[c] < row[c] for above in rows[:i])
        for i, (row, c) in enumerate(zip(rows, pivots))
    )


@settings(max_examples=150, deadline=None)
@given(full_bases(),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=6),
       st.data())
def test_basis_is_the_reduced_hermite_form_of_the_lattice(basis, moves, data):
    # U B for a unimodular U, made of row additions, negations and a
    # permutation, spans the lattice B spans, and gives it the same basis
    rows = list(basis)
    for i, j, k in moves:
        i, j = i % len(rows), j % len(rows)
        rows[i] = vscale(-1, rows[i]) if i == j else vadd(rows[i], vscale(k, rows[j]))
    rows = data.draw(st.permutations(rows))
    lat = Lattice(basis)
    assert Lattice(rows).basis == lat.basis
    assert _is_reduced_echelon(lat.basis)
    # the same lattice: it holds B, and its cell has B's volume
    assert all(lat.member(b) for b in basis)
    if len(basis) == 3:
        assert abs(mat_det(lat.basis)) == abs(mat_det(basis))
    else:
        assert vcross(*lat.basis) in (vcross(*basis), vscale(-1, vcross(*basis)))
    # nor does the generating set matter: duplicates and integer
    # combinations of the generators, in any order
    extra = [vadd(vscale(k, rows[i % len(rows)]), rows[j % len(rows)]) for i, j, k in moves]
    gens = data.draw(st.permutations(rows + rows[:1] + extra))
    assert lattice_basis_from(gens) == list(lat.basis)


def _on_grid(vectors):
    return all(type(c) is int for v in vectors for c in v)


@settings(max_examples=400, deadline=None)
@given(lattices(), points)
def test_lattice_kernel_matches_fraction_oracle(lat, p):
    for method, oracle in (
        ("coords", oracle_coords),
        ("member", oracle_member),
        ("reduce_key", oracle_reduce_key),
        ("reduce_point", oracle_reduce_point),
    ):
        got, want = getattr(lat, method)(p), oracle(lat.basis, p)
        if method == "reduce_key" and lat.rank and _on_grid(lat.basis + (p,)):
            # an integral lattice keys an int point by its integer residues:
            # the oracle's key times the denominator D of the lattice's inverse
            want = tuple(scalar(lat._den * c) for c in want)
            assert _types(want) == [int] * 3, (lat, p)
        assert got == want and _types(got) == _types(want), (method, lat, p)
    for b in lat.basis:
        assert lat.reduce_key(vadd(p, b)) == lat.reduce_key(p)


@settings(max_examples=300, deadline=None)
@given(full_bases().filter(_on_grid).map(Lattice), st.tuples(*[st.integers(-9, 9)] * 3),
       st.tuples(*[st.integers(-9, 9)] * 3), vec3)
def test_integral_lattice_keys_int_points_by_class(lat, p, q, r):
    # two int points share a key exactly when they differ by a lattice vector
    assert (lat.reduce_key(p) == lat.reduce_key(q)) == lat.member(vsub(p, q))
    # and no point off the integer grid shares a key with one on it
    if not _on_grid([r]):
        assert lat.reduce_key(r) != lat.reduce_key(p)
        assert any(type(c) is Fraction for c in lat.reduce_key(r))


# -- the integer isometry kernel against the plain Fraction formulas --------


def _fmat_vec(m, v):
    return tuple(sum(Fraction(m[i][j]) * v[j] for j in range(3)) for i in range(3))


def _fmat_mul(a, b):
    return tuple(
        tuple(sum(Fraction(a[i][k]) * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _fmat_inverse(m):
    """Gauss-Jordan inverse in Fractions."""
    rows = [[Fraction(e) for e in m[i]] + [Fraction(int(i == j)) for j in range(3)]
            for i in range(3)]
    for c in range(3):
        piv = next(i for i in range(c, 3) if rows[i][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [e / rows[c][c] for e in rows[c]]
        for i in range(3):
            if i != c:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[c])]
    return tuple(tuple(row[3:]) for row in rows)


def _normalized(v):
    return tuple(scalar(c) for c in v)


def oracle_apply(g, p):
    return _normalized(vadd(_fmat_vec(g.m, p), g.t))


def oracle_apply_vec(g, v):
    return _normalized(_fmat_vec(g.m, v))


def oracle_then(g, h):
    """g first, then h: the composition as the plain formula gives it."""
    return (tuple(_normalized(r) for r in _fmat_mul(h.m, g.m)),
            _normalized(vadd(_fmat_vec(h.m, g.t), h.t)))


def oracle_solve(pairs):
    """The isometry through the Fraction inverse of a greedily picked basis
    of source differences, as None, a (matrix, translation) pair or the
    UnderdeterminedError class."""
    p0, q0 = pairs[0]
    basis, images = [], []
    for p, q in pairs[1:]:
        dp = vsub(p, p0)
        if matrix_rank(basis + [dp]) > len(basis):
            basis.append(dp)
            images.append(vsub(q, q0))
        if len(basis) == 3:
            break
    if len(pairs) < 4 or len(basis) < 3:
        return UnderdeterminedError
    m = _fmat_mul(mat_transpose(tuple(images)),
                  _fmat_inverse(mat_transpose(tuple(basis))))
    if _fmat_mul(mat_transpose(m), m) != ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        return None
    t = vsub(q0, _fmat_vec(m, p0))
    for p, q in pairs:
        if vadd(_fmat_vec(m, p), t) != tuple(q):
            return None
    return tuple(_normalized(r) for r in m), _normalized(t)


def _int_when_integral(x):
    return all(
        (type(c) is int) == (Fraction(c).denominator == 1) for c in x
    )


@st.composite
def cayley_isometries(draw):
    """(I - S)(I + S)^-1 for a rational skew S, a rotation, times +-1 and a
    signed permutation, with a translation that is rational or integral."""
    a, b, c = draw(st.tuples(*[st.fractions(-2, 2, max_denominator=2)] * 3))
    s = ((0, -c, b), (c, 0, -a), (-b, a, 0))
    plus = tuple(tuple(int(i == j) + s[i][j] for j in range(3)) for i in range(3))
    minus = tuple(tuple(int(i == j) - s[i][j] for j in range(3)) for i in range(3))
    q = _fmat_mul(minus, _fmat_inverse(plus))
    q = _fmat_mul(draw(st.sampled_from(SIGNED_PERMS)), q)
    t = draw(st.one_of(vec3, st.tuples(*[st.integers(-5, 5)] * 3)))
    return Isometry(q, t)


kernel_points = st.one_of(st.tuples(*[st.integers(-9, 9)] * 3), vec3)


@settings(max_examples=150, deadline=None)
@given(cayley_isometries(), cayley_isometries(), kernel_points)
def test_isometry_kernel_matches_fraction_oracle(g, h, p):
    for got, want in ((g(p), oracle_apply(g, p)), (g.apply_vec(p), oracle_apply_vec(g, p))):
        assert got == want and _int_when_integral(got), (g, p)
    m, t = oracle_then(g, h)
    gh = g.then(h)
    assert gh.m == m and gh.t == t, (g, h)
    assert all(_int_when_integral(row) for row in gh.m + (gh.t,))
    assert gh(p) == oracle_apply(gh, p) == h(g(p))
    inv = g.inverse()
    assert inv.then(g).is_identity and g.then(inv).is_identity
    assert all(_int_when_integral(row) for row in inv.m + (inv.t,))


@settings(max_examples=200, deadline=None)
@given(st.one_of(cayley_isometries(), iso_strategy), st.booleans(), vec3)
def test_fixed_space_dim_matches_gauss_oracle(g, fixing, c):
    # a drawn translation seldom leaves a fixed point: give g the fixed
    # point c instead, which keeps its linear part
    if fixing:
        g = Isometry(g.m, vsub(c, mat_vec(g.m, c)), check=False)
    assert fixed_space_dim(g) == linear_oracle.fixed_space_dim(g)
    if fixing:
        assert fixed_space_dim(g) is not None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SIGNED_PERMS), st.tuples(*[st.integers(-5, 5)] * 3),
       st.tuples(*[st.integers(-9, 9)] * 3))
def test_integer_isometries_give_ints(m, t, p):
    g = Isometry(m, t)
    for got in (g(p), g.apply_vec(p), g.then(g).m[0], g.then(g).t, g.inverse().t):
        assert all(type(c) is int for c in got)
    assert g(p) == oracle_apply(g, p)


@settings(max_examples=150, deadline=None)
@given(cayley_isometries(), st.lists(kernel_points, min_size=4, max_size=6),
       st.sampled_from(("image", "image", "moved", "random")), vec3)
def test_solve_isometry_matches_fraction_oracle(g, sources, target, extra):
    if target == "image":
        pairs = [(p, g(p)) for p in sources]
    elif target == "moved":
        pairs = [(p, g(p)) for p in sources[:-1]] + [(sources[-1], extra)]
    else:
        pairs = [(p, vadd(p, extra)) if i % 2 else (p, extra)
                 for i, p in enumerate(sources)]
    want = oracle_solve(pairs)
    if want is UnderdeterminedError:
        with pytest.raises(UnderdeterminedError):
            solve_isometry(pairs)
        return
    got = solve_isometry(pairs)
    if want is None:
        assert got is None, pairs
    else:
        assert (got.m, got.t) == want, pairs
        assert all(_int_when_integral(row) for row in got.m + (got.t,))
    if target == "image":
        assert got == g
