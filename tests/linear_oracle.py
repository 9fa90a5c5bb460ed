"""Fraction Gauss-Jordan elimination, as the library solved linear systems
before it read ranks from ``spanning_indices``: an oracle.

``matrix_rank`` row-reduces any list of rows, and ``fixed_space_dim``
solves (M - I) x = -t by the same reduction.
"""

from fractions import Fraction

from skelforge.geometry import scalar, vneg


def _gauss(rows):
    """Row-reduce a list of row tuples (any width); returns (rref, pivots)."""
    rows = [[scalar(e) for e in r] for r in rows]
    n = len(rows)
    width = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = Fraction(rows[r][c])
        rows[r] = [scalar(Fraction(e) / pv) for e in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [scalar(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows, pivots


def matrix_rank(rows):
    return len(_gauss(rows)[1])


def solve_linear(a_rows, b):
    """One solution of A x = b (free variables 0), or None if inconsistent."""
    rref, pivots = _gauss([tuple(row) + (bi,) for row, bi in zip(a_rows, b)])
    if any(all(e == 0 for e in row[:3]) and row[3] != 0 for row in rref):
        return None
    x = [0, 0, 0]
    for r, c in enumerate(pivots):
        if c < 3:
            x[c] = rref[r][3]
    return tuple(x)


def fixed_space_dim(g):
    a_rows = [tuple(g.m[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3)]
    if solve_linear(a_rows, vneg(g.t)) is None:
        return None
    return 3 - matrix_rank(a_rows)
