"""The polygon taxonomy as it was before it read the cycling isometry alone:
an oracle.

``classify_polygon_by_winding`` decides each kind a second time beside the
vertex-cycling isometry (the witness): a planar face is convex or star by
the winding number of its projection around the centroid, and a helical
face must also pass five checks on its projection along the period (equal
radii, chords, consecutive dots and crosses, and rises).  It returns
``(kind, p, k, witness)`` or raises ``NotAPolygonError`` (or
``UnderdeterminedError`` for a collinear finite face).  The library finds
the same answers from the witness alone.
"""

from fractions import Fraction

from skelforge.classify import _cycling_isometry
from skelforge.complexes import FaceDescriptor
from skelforge.errors import NotAPolygonError
from skelforge.geometry import (
    common_denominator, scalar, spanning_indices, to_grid, translation, vcross,
    vdot, vneg, vscale, vsub,
)


def winding_number(points2, center):
    w = 0
    n = len(points2)
    for i in range(n):
        px, py = points2[i][0] - center[0], points2[i][1] - center[1]
        qx, qy = points2[(i + 1) % n][0] - center[0], points2[(i + 1) % n][1] - center[1]
        cross = px * qy - py * qx
        if py <= 0 < qy and cross > 0:
            w += 1
        elif qy <= 0 < py and cross < 0:
            w -= 1
    return w


def _project_out(points, normal):
    drop = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != drop]
    return [(p[keep[0]], p[keep[1]]) for p in points]


def classify_polygon_by_winding(face):
    pts, t = face.vertices, face.period_vector
    if {type(c) for v in (pts if t is None else pts + (t,)) for c in v} <= {int}:
        return _classify(face)
    v0 = pts[0]
    moved = [vsub(p, v0) for p in pts]
    d = common_denominator(moved if t is None else moved + [t])
    grid = FaceDescriptor._of(tuple(to_grid(p, d) for p in moved),
                              None if t is None else to_grid(t, d))
    kind, p, k, witness = _classify(grid)
    if witness is not None:
        witness = translation(vneg(v0)).then(
            witness.dilated(Fraction(1, d))).then(translation(v0))
    return kind, p, k, witness


def _classify(face):
    pts = face.vertices
    n = len(pts)
    if face.period_vector is None:
        if n < 3:
            raise NotAPolygonError("fewer than 3 vertices")
        shifted = [pts[(i + 1) % n] for i in range(n)]
        witnesses = _cycling_isometry(pts, shifted, first=True)
        witness = witnesses[0] if witnesses else None
        diffs = [vsub(p, pts[0]) for p in pts[1:]]
        kept = spanning_indices(diffs)
        if len(kept) == 3:
            if witness is None:
                raise NotAPolygonError("skew cycle admits no cycling isometry")
            return "skew", n, None, witness
        if len(kept) < 2:
            raise NotAPolygonError("vertices are collinear")
        normal = vcross(diffs[kept[0]], diffs[kept[1]])
        centroid = tuple(
            scalar(Fraction(sum(Fraction(p[i]) for p in pts), n)) for i in range(3)
        )
        pts2 = _project_out(pts, normal)
        c2 = _project_out([centroid], normal)[0]
        w = abs(winding_number(pts2, c2))
        if witness is None:
            raise NotAPolygonError("planar cycle admits no cycling isometry")
        if w == 1:
            return "convex", n, None, witness
        if w >= 2:
            return "star", n, w, witness
        raise NotAPolygonError("degenerate winding")

    t = face.period_vector
    walk = [face.vertex(k) for k in range(max(2 * n, 4) + 1)]
    d0 = vsub(walk[1], walk[0])
    if all(vcross(vsub(p, walk[0]), d0) == (0, 0, 0) for p in walk):
        steps = {vsub(walk[k + 1], walk[k]) for k in range(len(walk) - 1)}
        if len(steps) != 1:
            raise NotAPolygonError("linear apeirogon with uneven steps")
        return "linear", None, None, translation(d0)
    shifted = walk[1:] + [face.vertex(len(walk))]
    witnesses = _cycling_isometry(walk, shifted, first=True)
    witness = witnesses[0] if witnesses else None
    even_anchor, odd_anchor = walk[0], walk[1]
    on_two_lines = all(
        vcross(vsub(walk[k], even_anchor if k % 2 == 0 else odd_anchor), t)
        == (0, 0, 0)
        for k in range(len(walk))
    )
    if on_two_lines:
        if witness is None:
            raise NotAPolygonError("zigzag admits no cycling isometry")
        return "zigzag", None, 2, witness
    t2 = vdot(t, t)

    def proj(x):
        lam = Fraction(vdot(x, t), t2)
        return vsub(x, vscale(lam, t))

    distinct = []
    for im in (proj(p) for p in pts):
        if im not in distinct:
            distinct.append(im)
    k = len(distinct)
    if k < 3 or n % k != 0:
        raise NotAPolygonError("projection along the period is irregular")
    seq = [proj(face.vertex(i)) for i in range(k + 2)]
    if seq[k] != seq[0] or seq[k + 1] != seq[1]:
        raise NotAPolygonError("projected walk does not cycle")
    center = tuple(
        scalar(Fraction(sum(Fraction(q[i]) for q in distinct), k)) for i in range(3)
    )
    radii = {vdot(vsub(q, center), vsub(q, center)) for q in distinct}
    chords = [vsub(seq[i + 1], seq[i]) for i in range(k)]
    chord_lens = {vdot(c, c) for c in chords}
    dots = {vdot(chords[i], chords[(i + 1) % k]) for i in range(k)}
    crosses = {vcross(chords[i], chords[(i + 1) % k]) for i in range(k)}
    rises = {vdot(vsub(face.vertex(i + 1), face.vertex(i)), t) for i in range(n)}
    if (
        len(radii) == 1
        and len(chord_lens) == 1
        and len(dots) == 1
        and len(crosses) == 1
        and len(rises) == 1
    ):
        if witness is None:
            raise NotAPolygonError("helix admits no cycling isometry")
        return "helical", None, k, witness
    raise NotAPolygonError("no regular polygon class fits exactly")
