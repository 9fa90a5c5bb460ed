"""The constructive presets built the long way, as test oracles.

Each builder walks the unit cubes touching the region and assembles the
faces one by one; K5(1,2) chooses its hexagons by a constraint search.
The library writes the same structures as face classes modulo their
lattices; the tests check that the two agree at every radius.
"""

import math
from collections import deque

from skelforge.complexes import FaceDescriptor, SkeletalComplex
from skelforge.geometry import vadd, vsub


def _cubes_touching(region):
    (x0, x1), (y0, y1), (z0, z1) = region.intervals()
    xs = range(math.floor(x0) - 1, math.ceil(x1) + 1)
    ys = range(math.floor(y0) - 1, math.ceil(y1) + 1)
    zs = range(math.floor(z0) - 1, math.ceil(z1) + 1)
    for i in xs:
        for j in ys:
            for k in zs:
                yield (i, j, k)


def cubic_2_skeleton(region):
    """All square faces of the unit cubical tessellation touching the region."""
    faces = []
    seen = set()
    for z in _cubes_touching(region):
        for ax1, ax2 in ((0, 1), (0, 2), (1, 2)):
            e1 = tuple(1 if i == ax1 else 0 for i in range(3))
            e2 = tuple(1 if i == ax2 else 0 for i in range(3))
            sq = (z, vadd(z, e1), vadd(z, vadd(e1, e2)), vadd(z, e2))
            if not any(region.contains(p) for p in sq):
                continue
            f = FaceDescriptor(sq)
            k = f.canonical_key()
            if k not in seen:
                seen.add(k)
                faces.append(f)
    return SkeletalComplex([], [], faces, region, name="cubic 2-skeleton")


def _cube_corners(z):
    return [vadd(z, d) for d in (
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
    )]


def _induced_hexagon(corners, excluded):
    """The 6-cycle induced on a cube's corners minus an antipodal pair."""
    kept = [p for p in corners if p not in excluded]
    start = min(kept)
    cyc = [start]
    prev = None
    while True:
        nbrs = [
            q for q in kept
            if q != prev and q != cyc[-1]
            and sum(1 for i in range(3) if q[i] != cyc[-1][i]) == 1
        ]
        nxt = min(nbrs)
        if nxt == start:
            break
        cyc.append(nxt)
        prev = cyc[-2]
    return FaceDescriptor(cyc)


def _cube_petrie_hexagons(z):
    corners = _cube_corners(z)
    out = []
    for d in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
        p = vadd(z, d)
        q = vadd(z, vsub((1, 1, 1), d))
        out.append(_induced_hexagon(corners, {p, q}))
    return out


def tetragon_complex(region):
    """Skew squares of tetrahedra inscribed in all cubes (K1(1,2)).

    The inscribed tetrahedron of each cube sits on the corners of even
    coordinate sum; mirror images in shared square faces then agree from
    cube to cube.  Each tetrahedron contributes its three Petrie tetragons.
    """
    faces = []
    seen = set()
    for z in _cubes_touching(region):
        tet = sorted(p for p in _cube_corners(z) if sum(p) % 2 == 0)
        p0, p1, p2, p3 = tet
        for cyc in ((p0, p1, p2, p3), (p0, p1, p3, p2), (p0, p2, p1, p3)):
            if not any(region.contains(p) for p in cyc):
                continue
            f = FaceDescriptor(cyc)
            k = f.canonical_key()
            if k not in seen:
                seen.add(k)
                faces.append(f)
    return SkeletalComplex([], [], faces, region, name="K1(1,2)")


def alternate_petrie_complex(region):
    """All Petrie hexagons of the checkerboard cubes (K4(1,2))."""
    faces = []
    seen = set()
    for z in _cubes_touching(region):
        if sum(z) % 2 != 0:
            continue
        for f in _cube_petrie_hexagons(z):
            if not any(region.contains(p) for p in f.vertices):
                continue
            k = f.canonical_key()
            if k not in seen:
                seen.add(k)
                faces.append(f)
    return SkeletalComplex([], [], faces, region, name="K4(1,2)")


def one_petrie_per_cube_complex(region):
    """One Petrie hexagon per cube, chosen by constraint search (K5(1,2)).

    Each cube's candidate faces are its four Petrie hexagons, identified by
    the antipodal corner pair they avoid.  Seeding the cube at the origin
    with the pair ((0,0,1), (1,1,0)) and propagating the requirement that
    every edge end up in zero or four chosen hexagons forces a unique
    assignment, which the complex validator then certifies.
    """
    cubes = [z for z in _cubes_touching(region)]
    cube_set = set(cubes)
    pairs = {
        z: [
            (vadd(z, d), vadd(z, vsub((1, 1, 1), d)))
            for d in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
        ]
        for z in cubes
    }

    def shared_edges(z, w):
        """Unit edges common to cubes z and w."""
        cz, cw = set(_cube_corners(z)), set(_cube_corners(w))
        both = sorted(cz & cw)
        out = []
        for i, p in enumerate(both):
            for q in both[i + 1:]:
                if sum(1 for k in range(3) if p[k] != q[k]) == 1:
                    out.append((p, q))
        return out

    def hexagon_uses(excl, edge):
        return edge[0] not in excl and edge[1] not in excl

    seed = (0, 0, 0)
    if seed not in cube_set:
        seed = min(cube_set)
    assignment = {seed: ((0, 0, 1), (1, 1, 0)) if seed == (0, 0, 0) else pairs[seed][0]}
    queue = deque([seed])
    # cubes sharing at least one edge: face neighbors and edge-diagonal ones
    neighbor_offsets = [
        (i, j, k)
        for i in (-1, 0, 1)
        for j in (-1, 0, 1)
        for k in (-1, 0, 1)
        if 1 <= abs(i) + abs(j) + abs(k) <= 2
    ]
    while queue:
        z = queue.popleft()
        for off in neighbor_offsets:
            w = vadd(z, off)
            if w not in cube_set or w in assignment:
                continue
            cands = []
            for cand in pairs[w]:
                ok = True
                for z2 in (vadd(w, o2) for o2 in neighbor_offsets):
                    if z2 not in assignment:
                        continue
                    for e in shared_edges(w, z2):
                        if hexagon_uses(set(cand), e) != hexagon_uses(
                            set(assignment[z2]), e
                        ):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    cands.append(cand)
            if len(cands) != 1:
                if not cands:
                    raise AssertionError(
                        f"no consistent Petrie hexagon for cube {w}"
                    )
                continue  # not yet forced; a later neighbor will pin it
            assignment[w] = cands[0]
            queue.append(w)
    unassigned = [z for z in cubes if z not in assignment]
    if unassigned:
        raise AssertionError(f"{len(unassigned)} cubes never forced")

    faces = []
    seen = set()
    for z in cubes:
        f = _induced_hexagon(_cube_corners(z), set(assignment[z]))
        if not any(region.contains(p) for p in f.vertices):
            continue
        k = f.canonical_key()
        if k not in seen:
            seen.add(k)
            faces.append(f)
    return SkeletalComplex([], [], faces, region, name="K5(1,2)")


ORACLES = {
    "skel2cubic": cubic_2_skeleton,
    "K1_12": tetragon_complex,
    "K4_12": alternate_petrie_complex,
    "K5_12": one_petrie_per_cube_complex,
}
