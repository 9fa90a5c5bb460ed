"""The built-in catalog of structures.

Generator-driven presets return a :class:`GeneratorSet` for the orbit
engine; constructive presets (the tessellation 2-skeleton and the K
complexes) are assembled face by face and declare their translation
lattice.  ``build`` is the one-stop entry:
it parses a preset name, runs whichever construction applies, and returns
the patch over the requested region.

Triangle and hexagon tessellations live in the plane x+y+z = 0, where both
have rational vertices (an equilateral triangle has none in a coordinate
plane); the square tessellation lives in z = 0.
"""

from __future__ import annotations

import math
import re
from collections import deque
from fractions import Fraction

from .complexes import FaceDescriptor, Region, SkeletalComplex
from .errors import AssignmentSearchError, InvalidParametersError, ParseError
from .geometry import (
    LAMBDA_1,
    LAMBDA_2,
    LAMBDA_3,
    Isometry,
    reflection_in_plane,
    scalar,
    vadd,
    vscale,
    vsub,
)
from .orbit import GeneratorSet, wythoff_patch

DEFAULT_REGION = Region((0, 0, 0), 4)


# ---------------------------------------------------------------------------
# generator-driven presets


def finite_faced_chiral(a, b):
    """The {6,6}-family generators S1, S2 with integer parameters a, b.

    Parameters must not both be zero and must be coprime when both nonzero;
    the polyhedron is chiral unless b = +-a.
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise InvalidParametersError("a, b must be integers")
    if a == 0 and b == 0:
        raise InvalidParametersError("a, b must not both be zero")
    if a != 0 and b != 0 and math.gcd(abs(a), abs(b)) != 1:
        raise InvalidParametersError("a, b must be coprime when both nonzero")
    s1 = Isometry(((0, -1, 0), (0, 0, 1), (1, 0, 0)), (0, -b, -a))
    s2 = Isometry(((0, 0, -1), (-1, 0, 0), (0, -1, 0)))
    return GeneratorSet(
        {"S1": s1, "S2": s2},
        base_vertex=(0, 0, 0),
        base_edge_other=(a, 0, b),
        face_word="S1",
        name=f"P({a},{b})",
    )


def helix_faced_chiral(c, d):
    """The square-helix family generators with rational parameters c, d.

    c = 0 degenerates to a cube; c != 0 gives helical faces over squares.
    """
    c, d = scalar(c), scalar(d)
    if c == 0 and d == 0:
        raise InvalidParametersError("c, d must not both be zero")
    s1 = Isometry(((0, 0, -1), (0, 1, 0), (1, 0, 0)), (d, c, -c))
    s2 = Isometry(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    return GeneratorSet(
        {"S1": s1, "S2": s2},
        base_vertex=(0, 0, 0),
        base_edge_other=(c, -c, d),
        face_word="S1",
        name=f"P2({c},{d})",
    )


def chiral_t_map(gen):
    """The edge-swapping symmetry T = S1 S2 of a chiral generator set."""
    return gen.generators["S1"].then(gen.generators["S2"])


def square_tessellation():
    r0 = reflection_in_plane((1, 0, 0), (Fraction(1, 2), 0, 0))
    r1 = reflection_in_plane((1, -1, 0), (0, 0, 0))
    r2 = reflection_in_plane((0, 1, 0), (0, 0, 0))
    return GeneratorSet(
        {"R0": r0, "R1": r1, "R2": r2},
        base_vertex=(0, 0, 0),
        base_edge_other=(1, 0, 0),
        face_word="R0*R1",
        name="{4,4}",
    )


def triangle_tessellation():
    # A2 lattice in the plane x+y+z=0; base triangle o, (1,-1,0), (1,0,-1)
    r0 = reflection_in_plane((1, -1, 0), (Fraction(1, 2), Fraction(-1, 2), 0))
    r1 = reflection_in_plane((0, -1, 1), (0, 0, 0))
    r2 = reflection_in_plane((-1, -1, 2), (0, 0, 0))
    return GeneratorSet(
        {"R0": r0, "R1": r1, "R2": r2},
        base_vertex=(0, 0, 0),
        base_edge_other=(1, -1, 0),
        face_word="R0*R1",
        name="{3,6}",
    )


def _hex_project(x):
    s = Fraction(x[0] + x[1] + x[2], 3)
    return tuple(scalar(c - s) for c in x)


def hexagon_tessellation():
    # honeycomb: coordinate-sum 1 and 2 points of Z^3 projected along (1,1,1)
    v0 = _hex_project((1, 0, 0))
    u = _hex_project((1, 1, 0))
    r0 = reflection_in_plane(vsub(u, v0), vscale(Fraction(1, 2), vadd(v0, u)))
    r1 = reflection_in_plane((0, 1, -1), (0, 0, 0))
    r2 = reflection_in_plane((1, 0, -1), v0)
    return GeneratorSet(
        {"R0": r0, "R1": r1, "R2": r2},
        base_vertex=v0,
        base_edge_other=u,
        face_word="R0*R1",
        name="{6,3}",
    )


def platonic(kind):
    if kind == "cube":
        gens = {
            "R0": reflection_in_plane((0, 0, 1), (0, 0, 0)),
            "R1": reflection_in_plane((0, 1, -1), (0, 0, 0)),
            "R2": reflection_in_plane((1, -1, 0), (0, 0, 0)),
        }
        return GeneratorSet(gens, (1, 1, 1), (1, 1, -1), "R0*R1", name="{4,3}")
    if kind == "tet":
        gens = {
            "R0": reflection_in_plane((0, 1, 1), (0, 0, 0)),
            "R1": reflection_in_plane((1, -1, 0), (0, 0, 0)),
            "R2": reflection_in_plane((0, 1, -1), (0, 0, 0)),
        }
        return GeneratorSet(gens, (1, 1, 1), (1, -1, -1), "R0*R1", name="{3,3}")
    if kind == "oct":
        gens = {
            "R0": reflection_in_plane((1, -1, 0), (0, 0, 0)),
            "R1": reflection_in_plane((0, 1, -1), (0, 0, 0)),
            "R2": reflection_in_plane((0, 0, 1), (0, 0, 0)),
        }
        return GeneratorSet(gens, (1, 0, 0), (0, 1, 0), "R0*R1", name="{3,4}")
    raise InvalidParametersError(f"unknown platonic solid {kind!r}")


# ---------------------------------------------------------------------------
# constructive presets


def _cubes_touching(region):
    (x0, x1), (y0, y1), (z0, z1) = region.intervals()
    xs = range(math.floor(x0) - 1, math.ceil(x1) + 1)
    ys = range(math.floor(y0) - 1, math.ceil(y1) + 1)
    zs = range(math.floor(z0) - 1, math.ceil(z1) + 1)
    for i in xs:
        for j in ys:
            for k in zs:
                yield (i, j, k)


def cubic_2_skeleton(region=DEFAULT_REGION):
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
    return SkeletalComplex([], [], faces, region, name="cubic 2-skeleton",
                           lattice=LAMBDA_1)


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


def tetragon_complex(region=DEFAULT_REGION):
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
    return SkeletalComplex([], [], faces, region, name="K1(1,2)",
                           lattice=LAMBDA_2)


def alternate_petrie_complex(region=DEFAULT_REGION):
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
    return SkeletalComplex([], [], faces, region, name="K4(1,2)",
                           lattice=LAMBDA_2)


def one_petrie_per_cube_complex(region=DEFAULT_REGION):
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
                    raise AssignmentSearchError(
                        f"no consistent Petrie hexagon for cube {w}"
                    )
                continue  # not yet forced; a later neighbor will pin it
            assignment[w] = cands[0]
            queue.append(w)
    unassigned = [z for z in cubes if z not in assignment]
    if unassigned:
        raise AssignmentSearchError(f"{len(unassigned)} cubes never forced")

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
    return SkeletalComplex([], [], faces, region, name="K5(1,2)",
                           lattice=LAMBDA_3)


def build_K_complex(which, region=DEFAULT_REGION):
    builders = {
        "K1_12": tetragon_complex,
        "K4_12": alternate_petrie_complex,
        "K5_12": one_petrie_per_cube_complex,
    }
    if which not in builders:
        raise InvalidParametersError(f"unknown K complex {which!r}")
    return builders[which](region)


# ---------------------------------------------------------------------------
# name parsing and the build entry point

GENERATOR_PRESETS = {
    "sq44": square_tessellation,
    "tri36": triangle_tessellation,
    "hex63": hexagon_tessellation,
    "tet": lambda: platonic("tet"),
    "cube": lambda: platonic("cube"),
    "oct": lambda: platonic("oct"),
}

CONSTRUCTIVE_PRESETS = {
    "skel2cubic": cubic_2_skeleton,
    "K1_12": tetragon_complex,
    "K4_12": alternate_petrie_complex,
    "K5_12": one_petrie_per_cube_complex,
}

# aliases from the naming of the regular degenerations
ALIASES = {
    "{6,6|3}": "P:1,1",
    "{6,6}4": "P:1,-1",
    "{inf,3}b": "P2:1,0",
}


def instantiate(name, region=None):
    """Parse a preset name into a GeneratorSet or a built complex.

    Generator presets (``P:a,b``, ``P2:c,d``, tessellations, Platonic
    solids) return the GeneratorSet; constructive presets need a region and
    return the built patch.  Derived names (petrie/blend wrappers) are
    handled by :func:`build`.
    """
    name = ALIASES.get(name, name)
    m = re.fullmatch(r"P:(-?\d+),(-?\d+)", name)
    if m:
        return finite_faced_chiral(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"P2:(-?[\d/]+),(-?[\d/]+)", name)
    if m:
        return helix_faced_chiral(scalar(m.group(1)), scalar(m.group(2)))
    if name in GENERATOR_PRESETS:
        return GENERATOR_PRESETS[name]()
    if name in CONSTRUCTIVE_PRESETS:
        return CONSTRUCTIVE_PRESETS[name](region or DEFAULT_REGION)
    raise ParseError(f"unknown preset {name!r}")


def build(name, region=None):
    """Build the patch for any preset name, including derived wrappers."""
    from . import ops  # cycle: ops builds on patches

    region = region or DEFAULT_REGION
    m = re.fullmatch(r"petrie\((.+)\)", name)
    if m:
        return ops.petrie_dual(build(m.group(1), region))
    m = re.fullmatch(r"blend\((.+),(seg|apeiro):(-?[\d/]+)\)", name)
    if m:
        inner = build(m.group(1), region)
        param = scalar(m.group(3))
        if m.group(2) == "seg":
            return ops.blend_with_segment(inner, param)
        return ops.blend_with_apeirogon(inner, param)
    made = instantiate(name, region)
    if isinstance(made, SkeletalComplex):
        return made
    return wythoff_patch(made, region, name=made.name)
