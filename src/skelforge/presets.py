"""The built-in catalog of structures.

Generator-driven presets return a :class:`GeneratorSet` for the orbit
engine; constructive presets (the tessellation 2-skeleton and the K
complexes) are literals: their translation lattice and one face per class
modulo it.  ``build`` is the one-stop entry: it parses a preset name, runs
whichever construction applies, and returns the patch over the requested
region.

Triangle and hexagon tessellations live in the plane x+y+z = 0, where both
have rational vertices (an equilateral triangle has none in a coordinate
plane); the square tessellation lives in z = 0.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .complexes import FaceDescriptor, Region, SkeletalComplex
from .errors import InvalidParametersError, ParseError
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
# constructive presets: one face per class modulo the declared lattice

CONSTRUCTIVE_PRESETS = {
    # the unit squares of the cubical tessellation
    "skel2cubic": ("cubic 2-skeleton", LAMBDA_1, (
        ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)),
        ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),
        ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1)),
    )),
    # the three Petrie tetragons of the tetrahedron on the even corners of
    # every unit cube; the cubes at the origin and at (1,0,0) stand for the
    # two cube classes modulo fcc
    "K1_12": ("K1(1,2)", LAMBDA_2, (
        ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)),
        ((0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 1)),
        ((0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)),
        ((1, 0, 1), (1, 1, 0), (2, 0, 0), (2, 1, 1)),
        ((1, 0, 1), (1, 1, 0), (2, 1, 1), (2, 0, 0)),
        ((1, 0, 1), (2, 0, 0), (1, 1, 0), (2, 1, 1)),
    )),
    # the four Petrie hexagons of the unit cube at the origin, whose fcc
    # translates are the cubes of even corner sum
    "K4_12": ("K4(1,2)", LAMBDA_2, (
        ((0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0), (1, 0, 1)),
        ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 1, 0), (0, 1, 0)),
        ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 0), (1, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 0, 1), (1, 0, 0)),
    )),
    # one Petrie hexagon in each of the unit cubes at the origin, (1,0,0),
    # (0,1,0) and (0,0,1), the four cube classes modulo bcc; every hexagon
    # avoids the cube's corners outside the vertex set V
    "K5_12": ("K5(1,2)", LAMBDA_3, (
        ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 0, 1), (1, 0, 0)),
        ((1, 0, 0), (1, 0, 1), (1, 1, 1), (2, 1, 1), (2, 1, 0), (2, 0, 0)),
        ((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 2, 1), (1, 2, 0), (0, 2, 0)),
        ((0, 0, 2), (0, 1, 2), (0, 1, 1), (1, 1, 1), (1, 0, 1), (1, 0, 2)),
    )),
}


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
        label, lattice, cycles = CONSTRUCTIVE_PRESETS[name]
        faces = [FaceDescriptor(c) for c in cycles]
        return SkeletalComplex.from_classes(
            lattice, faces, region or DEFAULT_REGION, name=label
        )
    raise ParseError(f"unknown preset {name!r}")


def build(name, region=None):
    """Build the patch for any preset name, including derived wrappers."""
    region = region or DEFAULT_REGION
    m = re.fullmatch(r"petrie\((.+)\)", name)
    if m:
        # cycle: ops builds on patches; a plain preset does not import it
        from .ops import petrie_dual

        return petrie_dual(build(m.group(1), region))
    m = re.fullmatch(r"blend\((.+),(seg|apeiro):(-?[\d/]+)\)", name)
    if m:
        from . import ops

        inner = build(m.group(1), region)
        param = scalar(m.group(3))
        if m.group(2) == "seg":
            return ops.blend_with_segment(inner, param)
        return ops.blend_with_apeirogon(inner, param)
    made = instantiate(name, region)
    if isinstance(made, SkeletalComplex):
        return made
    return wythoff_patch(made, region, name=made.name)
