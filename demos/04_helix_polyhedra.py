"""Helix-faced polyhedra: springs over squares, and unwinding the cube.

The square-helix family has a screw motion cycling each face.  At c = 0
the screw loses its translation and the structure collapses to a cube;
for c != 0 every face is a helix over a square, and compressing each helix
back onto its square exhibits a covering onto the cube.
"""

from skelforge import (
    build,
    build_base_face,
    classify_polygon,
    covering_check,
    find_flag_symmetries,
    mirror_vector,
    order_or_translation,
    verdict,
)
from skelforge.complexes import Region
from skelforge.presets import helix_faced_chiral

gen = helix_faced_chiral(1, 0)
print("base face:", build_base_face(gen))
print("S1 power:", order_or_translation(gen.generators["S1"], 8))

p = build("P2:1,0")
print("\nP2(1,0):", p.summary())
print("face class:", classify_polygon(p.faces[0]).symbol)
fam = find_flag_symmetries(p)
print("family:", fam["family"], "mirror vector:",
      mirror_vector(fam["R0"], fam["R1"], fam["R2"]),
      "- three half-turns, so the group is rotations only, yet regular")

cube = build("P2:0,1")
print("\nP2(0,1):", cube.summary(), "(the finite member of the family)")

chiral = build("P2:1,1", Region((0, 0, 0), 6))
print("\nP2(1,1):", verdict(chiral, helix_faced_chiral(1, 1).isometries()))
ok, witness = covering_check(chiral, cube)
print("covers the cube:", ok)
print("compression lattice:", witness["lattice"])
print("vertex classes onto cube vertices:")
for src, dst in witness["class_map"]:
    print("  ", src, "->", dst)
