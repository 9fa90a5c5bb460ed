"""The {6,6} family: skew hexagons, chirality, and its two degenerations.

One pair of integers (a, b) drives the whole family.  Generic parameters
give a chiral polyhedron: its symmetry group has two flag orbits, adjacent
flags always split, and no reflection-like symmetry exists.  At b = a and
b = -a extra mirrors appear and the polyhedron becomes regular.
"""

from skelforge import build, build_base_face, classify_polygon, trace, validate, verdict
from skelforge.classify import find_flag_symmetries, mirror_vector
from skelforge.presets import finite_faced_chiral

for a, b in [(1, 0), (2, 1)]:
    gen = finite_faced_chiral(a, b)
    face = build_base_face(gen)
    print(f"P({a},{b}) base face: {face}")
    print("  class:", classify_polygon(face).symbol)

patch = build("P:1,0")
print("\nP(1,0) patch:", patch.summary())
print(validate(patch, "polyhedron"))

v = verdict(patch, finite_faced_chiral(1, 0).isometries())
print("\nverdict:", v)
fam = find_flag_symmetries(patch)
print("discovered family:", fam["family"], "(rotations only, no mirrors)")

# b = a: convex faces, skew vertex figures, holes of length 3
p11 = build("P:1,1")
print("\nP(1,1):", verdict(p11, finite_faced_chiral(1, 1).isometries()))
fam = find_flag_symmetries(p11)
print("mirror vector:", mirror_vector(fam["R0"], fam["R1"], fam["R2"]))
holes = trace(p11, "hole")
print("hole circuits:", sorted({t.length for t in holes}), "- the '| 3' in its symbol")

# b = -a: skew faces, planar vertex figures, Petrie polygons of length 4
p1m1 = build("P:1,-1")
print("\nP(1,-1):", verdict(p1m1, finite_faced_chiral(1, -1).isometries()))
petries = trace(p1m1, "petrie")
print("petrie circuits:", sorted({t.length for t in petries}), "- the subscript 4")
