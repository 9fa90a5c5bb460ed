"""Blends: a planar tessellation times a segment or an apeirogon.

Lifting the square tessellation alternately to z = +1 and z = -1 bends
each square into a skew tetragon; blending with a linear apeirogon instead
sends helices climbing over every square, neighbors winding oppositely.
"""

from skelforge import (
    blend_with_apeirogon,
    blend_with_segment,
    build,
    classify_polygon,
    schlafli,
    validate,
)
from skelforge.errors import NotBipartiteError

sq = build("sq44")

seg = blend_with_segment(sq, 1)
print("segment blend:", seg.summary())
print("  z values:", sorted({v[2] for v in seg.vertices}))
print("  face class:", classify_polygon(seg.faces[0]).symbol)
print("  type:", schlafli(seg))
print("  projections: plane ->", len({(v[0], v[1]) for v in seg.vertices}),
      "tessellation vertices; axis ->", sorted({v[2] for v in seg.vertices}))

hel = blend_with_apeirogon(sq, 1)
print("\napeirogon blend:", hel.summary())
print("  face class:", classify_polygon(hel.faces[0]).symbol)
print("  type:", schlafli(hel))
print("  valid polyhedron:", validate(hel, "polyhedron").passed)
print("  sample helix:", hel.faces[0])

# the alternation cannot exist over odd faces
tri = build("tri36")
try:
    blend_with_segment(tri, 1)
except NotBipartiteError as err:
    print("\ntriangle tessellation with a segment:", err.code)
