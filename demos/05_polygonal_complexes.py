"""Polygonal complexes: more than two faces at an edge.

The square faces of the cubical tessellation form the simplest example
(four squares per edge).  Petrie polygons of cubes and of inscribed
tetrahedra assemble into further complexes with tetragonal or hexagonal
skew faces; their local data reproduces the classification table rows.
"""

from skelforge import (
    build,
    edge_stabilizer,
    extract_net,
    graph_identify,
    identify_net,
    identify_vertex_set,
    schlafli,
    validate,
)

for name in ("skel2cubic", "K1_12", "K4_12", "K5_12"):
    c = build(name)
    rep = validate(c, "complex")
    st = schlafli(c, mode="complex")
    g2 = edge_stabilizer(c)
    vf = graph_identify(c.vertex_figure((0, 0, 0)))
    print(f"{c.name}:")
    print(f"  r = {rep.r} faces per edge, G2 = {g2.name} (order {g2.order})")
    print(f"  faces: {st.face_class.symbol}, {len(c.faces_at_vertex((0,0,0)))} at the origin")
    print(f"  vertex figure: {vf}")
    print(f"  vertex set: {identify_vertex_set(c)}")
    print(f"  net: {identify_net(extract_net(c))}")
    print()

# the one-hexagon-per-cube complex uses only 3 of every 4 lattice points
k5 = build("K5_12")
missing = [(0, 0, 1), (1, 1, 0), (2, 2, 1)]
print("points the K5 construction leaves out:",
      [p for p in missing if not k5.has_vertex(p)])
