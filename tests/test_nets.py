"""Periodic graphs, coordination sequences, net and vertex-set identification.

The expected shell values were derived with the patch-BFS oracle below
before being frozen; the oracle stays in the tests as the independent
cross-check of the quotient-graph BFS.  ``net_oracle.tuple_shells``, the
quotient-graph BFS on (node, offset) tuples, cross-checks its packed ints.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from net_oracle import tuple_shells
from skelforge.complexes import Region
from skelforge.errors import Not3PeriodicError, NotUninodalError, ParseError
from skelforge.geometry import LAMBDA_1, LAMBDA_2, LAMBDA_2_DOUBLED, LAMBDA_3, SET_W, vadd
from skelforge.nets import (
    PeriodicGraph,
    extract_net,
    identify_net,
    identify_vertex_set,
    periodic_graph_from_edges,
    quotient_graph,
    reference_nets,
)

# frozen after oracle derivation (depth 10)
EXPECTED_SEQUENCES = {
    "pcu": [6, 18, 38, 66, 102, 146, 198, 258, 326, 402],
    "fcu": [12, 42, 92, 162, 252, 362, 492, 642, 812, 1002],
    "bcu": [8, 26, 56, 98, 152, 218, 296, 386, 488, 602],
    "dia": [4, 12, 24, 42, 64, 92, 124, 162, 204, 252],
    "nbo": [4, 12, 28, 50, 76, 110, 148, 194, 244, 302],
}


def bfs_shells(points, edges, source, depth):
    """Independent oracle: shell sizes by BFS on an explicit point graph."""
    adj = {}
    for p, q in edges:
        adj.setdefault(p, set()).add(q)
        adj.setdefault(q, set()).add(p)
    seen = {source}
    frontier = [source]
    out = []
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        out.append(len(nxt))
        frontier = nxt
    return out


def _box(radius):
    rng = range(-radius, radius + 1)
    return [(x, y, z) for x in rng for y in rng for z in rng]


def _offset_edges(points, offsets):
    pts = set(points)
    return [(p, vadd(p, d)) for p in points for d in offsets if vadd(p, d) in pts]


def oracle_patch(name, radius=8):
    if name == "pcu":
        pts = _box(radius)
        return pts, _offset_edges(pts, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), (0, 0, 0)
    if name == "fcu":
        pts = [p for p in _box(radius) if LAMBDA_2.member(p)]
        offs = [d for d in _box(1) if sum(c * c for c in d) == 2]
        return pts, _offset_edges(pts, offs), (0, 0, 0)
    if name == "bcu":
        pts = [p for p in _box(radius) if LAMBDA_3.member(p)]
        offs = [d for d in _box(1) if sum(c * c for c in d) == 3]
        return pts, _offset_edges(pts, offs), (0, 0, 0)
    if name == "dia":
        pts = [p for p in _box(radius) if SET_W.member(p)]
        offs = [d for d in _box(1) if sum(c * c for c in d) == 3]
        edges = [
            (p, q) for p, q in _offset_edges(pts, offs)
            if SET_W.member(p) and SET_W.member(q)
        ]
        return pts, edges, (0, 0, 0)
    if name == "nbo":
        from preset_oracles import one_petrie_per_cube_complex

        c = one_petrie_per_cube_complex(Region((0, 0, 0), radius))
        return list(c.vertices), list(c.edge_points), (0, 0, 0)
    raise ValueError(name)


UNIT_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# voltage components: small; small with some up to +-50, where a packing
# bound read from the small ones alone would alias offsets; or all zero (a
# rank-0 cover: the quotient itself)
_COMPONENTS = [
    st.integers(-3, 3),
    st.one_of(st.integers(-3, 3), st.sampled_from([-50, 50]), st.integers(-50, 50)),
    st.just(0),
]


@st.composite
def voltage_graphs(draw):
    n = draw(st.integers(1, 4))
    c = draw(st.sampled_from(_COMPONENTS))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.tuples(c, c, c)),
        max_size=5,
    ))
    # a loop with zero voltage is no edge of the cover
    edges = [(i, j, t) for i, j, t in edges if i != j or any(t)]
    return PeriodicGraph(UNIT_BASIS, [None] * n, edges)


class TestPackedShells:
    @settings(max_examples=150, deadline=None)
    @given(voltage_graphs(), st.integers(0, 6))
    def test_packed_shells_equal_the_tuple_oracle(self, graph, depth):
        for v in range(graph.node_count()):
            assert graph.shells(v, depth) == tuple_shells(graph, v, depth)
        assert graph.coordination_sequence(0) == []

    @pytest.mark.parametrize("name", ["pcu", "fcu", "bcu", "dia", "nbo"])
    def test_reference_shells_equal_the_tuple_oracle(self, name):
        ref = reference_nets()[name]
        for v in range(ref.node_count()):
            assert ref.shells(v, 10) == tuple_shells(ref, v, 10)


def _spy_shells(monkeypatch):
    """Record the depth of every PeriodicGraph.shells call."""
    depths = []
    real = PeriodicGraph.shells

    def shells(self, source, depth):
        depths.append(depth)
        return real(self, source, depth)

    monkeypatch.setattr(PeriodicGraph, "shells", shells)
    return depths


def _pcu_with_a_far_node(length=8):
    """pcu as a supercell of ``length`` nodes along x, with one more loop at
    node length // 2: node 0 is 4 steps from it, so node 0 has pcu's first
    three shells, but that node has degree 8."""
    edges = [(k, k + 1, (0, 0, 0)) for k in range(length - 1)]
    edges += [(length - 1, 0, (1, 0, 0))]
    edges += [(k, k, t) for k in range(length) for t in ((0, 1, 0), (0, 0, 1))]
    edges += [(length // 2, length // 2, (0, 1, 1))]
    basis = ((length, 0, 0), (0, 1, 0), (0, 0, 1))
    return PeriodicGraph(basis, [(k, 0, 0) for k in range(length)], edges)


class TestSequenceMemo:
    def test_sequence_is_computed_once_and_returned_fresh(self, monkeypatch):
        net = reference_nets()["nbo"]
        net = PeriodicGraph(net.basis, net.nodes, net.edges)
        depths = _spy_shells(monkeypatch)
        seq = net.coordination_sequence(10)
        seq[0] = -1
        seq.append(0)
        assert net.coordination_sequence(10) == EXPECTED_SEQUENCES["nbo"]
        assert depths == [10] * net.node_count()

    def test_not_uninodal_raises_on_every_call(self):
        g = _pcu_with_a_far_node()
        for _ in range(2):
            with pytest.raises(NotUninodalError):
                g.coordination_sequence(4)

    def test_pcu_head_at_one_node_is_not_enough(self):
        # node 0 passes the depth-3 screen for pcu; the all-node check fails
        g = _pcu_with_a_far_node()
        assert g.shells(0, 3) == EXPECTED_SEQUENCES["pcu"][:3]
        assert identify_net(g) == "unknown"

    def test_a_miss_is_decided_at_depth_3(self, monkeypatch, built):
        net = extract_net(built("P:3,2"))
        depths = _spy_shells(monkeypatch)
        assert identify_net(net) == "unknown"
        assert depths and max(depths) == 3


class TestReferenceNets:
    def test_sequences_match_frozen_values(self):
        for name, ref in reference_nets().items():
            assert ref.coordination_sequence(10) == EXPECTED_SEQUENCES[name], name

    def test_shell_one_values(self):
        refs = reference_nets()
        assert [refs[n].coordination_sequence(1)[0] for n in
                ("pcu", "fcu", "bcu", "dia", "nbo")] == [6, 12, 8, 4, 4]

    @pytest.mark.parametrize("name", ["pcu", "fcu", "bcu", "dia", "nbo"])
    def test_quotient_bfs_equals_patch_oracle(self, name):
        pts, edges, src = oracle_patch(name)
        oracle = bfs_shells(pts, edges, src, 6)
        quotient = reference_nets()[name].coordination_sequence(6)
        assert oracle == quotient

    @pytest.mark.parametrize(
        "name,lattice",
        [("pcu", LAMBDA_1), ("fcu", LAMBDA_2), ("bcu", LAMBDA_3), ("dia", LAMBDA_2_DOUBLED)],
    )
    def test_labelled_edges_equal_the_box_oracle(self, name, lattice):
        # the reference built from its edge classes is the labelled quotient
        # graph of the box oracle's edges: same nodes, labels and pgr text
        _, edges, _ = oracle_patch(name, radius=2)
        oracle = periodic_graph_from_edges(lattice, edges)
        ref = reference_nets()[name]
        assert (ref.basis, ref.nodes, ref.edges) == (oracle.basis, oracle.nodes, oracle.edges)
        assert ref.to_text() == oracle.to_text()

    def test_vertex_transitive_shells(self):
        # coordination_sequence raises unless every node sees the same shells
        for name, ref in reference_nets().items():
            ref.coordination_sequence(6)

    @pytest.mark.parametrize("name", ["pcu", "fcu", "bcu", "dia", "nbo"])
    def test_self_identification(self, name):
        assert identify_net(reference_nets()[name]) == name

    def test_cover_connectivity(self):
        for ref in reference_nets().values():
            assert ref.is_connected_cover()


class TestExtraction:
    @pytest.mark.parametrize(
        "preset,expected",
        [("K1_12", "fcu"), ("K4_12", "pcu"), ("K5_12", "nbo"),
         ("skel2cubic", "pcu"), ("P:1,0", "pcu")],
    )
    def test_net_of_preset(self, built, preset, expected):
        assert identify_net(extract_net(built(preset))) == expected

    def test_finite_is_not_3_periodic(self, built):
        with pytest.raises(Not3PeriodicError):
            extract_net(built("cube"))

    def test_planar_is_not_3_periodic(self, built):
        with pytest.raises(Not3PeriodicError):
            extract_net(built("sq44"))

    def test_basis_relabeling_invariance(self, built):
        from skelforge.geometry import Lattice

        k4 = built("K4_12")
        lat = k4.lattice
        relabeled = Lattice([lat.basis[1], lat.basis[2], vadd(lat.basis[0], lat.basis[1])])
        net1 = periodic_graph_from_edges(lat, k4.edge_points)
        net2 = periodic_graph_from_edges(relabeled, k4.edge_points)
        assert net1.coordination_sequence(6) == net2.coordination_sequence(6)

    def test_fcu_shell_one_is_cuboctahedron_vertex_count(self, built):
        net = extract_net(built("K1_12"))
        assert net.coordination_sequence(1)[0] == 12

    @pytest.mark.parametrize(
        "preset,shells", [("sq44", [4, 8, 12, 16]), ("cube", [3, 3, 1, 0])]
    )
    def test_quotient_graph_of_lower_rank(self, built, preset, shells):
        # a planar tiling and a solid have no net, but their quotient graphs
        # cover the plane and the solid's edge graph
        graph = quotient_graph(built(preset).classes)
        assert graph.is_connected_cover()
        assert graph.coordination_sequence(4) == shells

    def test_two_skeleton_quotient_is_one_node_three_loops(self, built):
        net = extract_net(built("skel2cubic"))
        assert net.node_count() == 1
        assert len(net.edges) == 3
        assert all(i == 0 and j == 0 for i, j, _ in net.edges)


# identify_vertex_set of presets and derived structures, the same at radius
# 1/2 and 3, as the difference/union definitions of V and W and a count of
# the cosets of Z^3 per catalog set gave them
VERTEX_SET_TABLE = {
    "sq44": "subset-of(Lambda1)",
    "tri36": "subset-of(Lambda1)",
    "hex63": "other",
    "tet": "subset-of(Lambda1)",
    "cube": "subset-of(Lambda1)",
    "oct": "subset-of(Lambda1)",
    "skel2cubic": "Lambda1",
    "K1_12": "Lambda2",
    "K4_12": "Lambda1",
    "K5_12": "V",
    "P:1,0": "Lambda1",
    "P:1,1": "subset-of(Lambda1)",
    "P:1,-1": "Lambda2",
    "P:1,-2": "Lambda1",
    "P:2,1": "Lambda1",
    "P:3,2": "Lambda1",
    "P:5,3": "Lambda2",
    "P2:1,0": "subset-of(Lambda1)",
    "P2:1,1": "W",
    "P2:0,1": "subset-of(Lambda1)",
    "P2:2,1": "subset-of(Lambda1)",
    "P2:1/3,2/5": "other",
    "petrie(sq44)": "subset-of(Lambda1)",
    "petrie(cube)": "subset-of(Lambda1)",
    "petrie(tet)": "subset-of(Lambda1)",
    "petrie(P:1,0)": "Lambda1",
    "petrie(P2:1,1)": "W",
    "blend(sq44,seg:1)": "subset-of(Lambda1)",
    "blend(sq44,apeiro:1)": "subset-of(Lambda1)",
    "blend(hex63,seg:1)": "other",
}
# catalog members moved by test_orbit.SHIFT, off the integers
MOVED_TO_OTHER = ["K5_12", "P2:1,1", "K1_12", "P:1,0", "sq44", "cube"]


class TestVertexSets:
    @pytest.mark.parametrize(
        "preset,expected",
        [("K1_12", "Lambda2"), ("K4_12", "Lambda1"), ("K5_12", "V"),
         ("skel2cubic", "Lambda1"), ("P:1,0", "Lambda1")],
    )
    def test_identification(self, built, preset, expected):
        assert identify_vertex_set(built(preset)) == expected

    def test_subset_reporting(self, built):
        # {4,4} has integral vertices but fills no 3D catalog set
        assert identify_vertex_set(built("sq44")).startswith("subset-of")

    def test_other(self, built):
        assert identify_vertex_set(built("hex63", 3)) == "other"

    @pytest.mark.parametrize("name", ["P2:1/3,2/5", "tet", "cube", "hex63", "P2:1,0"])
    def test_off_the_integers_lists_no_coset(self, monkeypatch, built, name):
        # every catalog set lies in Z^3, so a vertex class or a lattice
        # vector off it answers other before any coset is listed; the
        # integer presets are moved off it by a rational vector
        from skelforge import nets
        from test_orbit import moved_preset

        patch = built(name, 3) if "/" in name else moved_preset(name)
        calls = []
        real = nets._coset_vectors
        monkeypatch.setattr(nets, "_coset_vectors",
                            lambda *args: calls.append(args) or real(*args))
        assert identify_vertex_set(patch) == "other"
        assert not calls

    @pytest.mark.parametrize(
        "preset,expected",
        [("K5_12", "V"), ("P:1,-1", "Lambda2"), ("K1_12", "Lambda2"),
         ("P2:1,1", "W"), ("P:1,0", "Lambda1"), ("K4_12", "Lambda1"),
         ("sq44", "subset-of(Lambda1)"), ("tri36", "subset-of(Lambda1)"),
         ("P:1,1", "subset-of(Lambda1)"), ("P2:0,1", "subset-of(Lambda1)"),
         ("P2:1,0", "subset-of(Lambda1)"), ("petrie(sq44)", "subset-of(Lambda1)"),
         ("tet", "subset-of(Lambda1)"), ("cube", "subset-of(Lambda1)"),
         ("oct", "subset-of(Lambda1)"), ("petrie(cube)", "subset-of(Lambda1)"),
         ("blend(sq44,seg:1)", "subset-of(Lambda1)"),
         ("blend(sq44,apeiro:1)", "subset-of(Lambda1)"), ("hex63", "other")],
    )
    def test_half_radius_reads_the_classes(self, built, preset, expected):
        # this region holds few vertices or none; the set is compared coset
        # by coset, so the answer is the one every radius >= 1 gives
        assert identify_vertex_set(built(preset, Fraction(1, 2))) == expected

    @pytest.mark.parametrize("radius", [Fraction(1, 2), 3], ids=["1/2", "3"])
    @pytest.mark.parametrize("preset", VERTEX_SET_TABLE)
    def test_pinned_table(self, built, preset, radius):
        assert identify_vertex_set(built(preset, radius)) == VERTEX_SET_TABLE[preset]

    @pytest.mark.parametrize("preset", MOVED_TO_OTHER)
    def test_pinned_moved(self, preset):
        from test_orbit import moved_preset

        assert identify_vertex_set(moved_preset(preset)) == "other"

    @pytest.mark.parametrize("preset", ["K5_12", "P2:1,1", "P2:1,0", "cube"])
    def test_cosets_are_listed_once_per_set(self, monkeypatch, built, preset):
        # one coset list per catalog set, not one per vertex class, and no
        # second list of the cosets of Z^3
        from skelforge import nets

        calls = []
        real = nets._coset_vectors
        monkeypatch.setattr(nets, "_coset_vectors",
                            lambda *args: calls.append(args) or real(*args))
        identify_vertex_set(built(preset, 3))
        assert 0 < len(calls) <= 2 * len(nets._VERTEX_SETS)


class TestPgrFormat:
    def test_round_trip(self):
        net = reference_nets()["fcu"]
        text = net.to_text()
        back = PeriodicGraph.from_text(text)
        assert back.edges == net.edges
        assert back.to_text() == text

    @pytest.mark.parametrize("line", [
        "e 0 x 0 0 0", "e 0 0 0 0 1/2", "e -1 0 0 0 1", "e 0 -2 1 0 0",
        "e 0 0 1 0", "e 0 0 1 0 0 0", "e 0",
    ])
    def test_bad_edge_line_rejected(self, line):
        # a non-integer, a negative node or a wrong count fails as a parse
        # error naming the line, never as a ValueError or a later KeyError
        text = "b 1 0 0\nb 0 1 0\nb 0 0 1\ne 0 0 1 0 0\n" + line + "\n"
        with pytest.raises(ParseError, match=repr(line)):
            PeriodicGraph.from_text(text)

    def test_node_on_no_edge_rejected(self):
        # node 1 would be isolated, and the sequence would then fail as if
        # the graph were not uninodal
        text = reference_nets()["pcu"].to_text() + "e 2 2 1 0 0\n"
        with pytest.raises(ParseError, match="node 1"):
            PeriodicGraph.from_text(text)

    def test_good_edge_lines_parse(self):
        text = "b 1 0 0\nb 0 1 0\nb 0 0 1\ne 0 0 1 0 0\ne 0 1 0 -1 0\ne 1 1 0 0 1\n"
        assert PeriodicGraph.from_text(text).edges == [
            (0, 0, (-1, 0, 0)), (0, 1, (0, -1, 0)), (1, 1, (0, 0, -1))]

    def test_uninodal_error_path(self):
        # two nodes with different degrees cannot share shell sequences
        g = PeriodicGraph(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            [(0, 0, 0), (1, 0, 0)],
            [
                (0, 1, (0, 0, 0)), (0, 1, (1, 0, 0)), (0, 1, (0, 1, 0)),
                (0, 1, (0, 0, 1)), (0, 0, (0, 0, 1)),
            ],
        )
        with pytest.raises(NotUninodalError):
            g.coordination_sequence(4)
