"""Each benchmark check accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench -q

The correct outputs come from the library itself on small inputs; each test
then changes one field and expects CheckFailure.
"""

import copy
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
from checks import CheckFailure  # noqa: E402
from tracing import NullTracer  # noqa: E402

sf = jobs._import_library()


def classified(name, radius, scale):
    gens = None if name in sf.constructive else sf.instantiate(name).isometries()
    result = jobs.classify_structure(
        NullTracer(), lambda: sf.build(name, sf.Region((0, 0, 0), radius)),
        gens, scale,
    )
    jobs._check_catalog(name)(result)  # the uncorrupted output passes
    return result


@pytest.fixture(scope="module")
def cube():
    return classified("cube", 4, 4)


@pytest.fixture(scope="module")
def p10():
    return classified("P:1,0", 3, 2)


@pytest.fixture(scope="module")
def k5():
    return classified("K5_12", 3, 2)


def rejects(name, result, **changes):
    out, patch = copy.deepcopy(result[0]), result[1]
    out.update(changes)
    with pytest.raises(CheckFailure):
        jobs._check_catalog(name)((out, patch))


def test_platonic_counts_and_types(cube):
    rejects("cube", cube, counts=(8, 12, 5))
    rejects("cube", cube, counts=(8, 13, 7))  # right F - E, wrong Euler
    rejects("cube", cube, q=4)
    rejects("cube", cube, verdict="chiral")
    rejects("cube", cube, valid=False)


def test_chiral_member_and_its_net(p10):
    rejects("P:1,0", p10, verdict="regular")
    rejects("P:1,0", p10, orbits=1)
    rejects("P:1,0", p10, net="bcu")
    rejects("P:1,0", p10, vertex_set="Lambda2")
    seq = list(p10[0]["sequence"])
    seq[6] += 1  # beyond what the patch BFS reaches: only 4n^2+2 catches it
    rejects("P:1,0", p10, sequence=seq)


def test_complex_table_row(k5):
    rejects("K5_12", k5, r=3)
    rejects("K5_12", k5, face_class="6_c")
    rejects("K5_12", k5, vertex_figure="octahedron")
    rejects("K5_12", k5, vertex_set="W")
    rejects("K5_12", k5, net="pcu")
    rejects("K5_12", k5, edge_stabilizer=("C2", 2))
    seq = list(k5[0]["sequence"])
    seq[0] = 5  # nbo has no closed form; the patch BFS catches it
    rejects("K5_12", k5, sequence=seq)


def test_patch_bfs_matches_closed_forms():
    # like a patch: every edge at a vertex of the region, ends outside too
    pts = [(x, y, z) for x in range(-4, 5) for y in range(-4, 5)
           for z in range(-4, 5)]
    steps = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    steps += [tuple(-c for c in d) for d in steps]
    edges = {tuple(sorted((p, tuple(a + b for a, b in zip(p, d)))))
             for p in pts for d in steps}
    depth = checks.reliable_bfs_depth(sf.Region((0, 0, 0), 4), (0, 0, 0), edges)
    assert depth == 5
    assert checks.bfs_shells(edges, (0, 0, 0), depth) == \
        checks.closed_form_sequence("pcu", depth)


def test_translate_check():
    shift = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))
    sq = sf.build("sq44", sf.Region((0, 0, 0), 3))
    moved = sf.wythoff_patch(
        jobs.moved_generators(sf.instantiate("sq44"), shift),
        sf.Region(shift, 3), name="sq44",
    )
    base = {"verdict": "regular", **jobs.element_sets(sq, shift=shift)}
    good = {"verdict": "regular", **jobs.element_sets(moved)}
    checks.check_translate("sq44", good, base)
    for key in ("vertices", "edges", "faces"):
        bad = dict(good)
        bad[key] = set(list(good[key])[1:])
        with pytest.raises(CheckFailure):
            checks.check_translate("sq44", bad, base)
    with pytest.raises(CheckFailure):
        checks.check_translate("sq44", dict(good, verdict="chiral"), base)


def test_face_key_ignores_start_direction_and_period_sign():
    face = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    assert jobs.face_key(face, None) == jobs.face_key(face[2:] + face[:2], None)
    assert jobs.face_key(face, None) == jobs.face_key(face[::-1], None)
    helix = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (0, 1, 3)]
    t = (0, 0, 4)
    later = [(x, y, z + 4) for x, y, z in helix[1:]] + [(0, 0, 4)]
    assert jobs.face_key(helix, t) == jobs.face_key(later[::-1], (0, 0, -4))
    assert jobs.face_key(helix, t) != jobs.face_key(helix[:3] + [(0, 1, 2)], t)


def test_petrie_pair_and_traces():
    cube = sf.build("cube")
    dual = sf.ops.petrie_dual(cube)
    back = sf.ops.petrie_dual(dual)
    sets = [jobs.element_sets(c, face_margin=2) for c in (cube, dual, back)]
    checks.check_petrie_pair("cube", *sets)
    for i, key in ((1, "vertices"), (1, "edges"), (2, "faces")):
        bad = copy.deepcopy(sets)
        bad[i][key].pop()
        with pytest.raises(CheckFailure):
            checks.check_petrie_pair("cube", *bad)
    checks.check_traces("cube", {"petrie": [(6, True)]})
    for traces in ({"petrie": [(4, True)]}, {"petrie": [(6, False)]},
                   {"petrie": []}):
        with pytest.raises(CheckFailure):
            checks.check_traces("cube", traces)
    checks.check_traces("P:1,1", {"hole": [(3, True)]})
    with pytest.raises(CheckFailure):
        checks.check_traces("P:1,1", {"hole": [(3, True), (6, False)]})
    with pytest.raises(CheckFailure):
        checks.check_traces("P:1,-1", {"petrie": [(4, False)]})


def test_cli_checks(tmp_path):
    cli = jobs.Cli(1, str(tmp_path))
    good_k5 = ('{"mode": "complex", "valid": true, "r": 4, "schlafli": '
               '{"p": 6, "q": 8, "r": 4, "face_class": "6_s"}, '
               '"vertex_figure": "double square", "vertex_set": "V", '
               '"net": "nbo", "edge_stabilizer": {"name": "D2", "order": 4}}')
    cli._check_classify("K5_12")((0, good_k5, good_k5))
    for bad in (good_k5.replace("nbo", "pcu"), good_k5.replace('"r": 4,', '"r": 3,'),
                good_k5.replace("double square", "octahedron"), "not json"):
        with pytest.raises(CheckFailure):
            cli._check_classify("K5_12")((0, bad, bad))
    with pytest.raises(CheckFailure):
        cli._check_classify("K5_12")((1, good_k5, good_k5))

    obj = "# x\nv 0 0 0\nl 1 2 3 4 5 6 1\n" * 4
    cli._check_obj("petrie(cube)", 4, 0)((0, obj, obj))
    with pytest.raises(CheckFailure):
        cli._check_obj("petrie(cube)", 4, 0)((0, obj * 2, obj * 2))

    net = '{"identification": "pcu", "coordination_sequence": %s}'
    ok = net % [4 * n * n + 2 for n in range(1, 11)]
    cli._check_net("pcu")((0, ok, ok))
    with pytest.raises(CheckFailure):
        cli._check_net("pcu")((0, ok.replace("402", "401"), ok))

    refused = '{"code": "not-3-periodic", "detail": "finite"}'
    cli._check_not_periodic((1, refused, refused))
    named = '{"identification": "pcu"}'
    with pytest.raises(CheckFailure):
        cli._check_not_periodic((0, named, named))
