"""Independent checks on the outputs of every benchmark job.

Each check compares a program output with a fact that is known apart from
the program: a count from the classical geometry, a closed formula, a
breadth-first search the benchmark runs itself, or a relation between two
outputs (a Petrie dual applied twice, a structure and its translate).  A
check raises CheckFailure with a one-line reason; it never repairs the
output it was given.
"""

from __future__ import annotations

import json


class CheckFailure(Exception):
    """An output disagrees with an independent fact."""


def expect(cond, message):
    if not cond:
        raise CheckFailure(message)


def equal(got, want, what):
    if got == want:
        return
    if isinstance(got, (set, frozenset)) and isinstance(want, (set, frozenset)):
        raise CheckFailure(
            f"{what}: {len(got - want)} unexpected, {len(want - got)} missing; "
            f"e.g. {sorted(map(repr, got ^ want))[:2]}"
        )
    raise CheckFailure(f"{what}: got {got!r:.200}, expected {want!r:.200}")


# ---------------------------------------------------------------------------
# facts

# (V, E, F) of the Platonic solids; V - E + F = 2 for each.
PLATONIC_COUNTS = {"tet": (4, 6, 4), "cube": (8, 12, 6), "oct": (6, 12, 8)}

# Schlafli types {p, q}; None stands for an infinite face (p = infinity).
SCHLAFLI = {
    "tet": (3, 3), "cube": (4, 3), "oct": (3, 4),
    "sq44": (4, 4), "tri36": (3, 6), "hex63": (6, 3),
    "P:1,0": (6, 6), "P:1,1": (6, 6), "P:1,-1": (6, 6),
    "P2:1,0": (None, 3), "P2:1,1": (None, 3),
}

# Petrie polygon length of a Platonic solid is the Coxeter number of its
# symmetry group: 4 for A3, 6 for B3.
PETRIE_LENGTH = {"tet": 4, "cube": 6, "oct": 6}

# Table rows of the paper for the 4-face complexes: faces per edge r, face
# class, vertex figure, vertex set, net, and the edge stabilizer G2.
COMPLEX_ROWS = {
    "K1_12": {"r": 4, "face": "4_s", "vf": "cuboctahedron", "vset": "Lambda2",
              "net": "fcu", "g2": ("D2", 4)},
    "K4_12": {"r": 4, "face": "6_s", "vf": "octahedron", "vset": "Lambda1",
              "net": "pcu", "g2": ("D2", 4)},
    "K5_12": {"r": 4, "face": "6_s", "vf": "double square", "vset": "V",
              "net": "nbo", "g2": ("D2", 4)},
    "skel2cubic": {"r": 4, "face": "4_c", "vf": "octahedron",
                   "vset": "Lambda1", "net": "pcu", "g2": ("D4", 8)},
}

# Nets of the 3-periodic polyhedra and their vertex sets.
POLYHEDRON_NETS = {"P:1,0": ("pcu", "Lambda1")}


def expected_verdict(name):
    """P(a,b) is chiral unless b = +-a; every other catalog member is regular
    except the chiral helix family P2(c,d) with c, d both nonzero."""
    if name.startswith("P:"):
        a, b = (int(x) for x in name[2:].split(","))
        return "regular" if abs(a) == abs(b) else "chiral"
    if name.startswith("P2:"):
        c, d = name[3:].split(",")
        return "chiral" if c.strip("-") != "0" and d.strip("-") != "0" else "regular"
    return "regular"


def closed_form_sequence(net, depth):
    """Coordination sequences with a closed form: pcu 4n^2+2, fcu 10n^2+2."""
    if net == "pcu":
        return [4 * n * n + 2 for n in range(1, depth + 1)]
    if net == "fcu":
        return [10 * n * n + 2 for n in range(1, depth + 1)]
    return None


def bfs_shells(edge_points, source, depth):
    """Shell sizes of a plain BFS over explicit edges from ``source``."""
    adj = {}
    for p, q in edge_points:
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    seen = {source}
    frontier = [source]
    shells = []
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        shells.append(len(nxt))
        frontier = nxt
    return shells


def reliable_bfs_depth(region, source, edge_points):
    """Shells a patch BFS gets right: every vertex within depth-1 steps of the
    source must lie in the region, where the patch holds all of its edges."""
    longest = max(
        max(abs(a - b) for a, b in zip(p, q)) for p, q in edge_points
    )
    reach = region.radius - max(abs(a - b) for a, b in zip(source, region.center))
    return int(reach // longest) + 1


# ---------------------------------------------------------------------------
# checks on library outputs


def check_classification(name, out):
    """Facts for one catalog member, from the dict a catalog job returns."""
    nv, ne, nf = out["counts"]
    if name in PLATONIC_COUNTS:
        equal((nv, ne, nf), PLATONIC_COUNTS[name], f"{name} counts")
        equal(nv - ne + nf, 2, f"{name} Euler characteristic")
    if name in SCHLAFLI:
        equal((out["p"], out["q"]), SCHLAFLI[name], f"{name} Schlafli type")
    if name in COMPLEX_ROWS:
        row = COMPLEX_ROWS[name]
        equal(out["mode"], "complex", f"{name} mode")
        equal(out["r"], row["r"], f"{name} faces per edge")
        equal(out["face_class"], row["face"], f"{name} face class")
        equal(out["vertex_figure"], row["vf"], f"{name} vertex figure")
        equal(out["vertex_set"], row["vset"], f"{name} vertex set")
        equal(out["net"], row["net"], f"{name} net")
        equal(out["edge_stabilizer"], row["g2"], f"{name} edge stabilizer")
    else:
        equal(out["mode"], "polyhedron", f"{name} mode")
        equal(out["verdict"], expected_verdict(name), f"{name} verdict")
        if expected_verdict(name) == "chiral":
            equal(out["orbits"], 2, f"{name} flag orbits")
    expect(out["valid"], f"{name} does not validate")
    if name in POLYHEDRON_NETS:
        net, vset = POLYHEDRON_NETS[name]
        equal(out["net"], net, f"{name} net")
        equal(out["vertex_set"], vset, f"{name} vertex set")
    if out.get("sequence") is not None:
        seq = out["sequence"]
        formula = closed_form_sequence(out["net"], len(seq))
        if formula is not None:
            equal(seq, formula, f"{name} coordination sequence")
        shells = out["bfs_shells"]
        expect(shells, f"{name}: patch too small for an independent BFS")
        equal(seq[: len(shells)], shells, f"{name} leading shells vs patch BFS")


def check_translate(name, shifted, base):
    """A moved structure is its integer structure translated (``base`` holds
    the integer structure's element sets already moved), with the same
    lattice, verdict, orbit count, Schlafli type and trace lengths."""
    for key in ("vertices", "edges", "faces"):
        equal(shifted[key], base[key], f"{name} {key} vs translated integer patch")
    for key in ("lattice", "verdict", "orbits", "p", "q", "valid", "mode",
                "trace_lengths"):
        equal(shifted.get(key), base.get(key), f"{name} {key} vs integer patch")


def check_petrie_pair(name, patch, dual, back):
    """The Petrie dual keeps the vertices and edges, and the dual of the dual
    gives back the original vertices and faces.  Arguments are the element
    sets of each structure: vertices and edges in the region, and the faces
    that meet the region shrunk by 2, where the patch holds every face."""
    equal(dual["vertices"], patch["vertices"], f"petrie({name}) vertices")
    equal(dual["edges"], patch["edges"], f"petrie({name}) edges")
    equal(back["vertices"], patch["vertices"], f"petrie(petrie({name})) vertices")
    equal(back["faces"], patch["faces"], f"petrie(petrie({name})) faces")


def check_traces(name, traces):
    """Petrie lengths of the Platonic solids, the holes of {6,6|3} and the
    Petrie polygons of {6,6}4, from a dict word -> [(length, closed)]."""
    for word, circuits in traces.items():
        expect(circuits, f"{name} {word}: no circuits")
    if name in PETRIE_LENGTH:
        equal(set(traces["petrie"]), {(PETRIE_LENGTH[name], True)},
              f"{name} Petrie polygons")
    if name == "P:1,1":
        equal(set(traces["hole"]), {(3, True)}, "{6,6|3} holes")
    if name == "P:1,-1":
        equal(set(traces["petrie"]), {(4, True)}, "{6,6}4 Petrie polygons")


# ---------------------------------------------------------------------------
# checks on command-line outputs


def parse_json(stdout, what):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        raise CheckFailure(f"{what}: output is not JSON: {stdout[:80]!r}")


def obj_records(text):
    """Counts of v, f and l records in OBJ text."""
    counts = {"v": 0, "f": 0, "l": 0}
    for line in text.splitlines():
        tag = line.split(" ", 1)[0]
        if tag in counts:
            counts[tag] += 1
    return counts


def check_cli_classify(name, data):
    if name in COMPLEX_ROWS:
        row = COMPLEX_ROWS[name]
        equal(data["mode"], "complex", f"classify {name} mode")
        equal(data["r"], row["r"], f"classify {name} r")
        equal(data["schlafli"]["face_class"], row["face"], f"classify {name} face")
        equal(data["vertex_figure"], row["vf"], f"classify {name} vertex figure")
        equal(data["vertex_set"], row["vset"], f"classify {name} vertex set")
        equal(data["net"], row["net"], f"classify {name} net")
        equal((data["edge_stabilizer"]["name"], data["edge_stabilizer"]["order"]),
              row["g2"], f"classify {name} edge stabilizer")
    else:
        p, q = SCHLAFLI[name]
        equal(data["mode"], "polyhedron", f"classify {name} mode")
        equal((data["schlafli"]["p"], data["schlafli"]["q"]),
              ("inf" if p is None else p, q), f"classify {name} Schlafli type")
        equal(data["verdict"], expected_verdict(name), f"classify {name} verdict")
        if name in POLYHEDRON_NETS:
            equal(data["net"], POLYHEDRON_NETS[name][0], f"classify {name} net")
    expect(data["valid"], f"classify {name}: not valid")
