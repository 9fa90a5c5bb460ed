"""The four workloads: their inputs, their jobs and the checks on each job.

A job is one operation the benchmark attempts: a callable that takes the
tracer and returns the program's outputs, and a check that compares those
outputs with independent facts (see checks.py).  Only the call is timed;
the check runs after it.  Every pass runs the same jobs in the same order,
so a pass is a fixed amount of work.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import checks
from checks import equal, expect

# The library is imported on first set-up, not with this module: run.py
# imports this module before it knows that the checkout has a src/ tree.
sf = None


def _import_library():
    global sf
    if sf is None:
        import types

        from skelforge import classify, nets, ops, serialization
        from skelforge.complexes import Region, graph_identify, validate
        from skelforge.geometry import Isometry, mat_vec
        from skelforge.orbit import GeneratorSet, build_quotient, wythoff_patch
        from skelforge.presets import CONSTRUCTIVE_PRESETS, build, instantiate

        sf = types.SimpleNamespace(
            classify=classify, nets=nets, ops=ops, serialization=serialization,
            Region=Region, graph_identify=graph_identify, validate=validate,
            Isometry=Isometry, mat_vec=mat_vec, GeneratorSet=GeneratorSet,
            build_quotient=build_quotient, wythoff_patch=wythoff_patch,
            build=build, instantiate=instantiate,
            constructive=CONSTRUCTIVE_PRESETS,
        )
    return sf


class Job:
    def __init__(self, name, run, check, known_fault=False):
        self.name = name
        self.run = run
        self.check = check
        # A job whose check fails because of a named program fault counts
        # as failed, not as a wrong answer.
        self.known_fault = known_fault


# ---------------------------------------------------------------------------
# shared pipeline


def _central_vertex(patch):
    center = patch.region.center
    return min(
        (patch.vertices[i] for i in patch.interior_vertex_ids()),
        key=lambda v: (max(abs(a - b) for a, b in zip(v, center)), v),
    )


def classify_structure(tr, make_patch, gens, scale):
    """build -> lattice -> validate -> quotient -> Schlafli -> verdict or edge
    stabilizer -> vertex figure and vertex set -> net, as the CLI's classify
    does.  Returns (outputs, patch)."""
    with tr.span("orbit.build"):
        patch = make_patch()
    tr.count("orbit.patch_elements", sum(patch.counts()))
    with tr.span("orbit.lattice"):
        lat = patch.lattice
    with tr.span("complexes.validate"):
        rep = sf.validate(patch, "polyhedron")
        mode = "polyhedron" if rep.r == 2 else "complex"
        if mode == "complex":
            rep = sf.validate(patch, "complex")
    with tr.span("orbit.quotient"):
        closed = sf.build_quotient(patch, scale=scale)
    tr.count("quotient.darts", closed.dart_count())
    with tr.span("classify.polygon"):
        face_classes = Counter(
            sf.classify.classify_polygon(f).symbol for f in patch.faces[:20]
        )
    with tr.span("classify.schlafli"):
        st = sf.classify.schlafli(patch, mode=mode, quotient_scale=scale)
    out = {
        "counts": patch.counts(), "mode": mode, "valid": rep.passed,
        "r": rep.r, "p": st.p, "q": st.q, "face_class": st.face_class.symbol,
        "face_classes": dict(face_classes),
        "lattice": None if lat is None else lat.basis,
    }
    if mode == "polyhedron":
        with tr.span("classify.flag_symmetries"):
            fam = sf.classify.find_flag_symmetries(patch)
        with tr.span("classify.verdict"):
            v = sf.classify.verdict(patch, gens, quotient_scale=scale)
        out.update(family=None if fam is None else fam["family"],
                   verdict=v.kind, orbits=v.orbit_count)
    else:
        with tr.span("classify.edge_stabilizer"):
            g2 = sf.classify.edge_stabilizer(patch)
        out["edge_stabilizer"] = (g2.name, g2.order)
    center = _central_vertex(patch)
    with tr.span("complexes.vertex_figure"):
        out["vertex_figure"] = sf.graph_identify(patch.vertex_figure(center))
    with tr.span("nets.vertex_set"):
        out["vertex_set"] = sf.nets.identify_vertex_set(patch)
    out["sequence"] = None
    if lat is not None and lat.rank == 3:
        with tr.span("nets.extract_net"):
            net = sf.nets.extract_net(patch)
        with tr.span("nets.identify_net"):
            out["net"] = sf.nets.identify_net(net)
        with tr.span("nets.coordination_sequence"):
            out["sequence"] = net.coordination_sequence(10)
    out["center"] = center
    return out, patch


def _check_catalog(name):
    def check(result):
        out, patch = result
        if out["sequence"] is not None:
            depth = checks.reliable_bfs_depth(
                patch.region, out["center"], patch.edge_points
            )
            out["bfs_shells"] = checks.bfs_shells(
                patch.edge_points, out["center"], min(depth, 10)
            )
        checks.check_classification(name, out)
    return check


# ---------------------------------------------------------------------------
# catalog


# (preset, region radius, quotient scale).  The 3-periodic members use the
# smallest region on which their lattice, quotient and net are complete.
CATALOG = [
    ("tet", 4, 4), ("cube", 4, 4), ("oct", 4, 4), ("sq44", 4, 4),
    ("P2:1,0", 4, 2), ("P:1,0", 3, 2), ("skel2cubic", 3, 2), ("K5_12", 3, 2),
]


class Catalog:
    """Warm in-process classification of integer catalog members.  The
    catalog is fixed: no input depends on the seed."""

    warmup = True

    def __init__(self, seed, workdir):
        pass

    def setup(self, tr):
        _import_library()
        members = []
        for name, radius, scale in CATALOG:
            gens = (None if name in sf.constructive
                    else sf.instantiate(name).isometries())
            members.append((name, radius, scale, gens))
        with tr.span("nets.reference_nets"):
            sf.nets.reference_nets()
        self.jobs = [self._job(*m) for m in members]

    def _job(self, name, radius, scale, gens):
        def run(tr):
            return classify_structure(
                tr, lambda: sf.build(name, sf.Region((0, 0, 0), radius)),
                gens, scale,
            )
        return Job(name, run, _check_catalog(name))


# ---------------------------------------------------------------------------
# rational


# Finite, planar and the smaller 3-periodic members, moved off the integers.
RATIONAL = [
    ("tet", 4, 4), ("cube", 4, 4), ("oct", 4, 4),
    ("sq44", 3, 2), ("tri36", 3, 2), ("hex63", 3, 2), ("P2:1,0", 3, 2),
]

# The translation of every rational input.  It is fixed, not drawn from the
# seed: the amount of work depends on it.  Other numerators over the same
# denominators changed the calls of one pass by up to 18%, and adding an
# integer vector to it by up to 68% (the P2:1,0 job), so a seeded
# translation made the work, and with it pass_s, differ from seed to seed.
RATIONAL_SHIFT = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))


def moved_generators(gen, shift):
    """Conjugate every generator by the translation: x -> M(x - s) + t + s."""
    moved = {}
    for gname, g in gen.generators.items():
        ms = sf.mat_vec(g.m, shift)
        moved[gname] = sf.Isometry(
            g.m, tuple(t + s - m for t, s, m in zip(g.t, shift, ms))
        )

    def add(v):
        return tuple(a + b for a, b in zip(v, shift))

    return sf.GeneratorSet(moved, add(gen.base_vertex), add(gen.base_edge_other),
                           gen.face_word, name=gen.name)


def face_key(vertices, period):
    """Canonical form of a face, independent of the library's own: the least
    rotation or reversal of a closed face, or for an infinite face its
    points reduced along the period together with the period up to sign."""
    if period is None:
        n = len(vertices)
        forms = []
        for seq in (tuple(vertices), tuple(reversed(vertices))):
            forms.extend(seq[k:] + seq[:k] for k in range(n))
        return min(forms)
    period = max(tuple(period), tuple(-c for c in period))
    tt = sum(c * c for c in period)
    reduced = set()
    for v in vertices:
        k = math.floor(Fraction(sum(a * b for a, b in zip(v, period))) / tt)
        reduced.add(tuple(a - k * b for a, b in zip(v, period)))
    return (frozenset(reduced), period)


def _trace_lengths(patch, scale, mode):
    if mode != "polyhedron":
        return None
    return sorted({(t.length, t.closed_up)
                   for t in sf.ops.trace(patch, "petrie", quotient_scale=scale)})


class Rational:
    """The pipeline of catalog on generator sets moved by a rational shift."""

    warmup = True

    def __init__(self, seed, workdir):
        self.base = {}

    def setup(self, tr):
        _import_library()
        self.shift = RATIONAL_SHIFT
        members = []
        for name, radius, scale in RATIONAL:
            gen = sf.instantiate(name)
            members.append((name, radius, scale, gen,
                            moved_generators(gen, self.shift)))
        with tr.span("nets.reference_nets"):
            sf.nets.reference_nets()
        self.jobs = [self._job(*m) for m in members]

    def _job(self, name, radius, scale, gen, moved):
        region = sf.Region(self.shift, radius)

        def run(tr):
            with tr.span("serialization.dump"):
                text = sf.serialization.generators_to_json_text(moved)
            tr.count("serialization.bytes", len(text))
            with tr.span("serialization.ingest"):
                ingested = sf.serialization.ingest_generators(text, name=name)
            return classify_structure(
                tr, lambda: sf.wythoff_patch(ingested, region, name=name),
                ingested.isometries(), scale,
            )

        def check(result):
            out, patch = result
            _check_catalog(name)(result)
            if name not in self.base:
                from tracing import NullTracer

                base_out, base_patch = classify_structure(
                    NullTracer(),
                    lambda: sf.wythoff_patch(gen, sf.Region((0, 0, 0), radius),
                                             name=name),
                    gen.isometries(), scale,
                )
                base_out.update(element_sets(base_patch, shift=self.shift))
                base_out["trace_lengths"] = _trace_lengths(
                    base_patch, scale, base_out["mode"])
                self.base[name] = base_out
            out.update(element_sets(patch))
            out["trace_lengths"] = _trace_lengths(patch, scale, out["mode"])
            checks.check_translate(name, out, self.base[name])

        return Job(name, run, check)


# ---------------------------------------------------------------------------
# ops


# (preset, radius, scale, also take the Petrie dual twice).  The traces run
# on every patch; the quotient of each reused patch is cached after the
# warm-up pass, so in timed passes only the duals build quotients.
OPS = [
    ("tet", 4, 4, True), ("cube", 4, 4, True), ("oct", 4, 4, True),
    ("sq44", 4, 4, True), ("P:1,0", 3, 2, True), ("P2:1,0", 4, 2, True),
    ("blend(sq44,apeiro:1)", 3, 2, True),
    ("P:1,1", 3, 2, False), ("P:1,-1", 3, 2, False),
]
WORDS = ("petrie", "hole", "two_zigzag")


def faces_meeting(patch, region):
    """The faces with a walk point inside ``region``."""
    out = []
    for f in patch.faces:
        pts = list(f.vertices)
        if f.period_vector is not None:
            step = max(abs(c) for c in f.period_vector)
            far = max(abs(a - b) for v in pts for a, b in zip(v, region.center))
            reach = int((far + region.radius) / step) + 2
            pts = [tuple(p + k * t for p, t in zip(v, f.period_vector))
                   for v in f.vertices for k in range(-reach, reach + 1)]
        if any(region.contains(p) for p in pts):
            out.append(f)
    return out


def element_sets(patch, face_margin=0, shift=(0, 0, 0)):
    """Vertices and edges in the region, and the faces that meet the region
    shrunk by ``face_margin``, all moved by ``shift``.  Support elements
    beyond the region depend on the construction's margin and are left out;
    a finite structure lies inside its region whole."""
    region = patch.region
    inner = region.shrunk(face_margin) if face_margin else region

    def move(p):
        return tuple(a + b for a, b in zip(p, shift))

    return {
        "vertices": {move(v) for v in patch.vertices if region.contains(v)},
        "edges": {tuple(sorted((move(p), move(q)))) for p, q in patch.edge_points
                  if region.contains(p) or region.contains(q)},
        "faces": {face_key([move(p) for p in f.vertices], f.period_vector)
                  for f in faces_meeting(patch, inner)},
    }


class Ops:
    """Petrie duals, duals of duals and flag-word traces on prebuilt patches.
    The patches are fixed: no input depends on the seed."""

    warmup = True

    def __init__(self, seed, workdir):
        pass

    def setup(self, tr):
        _import_library()
        self.jobs = []
        for name, radius, scale, dual in OPS:
            with tr.span("orbit.build"):
                patch = sf.build(name, sf.Region((0, 0, 0), radius))
            with tr.span("orbit.lattice"):
                patch.lattice
            self.jobs.append(self._job(name, patch, scale, dual))

    def _job(self, name, patch, scale, dual):
        def run(tr):
            out = {"traces": {}}
            if dual:
                with tr.span("ops.petrie_dual"):
                    out["dual"] = sf.ops.petrie_dual(patch, quotient_scale=scale)
                with tr.span("ops.petrie_dual"):
                    out["back"] = sf.ops.petrie_dual(out["dual"],
                                                     quotient_scale=scale)
                tr.count("quotient.darts", sf.build_quotient(
                    out["dual"], scale=scale).dart_count())
            for word in WORDS:
                with tr.span("ops.trace"):
                    circuits = sf.ops.trace(patch, word, quotient_scale=scale)
                tr.count("ops.trace_circuits", len(circuits))
                out["traces"][word] = [(t.length, t.closed_up) for t in circuits]
            return out

        def check(out):
            checks.check_traces(name, out["traces"])
            if dual:
                sets = [element_sets(c, face_margin=2)
                        for c in (patch, out["dual"], out["back"])]
                checks.check_petrie_pair(name, *sets)
                if name == "cube":
                    equal(len(out["dual"].faces), 4, "petrie(cube) faces")

        return Job(name, run, check)


# ---------------------------------------------------------------------------
# cli


def cli_env(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    return env


def generator_file_text(name, shift):
    return sf.serialization.generators_to_json_text(
        moved_generators(sf.instantiate(name), shift))


# The translation under which the finite cube is mistaken for a 3-periodic
# structure; fixed, so the failure does not depend on the seed.
CUBE_FAULT_SHIFT = (Fraction(1, 3), Fraction(-1, 7), Fraction(1, 2))


class Cli:
    """Cold skelforge processes, one after another."""

    warmup = False

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.expected = {}

    def setup(self, tr):
        # The set-up probe of this workload is one cold `skelforge --help`;
        # the input files are written here, before timing.
        _import_library()
        self.src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        self.env = cli_env(self.src)
        os.makedirs(self.workdir, exist_ok=True)
        files = {
            "hex63_shifted.json": generator_file_text("hex63", RATIONAL_SHIFT),
            "cube_shifted.json": generator_file_text("cube", CUBE_FAULT_SHIFT),
        }
        for fname, text in files.items():
            with open(os.path.join(self.workdir, fname), "w") as fh:
                fh.write(text)
        commands = [
            ("petrie_cube_obj", ["petrie", "--preset", "cube", "--format", "obj"],
             self._check_obj("petrie(cube)", 4, 0)),
            ("net_K4", ["net", "--preset", "K4_12", "--radius", "3"],
             self._check_net("pcu")),
            ("validate_skel2cubic", ["validate", "--preset", "skel2cubic",
                                     "--radius", "3"], self._check_validate),
            ("build_blend", ["build", "--preset", "blend(sq44,apeiro:1)",
                             "--out", "blend.json"], self._check_blend),
            ("export_P2_obj", ["export", "--preset", "P2:1,0", "--format", "obj",
                               "--out", "helix.obj"], self._check_export),
            ("classify_K5", ["classify", "--preset", "K5_12", "--radius", "3",
                             "--quotient", "2"], self._check_classify("K5_12")),
            ("classify_hex63_input", ["classify", "--input", "hex63_shifted.json",
                                      "--radius", "3", "--quotient", "2"],
             self._check_classify("hex63")),
            ("net_cube_input", ["net", "--input", "cube_shifted.json",
                                "--radius", "3"], self._check_not_periodic),
        ]
        self.jobs = [
            Job(label, self._runner(argv), check,
                known_fault=(label == "net_cube_input"))
            for label, argv, check in commands
        ]

    def _runner(self, argv):
        out_file = argv[argv.index("--out") + 1] if "--out" in argv else None

        def run(tr):
            with tr.span("cli." + argv[0]):
                proc = subprocess.run(
                    [sys.executable, "-m", "skelforge.cli", *argv],
                    cwd=self.workdir, env=self.env, capture_output=True,
                    text=True, timeout=120,
                )
            written = proc.stdout
            if out_file and proc.returncode == 0:
                with open(os.path.join(self.workdir, out_file)) as fh:
                    written = fh.read()
            tr.count("serialization.bytes", len(written.encode()))
            return proc.returncode, proc.stdout, written

        return run

    # -- expected values built in-process, once, outside timing -------------

    def _expect(self, key, make):
        if key not in self.expected:
            self.expected[key] = make()
        return self.expected[key]

    def _check_classify(self, name):
        def check(result):
            rc, stdout, _ = result
            equal(rc, 0, f"classify {name} exit code")
            checks.check_cli_classify(name, checks.parse_json(stdout, name))
        return check

    def _check_obj(self, what, lines, faces):
        def check(result):
            rc, _, text = result
            equal(rc, 0, f"{what} exit code")
            rec = checks.obj_records(text)
            equal((rec["l"], rec["f"]), (lines, faces), f"{what} OBJ records")
        return check

    def _check_net(self, net):
        def check(result):
            rc, stdout, _ = result
            equal(rc, 0, "net exit code")
            data = checks.parse_json(stdout, "net")
            equal(data["identification"], net, "net identification")
            equal(data["coordination_sequence"],
                  checks.closed_form_sequence(net, 10), "net shells")
        return check

    def _check_validate(self, result):
        rc, stdout, _ = result
        equal(rc, 0, "validate exit code")
        data = checks.parse_json(stdout, "validate")
        expect(data["passed"], "validate skel2cubic did not pass")
        equal(data["r"], 4, "validate skel2cubic r")
        equal(data["discreteness"], "periodic rank 3", "skel2cubic discreteness")

    def _check_blend(self, result):
        rc, _, text = result
        equal(rc, 0, "build blend exit code")
        data = checks.parse_json(text, "build blend")
        n = self._expect("blend", lambda: len(sf.build(
            "blend(sq44,apeiro:1)").faces))
        equal(len(data["faces"]), n, "blend faces")
        expect(all(f.get("period_vector") for f in data["faces"]),
               "blend faces are not all helices")

    def _check_export(self, result):
        rc, _, text = result
        equal(rc, 0, "export exit code")
        n = self._expect("P2", lambda: len(sf.build("P2:1,0").faces))
        rec = checks.obj_records(text)
        equal((rec["l"], rec["f"]), (n, 0), "P2:1,0 OBJ records")

    def _check_not_periodic(self, result):
        rc, stdout, _ = result
        data = checks.parse_json(stdout, "net cube")
        equal((rc, data.get("code")), (1, "not-3-periodic"),
              "net of a translated cube")


WORKLOADS = {"catalog": Catalog, "ops": Ops, "rational": Rational, "cli": Cli}
