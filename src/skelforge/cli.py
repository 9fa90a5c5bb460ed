"""Command-line front end.

Subcommands: build, validate, classify, petrie, net, export.  Structures
come from --preset names (P:a,b, P2:c,d, sq44, tri36, hex63, tet, cube,
oct, skel2cubic, K1_12, K4_12, K5_12, petrie(...), blend(...,seg:l),
blend(...,apeiro:s)) or from a --input generator-set JSON file.  Any
library error exits nonzero with one-line JSON {"code", "detail"}.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FileAccessError, ParseError, SkelforgeError

# Each command imports the modules it calls, so that a cold process loads
# only those, and --help and usage errors load none.


def _load_structure(args):
    from .complexes import Region
    from .geometry import scalar

    region = Region((0, 0, 0), scalar(args.radius))
    if args.input is None:
        from .presets import build

        patch = build(args.preset, region)
    else:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as exc:
            raise FileAccessError(f"cannot read --input {args.input!r}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"--input {args.input!r} is not UTF-8 text: {exc.reason}") from exc
        from .orbit import wythoff_patch
        from .serialization import ingest_generators

        gen = ingest_generators(text, name=args.input)
        patch = wythoff_patch(gen, region, name=gen.name)
        patch.generator_set = gen
    return patch


def _write(args, text):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise FileAccessError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _cmd_build(args):
    patch = _load_structure(args)
    _write(args, _format_structure(patch, args))


def _format_structure(patch, args):
    if args.format == "obj":
        from .serialization import complex_to_obj

        return complex_to_obj(patch)
    if args.format == "pgr":
        from .nets import extract_net

        return extract_net(patch).to_text()
    from .serialization import complex_to_json_text

    return complex_to_json_text(patch)


def _cmd_validate(args):
    from .complexes import validate

    patch = _load_structure(args)
    report = validate(patch, "polyhedron")
    if report.r is not None and report.r != 2:
        report = validate(patch, "complex")
    out = {
        "name": patch.name,
        "mode": report.mode,
        "passed": report.passed,
        "r": report.r,
        "discreteness": report.discreteness,
        "axioms": [
            {"axiom": a, "ok": ok, "detail": d} for a, ok, d in report.entries
        ],
    }
    _write(args, json.dumps(out, indent=1, sort_keys=True) + "\n")
    if not report.passed:
        sys.exit(2)


def _iso_json(iso):
    from .geometry import scalar_str

    return {
        "matrix": [[scalar_str(c) for c in row] for row in iso.m],
        "translation": [scalar_str(c) for c in iso.t],
    }


def _cmd_classify(args):
    from . import classify as cls
    from . import nets
    from .complexes import graph_identify, validate

    patch = _load_structure(args)
    report = validate(patch, "polyhedron")
    mode = "polyhedron" if report.r == 2 else "complex"
    if mode == "complex":
        report = validate(patch, "complex")
    out = {"name": patch.name, "mode": mode, "valid": report.passed, "r": report.r}

    st = cls.schlafli(patch, mode=mode)
    out["schlafli"] = {
        "p": "inf" if st.p is None else st.p,
        "q": st.q,
        "r": st.r,
        "face_class": st.face_class.symbol,
    }
    counts = {}
    classes = patch.classes
    for key, members in classes.counts.items():
        sym = cls.classify_polygon(classes.faces[key].primitive()).symbol
        counts[sym] = counts.get(sym, 0) + members
    out["face_classes"] = counts

    vf = patch.vertex_figure(patch.central_vertex())
    out["vertex_figure"] = graph_identify(vf)
    out["vertex_set"] = nets.identify_vertex_set(patch)

    if mode == "polyhedron":
        fam = cls.find_flag_symmetries(patch)
        gens = None
        if fam is not None:
            out["generators"] = {
                k: (_iso_json(v) if k != "family" else v) for k, v in fam.items()
            }
            gens = [v for k, v in fam.items() if k != "family"]
            if fam["family"] == "R":
                out["mirror_vector"] = list(
                    cls.mirror_vector(fam["R0"], fam["R1"], fam["R2"])
                )
        made = getattr(patch, "generator_set", None)
        if gens is None and made is not None:
            gens = made.isometries()
        if gens is not None:
            v = cls.verdict(patch, gens)
            out["verdict"] = v.kind
            out["flag_orbits"] = v.orbit_count
    else:
        g2 = cls.edge_stabilizer(patch)
        out["edge_stabilizer"] = {"name": g2.name, "order": g2.order}
    try:
        net = nets.extract_net(patch)
        out["net"] = nets.identify_net(net)
    except SkelforgeError:
        out["net"] = None
    _write(args, json.dumps(out, indent=1, sort_keys=True) + "\n")


def _cmd_petrie(args):
    from .ops import petrie_dual

    patch = _load_structure(args)
    dual = petrie_dual(patch)
    _write(args, _format_structure(dual, args))


def _cmd_net(args):
    from .nets import extract_net, identify_net

    patch = _load_structure(args)
    net = extract_net(patch)
    out = {
        "name": patch.name,
        "identification": identify_net(net),
        "nodes": net.node_count(),
        "labeled_edges": len(net.edges),
        "coordination_sequence": net.coordination_sequence(args.depth),
    }
    _write(args, json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="skelforge",
        description="exact construction and classification of skeletal "
        "polyhedra, polygonal complexes, and their nets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "build": _cmd_build,
        "validate": _cmd_validate,
        "classify": _cmd_classify,
        "petrie": _cmd_petrie,
        "net": _cmd_net,
        "export": _cmd_build,
    }
    # the output formats of the commands that print a patch, default first
    formats = {
        "build": ("json", "obj", "pgr"),
        "petrie": ("json", "obj", "pgr"),
        "export": ("obj", "pgr"),
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--preset", help="catalog name, e.g. P:1,0 or K4_12")
        source.add_argument("--input", help="generator-set JSON file")
        p.add_argument("--radius", default="4", help="region radius (p/q)")
        p.add_argument(
            "--quotient", type=int,
            help="accepted and ignored: quotients are taken modulo the "
            "structure's own lattice",
        )
        if name in formats:
            p.add_argument("--format", choices=formats[name], default=formats[name][0])
        if name == "net":
            p.add_argument("--depth", type=int, default=10, help="net shell depth")
        p.add_argument("--out", help="output path (default stdout)")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except SkelforgeError as exc:
        sys.stdout.write(json.dumps(exc.as_json()) + "\n")
        sys.exit(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
