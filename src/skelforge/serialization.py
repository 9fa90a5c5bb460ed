"""File formats: complex JSON, generator-set JSON, OBJ, periodic-graph text.

All scalars serialize as "p/q" strings (the "/q" dropped for integers), and
every dump is canonically ordered so rebuilding a structure and re-dumping
it is byte-identical.
"""

from __future__ import annotations

import json

from .complexes import FaceDescriptor, Region, SkeletalComplex
from .errors import NotIsometryError, ParseError
from .geometry import Isometry, matrix_rank, scalar, scalar_str, vsub
from .orbit import GeneratorSet


def _vec_out(v):
    return [scalar_str(c) for c in v]


def _vec_in(v):
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ParseError(f"expected a 3-vector, got {v!r}")
    return tuple(scalar(c) for c in v)


def _edge_in(e, vertices):
    """An edge given as a pair of distinct indices into ``vertices``."""
    if not (isinstance(e, (list, tuple)) and len(e) == 2 and e[0] != e[1]
            and all(type(i) is int and 0 <= i < len(vertices) for i in e)):
        raise ParseError(
            f"expected an edge as two distinct vertex indices in [0, {len(vertices)}), "
            f"got {e!r}"
        )
    return vertices[e[0]], vertices[e[1]]


# ---------------------------------------------------------------------------
# complexes


def complex_to_json(complex_):
    faces = []
    for f in complex_.faces:
        form = f.canonical_form()
        entry = {"vertices": [_vec_out(p) for p in form.vertices]}
        if form.period_vector is not None:
            entry["period_vector"] = _vec_out(form.period_vector)
        faces.append(entry)
    data = {
        "name": complex_.name,
        "region": {
            "center": _vec_out(complex_.region.center),
            "radius": scalar_str(complex_.region.radius),
        },
        "window_margin": scalar_str(
            complex_.window.radius - complex_.region.radius
        ),
        "vertices": [_vec_out(v) for v in complex_.vertices],
        "edges": list(complex_.edges),
        "faces": faces,
        "counts": {
            "vertices": len(complex_.vertices),
            "edges": len(complex_.edge_points),
            "faces": len(complex_.faces),
            # incident (vertex, edge, face) triples materialized in the patch
            "flags": complex_.flag_count,
        },
    }
    return data


def complex_to_json_text(complex_):
    return json.dumps(complex_to_json(complex_), indent=1, sort_keys=True) + "\n"


def complex_from_json(data):
    try:
        region = Region(
            _vec_in(data["region"]["center"]), scalar(data["region"]["radius"])
        )
        margin = scalar(data.get("window_margin", 2))
        vertices = [_vec_in(v) for v in data["vertices"]]
        edges = [_edge_in(e, vertices) for e in data["edges"]]
        faces = []
        for entry in data["faces"]:
            pts = [_vec_in(p) for p in entry["vertices"]]
            pv = entry.get("period_vector")
            faces.append(
                FaceDescriptor(pts, None if pv is None else _vec_in(pv))
            )
    except (KeyError, IndexError, TypeError) as exc:
        raise ParseError(f"malformed complex JSON: {exc!r}") from exc
    return SkeletalComplex(
        vertices, edges, faces, region,
        window_margin=margin, name=data.get("name", ""),
    )


# ---------------------------------------------------------------------------
# generator sets


def generators_to_json(gen):
    return {
        "generators": [
            {
                "name": name,
                "matrix": [[scalar_str(c) for c in row] for row in iso.m],
                "translation": _vec_out(iso.t),
            }
            for name, iso in gen.generators.items()
        ],
        "base_vertex": _vec_out(gen.base_vertex),
        "base_edge_other": _vec_out(gen.base_edge_other),
        "face_generator": "*".join(gen.face_word),
    }


def generators_to_json_text(gen):
    return json.dumps(generators_to_json(gen), indent=1, sort_keys=True) + "\n"


def ingest_generators(data, name=""):
    """Parse the generator-set schema, verifying exact orthogonality."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        entries = data["generators"]
        base_vertex = _vec_in(data["base_vertex"])
        base_edge_other = _vec_in(data["base_edge_other"])
        face_word = data["face_generator"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed generator JSON: {exc!r}") from exc
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ParseError(f"generators must be a list of objects, got {entries!r}")
    if not isinstance(face_word, str):
        raise ParseError(f"face_generator must be a string, got {face_word!r}")
    gens = {}
    for entry in entries:
        gname = entry.get("name")
        if not isinstance(gname, str):
            raise ParseError(f"generator name must be a string, got {gname!r}")
        try:
            rows = [[scalar(c) for c in row] for row in entry["matrix"]]
            t = _vec_in(entry["translation"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed generator entry {gname!r}") from exc
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ParseError(f"generator {gname!r} matrix is not 3x3")
        try:
            gens[gname] = Isometry(rows, t)
        except NotIsometryError as exc:
            raise NotIsometryError(
                f"generator {gname!r} is not an isometry: {exc.detail}"
            ) from exc
    return GeneratorSet(gens, base_vertex, base_edge_other, face_word, name=name)


# ---------------------------------------------------------------------------
# OBJ export


def complex_to_obj(complex_, periods=3):
    """Wavefront OBJ: planar finite faces as 'f', everything else as 'l'.

    Infinite faces emit ``periods`` periods of their walk as a polyline.
    Coordinates are decimalized to 12 digits (the one lossy format here).
    """
    lines = [f"# {complex_.name or 'skeletal complex'}"]
    index = {}

    def vid(p):
        if p not in index:
            index[p] = len(index) + 1
            lines.append("v " + " ".join(f"{float(c):.12f}" for c in p))
        return index[p]

    for v in complex_.vertices:
        vid(v)
    face_lines = []
    for face in complex_.faces:
        f = face.canonical_form()
        if f.period_vector is None:
            ids = [vid(p) for p in f.vertices]
            diffs = [vsub(p, f.vertices[0]) for p in f.vertices[1:]]
            planar = matrix_rank(diffs) <= 2
            rec = "f" if planar else "l"
            face_lines.append(rec + " " + " ".join(str(i) for i in ids))
            if rec == "l":
                face_lines[-1] += f" {ids[0]}"
        else:
            n = len(f.vertices)
            ids = [vid(f.vertex(k)) for k in range(n * periods + 1)]
            face_lines.append("l " + " ".join(str(i) for i in ids))
    lines.extend(face_lines)
    return "\n".join(lines) + "\n"
