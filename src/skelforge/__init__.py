"""skelforge: exact-arithmetic skeletal polyhedra, complexes, and nets.

Structures live in 3-space with rational coordinates only, so every
comparison, symmetry, and classification is exact.  The main entry points:

- :func:`skelforge.presets.build` constructs any catalog structure over a
  bounded region;
- :mod:`skelforge.ops` transforms them (Petrie duals, word traces, blends,
  covering checks);
- :mod:`skelforge.classify` names what they are (polygon taxonomy, Schlafli
  types, mirror vectors, the regular/chiral verdict);
- :mod:`skelforge.nets` reduces edge graphs to periodic quotient graphs and
  identifies the classical crystal nets.

Importing the package loads none of its modules: a public name resolves
on first use, which imports its home module, so a command-line run loads
only the modules its command calls.
"""

__version__ = "0.1.0"

# each module's public names, in the order of __all__
_EXPORTS = {
    "complexes": (
        "FaceDescriptor", "Region", "SkeletalComplex", "ValidationReport",
        "VertexFigureGraph", "graph_identify", "validate",
    ),
    "classify": (
        "EdgeStabilizer", "PolygonClass", "SchlafliType", "SymmetryVerdict",
        "classify_polygon", "dual_congruence_check", "edge_stabilizer",
        "find_flag_symmetries", "mirror_vector", "schlafli", "verdict",
    ),
    "errors": ("SkelforgeError",),
    "geometry": (
        "Isometry", "Lattice", "VertexSetSpec", "compose", "fixed_space_dim",
        "order_or_translation", "solve_isometry",
    ),
    "nets": (
        "PeriodicGraph", "extract_net", "identify_net", "identify_vertex_set",
        "reference_nets",
    ),
    "ops": (
        "WordTrace", "blend_with_apeirogon", "blend_with_segment",
        "covering_check", "petrie_dual", "trace", "trace_report",
    ),
    "orbit": ("GeneratorSet", "build_base_face", "build_quotient", "wythoff_patch"),
    "presets": ("build", "instantiate"),
    "serialization": (
        "complex_from_json", "complex_to_json", "complex_to_obj",
        "generators_to_json", "ingest_generators",
    ),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value
