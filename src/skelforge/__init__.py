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
"""

from .complexes import (
    FaceDescriptor,
    Region,
    SkeletalComplex,
    ValidationReport,
    VertexFigureGraph,
    graph_identify,
    validate,
)
from .classify import (
    EdgeStabilizer,
    PolygonClass,
    SchlafliType,
    SymmetryVerdict,
    classify_polygon,
    dual_congruence_check,
    edge_stabilizer,
    find_flag_symmetries,
    mirror_vector,
    schlafli,
    verdict,
)
from .errors import SkelforgeError
from .geometry import (
    Isometry,
    Lattice,
    VertexSetSpec,
    compose,
    fixed_space_dim,
    order_or_translation,
    solve_isometry,
)
from .nets import (
    PeriodicGraph,
    extract_net,
    identify_net,
    identify_vertex_set,
    reference_nets,
)
from .ops import (
    WordTrace,
    blend_with_apeirogon,
    blend_with_segment,
    covering_check,
    petrie_dual,
    trace,
    trace_report,
)
from .orbit import (
    GeneratorSet,
    build_base_face,
    build_quotient,
    detect_translation_lattice,
    wythoff_patch,
)
from .presets import build, instantiate
from .serialization import (
    complex_from_json,
    complex_to_json,
    complex_to_obj,
    generators_to_json,
    ingest_generators,
)

__version__ = "0.1.0"

__all__ = [
    "FaceDescriptor", "Region", "SkeletalComplex", "ValidationReport",
    "VertexFigureGraph", "graph_identify", "validate",
    "EdgeStabilizer", "PolygonClass", "SchlafliType", "SymmetryVerdict",
    "classify_polygon", "dual_congruence_check", "edge_stabilizer",
    "find_flag_symmetries", "mirror_vector", "schlafli", "verdict",
    "SkelforgeError",
    "Isometry", "Lattice", "VertexSetSpec", "compose", "fixed_space_dim",
    "order_or_translation", "solve_isometry",
    "PeriodicGraph", "extract_net", "identify_net", "identify_vertex_set",
    "reference_nets",
    "WordTrace", "blend_with_apeirogon", "blend_with_segment",
    "covering_check", "petrie_dual", "trace", "trace_report",
    "GeneratorSet", "build_base_face", "build_quotient",
    "detect_translation_lattice", "wythoff_patch",
    "build", "instantiate",
    "complex_from_json", "complex_to_json", "complex_to_obj",
    "generators_to_json", "ingest_generators",
]
