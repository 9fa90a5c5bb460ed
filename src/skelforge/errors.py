"""Error types with stable machine-readable codes.

Every failure mode raised by the library carries a short ``code`` string so
front ends (and the CLI's error JSON) can dispatch on it without parsing
prose.  Bad parameters (a region radius that is not positive, a negative
net depth) raise ``invalid-parameters``; a ``--input`` file that cannot be
read or a ``--out`` path that cannot be written raises ``io-error``, whose
detail names the path.
"""


class SkelforgeError(Exception):
    """Base class; ``code`` is stable, ``detail`` is human-oriented."""

    code = "error"

    def __init__(self, detail=""):
        self.detail = detail
        super().__init__(detail)

    def as_json(self):
        return {"code": self.code, "detail": self.detail}


class ParseError(SkelforgeError):
    code = "parse-error"


class NotIsometryError(SkelforgeError):
    code = "not-an-isometry"


class UnderdeterminedError(SkelforgeError):
    code = "underdetermined"


class DegenerateFaceError(SkelforgeError):
    code = "degenerate-face"


class ExplosionError(SkelforgeError):
    code = "explosion"


class NotPeriodicError(SkelforgeError):
    code = "not-periodic"


class BoundaryError(SkelforgeError):
    code = "boundary"


class NotPolyhedronError(SkelforgeError):
    code = "not-a-polyhedron"


class NotBipartiteError(SkelforgeError):
    code = "not-bipartite-compatible"


class ZeroParameterError(SkelforgeError):
    code = "zero-parameter"


class ProjectionError(SkelforgeError):
    code = "projection-misses-target-vertices"


class NotEquivelarError(SkelforgeError):
    code = "not-equivelar"


class NotAPolygonError(SkelforgeError):
    code = "not-a-regular-polygon"


class NotInvolutionError(SkelforgeError):
    code = "not-an-involution"


class NoFixedPointError(SkelforgeError):
    code = "no-fixed-points"


class PatchTooSmallError(SkelforgeError):
    code = "patch-too-small"


class GeneratorsDoNotDescendError(SkelforgeError):
    code = "generators-do-not-descend"


class Not3PeriodicError(SkelforgeError):
    code = "not-3-periodic"


class NotUninodalError(SkelforgeError):
    code = "not-uninodal"


class InvalidParametersError(SkelforgeError):
    code = "invalid-parameters"


class FileAccessError(SkelforgeError):
    code = "io-error"
