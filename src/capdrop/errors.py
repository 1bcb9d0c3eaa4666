"""Exception types raised by capdrop operations."""


class CapdropError(Exception):
    """Base class for all capdrop errors."""


class MeshError(CapdropError):
    """Base class for mesh construction and topology errors."""


class NonManifoldError(MeshError):
    """An edge is shared by more than two faces, or a boundary vertex is pinched."""


class InconsistentOrientationError(MeshError):
    """Two faces traverse a shared edge in the same direction."""


class DegenerateFaceError(MeshError):
    """A face has repeated vertex indices or (numerically) zero area."""


class OpenMeshError(MeshError):
    """A closed mesh was required but boundary edges are present."""


class AlreadyClosedError(MeshError):
    """A mesh with boundary was required but the input is closed."""


class GeometryError(CapdropError):
    """Base class for geometric precondition failures."""


class BoundaryOffSphereError(GeometryError):
    """A boundary vertex lies farther from the sphere than the tolerance."""


class LoopsNotInHemisphereError(GeometryError):
    """No open hemisphere contains the boundary loop(s)."""


class SelfIntersectingPatchError(GeometryError):
    """The spherical patch triangulation would self-intersect."""


class DegenerateConfigurationError(GeometryError):
    """Input points do not determine the requested fit (e.g. coplanar for a sphere)."""


class AxisSingularityError(GeometryError):
    """A rotational profile ran into the axis of revolution."""


class CurvatureTooLargeError(GeometryError):
    """No spherical cap spans the circle: |H| * r > 1."""


class ZeroCurvatureError(GeometryError):
    """Cap construction needs H != 0; the flat disk is the H = 0 solution."""


class SolverError(CapdropError):
    """Base class for evolution failures."""


class StepCollapseError(SolverError):
    """Backtracking line search collapsed without an acceptable step."""


class MeshDegeneracyError(SolverError):
    """Element quality fell below the floor and remeshing could not recover it."""


class SideViolationError(SolverError):
    """The surface crossed to the wrong side of the substrate sphere and re-projection failed."""


class UnknownFormatError(CapdropError):
    """File extension/format not recognized by the converter."""
