"""Exception types shared across the package."""


class TorusTutteError(Exception):
    """Base class for every error this package raises deliberately."""


class MeshError(TorusTutteError):
    """A combinatorial mesh failed validation."""


class BadFaceError(MeshError):
    """A face repeats a vertex or references an invalid vertex id."""


class NonManifoldEdgeError(MeshError):
    """An undirected edge does not border exactly two faces."""


class NonManifoldVertexError(MeshError):
    """The faces around a vertex do not stitch into a single cycle."""


class BadOrientationError(MeshError):
    """Two faces induce the same direction on a shared edge."""


class EulerCharacteristicError(MeshError):
    """V - E + F is not zero."""


class DisconnectedError(MeshError):
    """The one-skeleton is not connected."""


class CocycleViolationError(MeshError):
    """Lattice shifts around some face do not sum to zero."""


class ShiftConflictError(MeshError):
    """Duplicate or antisymmetry-inconsistent shift data was supplied."""


class NoGeneratorLoopError(MeshError):
    """The shift sums of closed walks do not generate Z^2, so some class has no loop."""


class NotEmbeddedError(TorusTutteError):
    """A placement that must be an embedding is not one."""


class NonPositiveWeightError(TorusTutteError):
    """A weight assignment contains a zero, negative, or non-finite value."""


class SingularSystemError(TorusTutteError):
    """The sparse LU of the balance matrix without vertex 0 found it
    exactly singular. The matrix is nonsingular in exact arithmetic for
    every validated mesh, but weights near the bottom of the float range,
    such as all 5e-324, underflow it to singular."""


class NotAdmissibleError(TorusTutteError):
    """Weights whose balance energy exceeds tolerance were passed where an
    admissible assignment is required."""


class EmbeddingCheckFailedError(TorusTutteError):
    """A balanced placement failed the embedding certificate."""


class NonFiniteStateError(TorusTutteError):
    """A balance solve of valid weights came out non-finite, or the flow
    met a state past its step-size guard, which signals a bug."""


class DegenerateVertexError(TorusTutteError):
    """Every edge value at a vertex is numerically zero."""


class RetractFailedError(TorusTutteError):
    """A retraction inside a morph did not converge."""


class PerturbFailedError(TorusTutteError):
    """No embedded placement was found after the allowed magnitude halvings."""
