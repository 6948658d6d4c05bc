"""Exception types shared across the engine."""


class FocalvoxError(Exception):
    """Base class for all engine errors."""


class DuplicateCoordinate(FocalvoxError):
    """Two rows of a sparse tensor share the same (batch, ijk) coordinate."""


class InvalidSpec(FocalvoxError):
    """A kernel/layer specification violates its invariants."""


class ShapeMismatch(FocalvoxError):
    """Operand shapes are inconsistent."""


class EmptyBatch(FocalvoxError):
    """Batch statistics requested over zero rows."""


class EmptyScene(FocalvoxError):
    """Voxelization produced no active voxels."""


class NonFiniteGradient(FocalvoxError):
    """An analytic gradient contains NaN or infinity."""


class TapeConsumed(FocalvoxError):
    """A gradient tape was replayed a second time; replay frees its state."""


class InactiveQuery(FocalvoxError):
    """A probe query names a voxel that is not active."""


class DegenerateFit(FocalvoxError):
    """Too few distinct sample points to fit a scaling slope."""


class ParseError(FocalvoxError):
    """A point-cloud record or a weights tensor record could not be parsed.

    ``row`` is the 1-based record index within the file.
    """

    def __init__(self, row, message):
        super().__init__(f"row {row}: {message}")
        self.row = row


class IoError(FocalvoxError):
    """File could not be read or written."""


class BadMagic(FocalvoxError):
    """Weights file does not start with the expected magic bytes."""


class VersionMismatch(FocalvoxError):
    """Weights file version is unsupported."""


class TruncatedPayload(FocalvoxError):
    """Weights file ends before the declared payload is complete."""


class ConfigError(FocalvoxError):
    """Configuration document failed schema validation."""
