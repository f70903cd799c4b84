"""Exception hierarchy. The CLI maps these onto exit codes."""


class QricError(Exception):
    """Base class for all package errors."""


class LabelError(QricError):
    """Unknown, duplicate, or non-bijective subsystem labels."""


class DimensionError(QricError):
    """Qudit-dimension or operator-shape mismatch."""


class NormalizationError(QricError):
    """State not normalized / not a valid density operator."""


class SizeGuardError(QricError):
    """Raised only by statealg.check_size: a dense array over statealg.MAX_BYTES,
    or a protocol run's joint dimension over statealg.MAX_JOINT_DIM."""


class ConstraintError(QricError):
    """Channel table violates the residue constraints or weight rules."""


class ProtocolError(QricError):
    """Protocol precondition failed (registry mismatch, bad outcome, ...)."""
