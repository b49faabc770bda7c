"""Exception types shared across the package.

Every error raised on purpose derives from one of these, so callers (and the
CLI exit-code mapping) can tell configuration mistakes, bad data, file-format
problems and numeric blow-ups apart.
"""


class UcamError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(UcamError, ValueError):
    """Operands have incompatible shapes."""


class ConfigError(UcamError, ValueError):
    """A configuration value violates its contract."""


class GraphError(UcamError, RuntimeError):
    """Misuse of the compute graph (non-scalar backward, stale grads, ...)."""


class NumericError(UcamError, ArithmeticError):
    """Non-finite values were produced, or a numeric check failed."""


class DivergenceError(NumericError):
    """Training loss became non-finite."""


class DataError(UcamError, ValueError):
    """Invalid payload data (labels out of range, non-finite features, ...)."""


class FileFormatError(UcamError, ValueError):
    """A binary file's magic, version, header or tensor names are bad."""


class TruncatedFileError(FileFormatError):
    """A binary file ended before its declared payload."""


class StructureError(UcamError, ValueError):
    """Stored tensors do not match the structure implied by the config."""
