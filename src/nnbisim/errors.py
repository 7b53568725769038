"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An input vector, matrix, or set has the wrong dimensions."""


class MergePreconditionError(ValueError):
    """The two networks violate a merge precondition (named in the message)."""


class UnsupportedShapeError(MergePreconditionError):
    """The smaller network has fewer than two affine layers."""


class ResourceLimitError(RuntimeError):
    """A configured cap (cell count, star count) was exceeded."""


class DegenerateLPError(ArithmeticError):
    """The simplex hit a pivot too small to trust (numeric breakdown)."""


class NumericError(ArithmeticError, ValueError):
    """Finite input gave a non-finite result (weights large enough to
    overflow double precision)."""


class ParseError(ValueError):
    """A network or problem file is malformed; message carries the location."""

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)
