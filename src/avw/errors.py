"""Exception types shared across the workbench."""


class AvwError(Exception):
    """Base class for all workbench errors."""


class GeneratorOutsideAlgebra(AvwError, ValueError):
    """A generator was applied that does not belong to the acting algebra."""


class NegativeHighestWeight(AvwError, ValueError):
    """sl2 irreps require a nonnegative integer highest weight."""


class OutOfWindow(AvwError, ValueError):
    """A computation left the finite depth/charge/offset window."""


class WindowTooNarrow(AvwError, ValueError):
    """The weight window is too small for the requested analysis."""


class ZeroShift(AvwError, ValueError):
    """The injectivity map is only defined for a nonzero degree shift."""


class InvalidBound(AvwError, ValueError):
    """A depth, charge or basis-size bound is negative or not an integer."""


class NotAModule(AvwError, ValueError):
    """A spec violates the module axiom, so module-level questions are undefined."""


class InternalError(AvwError, RuntimeError):
    """An internal invariant failed: a defect in the workbench, not in the input."""


class ResourceBound(AvwError, RuntimeError):
    """A configured basis-size or exponent cap was exceeded."""


class SpecParseError(AvwError, ValueError):
    """A module-spec string failed to parse; carries the failing position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownKind(SpecParseError):
    """The module-spec kind is not one of the known kinds."""


class MissingParameter(SpecParseError):
    """A required module-spec parameter was not supplied."""
