"""Exception types shared across the package."""


class RingMismatchError(ValueError):
    """A monomial does not live in the expected ambient ring."""


class ZeroIdealError(ValueError):
    """Colon or saturation by the zero ideal was requested."""


class ParseError(ValueError):
    """A command line, monomial expression, ideal file, or corpus file failed to parse."""


class InsufficientDataError(RuntimeError):
    """A sample window is too short to support the requested detection.

    Raised by the quasi-polynomial fitter and by dimension-stabilization
    detection.  The remedy is a larger sample window, not a code fix.
    """


class InconsistencyError(RuntimeError):
    """An internally derived quantity violates a proved constraint.

    This always indicates an engine bug, never a data problem.
    """
