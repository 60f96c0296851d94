"""Exception types shared across the package."""


class ChanestError(Exception):
    """Base class for all package-specific failures."""


class ParseError(ChanestError):
    """Packet log could not be parsed. Carries the offending line numbers."""

    def __init__(self, message, lines=None):
        super().__init__(message)
        self.lines = list(lines) if lines else []


class InsufficientDataError(ChanestError):
    """Too few observed samples to estimate anything."""


class DegenerateFitError(ChanestError):
    """A component got no samples, so the SEM chain cannot go on."""


class NumericalFailureError(ChanestError):
    """A bin's chain left double precision: both component densities or
    both censored masses underflowed, a component's truncated mass is below
    the floor, or the M-step gave a shape or scale that is not finite and
    > 0. The message names which."""


class DegenerateSamplesError(ChanestError):
    """Sample set has zero dispersion; shape estimate is infinite."""


class RankDeficientFitError(ChanestError):
    """Line fit input has no spread in the abscissa."""
