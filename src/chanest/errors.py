"""Exception types shared across the package."""


class ChanestError(Exception):
    """Base class for all package-specific failures."""


class ParseError(ChanestError):
    """Packet log could not be parsed. Carries the offending line numbers."""

    def __init__(self, message, lines=None):
        super().__init__(message)
        self.lines = list(lines) if lines else []


class TruncationMassUnderflowError(ChanestError):
    """A component has essentially no probability mass below the threshold,
    so it cannot explain censored samples."""


class DegenerateLikelihoodError(ChanestError):
    """Both component densities underflowed; responsibilities undefined."""


class DegenerateCensorMassError(ChanestError):
    """Both censored tail masses underflowed; responsibilities undefined."""


class EmptyComponentError(ChanestError):
    """A stochastic completion assigned zero samples to a component."""


class InsufficientDataError(ChanestError):
    """Too few observed samples to estimate anything."""


class DegenerateFitError(ChanestError):
    """The SEM chain could not be continued: a component stayed empty."""


class DegenerateSamplesError(ChanestError):
    """Sample set has zero dispersion; shape estimate is infinite."""


class RankDeficientFitError(ChanestError):
    """Line fit input has no spread in the abscissa."""
