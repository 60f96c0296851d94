"""Exception types: one class per outcome a caller acts on."""


class ChanestError(Exception):
    """Base class for all package-specific failures."""


class ParseError(ChanestError):
    """Packet log could not be parsed. Carries the offending line numbers."""

    def __init__(self, message, lines=None):
        super().__init__(message)
        self.lines = list(lines) if lines else []


class InsufficientDataError(ChanestError):
    """Too few observed samples to estimate anything."""
    status = "insufficient-data"


class DegenerateFitError(ChanestError):
    """A component got no samples, so the SEM chain cannot go on."""
    status = "degenerate-fit"


class NumericalFailureError(ChanestError):
    """A bin's chain left double precision: both component densities or
    both censored masses underflowed, a component's truncated mass is below
    the floor, or the M-step or the burn-window mean gave a shape or scale
    that is not finite and > 0. The message names which."""
    status = "numerical-failure"
