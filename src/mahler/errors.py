"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised on malformed polynomial expressions; carries the 0-based position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QuadratureError(RuntimeError):
    """Raised when an integrand returns NaN/inf at an interior abscissa."""

    def __init__(self, message, abscissa=None):
        if abscissa is not None:
            message = f"{message} (abscissa {abscissa!r})"
        super().__init__(message)
        self.abscissa = abscissa


class RegimeBoundaryError(ValueError):
    """A formula is undefined at a regime boundary of k (or, where the
    function says so, in a stated band around it)."""


class ResolutionError(RuntimeError):
    """An elliptic curve's local data fail a check of the L-function: a
    prime of the conductor with good reduction or the reverse, or a
    theta-consistency residual above the threshold; usually a wrong
    conductor or a model that is not minimal at a bad prime."""
