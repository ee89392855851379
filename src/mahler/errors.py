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
    """No (root number, bad local factor) assignment satisfies the L-function
    consistency threshold; usually a wrong conductor or too few coefficients."""
