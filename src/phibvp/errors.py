"""Exception types shared across the package.

Every error raised on a user-facing path derives from PhibvpError so the
command line layer can map failures to exit codes in one place, by class:
ConfigError exits 1 and every other PhibvpError exits 4.  Building and
checking a problem raise only ConfigError.
"""

from __future__ import annotations


class PhibvpError(Exception):
    """Base class for all package errors."""


class InvalidInputError(PhibvpError):
    """Malformed numerical input: non-finite values, bad shapes, bad parameters."""


class MeshMismatchError(PhibvpError):
    """Two grid functions that must share a mesh do not."""


class DomainError(PhibvpError):
    """A point lies outside the domain of an operator."""


class BranchNotFoundError(PhibvpError):
    """No strictly monotone branch could be certified around the requested slope."""


class ImageDomainError(PhibvpError):
    """A value to be inverted lies outside the image of the selected branch."""

    def __init__(self, y: float, image_lo: float, image_hi: float, detail: str = ""):
        self.y = y
        self.image_lo = image_lo
        self.image_hi = image_hi
        msg = f"value {y!r} outside branch image ({image_lo!r}, {image_hi!r})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class BranchError(PhibvpError):
    """The reference slope is not inside the selected branch."""


class CompatibilityError(PhibvpError):
    """The shifted boundary data leave the branch image: the two-sided bound fails."""


class WrongCorollaryError(PhibvpError):
    """A corollary check was invoked on an operator outside its scope."""


class DegenerateExponentError(PhibvpError):
    """Growth exponent equals the operator exponent minus one: no finite bound exists."""


class EnvelopeError(PhibvpError):
    """Truncation bounds are inverted (lower above upper)."""


class RhsEvaluationError(PhibvpError):
    """The right-hand side produced a non-finite value at a mesh node."""

    def __init__(self, node_index: int, t: float, detail: str = ""):
        self.node_index = node_index
        self.t = t
        msg = f"right-hand side non-finite at node {node_index} (t={t!r})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class BetaBracketError(PhibvpError):
    """The bisection bracket for the integration constant does not straddle the target."""


class ConfigError(PhibvpError):
    """Configuration text could not be parsed or validated."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)


class ExpressionError(ConfigError):
    """An arithmetic expression could not be parsed or uses unknown names."""
