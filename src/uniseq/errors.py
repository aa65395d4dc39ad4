"""Exception types shared across the package."""


class UniseqError(Exception):
    """Base class for every error this package raises on purpose."""


class AlphabetError(UniseqError, ValueError):
    """A word contains letters outside the working alphabet."""


class ParseError(UniseqError, ValueError):
    """A family description is malformed."""


class UnsupportedAlphabet(ParseError):
    """A family file declares an alphabet other than 'ab'."""


class IndexOutOfRange(UniseqError, LookupError):
    """Requested index exceeds an explicit finite template list."""


class MissingLetterImage(UniseqError, LookupError):
    """A substitution lacks an image for a letter occurring in the input."""


class EmptyInput(UniseqError, ValueError):
    """An operation that needs at least one nonempty word got none."""


class SplitViolation(UniseqError):
    """A word is covered by a member prefix and a member suffix, so it has
    no decomposition with a nonempty middle."""


class AmbiguousCollapse(UniseqError):
    """Two distinct stack collapses match at once.  The generating family
    does not meet the side conditions that make the machine well defined."""


class HypothesisNotVerified(UniseqError):
    """Witness verification was requested for a family whose side
    conditions failed at the given bound."""

    def __init__(self, message, verdict):
        super().__init__(message)
        self.verdict = verdict


class VerificationFailure(UniseqError):
    """A witness evaluation disagreed with its target."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class CapExceeded(UniseqError, ValueError):
    """A requested size (ground set, sample count, bound) exceeds its cap."""
