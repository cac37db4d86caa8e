"""Exception types shared across the package.

Everything user-correctable derives from ValidationError so callers (and the
CLI exit-code mapping) can distinguish bad inputs from internal faults. An
error about one line of an input file carries its 1-based number as .line
and begins with "line N: "; the table loader then prefixes the file's path.
"""


class QuantdivError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(QuantdivError, ValueError):
    """Input violates a documented precondition. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NegativeProbability(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


class TooFewClasses(ValidationError):
    pass


class AllZeroVotes(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class OutOfRange(ValidationError):
    pass


class TooShort(ValidationError):
    pass


class MisalignedRun(ValidationError):
    pass


class TooFewSystems(ValidationError):
    pass


class TooFewMeasures(ValidationError):
    pass


class DatasetTooSmall(ValidationError):
    pass


class TooFewTrials(ValidationError):
    pass


class ParseError(ValidationError):
    """Malformed input file."""


class DuplicateCaseId(ParseError):
    pass


class InconsistentClassCount(ParseError):
    pass


class MissingCase(ValidationError):
    pass


class UnknownCase(ValidationError):
    pass
