"""Exception hierarchy.

Every error raised by this package derives from :class:`ZariskivolError` and
carries an ``exit_code`` used by the command line front end: 1 for usage
problems, 2 for input validation failures, 3 for mathematical failures
discovered during a computation.
"""

from __future__ import annotations


class ZariskivolError(Exception):
    exit_code = 3


class UsageError(ZariskivolError):
    """The tool was invoked incorrectly (bad flags, missing workspace data)."""

    exit_code = 1


class MissingSectionError(UsageError):
    """A command needs a workspace section that the config does not provide."""


class ValidationError(ZariskivolError):
    """Input data violates a documented precondition."""

    exit_code = 2


class AsymmetricGramError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class DuplicateNameError(ValidationError):
    pass


class LatticeMismatchError(ValidationError):
    pass


class EmptySubsetError(ValidationError):
    pass


class IndexOutOfRangeError(ValidationError):
    pass


class NegativePatternError(ValidationError):
    pass


class SplitMismatchError(ValidationError):
    pass


class NotNNefError(ValidationError):
    pass


class NotNEquivalentError(ValidationError):
    pass


class SupportTooLargeError(ValidationError):
    pass


class InvalidChainError(ValidationError):
    pass


class H0TooSmallError(ValidationError):
    pass


class PmTooSmallError(ValidationError):
    pass


class DTooSmallError(ValidationError):
    pass


class PencilScenarioError(ValidationError):
    pass


class NotFibreMultipleError(ValidationError):
    pass


class NonIntegralMultipleError(ValidationError):
    pass


class ConfigParseError(ValidationError):
    pass


class MathematicalError(ZariskivolError):
    """A computation failed for a mathematical reason."""

    exit_code = 3


class NotPseudoEffectiveError(MathematicalError):
    """The divisor admits no decomposition within the declared configuration."""


class NegativeOffDiagonalError(MathematicalError):
    """Two classes on a negative support pair negatively with each other."""


class IterationDivergedError(MathematicalError):
    pass


class GenusCheckFailedError(MathematicalError):
    pass


class InconsistentTripleError(MathematicalError):
    pass


class InvariantViolationError(MathematicalError):
    """An identity that should hold under the preconditions failed to hold."""
