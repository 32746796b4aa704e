"""Exception types shared across the library."""


class RobustSnellError(Exception):
    """Base class for all library errors."""


class InvalidTreeError(RobustSnellError):
    """The event tree violates a structural invariant."""


class InvalidFamilyError(RobustSnellError):
    """A node-indexed family is incomplete or out of range."""


class InvalidRuleError(RobustSnellError):
    """A stopping rule violates a structural invariant."""


class FloorMismatchError(InvalidRuleError):
    """A rule was evaluated from a node other than its floor."""


class InvalidPriorSetError(RobustSnellError):
    """A prior set violates a structural invariant."""


class InvalidSelectionError(InvalidPriorSetError):
    """Convex coefficients over extreme points are malformed."""


class UndefinedConditionalError(RobustSnellError):
    """Conditioning on an atom that carries zero mass under the chosen density."""


class SizeGuardError(RobustSnellError):
    """An exhaustive enumeration would exceed the configured size guard."""


class UnattainedSupremumError(RobustSnellError):
    """The supremum over the prior set is not attained in the configured mode.

    Carries the supremum value in ``supremum``.
    """

    def __init__(self, message: str, supremum: float):
        super().__init__(message)
        self.supremum = supremum


class InvalidParamsError(RobustSnellError):
    """Model parameters are out of range."""


class MissingStateError(RobustSnellError):
    """A node lacks a state label required by the operation."""


class ConfigError(RobustSnellError):
    """A run configuration violates the config schema."""


class NonFiniteValueError(RobustSnellError):
    """A value to be written out is NaN or infinite."""
