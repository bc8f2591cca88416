"""Exception types shared across the package."""


class ChargelabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ChargelabError, ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class PreconditionError(ChargelabError, ValueError):
    """Structured input violates a documented precondition."""


class BudgetExceededError(ChargelabError, RuntimeError):
    """Evaluation budget exhausted before the tolerance was certified.

    Carries the best partial value and its error estimate.
    """

    def __init__(self, message, partial_value=None, error_estimate=None):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate


class AccuracyError(ChargelabError, RuntimeError):
    """Requested accuracy could not be certified (e.g. refinement disagrees)."""


class ResourceLimitError(ChargelabError, RuntimeError):
    """Problem size exceeds a configured cap."""


class SolverError(ChargelabError, RuntimeError):
    """Iterative solver failed to converge."""


class ConsistencyError(ChargelabError, RuntimeError):
    """Two independent internal routes disagree beyond tolerance."""
