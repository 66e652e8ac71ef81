"""Exception types shared across the package."""


class NmcollideError(Exception):
    """Base class for all package errors."""


class ValidationError(NmcollideError, ValueError):
    """A constructed value violates its type invariants."""


class ConfigurationError(NmcollideError, ValueError):
    """Inconsistent dimensions, parameters out of range, or a bad config."""


class DivergenceError(NmcollideError, RuntimeError):
    """A numerical quadrature produced a non-finite result."""


class InternalConsistencyError(NmcollideError, RuntimeError):
    """A quantity that is provably bounded came out of range.

    Raised instead of clipping: it signals a bug or a parameter regime
    outside the validated theory, and must never be silenced.
    """
