"""Exception taxonomy shared across the package."""


class FluctwalkError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FluctwalkError):
    """Invalid distribution or operation parameters."""


class UnsupportedModeError(FluctwalkError):
    """Exact computation requested for a law that only supports estimation."""


class UnboundedTailError(FluctwalkError):
    """Truncation tail cannot be bounded for the given exponents."""


class InsufficientLadderError(FluctwalkError):
    """The path does not realize enough ladder epochs in its window."""


class DegenerateStateError(FluctwalkError):
    """The harmonic function vanishes at the requested state."""


class BudgetError(FluctwalkError):
    """An enumeration or sampling budget was exhausted.

    For rejection samplers, ``acceptance_rate`` carries the empirical
    acceptance frequency observed before giving up.
    """

    def __init__(self, message, acceptance_rate=None):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate


class HypothesisViolationError(FluctwalkError):
    """The supplied law violates a regularity hypothesis of an experiment.

    Typical case: a monotone walk (all steps one-signed), for which the
    scaling limits the experiments test against do not exist.
    """


class ConfigError(FluctwalkError):
    """Invalid experiment configuration."""


class InputError(FluctwalkError):
    """Empty or malformed sample input."""
