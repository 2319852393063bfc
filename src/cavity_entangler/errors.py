"""Exception and warning types shared across the package.

The CLI maps these onto exit codes, so failure classes are kept distinct:
argument/validation problems, regime violations, solver non-convergence,
and factorization/disentanglement failures.
"""


class CavityEntanglerError(Exception):
    """Base class for all package errors."""


class ArgumentError(CavityEntanglerError, ValueError):
    """Invalid argument or inconsistent dimensions."""


class TruncationError(ArgumentError):
    """Photon number at or beyond the Fock cutoff."""


class CapacityError(ArgumentError):
    """Dense construction requested beyond the supported register size."""


class RegimeError(CavityEntanglerError):
    """Parameters outside the regime where the closed forms exist."""


class ConvergenceError(CavityEntanglerError):
    """Iterative solver or integrator failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class FactorizationError(CavityEntanglerError):
    """A tensor factor could not be split off within tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class SectorError(CavityEntanglerError):
    """State has weight outside the sector a closed form is valid in."""


class ProtocolError(CavityEntanglerError):
    """A protocol invariant failed during execution."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NumericError(CavityEntanglerError):
    """Non-finite values or other numerical breakdown."""


class RegimeWarning(UserWarning):
    """Parameters accepted but outside the supported/validated regime."""


def single_outcome(outcomes: list):
    """The outcome of a batch of one: its value, or its package error raised.

    Batched evaluations list one outcome per input, a value or the error
    that stopped that input, so one failure does not spoil the others.
    """
    (outcome,) = outcomes
    if isinstance(outcome, CavityEntanglerError):
        raise outcome
    return outcome
