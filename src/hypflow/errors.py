"""Exception types shared across the package."""


class HypflowError(Exception):
    """Base class for all hypflow-specific errors."""


class DomainError(HypflowError):
    """A closed-form Gaussian integral was requested outside its convergence domain."""


class AccuracyError(HypflowError):
    """A value is not accurate enough to judge.

    Adaptive quadrature failed to stabilize before hitting the node cap, or a
    flow sample came out non-finite.
    """


class EvaluatorMismatchError(HypflowError):
    """Two independent evaluators of the same quantity disagree beyond tolerance."""
