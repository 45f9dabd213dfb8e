"""Exception hierarchy shared across the package."""


class SemibanditError(Exception):
    """Base class for all package-specific errors."""


class InvalidMatrix(SemibanditError):
    """Matrix input is malformed (non-finite, non-square, asymmetric)."""


class DimError(SemibanditError):
    """Dimension mismatch between operands."""


class DegenerateFeatures(SemibanditError):
    """Feature set spans nothing usable for the requested design."""


class ConvergenceError(SemibanditError):
    """Design solver ran out of iterations.

    Carries the best iterate found so far and its certificate so callers
    can decide whether the partial result is good enough.
    """

    def __init__(self, message, policy=None, certificate=None):
        super().__init__(message)
        self.policy = policy
        self.certificate = certificate


class InvalidSample(SemibanditError):
    """Reward or feature passed to the estimator is not finite."""


class InvalidRegularizer(SemibanditError):
    """Ridge regularizer must be strictly positive."""


class InvalidArm(SemibanditError):
    """Arm index outside the feature set."""


class GenerationError(SemibanditError):
    """Random instance generator exhausted its attempt budget."""


class ScheduleOverflow(SemibanditError):
    """Phase length exceeds the representable integer range."""


class ConfigError(SemibanditError):
    """Experiment configuration is invalid; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class IoError(SemibanditError):
    """Output location cannot be written."""
