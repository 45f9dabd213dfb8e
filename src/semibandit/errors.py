"""Exception hierarchy shared across the package, and the scalar checks that raise ``ConfigError``."""

import numbers
import sys


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


class ConfigError(SemibanditError):
    """Experiment configuration is invalid; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class ScheduleOverflow(ConfigError):
    """A round count is not finite or exceeds the most a run may hold; names the count."""


class IoError(SemibanditError):
    """Output location cannot be written."""


def finite_real(value) -> bool:
    """True for a real number (not a bool) that a double holds finitely; an int past 1.8e308 is too large."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def check_positive(value, name: str):
    """``value`` if it is a positive finite number (not a bool); else ConfigError."""
    if not (finite_real(value) and value > 0):
        raise ConfigError(name, "must be a positive finite number")
    return value


def check_probability(value, name: str):
    """``value`` if it is a number (not a bool) in (0, 1); else ConfigError."""
    if not (finite_real(value) and 0 < value < 1):
        raise ConfigError(name, "must lie in (0, 1)")
    return value


def check_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` if it is an integer (not a bool) of at least ``minimum``; else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        raise ConfigError(name, "must be an integer" + ("" if minimum is None else f" >= {minimum}"))
    return value


def check_member(value, name: str, choices: tuple):
    """``value`` if it is one of the strings ``choices``; else ConfigError."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(name, f"must be one of {choices}")
    return value
