"""Orthogonalized ridge regression on centered features.

The estimator accumulates the Gram matrix and response moment of centered
features (arm feature minus the sampling policy's feature mean) and solves
a ridge system on demand.  Centering uses the known sampling policy, never
a data estimate; the regularizer follows the log(t/delta) rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignCertificate
from .errors import DimError, InvalidRegularizer, InvalidSample


@dataclass
class EstimatorState:
    """Accumulated centered statistics: gram = sum x~ x~', moment = sum x~ r."""

    gram: np.ndarray
    moment: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "EstimatorState":
        return cls(gram=np.zeros((dim, dim)), moment=np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.moment.shape[-1]


def update_batch(state: EstimatorState, centered: np.ndarray, rewards: np.ndarray) -> EstimatorState:
    """Add samples in place (rows of ``centered`` paired with ``rewards``); returns ``state``.

    Splitting the rows over several calls gives the same statistics up to
    floating-point summation order.
    """
    centered = np.asarray(centered, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    if centered.ndim != 2 or centered.shape[1] != state.dim or centered.shape[0] != rewards.shape[0]:
        raise DimError("centered rows and rewards must align with the state dimension")
    if not (np.isfinite(rewards).all() and np.isfinite(centered).all()):
        raise InvalidSample("non-finite reward or feature")
    state.gram += centered.T @ centered
    state.moment += centered.T @ rewards
    return state


def regularizer(t: int, delta: float) -> float:
    """Ridge regularizer beta_t = ln(t / delta)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.log(t / delta)


def solve(state: EstimatorState, beta) -> np.ndarray:
    """Ridge solution (gram + beta I)^{-1} moment by one ``np.linalg.solve``.

    ``state`` may hold a stack of systems, gram (..., d, d) and moment
    (..., d), with one ``beta`` per system; each is solved as on its own, bit
    for bit.  Raises ``InvalidRegularizer`` when a beta is not positive, and
    ``InvalidSample`` when a system is singular in double precision, or a
    solution is not finite, as when finite samples sum past the largest double.
    """
    beta = np.asarray(beta, dtype=float)
    if (beta <= 0).any():
        raise InvalidRegularizer(f"beta must be positive, got {beta.min()}")
    try:
        theta = np.linalg.solve(state.gram + beta[..., None, None] * np.eye(state.dim), state.moment[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise InvalidSample("the ridge system is singular: the features are too large for its regularizer") from None
    if not np.isfinite(theta).all():
        raise InvalidSample("the ridge estimate is not finite: the rewards or features are too large to sum")
    return theta


def error_bound_diagnostic(cert: DesignCertificate, t: int, delta: float, c1: float = 10.0) -> float:
    """High-probability envelope on max_i |(x_i - x_anchor)'(theta_hat - theta*)|.

    C1 ( sqrt(L log(t/delta)) / sqrt(t) + sqrt(L) M log(d/delta) / t ) with
    L = max_anchor_norm^2 and M = max_centered_norm^2.  The default C1 = 10
    matches the empirical sqrt(t) e_t <= 10 sqrt(d log K) envelope.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    big_l = cert.max_anchor_norm**2
    big_m = cert.max_centered_norm**2
    if big_l == 0.0:
        return 0.0
    lead = math.sqrt(big_l * math.log(t / delta)) / math.sqrt(t)
    tail = math.sqrt(big_l) * big_m * math.log(max(cert.dim, 1) / delta) / t
    return c1 * (lead + tail)
