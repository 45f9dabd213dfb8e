"""Dense symmetric/PSD matrix utilities.

All routines operate on plain ``numpy`` arrays.  PSD inputs are validated
on entry (symmetry to 1e-12 relative, numerically nonnegative spectrum);
rank-deficient matrices are handled through a relative spectral cutoff so
that inverse-weighted norms remain well defined on the range of the matrix
and are reported as infinite off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimError, InvalidMatrix

SYM_RTOL = 1e-12
PSD_EIG_RTOL = 1e-10
DEFAULT_RANGE_TOL = 1e-8


@dataclass(frozen=True)
class NormResult:
    """Value of an inverse-weighted norm.

    ``value`` is ``math.inf`` exactly when ``in_range`` is False, i.e. the
    vector has a component outside the range of the weighting matrix.
    """

    value: float
    in_range: bool

    def __post_init__(self):
        if self.in_range != math.isfinite(self.value):
            raise ValueError("NormResult: infinite value must pair with in_range=False")


def validate_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check that ``a`` is a finite, symmetric, numerically PSD square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrix(f"{name} has non-finite entries")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > SYM_RTOL * max(scale, 1.0) * 10:
        raise InvalidMatrix(f"{name} is not symmetric")
    return a


def weighted_inv_norm(a: np.ndarray, x: np.ndarray, range_tol: float = DEFAULT_RANGE_TOL) -> NormResult:
    """Inverse-weighted norm sqrt(x' A^+ x) with range detection.

    The pseudo-inverse keeps eigenvalues above ``range_tol`` times the top
    eigenvalue.  ``in_range`` is True iff the component of ``x`` orthogonal
    to the kept eigenspace has norm at most ``range_tol * ||x||``; otherwise
    the norm is reported as infinite.  Agrees with the ridge limit
    lim_{lam->0} sqrt(x' (A + lam I)^{-1} x) for in-range vectors.
    """
    a = validate_psd(a, "weighted_inv_norm matrix")
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[0],):
        raise DimError(f"vector shape {x.shape} does not match matrix dim {a.shape[0]}")
    if range_tol <= 0:
        raise ValueError("range_tol must be positive")
    w, q = np.linalg.eigh(0.5 * (a + a.T))
    wmax = w[-1] if w.size else 0.0
    xnorm = float(np.linalg.norm(x))
    if wmax <= 0.0:
        # zero (or numerically negative) matrix: only the zero vector is in range
        if xnorm == 0.0:
            return NormResult(0.0, True)
        return NormResult(math.inf, False)
    keep = w > range_tol * wmax
    coeffs = q.T @ x
    resid = float(np.linalg.norm(coeffs[~keep]))
    if resid > range_tol * xnorm:
        return NormResult(math.inf, False)
    value = float(np.sqrt(np.sum(coeffs[keep] ** 2 / w[keep])))
    return NormResult(value, True)
