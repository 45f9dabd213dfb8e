"""Dense symmetric/PSD matrix utilities.

All routines operate on plain ``numpy`` arrays.  PSD inputs are validated
on entry (finite entries, symmetry to 1e-12 relative);
rank-deficient matrices are handled through a relative spectral cutoff so
that inverse-weighted norms remain well defined on the range of the matrix
and are reported as infinite off it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimError, InvalidMatrix

SYM_RTOL = 1e-12
DEFAULT_RANGE_TOL = 1e-8


def validate_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check that ``a`` is a finite, symmetric square matrix; its spectrum is left to the caller's cutoff."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrix(f"{name} has non-finite entries")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > SYM_RTOL * max(scale, 1.0) * 10:
        raise InvalidMatrix(f"{name} is not symmetric")
    return a


def weighted_inv_norm(a: np.ndarray, x: np.ndarray, range_tol: float = DEFAULT_RANGE_TOL) -> np.ndarray:
    """Inverse-weighted norms sqrt(x_i' A^+ x_i) of the rows of ``x``, with range detection.

    ``x`` is an (n, d) stack; the n norms come from one eigendecomposition.
    The pseudo-inverse keeps eigenvalues above ``range_tol`` times the top
    eigenvalue.  A row is in range iff its component orthogonal to the kept
    eigenspace has norm at most ``range_tol * ||x_i||``; otherwise its norm is
    reported as infinite.  Agrees with the ridge limit
    lim_{lam->0} sqrt(x' (A + lam I)^{-1} x) for in-range rows.
    """
    a = validate_psd(a, "weighted_inv_norm matrix")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != a.shape[0]:
        raise DimError(f"vector stack shape {x.shape} does not match matrix dim {a.shape[0]}")
    if not np.isfinite(x).all():
        raise ValueError("weighted_inv_norm vector has non-finite entries")
    if range_tol <= 0:
        raise ValueError("range_tol must be positive")
    w, q = np.linalg.eigh(0.5 * (a + a.T))
    wmax = w[-1] if w.size else 0.0
    xnorm = np.linalg.norm(x, axis=1)
    if wmax <= 0.0:
        # zero (or numerically negative) matrix: only the zero vector is in range
        return np.where(xnorm == 0.0, 0.0, math.inf)
    keep = w > range_tol * wmax
    coeffs = x @ q
    values = np.sqrt(np.sum(coeffs[:, keep] ** 2 / w[keep], axis=1))
    values[np.linalg.norm(coeffs[:, ~keep], axis=1) > range_tol * xnorm] = math.inf
    return values
