"""The inverse-weighted norms of ``deo``'s design certificate, from one LU solve.

The one caller passes the policy covariance in the coordinates of the
anchored differences' span.  There it is at least a quarter of the design
matrix that ``g_optimal`` has just inverted (see ``design.deo``), so it is
nonsingular and needs no rank or range test.
"""

from __future__ import annotations

import numpy as np


def weighted_inv_norm(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sqrt(x_i' A^{-1} x_i) for each row x_i of the (n, d) stack ``x``, ``a`` a nonsingular (d, d) matrix.

    All n norms come from one ``np.linalg.solve``; a singular ``a`` raises
    ``np.linalg.LinAlgError``.
    """
    return np.sqrt(np.einsum("ij,ji->i", x, np.linalg.solve(a, x.T)))
