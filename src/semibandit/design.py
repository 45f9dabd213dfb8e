"""Experimental design over finite arm sets.

Two solvers live here: the classical G-optimal design (worst-case
inverse-second-moment norm over arms, optimal value sqrt(d)) and the
anchored-difference design for orthogonalized regression, which runs the
G-optimal solver on the differences ``x_i - x_anchor`` and then puts half
the mass on the anchor arm.  The certificate returned with the anchored
design witnesses the 2*sqrt(d) / 4*sqrt(d) guarantees on anchored and
centered norms.

All computations happen inside the span of the input vectors; ``d_eff``
(the span rank) replaces the ambient dimension in every bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateFeatures, DimError, real_array
from .linalg import weighted_inv_norm

FW_TOL = 1e-3  # the Frank-Wolfe tolerance of every design that names none
SPAN_RTOL = 1e-10
WEIGHT_FLOOR = 1e-9
FW_REFRESH_STEPS = 256  # pairwise steps between exact recomputations of the carried FW state
_ADD_REMOVE = np.array([[1.0], [-1.0]])  # signs of the two rank-one terms of a pairwise FW step
_DRIFT_RTOL = 1e-12  # largest relative ||sum c_i x_i x_i^T|| of an eliminated null vector before a refactor


@dataclass(frozen=True)
class FeatureSet:
    """K arm feature vectors as rows of a (K, d) array.

    Rows need not lie in the unit ball that the paper's bounds assume;
    ``environment.assumption_audit`` reports those that do not.  An object
    also keeps what is solved from its rows, which are not to be changed in
    place: their span basis (``_span``) and ``deo``'s results by ``(anchor,
    fw_tol)`` (``_designs``).  Both live and die with the object, so the
    callers that share one share them.
    """

    features: np.ndarray

    def __post_init__(self):
        feats = real_array(self.features)
        if feats.ndim != 2:
            raise DimError(f"features must be a (K, d) array, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise DimError("features contain non-finite entries")
        # the design squares differences of rows, whose norms are at most 2 sqrt(d) times the largest entry
        largest = max(feats.max(initial=0.0), -feats.min(initial=0.0))  # no temporary array
        bound = math.sqrt(np.finfo(float).max / (4 * max(feats.shape[1], 1)))
        if largest > bound:
            raise DimError(f"features have an entry of {largest:.3g}; past {bound:.3g}, squared distances overflow")
        object.__setattr__(self, "features", feats)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @functools.cached_property
    def _span(self):
        """``span_basis`` of the rows at ``_scaled``, computed once: ``deo``'s certificate reuses ``g_optimal``'s."""
        return span_basis(_scaled(self.features))

    @functools.cached_property
    def _designs(self) -> dict:
        """``deo``'s ``(policy, certificate)`` by ``(anchor, fw_tol)``; ``deo`` is deterministic."""
        return {}

    @property
    def K(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_file(cls, path) -> "FeatureSet":
        """Load the plain-text matrix format: first line ``d K``, then K rows.

        Raises ``DimError`` on any malformed file.
        """
        with open(path) as fh:
            try:
                header = fh.readline().split()
                d, k = (int(v) for v in header) if len(header) == 2 else (0, 0)
                if min(d, k) < 1:
                    raise DimError(f"{path}: first line must be 'd K', two positive integers")
                lines = [line for line in fh if line.partition("#")[0].strip()]  # np.loadtxt warns on no rows
                rows = np.loadtxt(lines, ndmin=2) if lines else np.empty((0, d))
            except ValueError as exc:  # a header entry or cell that is not a number, a ragged row, non-text bytes
                raise DimError(f"{path}: {exc}") from exc
        if rows.shape != (k, d):
            raise DimError(f"{path}: expected {k} rows of {d} values, got {rows.shape[0]} rows of {rows.shape[1]}")
        return cls(rows)


@dataclass(frozen=True)
class DesignPolicy:
    """Probability vector over arms."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
            raise DimError("probabilities must be a nonnegative vector summing to 1")
        object.__setattr__(self, "probabilities", p)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probabilities > 0)


@dataclass(frozen=True)
class PolicyMoments:
    mean: np.ndarray
    covariance: np.ndarray


@dataclass(frozen=True)
class DesignCertificate:
    """Witness for the anchored-design guarantees.

    ``max_anchor_norm``  = max_i ||x_i - x_anchor|| in the inverse-covariance
    norm; ``max_centered_norm`` the same for ``x_i - xbar``.  ``dim`` is the
    effective dimension (rank of the anchored differences) that enters the
    2*sqrt(d) / 4*sqrt(d) bounds and downstream error envelopes.
    """

    max_anchor_norm: float
    max_centered_norm: float
    support_size: int
    dim: int


def policy_moments(features: FeatureSet, policy: DesignPolicy) -> PolicyMoments:
    """Feature mean and covariance of a sampling policy."""
    x = features.features
    p = policy.probabilities
    if p.shape[0] != features.K:
        raise DimError(f"policy has {p.shape[0]} entries for {features.K} arms")
    mean = p @ x
    centered = x - mean
    cov = (centered.T * p) @ centered
    cov = 0.5 * (cov + cov.T)
    return PolicyMoments(mean=mean, covariance=cov)


def span_basis(x: np.ndarray):
    """Orthonormal basis of the row span of x and its rank."""
    if x.size == 0:
        return np.zeros((x.shape[1], 0)), 0
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    rank = int(np.count_nonzero(s > SPAN_RTOL * s[0]))
    return vt[:rank].T, rank


def _scaled(x: np.ndarray) -> np.ndarray:
    """``x`` over the power of two above its largest entry (exact): the one scale of a design and its certificate."""
    return x / math.ldexp(1.0, math.frexp(max(x.max(initial=0.0), -x.min(initial=0.0)))[1])  # no temporary array


def all_equal(x: np.ndarray) -> bool:
    """True when no two rows of ``x`` differ: the one rule for identical arms (span rank 0 of x_i - x_0)."""
    return bool((x == x[:1]).all())


def _leverages(x: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """x_i' M^{-1} x_i for every row; x @ M^{-1} is one BLAS product."""
    return np.einsum("ij,ij->i", x @ m_inv, x)


def _exact_state(x: np.ndarray, p: np.ndarray):
    """M(p)^{-1}, built from the support rows only, and every row's leverage under it."""
    supp = p > 0
    xs = x[supp]
    m_inv = np.linalg.inv((xs.T * p[supp]) @ xs)
    return m_inv, _leverages(x, m_inv)


def _pairwise_fw(x: np.ndarray, d: int, tol: float, max_iters: int):
    """Pairwise Frank-Wolfe on the log-det objective with exact line search.

    ``x`` is (K, d) and full column rank.  Starts uniform on d rows chosen
    greedily: d times, the row of largest residual norm, which is then
    projected out of every residual.  These are the pivots of column-pivoted
    QR of x' (Businger & Golub 1965), and they span R^d.  Each step moves
    weight from the lowest-leverage support atom to the highest-leverage
    arm, with the step size maximizing log det exactly (rank-two determinant
    update).  Stops once max_i ||x_i||^2_{M^{-1}} <= d (1 + tol), the
    Kiefer-Wolfowitz condition.

    Returns ``(p, converged, iterations)``.
    """
    p = np.zeros(x.shape[0])
    r = x.copy()
    for _ in range(d):
        i = int(np.argmax(np.einsum("ij,ij->i", r, r)))
        p[i] = 1.0 / d
        q = r[i] / np.linalg.norm(r[i])
        r -= np.outer(r @ q, q)
    return _pairwise_fw_from(x, p, d, tol, max_iters)


def _caratheodory_reduce(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Shrink the support of ``p`` to at most d(d+1)/2 atoms without raising a leverage.

    Acts only while the support exceeds d(d+1)/2, the dimension of the
    symmetric d x d matrices; at or within it ``p`` is returned as it is.
    Above it the support's outer products are dependent.  Each step moves
    along a null direction c of them, sum c_i x_i x_i^T = 0, signed so that
    sum c >= 0, until an atom leaves, then renormalizes.  The move leaves
    M(p) unchanged and the renormalization divides it by sum p <= 1, so every
    leverage is multiplied by sum p <= 1: a design certificate can only
    improve.

    The null directions come from one factorization: the last n - m columns
    of the complete QR of the transposed m x n system, m = d(d+1)/2, are
    orthogonal to its row space whatever its rank.  When an atom leaves, its
    coordinate is eliminated from the remaining null vectors by one pivoted
    Gaussian step, at O(nk), and one vector is dropped, so there are always
    at least as many vectors as atoms over the bound.  The eliminations'
    roundoff is checked before a vector that went through them is used: if
    ||sum c_i x_i x_i^T|| exceeds ``_DRIFT_RTOL`` times the system's norm,
    the null space is factored again.
    """
    d = x.shape[1]
    bound = d * (d + 1) // 2
    supp = np.flatnonzero(p > 0)
    if supp.size <= bound:
        return p
    rows, cols = np.triu_indices(d)
    xs = x[supp]
    a = (xs[:, rows] * xs[:, cols]).T  # column j: the upper triangle of x_j x_j^T
    scale = np.linalg.norm(a)
    w = p[supp]
    null = None
    while w.size > bound:
        if null is None:
            null = np.linalg.qr(a.T, mode="complete")[0][:, bound:].T  # rows span a's null space
            fresh = True
        c = null[0] / np.linalg.norm(null[0])
        if not fresh and np.linalg.norm(a @ c) > _DRIFT_RTOL * scale:
            null = None
            continue
        fresh = False
        if c.sum() < 0:
            c = -c
        pos = np.flatnonzero(c > 1e-14)  # a unit vector with a nonnegative sum has a positive entry
        j = pos[np.argmin(w[pos] / c[pos])]
        w = w - w[j] / c[j] * c
        w[j] = 0.0
        w[w < 1e-14] = 0.0
        w /= w.sum()
        for gone in np.flatnonzero(w == 0.0):
            col = null[:, gone]
            r = int(np.abs(col).argmax())
            if col[r] != 0.0:
                null = np.delete(null - np.outer(col / col[r], null[r]), r, axis=0)
        keep = w > 0.0
        supp, w, a, null = supp[keep], w[keep], a[:, keep], null[:, keep]
    reduced = np.zeros_like(p)
    reduced[supp] = w
    return reduced


def g_optimal(features: FeatureSet, fw_tol: float = FW_TOL, max_iters: int | None = None) -> DesignPolicy:
    """Solve the G-optimal design over the feature span.

    Returns a policy with max_i ||x_i||^2_{M(p)^{-1}} <= d_eff (1 + fw_tol),
    where d_eff is the rank of the feature span, with support at most
    d_eff (d_eff + 1) / 2.  The Frank-Wolfe design is reduced only while its
    support exceeds that bound, along null vectors of the support's outer
    products from one factorization, factored again only if the eliminations
    drift (``_caratheodory_reduce``); within the bound it is returned as is.

    The default iteration cap is max(2000, 10 d_eff^2); raises
    ``ConvergenceError`` as soon as the solver stops there unconverged,
    before any weight floor or reduction, and ``DegenerateFeatures`` if every
    feature is zero (the one degenerate input) or the design matrix over the
    span cannot be inverted in double precision.
    """
    if fw_tol <= 0:
        raise ValueError("fw_tol must be positive")
    x_full = _scaled(features.features)
    if not x_full.any():
        raise DegenerateFeatures("all features are zero")
    basis, d_eff = features._span
    x = x_full if d_eff == x_full.shape[1] else x_full @ basis
    if max_iters is None:
        max_iters = max(2000, 10 * d_eff * d_eff)

    try:
        p, converged, _ = _pairwise_fw(x, d_eff, fw_tol, max_iters)
        if not converged:
            raise ConvergenceError(f"G-optimal solver did not reach tolerance {fw_tol} in {max_iters} iterations")
        p[p < WEIGHT_FLOOR] = 0.0
        p /= p.sum()
        p = _caratheodory_reduce(x, p)
    except np.linalg.LinAlgError as exc:
        # span_basis keeps directions down to SPAN_RTOL of the largest singular
        # value, so the design matrix can be too ill-conditioned for a double
        raise DegenerateFeatures(
            f"the {d_eff}-dimensional feature span is too ill-conditioned to invert the design matrix ({exc})"
        ) from exc
    return DesignPolicy(p)


def _pairwise_fw_from(x: np.ndarray, p: np.ndarray, d: int, tol: float, max_iters: int):
    """Pairwise FW iteration from a given starting point.

    Returns ``(p, converged, iterations)``; ``p`` is updated in place.

    Carried state: ``m_inv`` = M(p)^{-1} and ``g``, every row's leverage
    under it.  A pairwise step changes M by the rank-two term
    gamma (x_i x_i' - x_j x_j'), so both are updated by its 2x2 Woodbury
    form, factored as two Sherman-Morrison steps, instead of recomputed:
    M^{-1} times x_i and x_j, x times two vectors, a rank-two update of
    ``m_inv`` and an O(K) update of ``g``.
    Invariant: ``m_inv`` and ``g`` equal M(p)^{-1} and its leverages up to
    the roundoff of the steps since they were last recomputed exactly, from
    the support rows (``_exact_state``).  That happens every
    ``FW_REFRESH_STEPS`` pairwise steps, after every plain FW vertex step,
    and before the stopping test may pass, so ``converged`` is only ever
    reported on exact leverages.

    Between refreshes a step allocates no array but the support's leverages
    (``g.take(supp)``) and, when an atom comes in or leaves, ``supp``.  Its
    operands are allocated once per solve: the pair's two rows, ``vt``, the
    2x2 coefficient matrix, ``bt`` and its signed copy, the d x d rank-two
    update and the 2 x K leverage update.
    Each step writes its products into them (``dot`` with ``out=``,
    ``multiply`` with ``out=``, in-place ``-=``, ``+=`` and ``*=``).  It
    reads ``g[i]``, ``g[j]``, ``p[i]`` and ``p[j]`` as Python floats, which
    round as NumPy's scalars do, and ``p[j]`` once more after ``p[i]`` is
    written.  The bits of ``p`` fix the arms a run samples and so its e_t,
    so the arithmetic must not move.  Every BLAS call keeps its operands'
    shapes, order and memory layout: the buffers are C-contiguous, as the
    products they replace were, and ``bt_t`` is a transposed view, as
    ``bt.T`` was.  ``p[i]`` is written before ``p[j]`` is read, so even a
    degenerate step with i == j gives the bits of updating the two entries
    in turn.
    """
    limit = d * (1.0 + tol)
    xt = np.ascontiguousarray(x.T)  # bt @ xt has contiguous rows
    k, n = x.shape
    rows, vt, bt, signed = (np.empty((2, n)) for _ in range(4))
    signs = _ADD_REMOVE.repeat(n, axis=1)  # a product of equal shapes: no broadcast on every step
    coef = np.zeros((2, 2))
    update = np.empty((n, n))
    y = np.empty((2, k))
    bt_t, vt_j, y_down, y_up = bt.T, vt[1], y[0], y[1]
    m_inv, g = _exact_state(x, p)
    stale = 0  # steps since the last exact state
    supp = np.flatnonzero(p > 0)
    for it in range(max_iters):
        i = int(g.argmax())
        a = float(g[i])
        if a <= limit and stale:
            m_inv, g = _exact_state(x, p)
            stale = 0
            i = int(g.argmax())
            a = float(g[i])
        if a <= limit:
            return p, True, it
        j = int(supp[g.take(supp).argmin()])
        b, pi, pj = float(g[j]), float(p[i]), float(p[j])
        x_i = x[i]
        rows[0] = x_i
        rows[1] = x[j]
        rows.dot(m_inv, out=vt)  # rows x_i' M^{-1}, x_j' M^{-1}
        cross = float(vt_j.dot(x_i))
        denom = 2.0 * (a * b - cross * cross)
        gamma = (a - b) / denom if denom > 0 else math.inf
        gamma = min(max(gamma, 0.0), pj)
        if gamma <= 0.0:  # a plain FW vertex step; its state is recomputed below
            gamma_fw = (a - d) / (d * (a - 1.0))
            p *= 1.0 - gamma_fw
            p[i] += gamma_fw
            stale = FW_REFRESH_STEPS
            pj = float(p[j])
        else:
            p[i] = pi + gamma
            pj = float(p[j]) - gamma  # read after p[i] is written, so a step with i == j moves no weight
            p[j] = pj = 0.0 if pj < 1e-15 else pj
            # M' = M + gamma x_i x_i' - gamma x_j x_j' as two Sherman-Morrison
            # steps: M'^{-1} = M^{-1} - s v_i v_i' + h u u' with v = M^{-1} x,
            # u = v_j - s cross v_i, s = gamma / (1 + gamma a) and
            # h = gamma (1 + gamma a) / f, where f = det M' / det M >= 1 on the
            # line-search step, so s, h > 0.  The rows of ``bt`` are sqrt(s) v_i
            # and sqrt(h) u, so M'^{-1} = M^{-1} - bt' diag(1, -1) bt.
            f = 1.0 + gamma * (a - b) - gamma * gamma * (a * b - cross * cross)
            s = gamma / (1.0 + gamma * a)
            h = gamma * (1.0 + gamma * a) / f
            rs, rh = math.sqrt(s), math.sqrt(h)
            coef[0, 0] = rs
            coef[1, 0] = -s * cross * rh
            coef[1, 1] = rh
            coef.dot(vt, out=bt)
            np.multiply(bt, signs, out=signed)
            bt_t.dot(signed, out=update)
            m_inv -= update
            bt.dot(xt, out=y)
            y *= y
            g -= y_down
            g += y_up
            stale += 1
        if stale == FW_REFRESH_STEPS:
            m_inv, g = _exact_state(x, p)
            stale = 0
        if pi == 0.0 or pj == 0.0:  # an atom came in or left
            supp = np.flatnonzero(p > 0)
    return p, False, max_iters


def deo(features: FeatureSet, anchor: int = 0, fw_tol: float = FW_TOL):
    """Anchored-difference design for orthogonalized regression.

    Computes the G-optimal design over {x_i - x_anchor : i != anchor},
    halves it, and assigns probability 1/2 to the anchor arm.  Returns
    ``(DesignPolicy, DesignCertificate)``; the certificate norms satisfy
    max_anchor_norm <= 2 sqrt(d_eff) and max_centered_norm <= 4 sqrt(d_eff)
    up to the solver tolerance.  Both norms come from one solve in the
    coordinates of the differences' span basis.  There the covariance is
    M_q / 2 - m m' / 4 >= M_q / 4, where q is ``g_optimal``'s design, M_q
    the design matrix it has inverted and m = sum_i q_i u_i (m m' <= M_q by
    Jensen), so the solve cannot fail where ``g_optimal`` succeeded.  The
    design, its span and the certificate's moments are all taken on one set
    of rows, formed here and nowhere else: the differences at ``_scaled``,
    u = _scaled(x - x_anchor).  ``g_optimal`` solves on the other arms' rows
    of u, and the certificate's norms are those of u and u - p'u.  So a
    common offset of the arms changes only the rounding of their
    differences, and arms scaled by 2^k give the same design and
    certificate, bit for bit, short of subnormal entries.
    Raises ``DegenerateFeatures`` if all arms are identical (``all_equal``),
    one arm included.

    Each ``(anchor, fw_tol)`` is solved once per ``features`` object: the
    result is kept on it (``FeatureSet._designs``) and returned as the same
    objects by every later call, its probabilities read-only.
    """
    if not 0 <= anchor < features.K:
        raise DimError(f"anchor {anchor} out of range for {features.K} arms")
    stored = features._designs.get((anchor, fw_tol))
    if stored is not None:
        return stored
    if all_equal(features.features):
        raise DegenerateFeatures("all arms identical: anchored differences span nothing")
    u = _scaled(features.features - features.features[anchor])  # the anchor's row is zero
    diff_set = FeatureSet(np.delete(u, anchor, axis=0))  # g_optimal's _scaled divides it by 1
    probs = np.insert(g_optimal(diff_set, fw_tol=fw_tol).probabilities / 2.0, anchor, 0.5)
    probs.setflags(write=False)  # shared by every later call: no caller may change another's design
    policy = DesignPolicy(probs)

    moments = policy_moments(FeatureSet(u), policy)
    basis, d_eff = diff_set._span  # g_optimal's SVD, cached
    cov = basis.T @ moments.covariance @ basis
    cert = DesignCertificate(
        max_anchor_norm=float(weighted_inv_norm(cov, u @ basis).max()),
        max_centered_norm=float(weighted_inv_norm(cov, (u - moments.mean) @ basis).max()),
        support_size=int(policy.support.size),
        dim=d_eff,
    )
    features._designs[(anchor, fw_tol)] = policy, cert
    return policy, cert
