import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semibandit.design import FeatureSet, deo, policy_moments
from semibandit.errors import DegenerateFeatures, DimError
from semibandit.linalg import weighted_inv_norm


def random_pd(rng, d, lo=0.5, hi=2.0):
    """A symmetric positive definite matrix of known eigenvectors ``q`` and eigenvalues ``w``."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = rng.uniform(lo, hi, d)
    return (q * w) @ q.T, q, w


def norm_of(a, x):
    """The norm of one vector, as a one-row stack."""
    return weighted_inv_norm(a, np.asarray(x, dtype=float)[None])[0]


def subspace_arms(rng, d, rank, k):
    """``k`` arms in the unit ball of a random ``rank``-dimensional subspace of R^d."""
    basis = np.linalg.qr(rng.standard_normal((d, rank)))[0]
    x = rng.standard_normal((k, rank))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)) @ basis.T


class TestEigSym:
    """``weighted_inv_norm`` on symmetric matrices of known eigen-decomposition."""

    def test_identity(self):
        x = np.array([1.0, -2.0, 2.0])
        assert np.isclose(norm_of(np.eye(3), x), 3.0)

    def test_diagonal(self):
        # diag(4, 1): x' A^{-1} x = 2^2/4 + 3^2/1
        assert np.isclose(norm_of(np.diag([4.0, 1.0]), [2.0, 3.0]), math.sqrt(10.0))

    def test_two_by_two(self):
        # [[2,1],[1,2]] has eigenpairs 3, (1,1)/sqrt2 and 1, (1,-1)/sqrt2
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.isclose(norm_of(a, [1.0, 1.0]), math.sqrt(2.0 / 3.0))
        assert np.isclose(norm_of(a, [1.0, -1.0]), math.sqrt(2.0))

    def test_reconstruction(self):
        # along each eigenvector q_i of a known spectrum the norm is 1/sqrt(w_i)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, q, w = random_pd(rng, 6)
            for i in range(6):
                value = norm_of(a, q[:, i])
                assert abs(value - 1.0 / math.sqrt(w[i])) <= 1e-9 / math.sqrt(w[i])

    def test_non_finite_rejected(self):
        # the certificate's covariance is built from a FeatureSet, which admits only finite rows
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DimError, match="non-finite"):
                FeatureSet([[0.0, bad], [1.0, 0.0]])

    def test_asymmetric_accepted(self):
        # no symmetry test: x' A^{-1} x for [[1, 0.5], [0, 1]], whose inverse is [[1, -0.5], [0, 1]],
        # so a covariance that is symmetric only up to rounding is solved as it is
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        assert np.isclose(norm_of(a, [1.0, 1.0]), math.sqrt(1.5))


class TestWeightedInvNorm:
    def test_identity_weighting(self):
        assert np.isclose(norm_of(np.eye(2), [3.0, 4.0]), 5.0)

    def test_orthogonal_to_range(self):
        # a singular matrix raises; deo never passes one, since its certificate works in the
        # span of the anchored differences: arms in a subspace are certified at its rank
        with pytest.raises(np.linalg.LinAlgError):
            norm_of(np.outer([1.0, 0.0], [1.0, 0.0]), [0.0, 1.0])
        rng = np.random.default_rng(3)
        for d, rank in ((3, 1), (6, 2), (12, 4)):
            _, cert = deo(FeatureSet(subspace_arms(rng, d, rank, 3 * d)))
            assert cert.dim == rank
            assert cert.max_anchor_norm <= 2.0 * math.sqrt(rank * 1.001)
            assert cert.max_centered_norm <= 4.0 * math.sqrt(rank * 1.001)

    def test_hand_inverse(self):
        # inverse of [[3/16,-1/16],[-1/16,3/16]] is [[6,2],[2,6]]
        a = np.array([[3 / 16, -1 / 16], [-1 / 16, 3 / 16]])
        assert np.isclose(norm_of(a, [1.0, 0.0]), math.sqrt(6.0))

    def test_zero_vector_has_zero_norm(self):
        # the anchor's own row is zero; the zero matrix comes only from identical arms, which deo refuses
        assert norm_of(np.eye(3), np.zeros(3)) == 0.0
        with pytest.raises(np.linalg.LinAlgError):
            norm_of(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(DegenerateFeatures):
            deo(FeatureSet(np.ones((4, 3))))

    def test_matches_direct_solve_on_pd(self):
        # against sum_i (q_i' x)^2 / w_i on the known spectrum
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = int(rng.integers(2, 8))
            a, q, w = random_pd(rng, d)
            x = rng.standard_normal(d)
            expected = math.sqrt(np.sum((x @ q) ** 2 / w))
            assert abs(norm_of(a, x) - expected) <= 1e-12 * expected

    def test_limit_consistency_rank_deficient(self):
        # on arms in a subspace, the certificate taken in span coordinates is the ridge limit
        # lim_{lam->0} max_i sqrt(u_i' (C + lam I)^{-1} u_i) of the rank-deficient ambient covariance C
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(3, 8))
            rank = int(rng.integers(1, d))
            x = subspace_arms(rng, d, rank, 2 * d + 2)
            policy, cert = deo(FeatureSet(x))
            u = x - x[0]
            cov = policy_moments(FeatureSet(u), policy).covariance
            lam = 1e-9 * np.linalg.eigvalsh(cov)[-1]
            ridge = weighted_inv_norm(cov + lam * np.eye(d), u).max()
            assert cert.dim == rank
            assert abs(ridge - cert.max_anchor_norm) <= 1e-4 * cert.max_anchor_norm

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            weighted_inv_norm(np.eye(2), np.zeros((1, 3)))


class TestStackedNorms:
    """A stack of vectors gives, row by row, what each row gives as a stack of one."""

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 7), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @example(d=3, n=5, seed=0)
    def test_stack_matches_rows(self, d, n, seed):
        rng = np.random.default_rng(seed)
        a, _, _ = random_pd(rng, d)
        zero = rng.integers(0, 3, size=(n, 1)) == 0
        x = np.where(zero, 0.0, rng.standard_normal((n, d)))
        values = weighted_inv_norm(a, x)
        assert values.shape == (n,)
        for row, value in zip(x, values):
            assert value == pytest.approx(norm_of(a, row), rel=1e-12, abs=0.0)

    def test_non_finite_vector_rejected(self):
        # the rows reaching the solve are finite: entries whose squared distances would overflow are
        # refused, and the largest admitted entries are certified, since deo scales by a power of two
        bound = math.sqrt(np.finfo(float).max / 8)
        with pytest.raises(DimError, match="overflow"):
            FeatureSet([[0.0, 0.0], [2.0 * bound, 0.0], [0.0, 1.0]])
        _, cert = deo(FeatureSet([[0.0, 0.0], [bound, 0.0], [0.0, bound]]))
        assert cert.max_anchor_norm == pytest.approx(math.sqrt(6.0), rel=1e-15)
        assert math.isfinite(cert.max_centered_norm)

    def test_stack_dim_mismatch(self):
        with pytest.raises(ValueError):
            weighted_inv_norm(np.eye(2), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            weighted_inv_norm(np.eye(2), np.zeros((1, 4, 2)))
        with pytest.raises(ValueError):  # a single vector is a stack of one row
            weighted_inv_norm(np.eye(2), np.zeros(2))
