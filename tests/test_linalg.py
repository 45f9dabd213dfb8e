import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semibandit.errors import DimError, InvalidMatrix
from semibandit.linalg import weighted_inv_norm


def random_psd(rng, d, rank=None, lo=0.5, hi=2.0):
    rank = d if rank is None else rank
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = np.zeros(d)
    w[:rank] = rng.uniform(lo, hi, rank)
    return (q * w) @ q.T, q, w


def norm_of(a, x):
    """The norm of one vector, as a one-row stack; ``inf`` means out of range."""
    return weighted_inv_norm(a, np.asarray(x, dtype=float)[None])[0]


class TestEigSym:
    """The symmetric eigendecomposition inside ``weighted_inv_norm``, checked on known spectra."""

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
            a, q, w = random_psd(rng, 6)
            for i in range(6):
                value = norm_of(a, q[:, i])
                assert abs(value - 1.0 / math.sqrt(w[i])) <= 1e-9 / math.sqrt(w[i])

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InvalidMatrix):
            weighted_inv_norm(bad, np.ones((1, 2)))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidMatrix):
            weighted_inv_norm(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones((1, 2)))


class TestWeightedInvNorm:
    def test_identity_weighting(self):
        assert np.isclose(norm_of(np.eye(2), [3.0, 4.0]), 5.0)

    def test_orthogonal_to_range(self):
        a = np.outer([1.0, 0.0], [1.0, 0.0])
        assert math.isinf(norm_of(a, [0.0, 1.0]))

    def test_hand_inverse(self):
        # inverse of [[3/16,-1/16],[-1/16,3/16]] is [[6,2],[2,6]]
        a = np.array([[3 / 16, -1 / 16], [-1 / 16, 3 / 16]])
        assert np.isclose(norm_of(a, [1.0, 0.0]), math.sqrt(6.0))

    def test_zero_vector_in_range_of_zero_matrix(self):
        assert norm_of(np.zeros((3, 3)), np.zeros(3)) == 0.0
        assert math.isinf(norm_of(np.zeros((3, 3)), [1.0, 0.0, 0.0]))

    def test_matches_direct_solve_on_pd(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = int(rng.integers(2, 8))
            a, _, _ = random_psd(rng, d)
            x = rng.standard_normal(d)
            expected = math.sqrt(x @ np.linalg.solve(a, x))
            assert abs(norm_of(a, x) - expected) <= 1e-8 * expected

    def test_limit_consistency_rank_deficient(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(3, 8))
            r = int(rng.integers(1, d))
            a, q, w = random_psd(rng, d, rank=r)
            coeff = rng.standard_normal(r)
            x = q[:, :r] @ coeff  # inside range(a)
            value = norm_of(a, x)
            assert math.isfinite(value)
            lam = 1e-8
            shifted = math.sqrt(x @ np.linalg.solve(a + lam * np.eye(d), x))
            assert abs(shifted - value) <= 1e-4 * value

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            weighted_inv_norm(np.eye(2), np.zeros((1, 3)))


class TestStackedNorms:
    """A stack of vectors gives, row by row, what each row gives as a stack of one."""

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 7), rank=st.integers(0, 7), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @example(d=3, rank=0, n=5, seed=0)  # zero matrix
    @example(d=5, rank=2, n=8, seed=1)  # rank-deficient matrix
    def test_stack_matches_rows(self, d, rank, n, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, d)
        a, q, _ = random_psd(rng, d, rank=rank)
        inside = rng.standard_normal((n, rank)) @ q[:, :rank].T
        outside = rng.standard_normal((n, d - rank)) @ q[:, rank:].T
        kind = rng.integers(0, 3, size=(n, 1))  # in range, off range, zero vector
        x = np.where(kind == 0, inside, np.where(kind == 1, inside + outside, 0.0))
        values = weighted_inv_norm(a, x)
        assert values.shape == (n,)
        for row, value in zip(x, values):
            single = norm_of(a, row)
            assert math.isinf(value) == math.isinf(single)
            if math.isfinite(single):
                assert value == pytest.approx(single, rel=1e-12, abs=0.0)

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            weighted_inv_norm(np.eye(2), np.array([[math.nan, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            weighted_inv_norm(np.eye(2), np.array([[1.0, 0.0], [math.inf, 1.0]]))

    def test_stack_dim_mismatch(self):
        with pytest.raises(DimError):
            weighted_inv_norm(np.eye(2), np.zeros((4, 3)))
        with pytest.raises(DimError):
            weighted_inv_norm(np.eye(2), np.zeros((1, 4, 2)))
        with pytest.raises(DimError):  # a single vector is a stack of one row
            weighted_inv_norm(np.eye(2), np.zeros(2))
