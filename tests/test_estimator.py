import math

import numpy as np
import pytest

from semibandit.design import DesignCertificate, DesignPolicy, FeatureSet, deo, policy_moments
from semibandit.environment import make_gap_instance, rewards_for
from semibandit.errors import InvalidRegularizer, InvalidSample
from semibandit.estimator import (
    EstimatorState,
    error_bound_diagnostic,
    regularizer,
    solve,
    update_batch,
)


def add_sample(state, x, r):
    """One (centered feature, reward) sample through the batch update."""
    return update_batch(state, np.asarray(x, dtype=float)[None, :], np.array([r], dtype=float))


def centered(features, policy, arm):
    """x_arm minus the policy's feature mean, as the sampler centers it."""
    return features.features[arm] - policy_moments(features, policy).mean


class TestCenter:
    def test_point_mass(self):
        fs = FeatureSet(np.array([[0.3, 0.4], [0.1, 0.2]]))
        policy = DesignPolicy(np.array([1.0, 0.0]))
        assert np.allclose(centered(fs, policy, 0), 0.0)

    def test_mean_zero_policy(self):
        fs = FeatureSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        policy = DesignPolicy(np.array([0.5, 0.5]))
        assert np.allclose(centered(fs, policy, 0), [1.0, 0.0])

    def test_direct_arithmetic(self):
        fs = FeatureSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        policy = DesignPolicy(np.array([0.5, 0.25, 0.25]))
        assert np.allclose(centered(fs, policy, 1), [0.75, -0.25])


class TestUpdate:
    def test_zero_vector_only_counts(self):
        # a zero centered feature is a sample that adds nothing to the statistics
        state = EstimatorState.zeros(2)
        add_sample(state, np.zeros(2), 1.5)
        assert np.allclose(state.gram, 0.0) and np.allclose(state.moment, 0.0)

    def test_single_sample(self):
        state = EstimatorState.zeros(2)
        x = np.array([0.5, -0.5])
        add_sample(state, x, 2.0)
        assert np.allclose(state.gram, np.outer(x, x))
        assert np.allclose(state.moment, 2.0 * x)

    def test_non_finite_rejected(self):
        state = EstimatorState.zeros(2)
        with pytest.raises(InvalidSample):
            add_sample(state, np.zeros(2), math.nan)
        with pytest.raises(InvalidSample):
            add_sample(state, np.array([0.0, math.inf]), 1.0)
        assert not state.gram.any() and not state.moment.any()

    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((50, 3))
        rs = rng.standard_normal(50)
        one = EstimatorState.zeros(3)
        for x, r in zip(xs, rs):
            add_sample(one, x, r)
        batch = EstimatorState.zeros(3)
        update_batch(batch, xs, rs)
        # also an arbitrary chunked interleaving
        chunked = EstimatorState.zeros(3)
        for lo, hi in ((0, 7), (7, 23), (23, 50)):
            update_batch(chunked, xs[lo:hi], rs[lo:hi])
        for state in (batch, chunked):
            assert np.abs(state.gram - one.gram).max() <= 1e-10
            assert np.abs(state.moment - one.moment).max() <= 1e-10

    def test_trace_bound(self):
        rng = np.random.default_rng(1)
        fs = FeatureSet(rng.standard_normal((6, 3)) / 3.0)
        policy = DesignPolicy(np.full(6, 1 / 6))
        state = EstimatorState.zeros(3)
        max_norm = np.linalg.norm(fs.features, axis=1).max()
        arms = rng.integers(0, 6, 40)
        for arm in arms:
            add_sample(state, centered(fs, policy, int(arm)), 0.1)
        assert np.trace(state.gram) <= arms.size * (2 * max_norm) ** 2 + 1e-12


class TestRegularizer:
    def test_examples(self):
        assert np.isclose(regularizer(1, 1 / math.e), 1.0)
        assert np.isclose(regularizer(100, 0.01), math.log(10_000))
        assert np.isclose(regularizer(10, 0.1), math.log(100))

    def test_positive(self):
        for t in (1, 2, 1000):
            assert regularizer(t, 0.99) > 0

    def test_ridge_config(self):
        # the log(t/delta) rule and its argument checks, as the samplers use it
        assert np.isclose(regularizer(10, 0.1), math.log(100))
        with pytest.raises(ValueError):
            regularizer(10, 1.5)
        with pytest.raises(ValueError):
            regularizer(0, 0.1)


class TestSolve:
    def test_zero_moment(self):
        state = EstimatorState.zeros(3)
        add_sample(state, np.array([0.2, 0.1, 0.0]), 0.0)
        assert np.allclose(solve(state, 1.0), 0.0)

    def test_rank_one_closed_form(self):
        state = EstimatorState.zeros(2)
        x = np.array([0.6, -0.3])
        add_sample(state, x, 1.7)
        beta = 0.8
        expected = 1.7 / (x @ x + beta) * x
        assert np.allclose(solve(state, beta), expected)

    def test_residual(self):
        rng = np.random.default_rng(2)
        state = EstimatorState.zeros(4)
        update_batch(state, rng.standard_normal((30, 4)), rng.standard_normal(30))
        beta = 2.0
        theta = solve(state, beta)
        resid = (state.gram + beta * np.eye(4)) @ theta - state.moment
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(state.moment)

    def test_invalid_beta(self):
        with pytest.raises(InvalidRegularizer):
            solve(EstimatorState.zeros(2), 0.0)

    @staticmethod
    def stacked_systems(d=3, systems=6, rows=40):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((systems, rows, d))
        gram = np.matmul(x.transpose(0, 2, 1), x)
        moment = np.matmul(x.transpose(0, 2, 1), rng.standard_normal((systems, rows, 1)))[..., 0]
        return gram, moment, np.log(np.arange(1, systems + 1) / 0.1)

    def test_stacked_equals_each_system(self):
        # a stack of systems, one beta each, is solved bit for bit as each system on its own
        gram, moment, beta = self.stacked_systems()
        stacked = solve(EstimatorState(gram, moment), beta)
        assert stacked.shape == moment.shape and EstimatorState(gram, moment).dim == 3
        each = [solve(EstimatorState(g, m), float(b)) for g, m, b in zip(gram, moment, beta)]
        direct = [np.linalg.solve(g + b * np.eye(3), m) for g, m, b in zip(gram, moment, beta)]
        assert stacked.tobytes() == np.array(each).tobytes() == np.array(direct).tobytes()

    def test_stacked_singular_member_raises(self):
        # beside a Gram matrix of 1e18, a regularizer of 3 is lost in rounding: the member is singular
        gram, moment, beta = self.stacked_systems(d=2, systems=4)
        gram[2] = 1e18
        with pytest.raises(InvalidSample, match="^the ridge system is singular"):
            solve(EstimatorState(gram, moment), beta)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_stacked_beta_must_be_positive(self, bad):
        gram, moment, beta = self.stacked_systems()
        beta[4] = bad
        with pytest.raises(InvalidRegularizer):
            solve(EstimatorState(gram, moment), beta)

    def test_noiseless_bias_small(self):
        # zero shift, zero noise: remaining error is ridge shrinkage plus
        # the finite-sample mean of the centered features
        env = make_gap_instance(3, 5, 0.4, seed=21)
        policy, _ = deo(env.features)
        rng = env.action_rng(0)
        t = 10_000
        arms = rng.choice(env.K, size=t, p=policy.probabilities)
        rewards = env.values[arms]
        xbar = policy.probabilities @ env.features.features
        state = EstimatorState.zeros(3)
        update_batch(state, env.features.features[arms] - xbar, rewards)
        theta_hat = solve(state, regularizer(t, 0.1))
        diffs = env.features.features - env.features.features[0]
        err = np.abs(diffs @ (theta_hat - env.theta_star)).max()
        assert err <= 0.05


class TestErrorBoundDiagnostic:
    def cert(self, l, m, dim):
        return DesignCertificate(
            max_anchor_norm=math.sqrt(l), max_centered_norm=math.sqrt(m), support_size=dim, dim=dim
        )

    def test_sqrt_t_scaling(self):
        # quadrupling t halves the envelope asymptotically (sqrt(t) rate,
        # log factor and 1/t tail vanish in the limit)
        cert = self.cert(4.0, 16.0, 4)
        ratio = error_bound_diagnostic(cert, 4 * 10**15, 0.1) / error_bound_diagnostic(cert, 10**15, 0.1)
        assert abs(ratio - 0.5) < 0.01
        moderate = error_bound_diagnostic(cert, 4 * 10**4, 0.1) / error_bound_diagnostic(cert, 10**4, 0.1)
        assert 0.4 < moderate < 0.6

    def test_direct_substitution(self):
        d, delta = 5, 0.1
        cert = self.cert(d, d, d)
        t = d**3
        expected = math.sqrt(d * math.log(t / delta)) / t**0.5 + math.sqrt(d) * d * math.log(d / delta) / t
        assert np.isclose(error_bound_diagnostic(cert, t, delta, c1=1.0), expected)

    def test_zero_l(self):
        assert error_bound_diagnostic(self.cert(0.0, 4.0, 3), 100, 0.1) == 0.0


class TestComparability:
    def test_sandwich_mostly_holds(self):
        # light version of the acceptance check: fixed anchored design,
        # multinomial counts, c = 3/2 sandwich on ridge-shifted covariances
        env = make_gap_instance(4, 8, 0.5, seed=3)
        policy, _ = deo(env.features)
        moments = policy_moments(env.features, policy)
        x = env.features.features
        xc = x - moments.mean
        t = 2000
        lam = math.log(t / 0.1) / t
        eye = np.eye(env.d)
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(50):
            counts = rng.multinomial(t, policy.probabilities)
            sigma_hat = (xc.T * (counts / t)) @ xc
            # (1/c) A <= B <= c A iff every generalized eigenvalue of (B, A) lies in [1/c, c];
            # with B = L L' they are the eigenvalues of L^-1 A L^-T
            chol = np.linalg.cholesky(sigma_hat + lam * eye)
            half = np.linalg.solve(chol, moments.covariance + lam * eye)
            w = np.linalg.eigvalsh(np.linalg.solve(chol, half.T))
            if w.min() >= 1 / 1.5 - 1e-9 and w.max() <= 1.5 + 1e-9:
                hits += 1
        assert hits >= 48

    def test_envelope_covers_measured_error(self):
        # measured e_t stays under the diagnostic with C1 = 10 at several t
        env = make_gap_instance(4, 10, 0.5, seed=5)
        policy, cert = deo(env.features)
        x = env.features.features
        xbar = policy.probabilities @ x
        diffs = x - x[0]
        delta = 0.1
        grid = [1_000, 10_000, 100_000]
        inside = 0
        total = 0
        for seed in range(20):
            rng = env.action_rng(seed)
            noise = env.noise_stream(seed)
            arms = rng.choice(env.K, size=grid[-1], p=policy.probabilities)
            rewards = rewards_for(env, arms, 1, noise)
            centered = x[arms] - xbar
            state = EstimatorState.zeros(env.d)
            lo = 0
            for t in grid:
                update_batch(state, centered[lo:t], rewards[lo:t])
                lo = t
                theta_hat = solve(state, regularizer(t, delta))
                e_t = np.abs(diffs @ (theta_hat - env.theta_star)).max()
                total += 1
                if e_t <= error_bound_diagnostic(cert, t, delta, c1=10.0):
                    inside += 1
        assert inside >= 0.95 * total
