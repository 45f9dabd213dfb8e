import dataclasses
import math

import numpy as np
import pytest

from semibandit.design import DesignCertificate, DesignPolicy, FeatureSet, deo, policy_moments
from semibandit.environment import ShiftSpec, make_gap_instance, rewards_for, shift_values
from semibandit.errors import DimError, InvalidRegularizer, InvalidSample
from semibandit.estimator import (
    EstimatorState,
    error_bound_diagnostic,
    regularizer,
    solve,
    update_batch,
)
from semibandit.sbe import run_pure_exploration

import binomial
from gaussian_limit import anchored_errors, noise_scale


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", ["rows", "rewards"])
    def test_any_non_finite_entry_rejected(self, value, where):
        # one entry deep inside a batch, among entries of both signs, is enough
        rng = np.random.default_rng(2)
        rows, rewards = rng.standard_normal((40, 3)), rng.standard_normal(40)
        if where == "rows":
            rows[17, 1] = value
        else:
            rewards[17] = value
        state = EstimatorState.zeros(3)
        with pytest.raises(InvalidSample, match="^non-finite reward or feature$"):
            update_batch(state, rows, rewards)
        assert not state.gram.any() and not state.moment.any()

    def test_rows_of_another_dimension_rejected(self):
        state = EstimatorState.zeros(3)
        with pytest.raises(DimError, match="^centered rows and rewards must align with the state dimension$"):
            update_batch(state, np.ones((2, 2)), np.ones(2))
        assert not state.gram.any() and not state.moment.any()

    def test_empty_batch_adds_nothing(self):
        state = update_batch(EstimatorState.zeros(3), np.empty((0, 3)), np.empty(0))
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
        # multinomial counts, c = 3/2 sandwich on ridge-shifted covariances.
        # 1,000 trials, 50 from each of default_rng(0..19).  If a trial breaks the
        # sandwich with probability at most 0.001, the test fails by chance with
        # probability P(Bin(1000, 0.999) <= 994) < 1e-3.  Measured: 1,000 of 1,000
        # hold; 20,000 of 20,000 over default_rng(0..399) and again over
        # default_rng(1000..1399), whose 99.9% Clopper-Pearson upper bound on the
        # rate of breaks is 1.7e-4; the widest eigenvalue ratio was 1.26
        trials = 1000
        assert binomial.cdf(994, trials, 0.999) < 1e-3
        env = make_gap_instance(4, 8, 0.5, seed=3)
        policy, _ = deo(env.features)
        moments = policy_moments(env.features, policy)
        x = env.features.features
        xc = x - moments.mean
        t = 2000
        lam = math.log(t / 0.1) / t
        eye = np.eye(env.d)
        hits = 0
        for seed in range(trials // 50):
            rng = np.random.default_rng(seed)
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
        assert hits >= 995

    def test_envelope_covers_measured_error(self):
        # measured e_t stays under the diagnostic with C1 = 10 at t = 1e3, 1e4 and 1e5.
        # The three t of one seed share one sample path, so the trial is the seed: it
        # passes when all three are covered.  If a seed fails with probability at
        # most 0.02, the test fails by chance with probability
        # P(Bin(60, 0.98) <= 53) < 1e-3.  Measured: 60 of 60 seeds pass; 300 of 300
        # over seeds 0-299 and again over seeds 1000-1299, whose 99.9% Clopper-Pearson
        # upper bound on the rate of failures is 0.012; the largest e_t / bound was 0.10
        trials = 60
        assert binomial.cdf(53, trials, 0.98) < 1e-3
        env = make_gap_instance(4, 10, 0.5, seed=5)
        policy, cert = deo(env.features)
        x = env.features.features
        xbar = policy.probabilities @ x
        diffs = x - x[0]
        delta = 0.1
        grid = [1_000, 10_000, 100_000]
        covered = 0
        for seed in range(trials):
            rng = env.action_rng(seed)
            noise = env.noise_stream(seed)
            arms = rng.choice(env.K, size=grid[-1], p=policy.probabilities)
            rewards = rewards_for(env, arms, 1, noise)
            centered = x[arms] - xbar
            state = EstimatorState.zeros(env.d)
            lo = 0
            inside = True
            for t in grid:
                update_batch(state, centered[lo:t], rewards[lo:t])
                lo = t
                theta_hat = solve(state, regularizer(t, delta))
                e_t = np.abs(diffs @ (theta_hat - env.theta_star)).max()
                inside &= e_t <= error_bound_diagnostic(cert, t, delta, c1=10.0)
            covered += inside
        assert covered >= 54


class TestHistoryDependentShift:
    def test_centering_absorbs_a_shift_that_reacts_to_rewards(self):
        # the semiparametric claim against an adaptive adversary: nu_t = 2 when the last reward's
        # shift-free part x_a'theta* + eta was positive, else 0 (nu_1 = 0), so the shift has a nonzero
        # mean and reacts to the history.  The arms come from deo's fixed design, so every shift-free
        # part, and with it every nu_t, is known before a reward is drawn.  The ridge estimate on
        # centered rows follows the Gaussian limit (tests/gaussian_limit.py); the same ridge on the raw
        # rows, a plain linear model, takes the shift's mean into theta_hat and does not.
        # Let m be the limit's median e_B and q the limit's chance of e_B <= 1.1 m (or >= 0.9 m), both
        # about 0.61.  A run that follows the limit falls on each side of the band with chance q, so
        # "at least 100 of 200 runs have e_B <= 1.1 m, and at least 100 have e_B >= 0.9 m", which puts
        # the median e_B within [0.9, 1.1] m, fails by chance with probability P(Bin(200, q) <= 99)
        # < 0.01 each; and for the raw rows "at most 99 of 200 have e_B <= 1.1 m" would hold with that
        # probability if they followed the limit.  Measured: 108 and 126 of 200 (median ratio 1.07) for
        # the centered rows, 0 of 200 (median ratio 9.4) for the raw rows
        budget, delta, runs = 4000, 0.1, 200
        env = make_gap_instance(5, 20, 0.2, seed=0)
        p = deo(env.features)[0].probabilities
        x = env.features.features
        beta = regularizer(budget, delta)
        errors = {"centered": [], "raw": []}
        shifts = []
        for seed in range(runs):
            arms = env.action_rng(seed).choice(env.K, size=budget, p=p)
            shift_free = env.values[arms] + env.noise_stream(seed).values(1, budget)
            nu = np.concatenate([[0.0], np.where(shift_free[:-1] > 0, 2.0, 0.0)])
            shifts.append(nu)
            for name, rows in (("centered", x[arms] - p @ x), ("raw", x[arms])):
                state = update_batch(EstimatorState.zeros(env.d), rows, shift_free + nu)
                errors[name].append(np.abs((x - x[0]) @ (solve(state, beta) - env.theta_star)).max())
        oracle = anchored_errors(x, p, env.theta_star, budget, beta, noise_scale(x, p, env.theta_star, shifts))
        m = np.median(oracle)
        assert binomial.cdf(99, runs, np.mean(oracle <= 1.1 * m)) < 0.01
        assert binomial.cdf(99, runs, np.mean(oracle >= 0.9 * m)) < 0.01
        centered_errors, raw_errors = np.array(errors["centered"]), np.array(errors["raw"])
        assert np.sum(centered_errors <= 1.1 * m) >= 100 and np.sum(centered_errors >= 0.9 * m) >= 100
        assert 0.9 <= np.median(centered_errors) / m <= 1.1
        assert np.sum(raw_errors <= 1.1 * m) <= 99
        assert np.median(raw_errors) / m > 1.1

    @pytest.mark.parametrize(
        "shift",
        [ShiftSpec(), ShiftSpec(kind="sine"), ShiftSpec(kind="log_alternating"), ShiftSpec("constant", constant=5.0)],
        ids=["none", "sine", "log_alternating", "constant-5"],
    )
    def test_fixed_shift_follows_the_oracle(self, shift):
        # the same claim for the fixed shifts, through run_pure_exploration itself: one phase of deo's design
        # over all arms, B = 4000 rounds, at seeds 0-399.  The median sqrt(B) e_B is pinned to [0.9, 1.1] times
        # the oracle's (tests/gaussian_limit.py), whose s^2 = 1 + mean_t (xbar'theta* + nu_t)^2 carries the
        # shift: "at least 200 of 400 runs have e_B <= 1.1 m, and at least 200 have e_B >= 0.9 m", m the
        # limit's median e_B.  With q, about 0.61, the limit's chance of each side, a run that follows the limit
        # fails a side with probability P(Bin(400, q) <= 199) < 1.25e-4, so the four shifts fail by chance
        # with probability < 1e-3.  Measured: median ratios 1.002, 1.007, 0.974 and 1.024 at seeds 0-399;
        # 1.032, 0.987, 0.962 and 0.984 at seeds 1000-1399
        budget, delta, runs = 4000, 0.1, 400
        env = dataclasses.replace(make_gap_instance(5, 20, 0.2, seed=0), shift=shift)
        p = deo(env.features)[0].probabilities
        x = env.features.features
        errors = []
        for seed in range(runs):
            theta_hat, _, _ = run_pure_exploration(env, budget, delta, run_seed=seed)
            errors.append(np.abs((x - x[0]) @ (theta_hat - env.theta_star)).max())
        s = noise_scale(x, p, env.theta_star, shift_values(shift, np.arange(1, budget + 1)))
        oracle = anchored_errors(x, p, env.theta_star, budget, regularizer(budget, delta), s)
        m = np.median(oracle)
        assert binomial.cdf(199, runs, np.mean(oracle <= 1.1 * m)) < 1.25e-4
        assert binomial.cdf(199, runs, np.mean(oracle >= 0.9 * m)) < 1.25e-4
        errors = np.array(errors)
        assert np.sum(errors <= 1.1 * m) >= 200 and np.sum(errors >= 0.9 * m) >= 200
        assert 0.9 <= np.median(errors) / m <= 1.1  # the median sqrt(B) e_B over the oracle's: sqrt(B) cancels

