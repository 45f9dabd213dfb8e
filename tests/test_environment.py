import math

import numpy as np
import pytest

from semibandit.environment import (
    Environment,
    NoiseSpec,
    NoiseStream,
    ShiftSpec,
    assumption_audit,
    finite_real,
    make_gap_instance,
    make_mab_embedding,
    rewards_for,
    shift_bound,
    shift_values,
)
from semibandit.design import FeatureSet
from semibandit.errors import InvalidArm


def shift_at(spec, t):
    return float(shift_values(spec, np.array([t]))[0])


@pytest.mark.parametrize(
    "value, expected",
    [
        (2, True),
        (-3.5, True),
        (np.int64(2), True),
        (np.float64(0.5), True),
        (1.7e308, True),
        (10**300, True),
        (10**400, False),  # past the largest double
        (True, False),
        (np.bool_(True), False),
        (math.nan, False),
        (math.inf, False),
        (-math.inf, False),
        ("1", False),
    ],
)
def test_finite_real(value, expected):
    # the one rule for a config number: shift constant, noise scale, gap, c2, c3, fw_tol, epsilon, delta
    assert finite_real(value) == expected


class TestShiftSpec:
    def test_sine(self):
        assert np.isclose(shift_at(ShiftSpec(kind="sine"), 1), 1 + math.sin(2))
        assert np.isclose(shift_at(ShiftSpec(kind="sine"), 7), 1 + math.sin(14))

    def test_log_alternating(self):
        spec = ShiftSpec(kind="log_alternating")
        # ln(2)/5 < 2, exponent t mod 3: signs -, +, +, -, ...
        assert shift_at(spec, 1) == -2.0
        assert shift_at(spec, 2) == 2.0
        assert shift_at(spec, 3) == 2.0
        assert shift_at(spec, 4) == -2.0

    def test_log_alternating_min_variant(self):
        spec = ShiftSpec(kind="log_alternating_min")
        assert np.isclose(shift_at(spec, 1), -math.log(2) / 5)

    def test_none_and_constant(self):
        assert shift_at(ShiftSpec(kind="none"), 123) == 0.0
        assert shift_at(ShiftSpec(kind="constant", constant=0.7), 5) == 0.7

    def test_clip(self):
        spec = ShiftSpec(kind="log_alternating", clip_to_unit=True)
        vals = shift_values(spec, np.arange(1, 50))
        assert np.abs(vals).max() <= 1.0

    def test_custom_table(self):
        spec = ShiftSpec(kind="custom", table=[0.1, -0.2, 0.3])
        assert shift_at(spec, 2) == -0.2
        with pytest.raises(ValueError):
            shift_at(spec, 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ShiftSpec(kind="sawtooth")

    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "none"},
            {"kind": "sine"},
            {"kind": "log_alternating"},
            {"kind": "log_alternating_min"},
            {"kind": "constant", "constant": -3.5},
            {"kind": "custom", "table": [0.1] * 9 + [-7.0] + [50.0] * 29_990},
        ],
        ids=lambda spec: spec["kind"],
    )
    @pytest.mark.parametrize("rounds", [1, 10, 30_000])  # past e^10, ln(t + 1) / 5 > 2
    def test_bound_covers_every_round(self, spec, clip, rounds):
        # the bound on |nu_t| that validate builds its sum bound from; a custom table past the run is not read
        shift = ShiftSpec(**spec, clip_to_unit=clip)
        largest = np.abs(shift_values(shift, np.arange(1, rounds + 1))).max()
        assert largest <= shift_bound(shift, rounds) <= max(largest, 2.0)


class TestNoise:
    def test_stream_random_access_consistency(self):
        stream = NoiseStream(NoiseSpec(kind="gaussian", scale=1.0), seed=9)
        block = stream.values(4090, 20)  # crosses a chunk boundary
        singles = [stream.values(t, 1)[0] for t in range(4090, 4110)]
        assert np.array_equal(block, singles)
        # a fresh stream read from the far side of the boundary agrees too
        fresh = NoiseStream(NoiseSpec(kind="gaussian", scale=1.0), seed=9)
        assert np.array_equal(fresh.values(4100, 10), block[10:])

    def test_backward_reread_after_forward_read(self):
        # only the chunk read last is kept; an earlier chunk read again is regenerated alike
        stream = NoiseStream(NoiseSpec(kind="gaussian", scale=1.0), seed=3)
        forward = stream.values(1, 3 * 4096)
        assert stream._last[0] == 3
        assert np.array_equal(stream.values(5, 4200), forward[4:4204])
        assert stream._last[0] == 1
        assert np.array_equal(stream.values(1, 3 * 4096), forward)

    def test_bounded_uniform_range(self):
        stream = NoiseStream(NoiseSpec(kind="bounded_uniform", scale=0.4), seed=1)
        vals = stream.values(1, 1000)
        assert np.abs(vals).max() <= 0.4

    def test_none_stream(self):
        stream = NoiseStream(NoiseSpec(kind="none"), seed=1)
        assert np.all(stream.values(1, 10) == 0.0)


class TestEnvironment:
    def make_env(self, **kw):
        fs = FeatureSet(np.array([[0.8, 0.0], [0.0, 0.4], [0.4, 0.4]]))
        theta = np.array([0.9, 0.1])
        return Environment(features=fs, theta_star=theta, **kw)

    def test_values_and_gap(self):
        env = self.make_env()
        assert env.best_arm == 0
        # values: (0.72, 0.04, 0.40)
        assert np.isclose(env.gap, 0.32)

    def test_exact_reward_no_noise(self):
        env = self.make_env(noise=NoiseSpec(kind="none"))
        stream = env.noise_stream(0)
        assert rewards_for(env, [1], 3, stream)[0] == env.values[1]

    def test_constant_shift(self):
        env = self.make_env(
            noise=NoiseSpec(kind="none"), shift=ShiftSpec(kind="constant", constant=0.7)
        )
        stream = env.noise_stream(0)
        assert np.isclose(rewards_for(env, [2], 9, stream)[0], env.values[2] + 0.7)

    def test_gaussian_empirical_mean(self):
        env = self.make_env()
        stream = env.noise_stream(5)
        n = 100_000
        rewards = rewards_for(env, np.zeros(n, dtype=int), 1, stream)
        assert abs(rewards.mean() - env.values[0]) <= 0.02  # 3 sigma / sqrt(n) ~ 0.0095

    def test_reproducibility(self):
        env = self.make_env()
        arms = np.array([0, 2, 1, 1, 0])
        r1 = rewards_for(env, arms, 1, env.noise_stream(7))
        r2 = rewards_for(env, arms, 1, env.noise_stream(7))
        assert np.array_equal(r1, r2)

    def test_shift_and_noise_independent_of_arm(self):
        env = self.make_env(shift=ShiftSpec(kind="sine"))
        t = 17
        r_a = rewards_for(env, [1, 0], t, env.noise_stream(3))
        r_b = rewards_for(env, [1, 2], t, env.noise_stream(3))
        assert r_a[0] == r_b[0]
        assert np.isclose(r_a[1] - r_b[1], env.values[0] - env.values[2])

    def test_invalid_arm(self):
        env = self.make_env()
        with pytest.raises(InvalidArm):
            rewards_for(env, [0, 5], 1, env.noise_stream(0))
        with pytest.raises(InvalidArm):
            rewards_for(env, [-1], 1, env.noise_stream(0))


class TestGapInstance:
    def test_exact_gap(self):
        env = make_gap_instance(5, 10, 0.5, seed=0)
        assert abs(env.gap - 0.5) <= 1e-9
        assert np.linalg.norm(env.theta_star) <= 1.0 + 1e-12
        assert np.linalg.norm(env.features.features, axis=1).max() <= 1.0 + 1e-12

    def test_unique_argmax(self):
        for seed in range(5):
            env = make_gap_instance(3, 6, 0.3, seed=seed)
            vals = env.values
            assert np.count_nonzero(vals == vals.max()) == 1

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            make_gap_instance(3, 5, 0.0, seed=0)


class TestMabEmbedding:
    def test_two_arms(self):
        env = make_mab_embedding([0.5, 0.3])
        assert env.d == 2 and env.K == 2
        assert np.allclose(env.features.features, np.eye(2))
        assert env.best_arm == 0
        assert np.isclose(env.gap, 0.2)

    def test_all_equal_rejected(self):
        with pytest.raises(ValueError):
            make_mab_embedding([0.4, 0.4, 0.4])

    def test_scaled_gap(self):
        env = make_mab_embedding([0.9, 0.5, 0.1])
        assert np.isclose(env.gap / env.info["scale"], 0.4)
        assert np.linalg.norm(env.theta_star) <= 1.0 + 1e-12


class TestAudit:
    def test_clean_instance(self):
        env = make_gap_instance(3, 5, 0.4, seed=1)
        assert assumption_audit(env, horizon=100) == []

    def test_flags_violations(self):
        fs = FeatureSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        env = Environment(
            features=fs,
            theta_star=np.array([1.0, 0.0]),
            shift=ShiftSpec(kind="log_alternating"),
        )
        findings = assumption_audit(env, horizon=50)
        assert any("shift" in f for f in findings)

    def test_reports_feature_norm(self):
        env = Environment(features=FeatureSet(np.array([[2.0, 0.0], [0.0, 0.5], [0.6, 0.8]])), theta_star=[1.0, 0.0])
        assert assumption_audit(env) == ["1 feature(s) with norm > 1 (max 2)"]

    def test_reports_theta_norm(self):
        fs = FeatureSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert assumption_audit(Environment(features=fs, theta_star=np.array([2.0, 0.0]))) == ["||theta*|| = 2 > 1"]
        # past the square root of the largest double, where the sum of squares overflows
        env = Environment(features=FeatureSet(np.array([[0.5, 0.0], [0.0, 0.5]])), theta_star=[3e300, -4e300])
        assert assumption_audit(env) == ["||theta*|| = 5e+300 > 1"]

    def test_reports_non_unique_best_arm(self):
        fs = FeatureSet(np.array([[0.6, 0.0], [0.0, 0.6], [-0.6, 0.0]]))
        tie = Environment(features=fs, theta_star=np.array([0.6, 0.6]))
        assert (tie.gap, tie.best_arm) == (0.0, 0)
        assert assumption_audit(tie) == ["best arm is not unique: gap-dependent results are undefined"]
        assert assumption_audit(Environment(features=fs, theta_star=np.array([0.6, 0.5]))) == []
