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
import semibandit.environment as environment
from semibandit.design import FeatureSet
from semibandit.errors import GenerationError, InvalidArm, real_array

from allocation import traced_peak


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


ARRAY_FIELDS = {
    "features": lambda rows: FeatureSet(rows),
    "theta": lambda theta: Environment(features=FeatureSet(np.eye(2)), theta_star=theta),
    "mu": make_mab_embedding,
    "shift table": lambda table: ShiftSpec(kind="custom", table=table),
}


@pytest.mark.parametrize("field", ARRAY_FIELDS)
@pytest.mark.parametrize(
    "entries",
    [[0.5, "0.2"], ["0.5", 0.2], [True, False], [1.0, True], np.array([True, False]), np.array(["0.5", "0.2"])],
    ids=["string-last", "string-first", "bools", "bool-among-floats", "bool-array", "string-array"],
)
def test_array_entries_follow_the_number_rule(field, entries):
    # every entry of features, theta, mu and a custom shift table is a number by finite_real's rule;
    # numpy alone reads each of these as floats
    rows = np.stack([entries, entries[::-1]]) if isinstance(entries, np.ndarray) else [entries, [0.0, 1.0]]
    with pytest.raises(TypeError, match="must be finite numbers, not "):
        ARRAY_FIELDS[field](rows if field == "features" else entries)


@pytest.mark.parametrize("field", ARRAY_FIELDS)
@pytest.mark.parametrize(
    "entries", [[np.float64(0.25), 1], np.array([0.25, 1.0], dtype=np.float32), np.arange(2)], ids=["list", "f4", "i8"]
)
def test_array_entries_of_any_real_type(field, entries):
    # ints, numpy scalars and arrays of a numeric dtype are numbers
    rows = np.stack([entries, entries[::-1]]) if isinstance(entries, np.ndarray) else [entries, [0.0, 0.5]]
    ARRAY_FIELDS[field](rows if field == "features" else entries)


def test_row_arrays_in_a_list_follow_the_number_rule():
    # a list of row arrays: each array is walked by the same rule as a nested list
    assert real_array([np.array([1.0, 2.0]), np.array([3.0, 4.0])]).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(TypeError, match="^entries must be finite numbers, not True$"):
        real_array([np.array([True, False])])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: shift_values(ShiftSpec(), np.array([0])), "round indices start at 1"),
        (lambda: NoiseSpec(kind="laplace"), "unknown noise kind 'laplace'"),
        (lambda: make_gap_instance(3, 1, 0.5, 0), "need at least two arms"),
    ],
    ids=["round-zero", "unknown-noise-kind", "one-arm-gap-instance"],
)
def test_bad_arguments_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


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
    @pytest.mark.parametrize("kind", ["gaussian", "bounded_uniform"])
    @pytest.mark.parametrize("a, b", [(1, 4095), (4095, 2), (4096, 1), (37, 5000), (0, 9), (9, 0)])
    def test_split_reads_equal_one_read(self, kind, a, b):
        # a run reads its noise phase by phase: two reads give the values of one read of both
        spec = NoiseSpec(kind=kind, scale=0.7)
        stream = NoiseStream(spec, seed=9)
        split = np.concatenate([stream.values(1, a), stream.values(1 + a, b)])
        assert split.tobytes() == NoiseStream(spec, seed=9).values(1, a + b).tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "bounded_uniform", "none"])
    @pytest.mark.parametrize("t0", [-1, 0, 1, 5, 7, 4097])
    def test_out_of_order_read_raises(self, kind, t0):
        # after rounds 1..5 the next read starts at round 6; any other start, back or ahead, is refused
        spec = NoiseSpec(kind=kind)
        stream = NoiseStream(spec, seed=3)
        stream.values(1, 5)
        with pytest.raises(ValueError, match="in order"):
            stream.values(t0, 3)
        # a refused read draws nothing
        assert stream.values(6, 4).tobytes() == NoiseStream(spec, seed=3).values(1, 9)[5:].tobytes()
        if t0 != 1:  # a fresh stream starts at round 1
            with pytest.raises(ValueError, match="in order"):
                NoiseStream(spec, seed=3).values(t0, 3)
        with pytest.raises(ValueError, match="in order"):  # and reads no negative count
            stream.values(10, -1)

    @pytest.mark.parametrize("kind", ["gaussian", "bounded_uniform", "none"])
    def test_resumed_streams_read_what_the_saved_one_would(self, kind):
        # a declared run saves its noise after its phase rounds; each pass of the metrics resumes it, so
        # every resumed stream reads the rounds the saved one would, whatever the saved one reads later
        spec = NoiseSpec(kind=kind, scale=0.7)
        stream = NoiseStream(spec, seed=9)
        stream.values(1, 37)
        state = stream.state
        later = stream.values(38, 5000)  # moves the saved stream on, not its state
        resumed = [NoiseStream.resume(state) for _ in range(2)]
        assert resumed[0].values(38, 5000).tobytes() == later.tobytes()
        assert np.concatenate([resumed[1].values(38, 4096), resumed[1].values(4134, 904)]).tobytes() == later.tobytes()
        with pytest.raises(ValueError, match="in order"):  # a resumed stream goes on from the saved round
            NoiseStream.resume(state).values(1, 3)

    def test_run_keys_do_not_collide(self):
        # both pairs drew identical noise under the key (env seed * 0x9E3779B9 + run seed) mod 2^63
        mu = [0.5, 0.2]
        a = make_mab_embedding(mu, seed=0).noise_stream(0x9E3779B9).values(1, 1000)
        b = make_mab_embedding(mu, seed=1).noise_stream(0).values(1, 1000)
        assert not np.array_equal(a, b)
        env = make_mab_embedding(mu, seed=0)
        assert not np.array_equal(env.noise_stream(0).values(1, 1000), env.noise_stream(2**63).values(1, 1000))

    def test_streams_keyed_by_one_rule(self):
        # (env seed, tag, run seed) as SeedSequence entropy: Philox for the noise, numpy's default for the arms
        env = make_mab_embedding([0.5, 0.2], seed=2**64 + 5)
        noise = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 0x6E6F6973, 2**64 - 7))))
        assert env.noise_stream(-7).values(1, 50).tobytes() == noise.standard_normal(50).tobytes()
        arms = np.random.default_rng(np.random.SeedSequence((5, 0x616374, 2**64 - 7)))
        assert env.action_rng(-7).random(50).tobytes() == arms.random(50).tobytes()

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
        assert rewards_for(env, [0, 2, 1], 1, stream)[2] == env.values[1]  # round 3

    def test_constant_shift(self):
        env = self.make_env(
            noise=NoiseSpec(kind="none"), shift=ShiftSpec(kind="constant", constant=0.7)
        )
        stream = env.noise_stream(0)
        assert np.isclose(rewards_for(env, [0] * 8 + [2], 1, stream)[8], env.values[2] + 0.7)  # round 9

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
        t = 17  # rounds 1..16 play other arms in each run
        r_a = rewards_for(env, [0] * (t - 1) + [1, 0], 1, env.noise_stream(3))
        r_b = rewards_for(env, [2] * (t - 1) + [1, 2], 1, env.noise_stream(3))
        assert r_a[t - 1] == r_b[t - 1]
        assert np.isclose(r_a[t] - r_b[t], env.values[0] - env.values[2])

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

    def test_unrealizable_gap_raises(self):
        # the runner-up's value is at least -0.8, so the best arm's would be 1.1: outside the unit ball at every draw
        with pytest.raises(GenerationError, match=r"could not realize gap 1\.9 with d=2, K=3 in 10\^4 attempts"):
            make_gap_instance(2, 3, 1.9, seed=0)


class TestMabEmbedding:
    def test_two_arms(self):
        env = make_mab_embedding([0.5, 0.3])
        assert env.d == 2 and env.K == 2
        assert np.allclose(env.features.features, np.eye(2))
        assert env.best_arm == 0
        assert np.isclose(env.gap, 0.2)

    def test_tied_means_reported_by_the_audit(self):
        # a tie is the audit's to report, as for any environment; the embedding runs it
        env = make_mab_embedding([0.4, 0.4, 0.4])
        assert (env.gap, env.best_arm) == (0.0, 0)
        assert assumption_audit(env) == ["best arm is not unique: gap-dependent results are undefined"]

    def test_theta_is_mu(self):
        # mu is played as written: ||mu|| > 1 is reported by the audit, not rescaled away
        env = make_mab_embedding([0.9, 0.5, 0.1])
        assert np.array_equal(env.theta_star, [0.9, 0.5, 0.1])
        assert np.isclose(env.gap, 0.4)
        assert assumption_audit(env) == [f"||theta*|| = {math.hypot(0.9, 0.5, 0.1):.6g} > 1"]

    @pytest.mark.parametrize("mu", [[0.5], 0.5, [[0.5, 0.1]]])
    def test_needs_a_vector_of_two_means(self, mu):
        with pytest.raises(ValueError, match="at least two means"):
            make_mab_embedding(mu)


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

    @pytest.mark.parametrize("at", [0, 6, 7, 8, 29, 44])
    def test_shift_peak_found_in_any_block(self, monkeypatch, at):
        # the largest |nu_t| over the horizon, scanned _AUDIT_BLOCK rounds at a time, wherever it lies; an entry
        # past the horizon is not read
        monkeypatch.setattr(environment, "_AUDIT_BLOCK", 7)
        table = np.linspace(-0.5, 0.5, 50)
        table[at], table[45] = -1.75, 9.0
        fs = FeatureSet(np.array([[0.6, 0.0], [0.0, 0.6]]))
        env = Environment(features=fs, theta_star=np.array([0.6, 0.0]), shift=ShiftSpec(kind="custom", table=table))
        assert assumption_audit(env, horizon=45) == [
            f"shift magnitude reaches {np.abs(table[:45]).max():.6g} > 1 within t <= 45"
        ] == ["shift magnitude reaches 1.75 > 1 within t <= 45"]

    def test_shift_scan_holds_no_horizon_length_array(self):
        # at T = 1e6 the whole-horizon scan held 32 MB; a block's arrays are all that is held now
        env = make_gap_instance(3, 5, 0.4, seed=1)
        env.shift = ShiftSpec(kind="log_alternating")
        findings, peak = traced_peak(assumption_audit, env, 1_000_000)
        largest = np.abs(shift_values(env.shift, np.arange(1, 1_000_001))).max()  # the whole-horizon scan's
        assert findings == [f"shift magnitude reaches {largest:.6g} > 1 within t <= 1000000"]
        assert findings == ["shift magnitude reaches 2.7631 > 1 within t <= 1000000"]
        assert peak <= 8 * environment._AUDIT_BLOCK * 8

    def test_reports_feature_norm(self):
        env = Environment(features=FeatureSet(np.array([[2.0, 0.0], [0.0, 0.5], [0.6, 0.8]])), theta_star=[1.0, 0.0])
        assert assumption_audit(env) == ["1 feature(s) with norm > 1 (max 2)"]

    def test_reports_theta_norm(self):
        fs = FeatureSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert assumption_audit(Environment(features=fs, theta_star=np.array([2.0, 0.0]))) == ["||theta*|| = 2 > 1"]
        # past the square root of the largest double, where the sum of squares overflows
        env = Environment(features=FeatureSet(np.array([[0.5, 0.0], [0.0, 0.5]])), theta_star=[3e300, -4e300])
        assert assumption_audit(env) == ["||theta*|| = 5e+300 > 1"]

    @pytest.mark.parametrize(
        "kind, scale, reported",
        [
            ("gaussian", 1.0, False),
            ("gaussian", 3.0, True),
            ("bounded_uniform", 1.0, False),
            ("bounded_uniform", 1.5, True),  # uniform on [-s, s] is s-sub-Gaussian
            ("none", 1.0, False),
        ],
    )
    def test_reports_noise_past_unit_scale(self, kind, scale, reported):
        fs = FeatureSet(np.array([[0.6, 0.0], [0.0, 0.6]]))
        env = Environment(features=fs, theta_star=np.array([0.6, 0.0]), noise=NoiseSpec(kind=kind, scale=scale))
        finding = f"{kind} noise scale {scale:g} > 1: phase lengths, the PAC budget and beta assume unit-scale noise"
        assert assumption_audit(env) == ([finding] if reported else [])

    def test_reports_non_unique_best_arm(self):
        fs = FeatureSet(np.array([[0.6, 0.0], [0.0, 0.6], [-0.6, 0.0]]))
        tie = Environment(features=fs, theta_star=np.array([0.6, 0.6]))
        assert (tie.gap, tie.best_arm) == (0.0, 0)
        assert assumption_audit(tie) == ["best arm is not unique: gap-dependent results are undefined"]
        assert assumption_audit(Environment(features=fs, theta_star=np.array([0.6, 0.5]))) == []
