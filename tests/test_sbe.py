import dataclasses
import math

import numpy as np
import pytest

from semibandit.design import FW_TOL, FeatureSet
from semibandit.environment import (
    Environment,
    NoiseSpec,
    ShiftSpec,
    make_gap_instance,
    make_mab_embedding,
    shift_values,
)
from semibandit.errors import DegenerateFeatures, ScheduleOverflow
from semibandit.harness import compute_metrics
from semibandit.sbe import (
    SbeConfig,
    _run_phase,
    check_rounds,
    eliminate,
    pac_budget,
    phase_length,
    run_pure_exploration,
    run_sbe,
)

import binomial
from allocation import traced_peak


def cfg(**kw):
    base = dict(delta=0.1, horizon=10_000, c2=1.0)
    base.update(kw)
    return SbeConfig(**base)


def length(ell, d, k, **kw):
    """``phase_length`` under ``cfg(**kw)``'s schedule."""
    c = cfg(**kw)
    return phase_length(ell, d, k, c.delta, c.c2, c.c3, c.schedule)


class TestPhaseLength:
    def test_worked_example(self):
        # ell=1, d=2, K=3, delta=0.1, c2=1:
        # 4 * ceil(8 ln 240 + 2^1.5 * 2 * ln 120) = 4 * ceil(43.85 + 27.08) = 284
        assert length(1, 2, 3) == 284

    def test_quadrupling(self):
        for ell in (12, 15, 18):
            ratio = length(ell + 1, 4, 10) / length(ell, 4, 10)
            assert 3.5 <= ratio <= 4.5

    def test_adaptive_beats_fixed_for_huge_k(self):
        k = 2**20
        for ell in range(1, 8):
            assert length(ell, 3, k, schedule="adaptive") <= length(ell, 3, k, schedule="fixed")

    def test_monotone_in_ell(self):
        for schedule in ("fixed", "adaptive"):
            lengths = [length(ell, 5, 10, schedule=schedule) for ell in range(1, 20)]
            assert all(b >= a for a, b in zip(lengths, lengths[1:]))

    def test_overflow(self):
        with pytest.raises(ScheduleOverflow):
            length(600, 5, 10)

    def test_round_cap(self):
        # every round count, given or worked out, is at most 2**59, past which np.arange raises ValueError
        assert check_rounds(2**59, "n") == 2**59
        for n in (2**59 + 1, 10**30):
            with pytest.raises(ScheduleOverflow):
                check_rounds(n, "n")
        with pytest.raises(ScheduleOverflow):
            length(1, 5, 20, c2=1e15)  # about 2**60 rounds
        with pytest.raises(ScheduleOverflow):
            pac_budget(3, 8, 1e-150, 0.1)
        with pytest.raises(ScheduleOverflow):
            run_pure_exploration(make_gap_instance(3, 5, 0.5, seed=0), 2**59 + 1, 0.1)

    def test_positive(self):
        assert length(1, 2, 2, c2=1e-9) >= 1

    def test_pac_budget_past_squared_epsilon_overflow(self):
        # from 2^512 on epsilon**2 is past the largest double: the budget is one round, not an overflow
        assert pac_budget(5, 20, 1e200, 0.1) == 1
        assert pac_budget(5, 20, 2.0**512, 0.1) == pac_budget(5, 20, math.nextafter(2.0**512, 0), 0.1) == 1


class TestEliminate:
    def feats(self, vals):
        # one-dimensional embedding so estimated values equal vals @ theta
        return FeatureSet(np.array([[v] for v in vals]))

    def test_zero_estimate_keeps_all(self):
        fs = self.feats([0.2, 0.5, 0.9])
        assert eliminate(fs, [0, 1, 2], np.zeros(1), 0.25) == [0, 1, 2]

    def test_threshold_example(self):
        fs = self.feats([1.0, 0.4, 0.9])
        kept = eliminate(fs, [0, 1, 2], np.ones(1), 0.25)
        assert kept == [0, 2]

    def test_tie_at_epsilon_survives(self):
        fs = self.feats([1.0, 0.75])
        assert eliminate(fs, [0, 1], np.ones(1), 0.25) == [0, 1]

    def test_single_arm(self):
        fs = self.feats([0.3])
        assert eliminate(fs, [0], np.ones(1), 0.1) == [0]

    def test_argmax_survives(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            fs = FeatureSet(rng.uniform(-0.5, 0.5, size=(6, 3)))
            theta = rng.standard_normal(3)
            kept = eliminate(fs, list(range(6)), theta, float(rng.uniform(0, 0.5)))
            best = int(np.argmax(fs.features @ theta))
            assert best in kept and kept


def noiseless_two_arm_env(gap=0.5):
    fs = FeatureSet(np.array([[0.5, 0.0], [0.5 - gap, 0.0]]))
    return Environment(
        features=fs,
        theta_star=np.array([1.0, 0.0]),
        noise=NoiseSpec(kind="none"),
        shift=ShiftSpec(kind="none"),
    )


class TestRunSbe:
    def test_identical_arms_degenerate(self):
        fs = FeatureSet(np.tile([[0.4, 0.2]], (3, 1)))
        env = Environment(features=fs, theta_star=np.array([1.0, 0.0]))
        with pytest.raises(DegenerateFeatures):
            run_sbe(env, cfg())

    def test_identical_survivors_are_one_arm(self):
        # arms 0 and 1 have equal rows: once arm 2 is eliminated they survive together,
        # as one arm.  The smallest index is declared and played to the horizon
        fs = FeatureSet(np.array([[0.9, 0.0], [0.9, 0.0], [0.0, 0.5]]))
        env = Environment(features=fs, theta_star=np.array([1.0, 0.0]))
        record = run_sbe(env, cfg(horizon=20_000), run_seed=0)
        assert record.declared_best == 0 and record.declared_at < 20_000
        assert record.phases[-1].active == (0, 1, 2)
        assert np.all(record.arm[record.declared_at :] == 0)

    def test_noiseless_elimination_schedule(self):
        # only ridge shrinkage perturbs the estimate, so the gap-0.5 arm
        # must fall no later than the first phase with eps < gap/2
        env = noiseless_two_arm_env(gap=0.5)
        record = run_sbe(env, cfg(horizon=100_000), run_seed=0)
        assert record.declared_best == env.best_arm
        last_possible = 1 + next(ell for ell in range(1, 10) if 2.0**-ell < 0.25)
        eliminating_phases = [ph.index for ph in record.phases if len(ph.active) > 1]
        assert max(eliminating_phases) <= last_possible
        # declaration right at the end of the eliminating phase
        total = sum(ph.taken for ph in record.phases)
        assert record.declared_at == total

    def test_regret_zero_after_correct_declaration(self):
        env = make_gap_instance(3, 6, 0.5, seed=2)
        record = run_sbe(env, cfg(horizon=50_000, delta=0.05), run_seed=3)
        assert record.declared_best == env.best_arm
        tau = record.declared_at
        assert np.all(env.values[record.arm[tau:]] == env.values[env.best_arm])
        assert np.all(record.arm[tau:] == record.declared_best)

    def test_horizon_exactness(self):
        env = make_gap_instance(3, 6, 0.5, seed=4)
        for horizon in (100, 1345, 20_000):
            record = run_sbe(env, cfg(horizon=horizon), run_seed=0)
            assert record.steps == horizon
            assert record.arm.shape == (horizon,)

    def test_active_sets_shrink(self):
        env = make_gap_instance(4, 8, 0.4, seed=5)
        record = run_sbe(env, cfg(horizon=60_000, delta=0.05), run_seed=1)
        actives = [set(ph.active) for ph in record.phases]
        for prev, nxt in zip(actives, actives[1:]):
            assert nxt <= prev
        assert all(env.best_arm in a for a in actives)

    def test_truncated_phase_no_elimination(self):
        env = make_gap_instance(3, 6, 0.5, seed=6)
        record = run_sbe(env, cfg(horizon=500), run_seed=0)  # shorter than phase 1
        assert record.steps == 500
        assert record.phases[-1].truncated
        assert record.declared_best is None
        assert record.declared_at is None

    def test_cumulative_regret_monotone(self):
        env = make_gap_instance(3, 6, 0.5, seed=7)
        record = run_sbe(env, cfg(horizon=5_000), run_seed=2)
        table = compute_metrics(record, env)
        assert np.all(np.diff(table.cum_regret) >= -1e-12)
        assert np.isclose(table.cum_regret[-1], table.inst_regret.sum())

    def test_anchor_policy_weight(self):
        env = make_gap_instance(4, 9, 0.4, seed=8)
        record = run_sbe(env, cfg(horizon=30_000, delta=0.05), run_seed=0)
        for ph in record.phases:
            assert ph.policy.probabilities[0] >= 0.5 - 1e-12
            assert ph.anchor == min(ph.active)
            assert np.isclose(ph.epsilon, 2.0**-ph.index)

    def _phase_one_estimates(self, seed, shift_c):
        """theta-hat from one schedule-length phase log, rewards shifted by c."""
        from semibandit.design import deo
        from semibandit.estimator import EstimatorState, update_batch, solve

        env = make_gap_instance(3, 6, 0.41, seed=60 + seed)
        policy, cert = deo(env.features)
        n1 = length(1, cert.dim, env.K)
        rng = env.action_rng(seed)
        noise = env.noise_stream(seed)
        arms = rng.choice(env.K, size=n1, p=policy.probabilities)
        x = env.features.features
        rewards = env.values[arms] + noise.values(1, n1)
        centered = x[arms] - policy.probabilities @ x
        beta = math.log(n1 * 1 * 2 / 0.1)
        base = EstimatorState.zeros(env.d)
        update_batch(base, centered, rewards)
        theta0 = solve(base, beta)
        shifted = EstimatorState.zeros(env.d)
        update_batch(shifted, centered, rewards + shift_c)
        theta1 = solve(shifted, beta)
        return env, centered, beta, theta0, theta1

    def test_reward_shift_displacement_identity(self):
        # adding c to every reward moves the estimate by exactly
        # (V + beta I)^{-1} (sum of centered features) * c
        c = 0.9
        for seed in range(10):
            env, centered, beta, theta0, theta1 = self._phase_one_estimates(seed, c)
            gram = centered.T @ centered
            disp = np.linalg.solve(gram + beta * np.eye(env.d), centered.sum(axis=0)) * c
            assert np.abs(theta1 - (theta0 + disp)).max() <= 1e-10

    def test_eliminate_invariant_to_orthogonal_perturbation(self):
        # eliminate() compares differences of estimated values, so any w
        # orthogonal to all active differences leaves the decision unchanged
        rng = np.random.default_rng(1)
        fs = FeatureSet(np.hstack([rng.uniform(-0.4, 0.4, size=(5, 2)), np.ones((5, 1)) * 0.3]))
        active = list(range(5))
        for _ in range(10):
            theta = rng.standard_normal(3)
            w = np.array([0.0, 0.0, float(rng.standard_normal())])  # differences live in the first two coords
            eps = float(rng.uniform(0.05, 0.5))
            assert eliminate(fs, active, theta, eps) == eliminate(fs, active, theta + w, eps)

    def test_small_shift_same_elimination_fixed_log(self):
        # decision stability under a small common reward shift; larger
        # shifts perturb the estimate at the same order as the statistical
        # error the schedule allows, so knife-edge flips stop being rare.
        # If a seed's elimination flips with probability at most 0.03, the
        # test fails by chance with probability P(Bin(400, 0.97) <= 375) < 1e-3.
        # Measured: 397 of 400 match; 33 flips in seeds 1000-2999 (0.0165;
        # 0.027 is its 99.9% Clopper-Pearson upper bound)
        trials = 400
        assert binomial.cdf(375, trials, 0.97) < 1e-3
        matches = 0
        for seed in range(trials):
            env, _, _, theta0, theta1 = self._phase_one_estimates(seed, 0.03)
            active = list(range(env.K))
            if eliminate(env.features, active, theta0, 0.5) == eliminate(env.features, active, theta1, 0.5):
                matches += 1
        assert matches >= 376

    @pytest.mark.parametrize("run", ["sbe", "pure"])
    def test_rewards_read_one_noise_generator_in_order(self, run):
        # every phase and the declared arm's tail read the run's one noise generator from round 1 on
        env = make_gap_instance(3, 6, 0.5, seed=5)
        env.shift = ShiftSpec(kind="sine")
        if run == "sbe":
            record = run_sbe(env, cfg(horizon=6_000), run_seed=1)
            assert len(record.phases) > 1 and record.declared_at < record.steps
        else:
            record = run_pure_exploration(env, 3_000, 0.1, run_seed=1)[2]
        noise = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 0x6E6F6973, 1))))
        t = np.arange(1, record.steps + 1)
        expected = env.values[record.arm] + shift_values(env.shift, t) + noise.standard_normal(record.steps)
        assert record.reward.tobytes() == expected.tobytes()

    def test_common_shift_invariance_full_run(self):
        # same noise realization, small constant reward shift: phase-by-phase
        # eliminations and the declaration match run-for-run.  If a seed's
        # runs differ with probability at most 0.05, the test fails by chance
        # with probability P(Bin(200, 0.95) <= 178) < 1e-3.  Measured: 194 of
        # 200 match; 25 mismatches in seeds 1000-1999 (0.025; 0.044 is its
        # 99.9% Clopper-Pearson upper bound)
        trials = 200
        assert binomial.cdf(178, trials, 0.95) < 1e-3
        matches = 0
        for seed in range(trials):
            env0 = make_gap_instance(3, 6, 0.41, seed=30 + seed)
            env1 = Environment(
                features=env0.features,
                theta_star=env0.theta_star,
                shift=ShiftSpec(kind="constant", constant=0.05),
                noise=env0.noise,
                rng_seed=env0.rng_seed,
            )
            r0 = run_sbe(env0, cfg(horizon=8_000), run_seed=seed)
            r1 = run_sbe(env1, cfg(horizon=8_000), run_seed=seed)
            same = [tuple(p.active) for p in r0.phases] == [tuple(p.active) for p in r1.phases]
            matches += same and r0.declared_best == r1.declared_best
        assert matches >= 179


def test_phase_holds_one_copy_of_its_rows():
    # a long phase's largest array is its n x d centered rows, gathered and then centered in place, and
    # checked for finite entries with no temporary of their size.  Besides them a phase holds the arms and
    # rewards it returns and its design over K arms.  A second n x d copy (about 2.15 n d 8 B in all) fails
    n, d, k = 50_000, 20, 50
    env = make_gap_instance(d, k, 0.2, seed=0)
    rng, noise = env.action_rng(0), env.noise_stream(0)
    args = (env, list(range(k)), 1, 0.5, 1, n, rng, noise, FW_TOL, lambda cert: (n, 10.0))
    (phase, arms, rewards), peak = traced_peak(_run_phase, *args)
    assert phase.taken == n and np.isfinite(phase.theta_hat).all()
    assert peak <= 1.3 * n * d * 8 + arms.nbytes + rewards.nbytes + 16 * k * d * 8


class TestPureExploration:
    def test_noiseless_recovers_best(self):
        env = noiseless_two_arm_env()
        theta_hat, greedy, record = run_pure_exploration(env, 5_000, 0.1, run_seed=0)
        assert greedy == env.best_arm
        assert record.kind == "pure"
        assert record.steps == 5_000

    def test_anchored_argmax_equivalence(self):
        env = make_gap_instance(4, 8, 0.4, seed=9)
        theta_hat, greedy, _ = run_pure_exploration(env, 3_000, 0.1, run_seed=1)
        x = env.features.features
        assert greedy == int(np.argmax((x - x[0]) @ theta_hat))

    def test_pac_budget_value(self):
        # d=3, K=8, eps=0.2, delta=0.1, c2=4
        d, k, eps, delta = 3, 8, 0.2, 0.1
        expected = math.ceil(
            4 * (d / eps**2 * math.log(d * k / (eps * delta)) + d**1.5 / eps * math.log(d * k / delta))
        )
        assert pac_budget(d, k, eps, delta, c2=4.0) == expected

    def test_pac_guarantee_needs_unit_scale_noise(self):
        # phase lengths, the PAC budget and beta assume unit-scale noise, which the audit
        # reports.  With (epsilon, delta) = (0.25, 0.1), a method that meets 1 - delta has
        # each of 200 runs succeed with probability at least 0.9.  At scale 1 it fails
        # ">= 170" with probability P(Bin(200, 0.9) <= 169) < 0.01; at scale 10, 200 runs
        # would pass "<= 150" with probability P(Bin(200, 0.9) <= 150) < 1e-9 if the
        # guarantee held.  Measured: 198 and 55 successes (161 at scale 3)
        assert binomial.cdf(169, 200, 0.9) < 0.01 and binomial.cdf(150, 200, 0.9) < 1e-9
        base = make_gap_instance(5, 20, 0.2, seed=0)
        budget = pac_budget(5, 20, 0.25, 0.1, c2=1.0)
        assert budget == 973
        successes = {}
        for scale in (1.0, 10.0):
            env = dataclasses.replace(base, shift=ShiftSpec(kind="sine"), noise=NoiseSpec(kind="gaussian", scale=scale))
            picks = [run_pure_exploration(env, budget, 0.1, run_seed=seed)[1] for seed in range(200)]
            successes[scale] = sum(env.values[env.best_arm] - env.values[arm] <= 0.25 for arm in picks)
        assert successes[1.0] >= 170
        assert successes[10.0] <= 150

    def test_declared_arm_invariant(self):
        env = make_gap_instance(3, 6, 0.5, seed=10)
        record = run_sbe(env, cfg(horizon=40_000, delta=0.05), run_seed=4)
        tau = record.declared_at
        assert tau is not None
        assert np.all(record.arm[tau:] == record.declared_best)


def needle_ratios(c: float, horizon: int, runs: int) -> np.ndarray:
    """regret / sqrt(dT) of ``runs`` runs on the needle: five arms at 1/2, the last raised by c sqrt(d/T)."""
    d = 5
    mu = np.full(d, 0.5)
    mu[-1] += c * math.sqrt(d / horizon)  # the best arm last: deo gives its anchor, arm 0, weight 1/2
    env = dataclasses.replace(make_mab_embedding(mu), shift=ShiftSpec(kind="sine"))
    regret = [
        (env.values[env.best_arm] - env.values[run_sbe(env, cfg(horizon=horizon, delta=0.05), seed).arm]).sum()
        for seed in range(runs)
    ]
    return np.array(regret) / math.sqrt(d * horizon)


class TestRegretGuarantees:
    def test_needle_regret_scales_as_sqrt_dt(self):
        # the minimax instance of the lower bounds (Lattimore & Szepesvari, Bandit Algorithms, ch. 15
        # and 24): regret / sqrt(dT) is at most c on it, trivially, so what tests the paper's sqrt(dT)
        # is a bound over c that holds at every T.  Two statements, each about medians:
        # - flat in T: at c in {1, 4} and T in {1e4, 4e4, 1.6e5}, the median of 20 runs lies in
        #   [0.7 c, 0.99 c].  If a run lands on each side of the band with probability at least 0.85,
        #   each of these 12 halves fails by chance with probability P(Bin(20, 0.85) <= 9) = 3.9e-5;
        # - bounded over c: at T = 4e4 and c in {8, 16, 32}, the median of 40 runs is at most 7.5.  If a
        #   run is at most 7.5 with probability at least 0.75, each fails by chance with probability
        #   P(Bin(40, 0.75) <= 19) = 1.7e-4.
        # So the test fails by chance with probability at most their sum, 9.9e-4.  Measured over
        # seeds 100-299: the medians are 0.874 at c = 1 and 3.36-3.49 at c = 4, and each band side
        # holds for at least 0.90 of the runs; the median over c peaks at 6.66 (c = 8), and the share
        # of runs at most 7.5 is at least 0.80 (c = 16)
        assert 12 * binomial.cdf(9, 20, 0.85) + 3 * binomial.cdf(19, 40, 0.75) < 1e-3
        for c in (1, 4):
            for horizon in (10_000, 40_000, 160_000):
                ratios = needle_ratios(c, horizon, 20)
                assert np.sum(ratios >= 0.7 * c) >= 10 and np.sum(ratios <= 0.99 * c) >= 10, (c, horizon)
        for c in (8, 16, 32):
            assert np.sum(needle_ratios(c, 40_000, 40) <= 7.5) >= 20, c

    def test_best_arm_identification(self):
        # phase ell eliminates at eps_l = 2^-l.  If every anchored difference is estimated within
        # a eps_l, every pairwise one is within 2a eps_l, so an arm with gap Delta > (1 + 2a) eps_l is
        # dropped and, for a <= 1/2, the best arm never is: one arm is left, and declared, by phase
        # ceil(log2(c / Delta_min)) with c = 1 + 2a.  a = 1/2 gives c = 2.  The paper's schedule at
        # c2 = 1 sizes phase ell for a of about 0.7 at unit noise (the certificate's max_anchor_norm
        # times sqrt(2 log(2K/delta) / n_l) is 0.68-0.77 eps_l here), that is c = 2.4; measured, the
        # largest anchored error exceeds eps_l / 2 in about half of the phases.  Both c give phase
        # ceil(log2(c / 0.2)) = 4 on this instance (any c in (1.6, 3.2] does).
        # Outside an event of probability at most delta = 0.05, a run declares the best arm, by
        # phase 4.  So each count of 200 runs, those that declare the best arm and those that declare
        # by phase 4, fails by chance with probability P(Bin(200, 0.95) <= 178) < 1e-3.  Measured: 200
        # of 200 declared the best arm, in phase 2 (18 runs), 3 (149) or 4 (33).
        # This pins identification: regret stops growing at the declaration, so logarithmic regret is
        # a statement at delta = 1/T across T, which this test does not make
        assert binomial.cdf(178, 200, 0.95) < 1e-3
        env = dataclasses.replace(make_gap_instance(5, 20, 0.2, seed=0), shift=ShiftSpec(kind="sine"))
        bound = math.ceil(math.log2(2 / env.gap))
        assert bound == 4
        records = [run_sbe(env, cfg(horizon=200_000, delta=0.05), run_seed=seed) for seed in range(200)]
        assert sum(r.declared_best == env.best_arm for r in records) >= 179
        assert sum(r.declared_best is not None and len(r.phases) <= bound for r in records) >= 179
