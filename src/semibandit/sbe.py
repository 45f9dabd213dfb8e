"""Phase elimination with anchored designs; pure exploration is its one-phase case.

Each phase computes the anchored-difference design over the surviving
arms (anchor = smallest surviving index), except that a phase over every
arm takes it from ``deo`` on the environment's own ``FeatureSet``, which
keeps it: the first phase of every run on an environment, and the one
phase of pure exploration, share one solve.  A phase samples the design
for a schedule-driven number of rounds, and solves the orthogonalized
ridge system.  Elimination then drops arms whose estimated reward trails
the leader by more than eps_l = 2^-l; when one arm survives, or the
survivors are identical (``design.all_equal``: one arm), the smallest
surviving index is declared best and exploited to the horizon.  Pure
exploration (PAC, error scaling) runs a single phase over all arms for a
fixed budget and picks the greedy arm.

A run records only what it decided: the arms and rewards of its phase
rounds, its phases and its declaration.  The declared arm's tail is a count
of rounds and the saved state of the run's noise, so a run's memory stops
growing with the horizon once it declares; ``metrics.metric_blocks`` draws
the tail's rewards a block at a time and derives every per-step column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import estimator as est
from .design import FW_TOL, DesignCertificate, DesignPolicy, FeatureSet, all_equal, deo
from .environment import Environment, rewards_for
from .errors import ScheduleOverflow, check_int, check_member, check_positive, check_probability

_SCHEDULES = ("fixed", "adaptive")
# the most rounds a horizon, budget or phase may hold.  A phase allocates 8 bytes
# a round (np.arange(1, n + 1), for one), and a run's mean sums 24
# (harness._sums); a declared tail, a count, none.  numpy 2.4 refuses 2**60
# rounds with ValueError, but 2**59 can fail only with MemoryError, which the
# CLI reports
_MAX_ROUNDS = 2**59
PAC_C2 = 4.0  # the scale of a PAC budget that names none


def check_rounds(value, name: str) -> int:
    """``value`` if it is an integer from 1 to ``_MAX_ROUNDS``; else ConfigError (ScheduleOverflow past it)."""
    if check_int(value, name, 1) > _MAX_ROUNDS:
        raise ScheduleOverflow(name, f"must be at most {_MAX_ROUNDS} rounds")
    return value


@dataclass
class SbeConfig:
    """Phase elimination's parameters; each field's metadata holds the check that harness's regret table shares."""

    horizon: int = field(metadata={"check": check_rounds})
    delta: float = field(default=0.05, metadata={"check": check_probability})
    c2: float = field(default=1.0, metadata={"check": check_positive})
    c3: float = field(default=1.0, metadata={"check": check_positive})
    schedule: str = field(default="fixed", metadata={"check": functools.partial(check_member, choices=_SCHEDULES)})
    fw_tol: float = field(default=FW_TOL, metadata={"check": check_positive})

    def __post_init__(self):
        for f in fields(self):
            f.metadata["check"](getattr(self, f.name), f.name)


@dataclass
class PhaseState:
    """One phase: surviving arms, design, schedule, and end-of-phase solve."""

    index: int
    active: tuple
    epsilon: float
    length: int
    policy: DesignPolicy
    certificate: DesignCertificate
    anchor: int
    theta_hat: np.ndarray
    taken: int = 0
    beta: float = math.nan
    truncated: bool = False


@dataclass
class RunRecord:
    """What one run decided: the arm and reward of each phase round, its phases, its declaration.

    The steps are the phases' ``taken`` rounds in order, whose arms and
    rewards ``arm`` and ``reward`` hold, then, if one arm was declared best
    at step ``declared_at``, that arm to the ``horizon``.  The tail is a count:
    ``noise`` is the run's noise from round ``declared_at + 1`` on
    (``NoiseStream.state``), from which ``metrics.metric_blocks`` draws its
    rewards.  A record without a ``horizon`` has no tail.  ``kind``
    distinguishes elimination runs ("sbe") from one-phase pure-exploration
    runs ("pure"); metric computation keys off it.
    """

    arm: np.ndarray
    reward: np.ndarray
    phases: list = field(default_factory=list)
    declared_best: int | None = None
    declared_at: int | None = None
    kind: str = "sbe"
    horizon: int | None = None
    noise: tuple | None = None

    @property
    def steps(self) -> int:
        return self.arm.shape[0] if self.horizon is None else self.horizon


def sample_size(d: int, m: float, epsilon: float, delta: float, size, name: str) -> int:
    """n = d/eps^2 log(m / (delta eps)) + d^{3/2}/eps log(m / delta), the paper's sample size, as a round count.

    That is ``size(n)``, the caller's rounding, rounded up to at least 1 and checked by ``check_rounds``.
    """
    try:
        square = epsilon**2 if epsilon < 2.0**512 else math.inf  # from 2^512 on, epsilon**2 raises OverflowError
        n = (d / square) * math.log(m / (delta * epsilon)) + (d**1.5 / epsilon) * math.log(m / delta)
        rounds = max(1, math.ceil(size(n)))
    except (OverflowError, ZeroDivisionError, ValueError):  # epsilon**2 underflows to 0, or ceil(inf) or ceil(nan)
        rounds = _MAX_ROUNDS + 1
    return check_rounds(rounds, name)


def phase_length(ell: int, d_eff: int, k_active: int, delta: float, c2: float, c3: float, schedule: str) -> int:
    """Scheduled number of samples for phase ``ell``.

    Fixed schedule: 4 c2 ceil( d/eps^2 log(d K l(l+1) / (delta eps))
    + d^{3/2}/eps log(d K l(l+1) / delta) ) with eps = 2^-l.  The adaptive
    schedule takes the minimum of that and 4 c3 ceil( d^2/eps^2
    log(d l(l+1) / (delta eps)) ), which drops the K dependence.
    """
    if ell < 1:
        raise ValueError("phase index starts at 1")
    if k_active < 2:
        raise ValueError("schedule needs at least two active arms")
    d, eps = d_eff, 2.0 ** (-ell)

    def size(n):
        length = 4.0 * c2 * math.ceil(n)
        if schedule == "adaptive":
            alt = (d * d / eps**2) * math.log(d * ell * (ell + 1) / (delta * eps))
            length = min(length, 4.0 * c3 * math.ceil(alt))
        return length

    return sample_size(d, d * k_active * ell * (ell + 1), eps, delta, size, f"phase {ell} length")


def pac_budget(d: int, k: int, epsilon: float, delta: float, c2: float = PAC_C2) -> int:
    """Pure-exploration budget for an (epsilon, delta)-PAC guarantee: ceil(c2 n), the sample size n at m = dK."""
    check_positive(epsilon, "epsilon")
    check_probability(delta, "delta")
    return sample_size(d, d * k, epsilon, delta, lambda n: c2 * n, "budget")


def eliminate(features: FeatureSet, active, theta_hat: np.ndarray, epsilon: float) -> list:
    """Arms whose estimated reward is within ``epsilon`` of the best estimate.

    Ties at exactly epsilon survive; the empirical argmax always survives,
    so the result is never empty.
    """
    active = list(active)
    values = features.features[active] @ theta_hat
    best = values.max()
    return [a for a, v in zip(active, values) if best - v <= epsilon]


def _run_phase(env, active, index, epsilon, t0, max_rounds, rng, noise, fw_tol, schedule):
    """One phase, the step shared by elimination and pure exploration.

    Computes the anchored design over ``active`` (anchor = its first arm):
    over every arm, on ``env.features``, where ``deo`` keeps it for every
    later run on ``env``; over fewer, on a new ``FeatureSet`` of those arms,
    dropped with the phase.  Asks ``schedule(certificate)`` for the
    scheduled length and the ridge regularizer beta.  Samples the design for
    that length, capped at ``max_rounds``, from round ``t0`` on; and
    regresses the rewards on policy-centered features.  Returns
    ``(PhaseState, arms, rewards)``.
    """
    # active sets keep index order, so K arms are arms 0..K-1 and env.features itself
    feats = env.features if len(active) == env.K else FeatureSet(env.features.features[active])
    policy, cert = deo(feats, anchor=0, fw_tol=fw_tol)
    length, beta = schedule(cert)
    taken = min(length, max_rounds)

    local = rng.choice(len(active), size=taken, p=policy.probabilities)
    arms = np.asarray(active, dtype=np.int64)[local]
    rewards = rewards_for(env, arms, t0, noise)
    centered = feats.features[local]  # a copy: centered in place, the phase's one n x d array
    centered -= policy.probabilities @ feats.features
    state = est.EstimatorState.zeros(env.d)
    est.update_batch(state, centered, rewards)
    phase = PhaseState(
        index=index,
        active=tuple(active),
        epsilon=epsilon,
        length=length,
        policy=policy,
        certificate=cert,
        anchor=active[0],
        taken=taken,
        beta=beta,
        theta_hat=est.solve(state, beta),
        truncated=taken < length,
    )
    return phase, arms, rewards


def run_sbe(env: Environment, cfg: SbeConfig, run_seed: int = 0) -> RunRecord:
    """Execute one phase-elimination run to the horizon."""
    if env.K < 2:
        raise ValueError("elimination needs at least two arms")
    big_t = cfg.horizon
    rng, noise = env.action_rng(run_seed), env.noise_stream(run_seed)
    active = list(range(env.K))
    phases: list[PhaseState] = []
    arms, rewards = [], []
    t = 0
    while t < big_t and len(active) > 1:
        ell = len(phases) + 1

        def schedule(cert):
            n_ell = phase_length(ell, cert.dim, len(active), cfg.delta, cfg.c2, cfg.c3, cfg.schedule)
            return n_ell, est.regularizer(n_ell * ell * (ell + 1), cfg.delta)

        phase, phase_arms, phase_rewards = _run_phase(
            env, active, ell, 2.0 ** (-ell), t + 1, big_t - t, rng, noise, cfg.fw_tol, schedule
        )
        phases.append(phase)
        arms.append(phase_arms)
        rewards.append(phase_rewards)
        t += phase.taken
        if phase.truncated:
            break  # horizon hit mid-phase: no elimination from a partial phase
        active = eliminate(env.features, active, phase.theta_hat, phase.epsilon)
        if all_equal(env.features.features[active]):  # identical survivors are one arm
            active = active[:1]

    declared = declared_at = None
    if t < big_t:  # one arm survived: declare it best and play it to the horizon, drawn by the metrics
        declared, declared_at = active[0], t
    return RunRecord(
        arm=np.concatenate(arms),
        reward=np.concatenate(rewards),
        phases=phases,
        declared_best=declared,
        declared_at=declared_at,
        horizon=big_t,
        noise=None if declared is None else noise.state,
    )


def run_pure_exploration(env: Environment, budget: int, delta: float, run_seed: int = 0):
    """Pure exploration: one phase over all arms with a fixed budget, then a greedy pick.

    Returns ``(theta_hat, greedy_arm, RunRecord)``.  The design is solved to
    ``design.FW_TOL``.  The estimate uses
    beta = log(budget / delta); the greedy arm maximizes x_i' theta_hat
    (equivalently (x_i - x_1)' theta_hat).
    """
    check_rounds(budget, "budget")
    beta = est.regularizer(budget, delta)
    rng, noise = env.action_rng(run_seed), env.noise_stream(run_seed)
    phase, arms, rewards = _run_phase(
        env, list(range(env.K)), 1, math.nan, 1, budget, rng, noise, FW_TOL, lambda cert: (budget, beta)
    )
    record = RunRecord(arm=arms, reward=rewards, phases=[phase], kind="pure")
    return phase.theta_hat, int(np.argmax(env.features.features @ phase.theta_hat)), record
