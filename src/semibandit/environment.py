"""Semiparametric reward simulation: r_t = x_a' theta* + nu_t + eta_t.

The shift nu_t depends only on the round index (never on the chosen arm).
A run draws its arms and its noise eta_t from two random streams, both keyed
by one rule: (environment seed, stream tag, run seed).  The noise is one
generator read in round order, so two algorithms that face the same
environment and seed, and read their rounds in order, see identical
disturbances regardless of how many other random draws they consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import FeatureSet
from .errors import DimError, GenerationError, InvalidArm, finite_real, real_array

# the fields of a ShiftSpec and a NoiseSpec that each kind reads; a config that gives another is rejected
SHIFT_KEYS = {kind: ("kind", "clip_to_unit") for kind in ("none", "sine", "log_alternating", "log_alternating_min")}
SHIFT_KEYS.update(constant=("kind", "clip_to_unit", "constant"), custom=("kind", "clip_to_unit", "table"))
NOISE_KEYS = {"gaussian": ("kind", "scale"), "bounded_uniform": ("kind", "scale"), "none": ("kind",)}
SHIFT_KINDS, NOISE_KINDS = tuple(SHIFT_KEYS), tuple(NOISE_KEYS)

# numpy's ziggurat normal draws stay below r + sqrt(2 * 53 ln 2) = 3.65 + 8.57 in magnitude: its tail
# takes x = -ln(1 - U1) / r and accepts it when x^2 < -2 ln(1 - U2), and a 53-bit U2 puts that below 73.5
_NORMAL_MAX = 12.25
# rounds per block of assumption_audit's scan of the shift, which holds a few arrays of this length at once
_AUDIT_BLOCK = 1 << 14


@dataclass(frozen=True)
class ShiftSpec:
    """Round-indexed additive reward shift.

    Kinds: ``none``; ``sine`` = 1 + sin(2t); ``log_alternating`` =
    max(ln(t+1)/5, 2) * (-1)^(t mod 3), exactly as printed in the source
    experiments (the max keeps it at magnitude 2 until t ~ e^10, violating
    the |nu| <= 1 assumption -- the audit flags this); ``log_alternating_min``
    swaps max for min; ``constant``; ``custom`` with an explicit table for
    t = 1..len(table).
    """

    kind: str = "none"
    constant: float = 0.0
    table: np.ndarray | None = None
    clip_to_unit: bool = False

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if not finite_real(self.constant):
            raise ValueError("shift constant must be a finite number")
        if not isinstance(self.clip_to_unit, bool):
            raise ValueError("clip_to_unit must be true or false")
        if self.kind == "custom":
            table = real_array(self.table, "custom shift table entries")  # a missing table is None, no number
            if table.ndim != 1 or not np.isfinite(table).all():
                raise ValueError("custom shift table must be a flat list of finite numbers")
            object.__setattr__(self, "table", table)


def shift_values(spec: ShiftSpec, ts: np.ndarray) -> np.ndarray:
    """Shift values for an array of round indices (t >= 1)."""
    ts = np.asarray(ts)
    if ts.size and ts.min() < 1:
        raise ValueError("round indices start at 1")
    tf = ts.astype(float)
    if spec.kind == "none":
        out = np.zeros_like(tf)
    elif spec.kind == "sine":
        out = 1.0 + np.sin(2.0 * tf)
    elif spec.kind == "log_alternating":
        out = np.maximum(np.log(tf + 1.0) / 5.0, 2.0) * (-1.0) ** (ts % 3)
    elif spec.kind == "log_alternating_min":
        out = np.minimum(np.log(tf + 1.0) / 5.0, 2.0) * (-1.0) ** (ts % 3)
    elif spec.kind == "constant":
        out = np.full_like(tf, spec.constant)
    else:
        if ts.size and ts.max() > spec.table.shape[0]:
            raise ValueError("custom shift table shorter than requested horizon")
        out = spec.table[ts - 1]
    if spec.clip_to_unit:
        out = np.clip(out, -1.0, 1.0)
    return out


def shift_bound(spec: ShiftSpec, rounds: int) -> float:
    """An upper bound on |nu_t| over t = 1..``rounds``, from the shift's definition."""
    if spec.kind == "custom":
        bound = float(np.abs(spec.table[:rounds]).max(initial=0.0))
    elif spec.kind == "constant":
        bound = abs(spec.constant)
    elif spec.kind == "log_alternating":
        bound = max(math.log(rounds + 1) / 5, 2.0)
    else:  # none, and sine and log_alternating_min: at most 2
        bound = 0.0 if spec.kind == "none" else 2.0
    return min(bound, 1.0) if spec.clip_to_unit else bound


@dataclass(frozen=True)
class NoiseSpec:
    """Reward noise: gaussian(sigma), uniform on [-scale, scale], or none."""

    kind: str = "gaussian"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (finite_real(self.scale) and self.scale >= 0):
            raise ValueError("noise scale must be a nonnegative finite number")
        if self.kind == "bounded_uniform" and not math.isfinite(2.0 * self.scale):  # the width of its draws
            raise ValueError("bounded_uniform noise scale must be at most half the largest double")
        if self.kind == "gaussian" and not math.isfinite(self.largest):
            raise ValueError(f"gaussian noise scale must be at most the largest double / {_NORMAL_MAX}")

    @property
    def largest(self) -> float:
        """The largest magnitude of a draw: ``_NORMAL_MAX`` scale, the scale of uniform noise, or 0."""
        return {"gaussian": _NORMAL_MAX * self.scale, "bounded_uniform": self.scale}.get(self.kind, 0.0)


class NoiseStream:
    """A run's noise, one generator read in round order.

    ``seed`` is ``SeedSequence`` entropy, an int or a tuple of ints.  Each
    read continues from the round after the last one read (round 1 at
    first), so a run's reads split any way give the values of one read.
    ``state`` saves where a stream is and ``resume`` continues from it, as
    often as asked: each resumed stream reads what the saved one would.
    """

    def __init__(self, spec: NoiseSpec, seed: int | tuple[int, ...]):
        self.spec = spec
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self._next = 1  # the round the next read starts at

    @property
    def state(self) -> tuple:
        """The spec, the generator's state (a copy) and the round the next read starts at."""
        return self.spec, self._gen.bit_generator.state, self._next

    @classmethod
    def resume(cls, state: tuple) -> NoiseStream:
        """A new stream that continues from ``state`` (``NoiseStream.state``)."""
        spec, bits, next_round = state
        stream = cls(spec, 0)
        stream._gen.bit_generator.state = bits
        stream._next = next_round
        return stream

    def values(self, t0: int, n: int) -> np.ndarray:
        """Noise for rounds t0, t0+1, ..., t0+n-1; ``t0`` must be the round after the last one read."""
        if t0 != self._next or n < 0:
            raise ValueError(f"noise is read in order: next, n >= 0 rounds from {self._next}; not {n} from {t0}")
        self._next += n
        if self.spec.kind == "gaussian":
            return self._gen.standard_normal(n) * self.spec.scale
        if self.spec.kind == "bounded_uniform":
            return self._gen.uniform(-self.spec.scale, self.spec.scale, n)
        return np.zeros(n)


@dataclass
class Environment:
    """Fixed feature set, hidden parameter, shift and noise specification.

    theta* and the features need not lie in the unit ball, the best arm be
    unique, nor the noise of unit scale: ``assumption_audit`` reports each, and
    nothing else checks them.  An x_i'theta* past the largest double is inf,
    and the gap then may be NaN (``harness._check_sums`` rejects such a config).
    """

    features: FeatureSet
    theta_star: np.ndarray
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    rng_seed: int = 0

    def __post_init__(self):
        theta = real_array(self.theta_star)
        if theta.shape != (self.features.d,):
            raise DimError(f"theta shape {theta.shape} vs feature dim {self.features.d}")
        if not np.isfinite(theta).all():
            raise ValueError("theta contains non-finite entries")
        self.theta_star = theta
        with np.errstate(over="ignore", invalid="ignore"):
            self.values = self.features.features @ theta
            self.best_arm = int(np.argmax(self.values))
            others = np.delete(self.values, self.best_arm)
            self.gap = float(self.values[self.best_arm] - others.max()) if others.size else math.inf

    @property
    def K(self) -> int:
        return self.features.K

    @property
    def d(self) -> int:
        return self.features.d

    def _entropy(self, tag: int, run_seed: int) -> tuple:
        """The one key of a run's random streams: ``SeedSequence`` entropy (environment seed, ``tag``, run seed)."""
        return self.rng_seed & (2**64 - 1), tag, run_seed & (2**64 - 1)

    def noise_stream(self, run_seed: int) -> NoiseStream:
        """Noise stream for one run; distinct run seeds give independent streams."""
        return NoiseStream(self.noise, self._entropy(0x6E6F6973, run_seed))

    def action_rng(self, run_seed: int) -> np.random.Generator:
        """Arm-sampling RNG, independent of the noise stream."""
        return np.random.default_rng(self._entropy(0x616374, run_seed))


def rewards_for(env: Environment, arms: np.ndarray, t0: int, noise_stream: NoiseStream) -> np.ndarray:
    """Vectorized rewards for consecutive rounds t0..t0+len(arms)-1."""
    arms = np.asarray(arms)
    if arms.size and (arms.min() < 0 or arms.max() >= env.K):
        raise InvalidArm("arm index out of range")
    ts = np.arange(t0, t0 + arms.shape[0])
    return env.values[arms] + shift_values(env.shift, ts) + noise_stream.values(t0, arms.shape[0])


def assumption_audit(env: Environment, horizon: int = 0) -> list[str]:
    """Report violations of the model's assumptions: the one report of them, in a run's manifest.

    Checks ||theta*|| <= 1, ||x_i|| <= 1, (over the given horizon)
    |nu_t| <= 1, that the best arm is unique, and a noise scale (gaussian, or
    bounded_uniform's sub-Gaussian proxy) of at most 1.  Violations are
    reported, not raised or warned of; runs proceed.
    """
    findings = []
    tn = math.hypot(*env.theta_star)  # no overflow: theta* may be up to the largest double
    if tn > 1.0 + 1e-12:
        findings.append(f"||theta*|| = {tn:.6g} > 1")
    norms = np.linalg.norm(env.features.features, axis=1)
    bad = np.flatnonzero(norms > 1.0 + 1e-12)
    if bad.size:
        findings.append(f"{bad.size} feature(s) with norm > 1 (max {norms.max():.6g})")
    # the largest |nu_t| over the horizon, _AUDIT_BLOCK rounds at a time: no array as long as the horizon
    largest = max(
        (np.abs(shift_values(env.shift, np.arange(t, min(t + _AUDIT_BLOCK, horizon + 1)))).max()
         for t in range(1, horizon + 1, _AUDIT_BLOCK)),
        default=0.0,
    )
    if largest > 1.0 + 1e-12:
        findings.append(f"shift magnitude reaches {largest:.6g} > 1 within t <= {horizon}")
    if env.gap == 0.0:
        findings.append("best arm is not unique: gap-dependent results are undefined")
    if env.noise.kind != "none" and env.noise.scale > 1.0:
        why = "phase lengths, the PAC budget and beta assume unit-scale noise"
        findings.append(f"{env.noise.kind} noise scale {env.noise.scale:.6g} > 1: {why}")
    return findings


def make_gap_instance(d: int, K: int, gap: float, seed: int) -> Environment:
    """Random environment whose best-vs-runner-up gap equals ``gap`` exactly.

    Features are drawn in a radius-0.8 ball and theta* on the unit sphere;
    the best arm is then moved along theta* so the realized gap matches.
    Draws are rejected until the corrected feature stays inside the unit
    ball (at most 10^4 attempts).
    """
    if not (finite_real(gap) and 0.0 < gap < 2.0):
        raise ValueError("gap must be a number in (0, 2)")
    if K < 2:
        raise ValueError("need at least two arms")
    rng = np.random.default_rng(seed)
    for _ in range(10_000):
        x = rng.standard_normal((K, d))
        x *= (0.8 * rng.uniform(0.2, 1.0, K) ** (1.0 / d) / np.linalg.norm(x, axis=1))[:, None]
        theta = rng.standard_normal(d)
        theta /= np.linalg.norm(theta)
        vals = x @ theta
        best = int(np.argmax(vals))
        runner_up = np.max(np.delete(vals, best))
        x[best] = x[best] + (gap - (vals[best] - runner_up)) * theta
        if np.linalg.norm(x[best]) > 1.0:
            continue
        env = Environment(features=FeatureSet(x), theta_star=theta, rng_seed=seed)
        if abs(env.gap - gap) <= 1e-9:
            return env
    raise GenerationError(f"could not realize gap {gap} with d={d}, K={K} in 10^4 attempts")


def make_mab_embedding(mu, seed: int = 0) -> Environment:
    """Embed a K-armed bandit with means ``mu`` as standard-basis features: theta* = mu.

    ``mu`` is neither rescaled nor checked for ties: ``assumption_audit``
    reports a ||mu|| past 1 and a best mean that is not unique, and
    ``Environment`` rejects non-finite means.
    """
    mu = real_array(mu)
    if mu.ndim != 1 or mu.shape[0] < 2:
        raise ValueError("mu must be a vector of at least two means")
    return Environment(features=FeatureSet(np.eye(mu.shape[0])), theta_star=mu, rng_seed=seed)
