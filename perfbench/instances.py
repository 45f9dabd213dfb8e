"""Workload definitions and the seeded instance generator.

Every workload is a finite-armed instance with explicit features and
theta*, a unique best arm whose value leads the runner-up by exactly
``gap``, the ``sine`` shift nu_t = 1 + sin(2t) and Gaussian noise of
scale 1.  The program receives the instance as ``kind: "features"``; it
never sees the seed that made it, apart from the run seeds in the config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

FW_TOL = 1e-3  # the program's default, which the configs leave in place


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "regret" or "error-scaling"
    d: int
    K: int
    gap: float
    length: int  # horizon (regret) or budget (error-scaling)
    reps: int
    delta: float
    band: int  # arms just below the best; the rest trail far behind
    smoke_length: int  # a size that runs in a second or two
    n_instances: int  # instances per run, used in turn

    @property
    def length_key(self) -> str:
        return "horizon" if self.mode == "regret" else "budget"


WORKLOADS = {
    w.name: w
    for w in (
        # almost all of a run is CSV formatting; e_t is piecewise constant, and
        # with one near arm most replications declare the best arm by round 4304
        Workload("regret-long", "regret", 5, 20, 0.2, 30_000, 4, 0.05, 1, 6_000, 4),
        # per-step ridge solves in compute_metrics dominate; every e_t is distinct
        Workload("error-scaling", "error-scaling", 5, 20, 0.2, 4_000, 8, 0.1, 5, 600, 4),
        # the anchored design over 1000 arms in d=20 dominates: phase 1 over all
        # arms (14300 rounds), phase 2 over the ~301 survivors, cut by the horizon.
        # The solver's work varies by 7% (std/mean) between instances, so a run
        # spreads its repetitions over 12 of them rather than 4
        Workload("regret-wide", "regret", 20, 1000, 0.2, 20_000, 1, 0.05, 300, 15_000, 12),
    )
}


@dataclass(frozen=True)
class Instance:
    features: np.ndarray  # (K, d), every row inside the unit ball
    theta: np.ndarray  # (d,), unit norm
    best: int
    gap: float

    @property
    def values(self) -> np.ndarray:
        return self.features @ self.theta


def _base_instance(w: Workload) -> Instance:
    """The workload's fixed base instance, with arm values in two bands.

    theta* is uniform on the unit sphere and the best arm (a random index)
    has value 0.45.  ``w.band`` arms sit just below it, with gaps in
    [gap, gap + 0.05] (one at exactly ``gap``); the others trail by 0.9 to
    1.1.  Phase 1 of the elimination (epsilon = 1/2) then keeps the near
    band and drops the far one, so the survivors, and the design work over
    them, hardly vary with the noise.  The component orthogonal to theta* is
    a random direction, with a length that puts the arm at norm 0.9 to 0.95.
    """
    d, k, gap, band = w.d, w.K, w.gap, w.band
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(d, k, band)))
    theta = rng.standard_normal(d)
    theta /= np.linalg.norm(theta)
    best_value = 0.45
    values = best_value - rng.uniform(0.9, 1.1, k)
    order = rng.permutation(k)
    best, near = order[0], order[1 : 1 + band]
    values[best] = best_value
    values[near] = best_value - gap - rng.uniform(0.0, 0.05, band)
    values[near[0]] = best_value - gap
    u = rng.standard_normal((k, d))
    u -= np.outer(u @ theta, theta)
    u /= np.linalg.norm(u, axis=1)[:, None]
    radius = np.sqrt(1.0 - values**2) * rng.uniform(0.9, 0.95, k)
    x = values[:, None] * theta + radius[:, None] * u
    return Instance(features=x, theta=theta, best=int(best), gap=gap)


def make_instance(w: Workload, seed: int, index: int = 0) -> Instance:
    """Instance ``index`` for ``seed``: the base instance under a random rotation.

    A rotation changes every number the program reads but keeps the arm
    values, the gap and the geometry of the design problem, so the design
    solver's work depends on the seed only through rounding.  Distinct base
    instances made its Frank-Wolfe iteration count vary by 15% (std/mean),
    rotations of one by about 4%.
    """
    base = _base_instance(w)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed % 2**64, index, w.d, w.K)))
    q, r = np.linalg.qr(rng.standard_normal((w.d, w.d)))
    q *= np.sign(np.diag(r))
    return Instance(features=base.features @ q, theta=base.theta @ q, best=base.best, gap=w.gap)


def shift(ts: np.ndarray) -> np.ndarray:
    """The ``sine`` shift, nu_t = 1 + sin(2t), from its definition."""
    return 1.0 + np.sin(2.0 * np.asarray(ts, dtype=float))


def write_config(path, w: Workload, inst: Instance, seed: int, output: str, smoke: bool = False) -> dict:
    """Write the program's config for one instance to ``path``; returns it as a dict."""
    cfg = {
        "mode": w.mode,
        "environment": {
            "kind": "features",
            "features": inst.features.tolist(),
            "theta": inst.theta.tolist(),
            "seed": seed,
            "shift": {"kind": "sine"},
            "noise": {"kind": "gaussian", "scale": 1.0},
        },
        "algorithm": {w.length_key: w.smoke_length if smoke else w.length, "delta": w.delta},
        "replications": w.reps,
        "base_seed": seed,
        "output": output,
        "workers": 1,
    }
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return cfg
