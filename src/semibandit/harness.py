"""Experiment orchestration: config parsing, replication runs, CSV output.

A single JSON config describes the environment, the algorithm, and the
run bookkeeping.  Modes: ``regret`` (phase elimination; its summary also
records the best-arm identification outcome), ``pac`` and ``error-scaling``
(pure exploration), ``design-cert`` (the anchored design alone).
Replications are seeded as ``base_seed + index`` and can execute in
parallel; outputs are gathered and written in index order by a single
writer, so files are byte-identical regardless of worker count.

Floats are serialized with 17 significant digits, which round-trips IEEE
doubles exactly and keeps repeated runs byte-stable.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .design import FeatureSet, deo
from .environment import (
    Environment,
    NoiseSpec,
    ShiftSpec,
    assumption_audit,
    make_gap_instance,
    make_mab_embedding,
)
from .errors import ConfigError, IoError
from .sbe import RunRecord, SbeConfig, pac_budget, run_pure_exploration, run_sbe

MODES = ("regret", "pac", "design-cert", "error-scaling")

TRAJECTORY_COLUMNS = (
    "t",
    "replication",
    "phase",
    "arm",
    "reward",
    "inst_regret",
    "cum_regret",
    "e_t",
    "sqrt_t_e_t",
    "active_size",
)

SUMMARY_COLUMNS = (
    "replication",
    "seed",
    "final_regret",
    "declared_best",
    "declared_at",
    "greedy_arm",
    "success",
)


def fmt(value) -> str:
    """Serialize one CSV cell; floats get 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


@dataclass(frozen=True)
class MetricRow:
    t: int
    phase: int
    arm: int
    reward: float
    inst_regret: float
    cum_regret: float
    e_t: float
    sqrt_t_e_t: float
    active_size: int


@dataclass
class MetricTable:
    """Column-oriented per-step metrics for one replication."""

    t: np.ndarray
    phase: np.ndarray
    arm: np.ndarray
    reward: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    e_t: np.ndarray
    sqrt_t_e_t: np.ndarray
    active_size: np.ndarray

    def rows(self):
        for i in range(self.t.shape[0]):
            yield MetricRow(
                t=int(self.t[i]),
                phase=int(self.phase[i]),
                arm=int(self.arm[i]),
                reward=float(self.reward[i]),
                inst_regret=float(self.inst_regret[i]),
                cum_regret=float(self.cum_regret[i]),
                e_t=float(self.e_t[i]),
                sqrt_t_e_t=float(self.sqrt_t_e_t[i]),
                active_size=int(self.active_size[i]),
            )


def compute_metrics(record: RunRecord, env: Environment, delta: float = 0.1) -> MetricTable:
    """Per-step regret and estimation-error trajectory for one record.

    Regret is recomputed from the true parameter and best arm.  The
    estimation error e_t is evaluated at estimator snapshots: per step for
    pure-exploration records (anchored at arm 0 over all arms, with the
    log(t/delta) regularizer), and at phase ends for elimination records
    (anchored at the phase anchor over the surviving arms), carried forward
    between snapshots; steps before the first snapshot report NaN.
    """
    n = record.steps
    x = env.features.features
    opt = env.values[env.best_arm]
    inst = opt - env.values[record.arm]
    ts = np.arange(1, n + 1)
    e_t = np.full(n, math.nan)

    if record.kind == "pure" and record.phases:
        ph = record.phases[0]
        xbar = ph.policy.probabilities @ x
        z = x - x[0]
        theta = env.theta_star
        gram = np.zeros((env.d, env.d))
        moment = np.zeros(env.d)
        eye = np.eye(env.d)
        for i in range(n):
            xt = x[record.arm[i]] - xbar
            gram += np.outer(xt, xt)
            moment += xt * record.reward[i]
            beta = math.log((i + 1) / delta)
            theta_hat = np.linalg.solve(gram + beta * eye, moment)
            e_t[i] = np.abs(z @ (theta_hat - theta)).max()
    else:
        snapshot = math.nan
        pos = 0
        for ph in record.phases:
            e_t[pos : pos + ph.taken] = snapshot
            pos += ph.taken
            if ph.theta_hat is not None:
                errs = np.abs((x[list(ph.active)] - x[ph.anchor]) @ (ph.theta_hat - env.theta_star))
                snapshot = float(errs.max())
        e_t[pos:] = snapshot

    active_size = np.ones(n, dtype=np.int64)  # one arm left after the last phase
    pos = 0
    for ph in record.phases:
        active_size[pos : pos + ph.taken] = len(ph.active)
        pos += ph.taken

    return MetricTable(
        t=ts,
        phase=record.phase.copy(),
        arm=record.arm.copy(),
        reward=record.reward.copy(),
        inst_regret=inst,
        cum_regret=np.cumsum(inst),
        e_t=e_t,
        sqrt_t_e_t=np.sqrt(ts) * e_t,
        active_size=active_size,
    )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` if it is an integer (not a bool) of at least ``minimum``; else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        raise ConfigError(name, "must be an integer" + ("" if minimum is None else f" >= {minimum}"))
    return value


@dataclass
class ExperimentConfig:
    mode: str
    environment: dict
    algorithm: dict = field(default_factory=dict)
    replications: int = 1
    base_seed: int = 0
    output: str = "out"
    workers: int | None = None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config", "must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        for name in ("mode", "environment"):
            if name not in raw:
                raise ConfigError(name, "missing field")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> Environment:
        """Check every field; returns the environment the config describes."""
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be one of {MODES}")
        if not isinstance(self.environment, dict):
            raise ConfigError("environment", "must be an object")
        if not isinstance(self.algorithm, dict):
            raise ConfigError("algorithm", "must be an object")
        if not isinstance(self.output, str):
            raise ConfigError("output", "must be a string")
        _check_int(self.replications, "replications", 1)
        _check_int(self.base_seed, "base_seed")
        if self.workers is not None:
            _check_int(self.workers, "workers", 1)
        env = build_environment(self.environment)  # raises ConfigError on bad spec
        if env.K < 2:
            raise ConfigError("environment", "needs at least two arms")
        rounds = self.rounds(env)
        if env.shift.kind == "custom" and env.shift.table.shape[0] < rounds:
            raise ConfigError(
                "environment.shift.table", f"has {env.shift.table.shape[0]} entries for a run of {rounds} rounds"
            )
        return env

    def rounds(self, env: Environment) -> int:
        """Rounds one replication draws: the horizon, the budget, or 0 for design-cert."""
        if self.mode == "regret":
            return self.sbe_config().horizon
        if self.mode == "design-cert":
            return 0
        return self.exploration_plan(env)["budget"]

    def sbe_config(self) -> SbeConfig:
        alg = self.algorithm
        if "horizon" not in alg:
            raise ConfigError("algorithm.horizon", f"required for mode {self.mode}")
        try:
            return SbeConfig(
                delta=alg.get("delta", 0.05),
                horizon=_check_int(alg["horizon"], "algorithm.horizon", 1),
                c2=alg.get("c2", 1.0),
                c3=alg.get("c3", 1.0),
                schedule=alg.get("schedule", "fixed"),
                fw_tol=alg.get("fw_tol", 1e-3),
                k_in_log=alg.get("k_in_log", "active"),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError("algorithm", str(exc))

    def exploration_plan(self, env: Environment) -> dict:
        """Budget, delta, epsilon for pure-exploration modes."""
        alg = self.algorithm
        required = "epsilon" if self.mode == "pac" else "budget"
        if required not in alg:
            raise ConfigError(f"algorithm.{required}", f"required for mode {self.mode}")
        delta = alg.get("delta", 0.1)
        if not _is_number(delta) or not 0 < delta < 1:
            raise ConfigError("algorithm.delta", "must lie in (0, 1)")
        epsilon = alg.get("epsilon")
        if epsilon is not None and not (_is_number(epsilon) and 0 < epsilon < math.inf):
            raise ConfigError("algorithm.epsilon", "must be a positive number")
        budget = alg.get("budget")
        if budget is None:
            try:
                budget = pac_budget(env.d, env.K, epsilon, delta, c2=alg.get("c2", 4.0))
            except (ValueError, TypeError, OverflowError) as exc:
                raise ConfigError("algorithm", f"no PAC budget: {exc}")
        _check_int(budget, "algorithm.budget", 1)
        return {"budget": budget, "delta": delta, "epsilon": epsilon}


def build_environment(spec: dict) -> Environment:
    """Construct an Environment from its JSON description."""
    kind = spec.get("kind")
    try:
        if kind == "gap_instance":
            env = make_gap_instance(spec["d"], spec["K"], spec["gap"], spec.get("seed", 0))
        elif kind == "mab":
            env = make_mab_embedding(spec["mu"], seed=spec.get("seed", 0))
        elif kind == "features":
            if "path" in spec:
                feats = FeatureSet.from_file(spec["path"])
            else:
                feats = FeatureSet(np.asarray(spec["features"], dtype=float))
            env = Environment(
                features=feats,
                theta_star=np.asarray(spec["theta"], dtype=float),
                rng_seed=spec.get("seed", 0),
            )
        else:
            raise ConfigError("environment.kind", "must be gap_instance, mab, or features")
    except KeyError as exc:
        raise ConfigError(f"environment.{exc.args[0]}", "missing field")
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError("environment", str(exc))
    if "shift" in spec:
        try:
            sh = dict(spec["shift"])
            env.shift = ShiftSpec(
                kind=sh.get("kind", "none"),
                constant=sh.get("constant", 0.0),
                table=sh.get("table"),
                clip_to_unit=sh.get("clip_to_unit", False),
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError("environment.shift", str(exc))
    if "noise" in spec:
        try:
            nz = dict(spec["noise"])
            env.noise = NoiseSpec(kind=nz.get("kind", "gaussian"), scale=nz.get("scale", 1.0))
        except (ValueError, TypeError) as exc:
            raise ConfigError("environment.noise", str(exc))
    return env


def _replication_task(cfg: ExperimentConfig, env: Environment, rep: int):
    """Run one replication; used both inline and from worker processes."""
    seed = cfg.base_seed + rep
    greedy = None
    if cfg.mode == "regret":
        sbe_cfg = cfg.sbe_config()
        record = run_sbe(env, sbe_cfg, run_seed=seed)
        delta = sbe_cfg.delta
        success = record.declared_best == env.best_arm
    else:
        plan = cfg.exploration_plan(env)
        delta = plan["delta"]
        _, greedy, record = run_pure_exploration(env, plan["budget"], delta, run_seed=seed)
        value_gap = float(env.values[env.best_arm] - env.values[greedy])
        success = value_gap <= plan["epsilon"] if plan["epsilon"] is not None else greedy == env.best_arm
    summary = {
        "replication": rep,
        "seed": seed,
        "final_regret": record.final_regret,
        "declared_best": record.declared_best,
        "declared_at": record.declared_at,
        "greedy_arm": greedy,
        "success": int(success),
    }
    return rep, compute_metrics(record, env, delta=delta), summary


def _write_csv(path: Path, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}")


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute all replications of the configured experiment and write CSVs.

    Writes ``trajectory.csv`` (per-step rows, all replications),
    ``trajectory_mean.csv`` (per-t means across replications),
    ``summary.csv`` (one row per replication), and ``manifest.json``.
    Mode ``design-cert`` instead writes ``certificate.csv``.
    Returns a small dict of paths and aggregate results.
    """
    env = cfg.validate()
    out = Path(cfg.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}")

    seeds = [cfg.base_seed + r for r in range(cfg.replications)]
    manifest = {
        "version": __version__,
        "mode": cfg.mode,
        "config": dataclasses.asdict(cfg),
        "seeds": seeds,
        "assumption_audit": assumption_audit(env, horizon=cfg.rounds(env)),
        "created_unix": time.time(),
    }

    if cfg.mode == "design-cert":
        anchor = cfg.algorithm.get("anchor", 0)
        fw_tol = cfg.algorithm.get("fw_tol", 1e-3)
        policy, cert = deo(env.features, anchor=anchor, fw_tol=fw_tol)
        cert_path = out / "certificate.csv"
        _write_csv(
            cert_path,
            ("max_anchor_norm", "max_centered_norm", "support_size", "dim"),
            [(cert.max_anchor_norm, cert.max_centered_norm, cert.support_size, cert.dim)],
        )
        policy_path = out / "policy.csv"
        _write_csv(
            policy_path,
            ("arm_index", "probability"),
            [(i, p) for i, p in enumerate(policy.probabilities)],
        )
        _write_manifest(out / "manifest.json", manifest)
        return {"certificate": cert, "policy": policy, "output": str(out)}

    workers = cfg.workers or os.cpu_count() or 1
    reps = range(cfg.replications)
    results = {}
    if workers > 1 and cfg.replications > 1:
        with ProcessPoolExecutor(max_workers=min(workers, cfg.replications)) as pool:
            for rep, table, summary in pool.map(_replication_task, [cfg] * len(reps), [env] * len(reps), reps):
                results[rep] = (table, summary)
    else:
        for rep in reps:
            _, table, summary = _replication_task(cfg, env, rep)
            results[rep] = (table, summary)

    def trajectory_rows():
        for rep in range(cfg.replications):
            table = results[rep][0]
            for row in table.rows():
                yield (
                    row.t,
                    rep,
                    row.phase,
                    row.arm,
                    row.reward,
                    row.inst_regret,
                    row.cum_regret,
                    row.e_t,
                    row.sqrt_t_e_t,
                    row.active_size,
                )

    _write_csv(out / "trajectory.csv", TRAJECTORY_COLUMNS, trajectory_rows())

    tables = [results[rep][0] for rep in range(cfg.replications)]
    n_min = min(t.t.shape[0] for t in tables)
    mean_rows = zip(
        range(1, n_min + 1),
        np.mean([t.cum_regret[:n_min] for t in tables], axis=0),
        np.mean([t.e_t[:n_min] for t in tables], axis=0),
        np.mean([t.sqrt_t_e_t[:n_min] for t in tables], axis=0),
    )
    _write_csv(out / "trajectory_mean.csv", ("t", "mean_cum_regret", "mean_e_t", "mean_sqrt_t_e_t"), mean_rows)

    summary_rows = [
        tuple(results[rep][1][c] for c in SUMMARY_COLUMNS) for rep in range(cfg.replications)
    ]
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, summary_rows)
    _write_manifest(out / "manifest.json", manifest)

    successes = sum(results[rep][1]["success"] for rep in range(cfg.replications))
    return {
        "output": str(out),
        "replications": cfg.replications,
        "successes": successes,
        "mean_final_regret": float(np.mean([results[r][1]["final_regret"] for r in results])),
    }


def _write_manifest(path: Path, manifest: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}")
