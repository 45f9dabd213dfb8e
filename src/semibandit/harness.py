"""Experiment orchestration: config parsing, replication runs, CSV output.

A single JSON config describes the environment, the algorithm, and the
run bookkeeping.  Modes: ``regret`` (phase elimination; its summary also
records the best-arm identification outcome), ``pac`` and ``error-scaling``
(pure exploration), ``design-cert`` (the anchored design alone).
Replications are seeded as ``base_seed + index`` and can execute in
parallel; outputs are gathered and written in index order by a single
writer, so files are byte-identical regardless of worker count.  A run
returns only its decisions; ``compute_metrics`` lays every per-step column
(phase, regret, active-set size, e_t) out over the run's phase segments.

Floats are serialized with 17 significant digits, which round-trips IEEE
doubles exactly and keeps repeated runs byte-stable.  One writer formats NumPy
columns ``_WRITE_BLOCK`` rows at a time with one ``%``-format per line, and
formats each distinct bit pattern of a column once per block when the column
repeats (regret and e_t cells do).  The per-step estimation error of pure
exploration is computed ``_BLOCK`` steps at a time: running sums of the
rank-one terms and one batched ridge solve per block, bit for bit equal to
solving after every step.
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
from .design import FeatureSet, deo, span_basis
from .environment import (
    NOISE_KINDS,
    SHIFT_KINDS,
    Environment,
    NoiseSpec,
    ShiftSpec,
    assumption_audit,
    finite_real,
    make_gap_instance,
    make_mab_embedding,
)
from .errors import ConfigError, IoError, ScheduleOverflow
from .sbe import RunRecord, SbeConfig, pac_budget, phase_length, run_pure_exploration, run_sbe

MODES = ("regret", "pac", "design-cert", "error-scaling")

# the keys each object of a config may hold, by mode or kind: exactly those the
# program reads.  Any other key is a ConfigError, never a silent default
_ALGORITHM_KEYS = {
    "regret": ("horizon", "delta", "c2", "c3", "schedule", "fw_tol"),
    "pac": ("epsilon", "budget", "delta", "c2"),
    "error-scaling": ("epsilon", "budget", "delta", "c2"),
    "design-cert": ("anchor", "fw_tol"),
}
_ENVIRONMENT_KEYS = {  # besides kind, seed, shift and noise
    "gap_instance": ("d", "K", "gap"),
    "mab": ("mu",),
    "features": ("features", "path", "theta"),
}
_SHIFT_KEYS = {kind: ("kind", "clip_to_unit") for kind in SHIFT_KINDS}
_SHIFT_KEYS["constant"] += ("constant",)
_SHIFT_KEYS["custom"] += ("table",)
_NOISE_KEYS = {kind: ("kind", "scale") for kind in NOISE_KINDS}
_NOISE_KEYS["none"] = ("kind",)

# CSV headers, each beside its line format; "%.17g" % x == f"{x:.17g}", nan, inf and -0 included
TRAJECTORY_COLUMNS = (
    "t", "replication", "phase", "arm", "reward", "inst_regret", "cum_regret", "e_t", "sqrt_t_e_t", "active_size"
)
TRAJECTORY_LINE = "%d,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
MEAN_COLUMNS = ("t", "mean_cum_regret", "mean_e_t", "mean_sqrt_t_e_t")
MEAN_LINE = "%d,%.17g,%.17g,%.17g\n"
SUMMARY_COLUMNS = ("replication", "seed", "final_regret", "declared_best", "declared_at", "greedy_arm", "success")
SUMMARY_LINE = "%d,%d,%.17g,%s,%s,%s,%d\n"  # the %s cells may be empty

# steps per block of the batched e_t, which holds block x d x d floats at once
_BLOCK = 512
# rows per block of the CSV writer; bounds the cells held as Python objects at once
_WRITE_BLOCK = 2048


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


def compute_metrics(record: RunRecord, env: Environment, delta: float = 0.1) -> MetricTable:
    """Per-step columns of one record, each laid out over its phase segments.

    The segments are the phases' ``taken`` rounds, then the declared arm's
    tail; each carries its phase's index and active-set size (the tail: the
    last index and one arm).  Regret is measured against the true best arm.
    The estimation error e_t is evaluated at estimator snapshots: per step for
    pure-exploration records (anchored at arm 0 over all arms, with the
    log(t/delta) regularizer), and at phase ends for elimination records
    (anchored at the phase anchor over the surviving arms), each carried over
    the next segment; steps before the first snapshot report NaN.
    """
    n = record.steps
    x = env.features.features
    phases = record.phases
    lengths = [ph.taken for ph in phases] + [n - sum(ph.taken for ph in phases)]
    inst = env.values[env.best_arm] - env.values[record.arm]
    ts = np.arange(1, n + 1)

    if record.kind == "pure" and phases:
        # running sums of x~x~' and x~r, carried from block to block.  Each step
        # equals a step-by-step solve bit for bit; np.log or einsum in place of
        # math.log or matmul would change the last bit
        e_t = np.empty(n)
        xt = x[record.arm] - phases[0].policy.probabilities @ x
        xr = xt * record.reward[:, None]
        z = x - x[0]
        gram = np.zeros((1, env.d, env.d))
        moment = np.zeros((1, env.d))
        eye = np.eye(env.d)
        for s in range(0, n, _BLOCK):
            b = slice(s, s + _BLOCK)
            gram = np.cumsum(np.concatenate([gram[-1:], xt[b, :, None] * xt[b, None, :]]), axis=0)[1:]
            moment = np.cumsum(np.concatenate([moment[-1:], xr[b]]), axis=0)[1:]
            beta = np.array([math.log(t / delta) for t in range(s + 1, s + gram.shape[0] + 1)])
            theta_hat = np.linalg.solve(gram + beta[:, None, None] * eye, moment[:, :, None])
            e_t[b] = np.abs(np.matmul(z, theta_hat - env.theta_star[:, None])).max(axis=(1, 2))
    else:
        errors = [np.abs((x[list(ph.active)] - x[ph.anchor]) @ (ph.theta_hat - env.theta_star)) for ph in phases]
        e_t = np.repeat([math.nan] + [float(err.max()) for err in errors], lengths)

    return MetricTable(
        t=ts,
        phase=np.repeat([ph.index for ph in phases] + [len(phases)], lengths),
        arm=record.arm,
        reward=record.reward,
        inst_regret=inst,
        cum_regret=np.cumsum(inst),
        e_t=e_t,
        sqrt_t_e_t=np.sqrt(ts) * e_t,
        active_size=np.repeat([len(ph.active) for ph in phases] + [1], lengths),
    )


def _check_positive(value, name: str):
    """``value`` if it is a positive finite number (not a bool); else ConfigError."""
    if not (finite_real(value) and value > 0):
        raise ConfigError(name, "must be a positive finite number")
    return value


def _check_keys(obj: dict, known, prefix: str = "") -> None:
    """ConfigError naming the first key of ``obj`` that is not in ``known``, if any."""
    unknown = sorted(set(obj) - set(known), key=str)
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}", "unknown field")


def _check_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` if it is an integer (not a bool) of at least ``minimum``; else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int) or (minimum is not None and value < minimum):
        raise ConfigError(name, "must be an integer" + ("" if minimum is None else f" >= {minimum}"))
    return value


def check_anchor(anchor, k: int, name: str) -> int:
    """``anchor`` if it is an arm index for ``k`` arms; else ConfigError naming ``name``."""
    _check_int(anchor, name, 0)
    if anchor >= k:
        raise ConfigError(name, f"must be an arm index below {k}")
    return anchor


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
        _check_keys(raw, [f.name for f in dataclasses.fields(cls)])
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
        _check_keys(self.algorithm, _ALGORITHM_KEYS[self.mode], "algorithm.")
        if not isinstance(self.output, str):
            raise ConfigError("output", "must be a string")
        _check_int(self.replications, "replications", 1)
        _check_int(self.base_seed, "base_seed")
        if self.workers is not None:
            _check_int(self.workers, "workers", 1)
        env = build_environment(self.environment)  # raises ConfigError on bad spec
        if env.K < 2:
            raise ConfigError("environment", "needs at least two arms")
        if self.mode == "design-cert":
            self.design_params(env)
        if self.mode == "regret":
            x = env.features.features
            d_eff = span_basis(x[1:] - x[0])[1]  # the dim of phase 1's certificate
            if d_eff:  # 0 when all arms are identical, which deo reports when the run starts
                try:
                    phase_length(1, d_eff, env.K, self.sbe_config())
                except ScheduleOverflow as exc:
                    raise ConfigError("algorithm", str(exc))
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
            )
        except (ValueError, TypeError) as exc:
            raise ConfigError("algorithm", str(exc))

    def design_params(self, env: Environment) -> tuple[int, float]:
        """Anchor arm and Frank-Wolfe tolerance for design-cert."""
        anchor = check_anchor(self.algorithm.get("anchor", 0), env.K, "algorithm.anchor")
        return anchor, _check_positive(self.algorithm.get("fw_tol", 1e-3), "algorithm.fw_tol")

    def exploration_plan(self, env: Environment) -> dict:
        """Budget, delta, epsilon for pure-exploration modes."""
        alg = self.algorithm
        required = "epsilon" if self.mode == "pac" else "budget"
        if required not in alg:
            raise ConfigError(f"algorithm.{required}", f"required for mode {self.mode}")
        delta = alg.get("delta", 0.1)
        if not (finite_real(delta) and 0 < delta < 1):
            raise ConfigError("algorithm.delta", "must lie in (0, 1)")
        epsilon = alg.get("epsilon")
        if epsilon is not None:
            _check_positive(epsilon, "algorithm.epsilon")
        c2 = _check_positive(alg.get("c2", 4.0), "algorithm.c2")
        budget = alg.get("budget")
        if budget is None:
            try:
                budget = pac_budget(env.d, env.K, epsilon, delta, c2=c2)
            except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:  # epsilon**2 may underflow to 0
                raise ConfigError("algorithm", f"no PAC budget: {exc}")
        _check_int(budget, "algorithm.budget", 1)
        return {"budget": budget, "delta": delta, "epsilon": epsilon}


def build_environment(spec: dict) -> Environment:
    """Construct an Environment from its JSON description."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _ENVIRONMENT_KEYS:
        raise ConfigError("environment.kind", "must be gap_instance, mab, or features")
    _check_keys(spec, ("kind", "seed", "shift", "noise") + _ENVIRONMENT_KEYS[kind], "environment.")
    if "path" in spec and "features" in spec:
        raise ConfigError("environment.features", "cannot be given with environment.path")
    seed = _check_int(spec.get("seed", 0), "environment.seed")
    try:
        if kind == "gap_instance":
            env = make_gap_instance(spec["d"], spec["K"], spec["gap"], seed)
        elif kind == "mab":
            env = make_mab_embedding(spec["mu"], seed=seed)
        else:
            if "path" in spec:
                feats = FeatureSet.from_file(spec["path"])
            else:
                feats = FeatureSet(np.asarray(spec["features"], dtype=float))
            env = Environment(
                features=feats,
                theta_star=np.asarray(spec["theta"], dtype=float),
                rng_seed=seed,
            )
    except KeyError as exc:
        raise ConfigError(f"environment.{exc.args[0]}", "missing field")
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
        _check_keys(sh, _SHIFT_KEYS[env.shift.kind], "environment.shift.")
    if "noise" in spec:
        try:
            nz = dict(spec["noise"])
            env.noise = NoiseSpec(kind=nz.get("kind", "gaussian"), scale=nz.get("scale", 1.0))
        except (ValueError, TypeError) as exc:
            raise ConfigError("environment.noise", str(exc))
        _check_keys(nz, _NOISE_KEYS[env.noise.kind], "environment.noise.")
    return env


def _replication_task(cfg: ExperimentConfig, env: Environment, rep: int):
    """Run one replication; used both inline and from worker processes.

    Returns its metric table and its ``summary.csv`` cells by column name.
    """
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
    table = compute_metrics(record, env, delta=delta)
    summary = {
        "replication": rep,
        "seed": seed,
        "final_regret": float(table.cum_regret[-1]),
        "declared_best": _nullable(record.declared_best),
        "declared_at": _nullable(record.declared_at),
        "greedy_arm": _nullable(greedy),
        "success": int(success),
    }
    return table, summary


def _nullable(value) -> str:
    """A summary cell that may be absent: an integer's text, or empty."""
    return "" if value is None else str(int(value))


def _write_csv(path: Path, header, line_format: str, tables) -> None:
    """Write ``header``, then every row of ``tables`` as ``line_format % row``.

    ``tables`` yields sequences of equal-length NumPy columns.  Rows are
    formatted and joined ``_WRITE_BLOCK`` at a time, so only one block of cells
    is ever held as Python objects.  In each block, a numeric column with at most
    half as many distinct bit patterns as rows has each pattern formatted once
    with its column's spec, and the text is gathered back through the inverse
    index.  Equal bits always print as equal text, so the bytes equal those of
    formatting every cell; keying on values instead would merge ``-0.0`` into
    ``0.0``.
    """
    specs = line_format.rstrip("\n").split(",")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for columns in tables:
                for s in range(0, len(columns[0]), _WRITE_BLOCK):
                    formats, cells = [], []
                    for spec, column in zip(specs, columns):
                        block = column[s : s + _WRITE_BLOCK]
                        if block.dtype != object:
                            keys, inverse = np.unique(block.view(f"i{block.itemsize}"), return_inverse=True)
                            if 2 * keys.size <= block.size:
                                text = [spec % v for v in keys.view(block.dtype).tolist()]
                                block, spec = np.array(text, dtype=object)[inverse], "%s"
                        formats.append(spec)
                        cells.append(block.tolist())
                    fh.write("".join(map((",".join(formats) + "\n").__mod__, zip(*cells))))
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
        "config": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},  # shallow: no copy of features
        "seeds": seeds,
        "assumption_audit": assumption_audit(env, horizon=cfg.rounds(env)),
        "created_unix": time.time(),
    }

    if cfg.mode == "design-cert":
        anchor, fw_tol = cfg.design_params(env)
        policy, cert = deo(env.features, anchor=anchor, fw_tol=fw_tol)
        cert_row = (cert.max_anchor_norm, cert.max_centered_norm, cert.support_size, cert.dim)
        _write_csv(
            out / "certificate.csv",
            ("max_anchor_norm", "max_centered_norm", "support_size", "dim"),
            "%.17g,%.17g,%d,%d\n",
            [[np.array([v]) for v in cert_row]],
        )
        probs = policy.probabilities
        _write_csv(out / "policy.csv", ("arm_index", "probability"), "%d,%.17g\n", [(np.arange(probs.size), probs)])
        _write_manifest(out / "manifest.json", manifest)
        return {"certificate": cert, "policy": policy, "output": str(out)}

    cpus = os.cpu_count() or 1
    workers = min(cfg.workers or cpus, cpus, cfg.replications)
    reps = range(cfg.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_replication_task, [cfg] * len(reps), [env] * len(reps), reps))
    else:
        done = [_replication_task(cfg, env, rep) for rep in reps]
    tables, summaries = zip(*done)

    trajectory = (
        (tb.t, np.full(tb.t.shape[0], rep), tb.phase, tb.arm, tb.reward, tb.inst_regret, tb.cum_regret, tb.e_t,
         tb.sqrt_t_e_t, tb.active_size)
        for rep, tb in enumerate(tables)
    )
    _write_csv(out / "trajectory.csv", TRAJECTORY_COLUMNS, TRAJECTORY_LINE, trajectory)

    means = [np.mean([getattr(t, c) for t in tables], axis=0) for c in ("cum_regret", "e_t", "sqrt_t_e_t")]
    _write_csv(out / "trajectory_mean.csv", MEAN_COLUMNS, MEAN_LINE, [[tables[0].t, *means]])

    summary_columns = [np.array([s[c] for s in summaries], dtype=object) for c in SUMMARY_COLUMNS]
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, SUMMARY_LINE, [summary_columns])
    _write_manifest(out / "manifest.json", manifest)
    return {
        "output": str(out),
        "replications": cfg.replications,
        "successes": sum(s["success"] for s in summaries),
        "mean_final_regret": float(np.mean([s["final_regret"] for s in summaries])),
    }


def _write_manifest(path: Path, manifest: dict) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}")
